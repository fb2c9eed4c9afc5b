"""The six enforcer constraints read literally, for any word function.

:func:`check_literally` is the definition ``check_constraints`` is tested
against.  It walks every observed word w up to length ``max_len``
depth-first, events in declaration order (the order ``check_constraints``
walks), computes E(w) from scratch, and checks each constraint as
quantified:

* soundness: E(w) is accepted;
* monotonicity: E(u) is a prefix of E(w) for every proper prefix u of w;
* instantaneity: E(w) is as long as w;
* transparency: for w = u·e, if E(u)·e is accepted then E(w) = E(u)·e;
* causality: for w = u·(x, y), E(w) = E(u)·(x′, y′) with E(w) accepted,
  and x′ is the released input of every earlier sibling u·(x, y₀): the
  released input is fixed before the observed output is seen;
* weak transparency: if w is accepted then E(w) = w.

It reports the first counterexample (an observed word) per failed
constraint and the number of words checked.  It reads the automaton
through ``accepts`` alone and imports nothing of the checker or the
runtime; only the report type is shared, so that the two reports' texts
can be compared.
"""

from __future__ import annotations

from typing import Callable

from syncguard import ConstraintReport, SafetyAutomaton
from syncguard.bits import Word

CONSTRAINTS = (
    "soundness",
    "monotonicity",
    "instantaneity",
    "transparency",
    "causality",
    "weak_transparency",
)


def check_literally(
    automaton: SafetyAutomaton, enforce: Callable[[Word], Word], max_len: int
) -> ConstraintReport:
    """Check the six constraints of ``enforce`` over all words up to ``max_len``."""
    accepts = automaton.accepts
    results = {name: True for name in CONSTRAINTS}
    counterexamples: dict[str, Word] = {}
    words = 0

    def check(name: str, holds: bool, observed: Word) -> None:
        if not holds and results[name]:
            results[name] = False
            counterexamples[name] = observed

    def visit(observed: Word, ancestors: list[Word], earlier: dict) -> None:
        # ancestors: E(u) for every proper prefix u of the observed word,
        # shortest first; earlier: observed input -> the released inputs of
        # the earlier siblings that have one
        nonlocal words
        words += 1
        released = enforce(observed)
        check("soundness", accepts(released), observed)
        check("monotonicity", all(released[: len(u)] == u for u in ancestors), observed)
        check("instantaneity", len(released) == len(observed), observed)
        if observed:
            parent, event = ancestors[-1], observed[-1]
            extended = parent + (event,)
            check("transparency", not accepts(extended) or released == extended, observed)
            step = released[len(parent):] if released[: len(parent)] == parent else ()
            fixed = earlier.setdefault(event.input, [])
            check(
                "causality",
                len(step) == 1
                and accepts(released)
                and all(x == step[0].input for x in fixed),
                observed,
            )
            if len(step) == 1:
                fixed.append(step[0].input)
        check("weak_transparency", not accepts(observed) or released == observed, observed)
        if len(observed) < max_len:
            siblings: dict = {}
            for event in automaton.alphabet.events:
                visit(observed + (event,), ancestors + [released], siblings)

    visit((), [], {})
    return ConstraintReport(results, counterexamples, words)
