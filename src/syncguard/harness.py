"""Bounded constraint checking of an enforcement function.

:func:`check_constraints` enumerates every observed word up to a length
bound and checks the six defining enforcer constraints literally as
quantified, reporting the first counterexample per constraint.  It reads
the automaton and the released words; by default the released words come
from the runtime :class:`~syncguard.runtime.Enforcer`, so this module, not
the word-level oracle, is where the two meet.  Causality is checked on
sibling words that differ only in their last output; the input projection
is not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .automata import SafetyAutomaton
from .bits import Word
from .editing import NEAREST, canonical_policy, check_seed
from .programs import ConstantProgram
from .runtime import Enforcer
from .sim import _check_int

CONSTRAINTS = (
    "soundness",
    "monotonicity",
    "instantaneity",
    "transparency",
    "causality",
    "weak_transparency",
)
WORD_BUDGET = 10**6  # most observed words one check_constraints call enumerates
MAX_DEPTH = 1000  # longest observed word it walks: each word copies its prefix


@dataclass
class ConstraintReport:
    """Per-constraint verdicts with the first counterexample per failure."""

    results: dict[str, bool]
    counterexamples: dict[str, Word] = field(default_factory=dict)
    words_checked: int = 0

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def __str__(self) -> str:
        lines = [
            f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in self.results.items()
        ]
        lines.append(f"words checked: {self.words_checked}")
        return "\n".join(lines)


def check_constraints(
    automaton: SafetyAutomaton,
    policy: str = NEAREST,
    max_len: int = 4,
    seed: Optional[int] = None,
    enforce: Optional[Callable[[Word], Word]] = None,
) -> ConstraintReport:
    """Check the six enforcer constraints over all words up to ``max_len``.

    For every observed word w (depth-first, events in declaration order):

    * soundness: the released word is accepted;
    * monotonicity: the released word extends every ancestor's;
    * instantaneity: released and observed lengths match;
    * transparency: if the parent's released word extended by the observed
      event is accepted, it is exactly what gets released;
    * causality: the released word extends the parent's by one accepted
      event whose input is fixed by the released prefix and the observed
      input alone: sibling words that differ only in their last output
      get the same released input;
    * weak transparency: an observed word that is itself accepted is
      released unchanged.

    The walk is one loop over a stack of pending words.  A word's
    children are pushed in reverse event order, each released only when
    popped, so words are checked, and the enforcer called, in the order
    above.  Each word carries the locations of the observed and of the
    released word, as numbers, each one lookup in
    :attr:`~syncguard.automata.SafetyAutomaton.table` from its parent's
    (the released event's code is read through
    :meth:`~syncguard.bits.Alphabet.code`, which refuses an event not in
    the alphabet), so every constraint is a lookup; a parent also
    records, per observed input, the released input its first extending
    child got, against which the later siblings are compared.  A released
    word that does not extend its parent's by one event (only a custom
    ``enforce`` makes one) is walked again from the initial location.
    The runtime releases every child by a ``restore`` of its parent's
    snapshot and one ``tick``, and is asked for a ``snapshot`` only of a
    word that gets children (below ``max_len``); nothing else is read
    from it.  Its program is one :class:`ConstantProgram` per event,
    built once per call, which answers with the word's last observed
    output because the runtime calls the program exactly once per tick.
    Monotonicity is checked against the parent alone: the first word
    whose released word misses an ancestor's also misses its parent's,
    since the parent's extends every ancestor's.

    ``enforce`` overrides the enforcement function under test (defaults to
    the runtime enforcer with the given policy); counterexamples are
    observed words.  Raises ``ValueError`` for a malformed seed (see
    :func:`~syncguard.editing.check_seed`), a ``max_len`` that is not an
    int (a bool is not one) or is negative, when the enumeration would
    exceed :data:`WORD_BUDGET` words (counted level by level, stopping
    once past it), for a ``max_len`` above :data:`MAX_DEPTH` (the walk's
    cost grows with the square of the depth), or when a released event is
    not in the alphabet.
    """
    _check_int("max_len", max_len)
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    policy = canonical_policy(policy)
    check_seed(seed)
    alphabet = automaton.alphabet
    total = level = 1
    for _ in range(max_len):
        level *= len(alphabet.events)
        total += level
        if total > WORD_BUDGET:
            raise ValueError(f"enumeration budget exceeded: more than {WORD_BUDGET} words")
    if max_len > MAX_DEPTH:
        raise ValueError(f"max_len must be at most {MAX_DEPTH}, got {max_len}")

    if enforce is None:
        runtime = Enforcer(automaton, policy, seed)
        restore, tick, snapshot = runtime.restore, runtime.tick, runtime.snapshot
    children = [(e, ConstantProgram(alphabet, e.output)) for e in reversed(alphabet.events)]
    table, code = automaton.table, alphabet.code
    trap = automaton.index[automaton.violating]

    results = {name: True for name in CONSTRAINTS}
    counterexamples: dict[str, Word] = {}

    def fail(name: str, observed: Word) -> None:
        if results[name]:
            results[name] = False
            counterexamples[name] = observed

    # (observed word, its location, its last event's program, parent): a
    # parent is the parent word's (released word, its location, the released
    # input per observed input of its children, snapshot), None at the root
    pending = [((), automaton.index[automaton.initial], None, None)]
    words = 0
    while pending:
        observed, observed_at, program, parent = pending.pop()
        words += 1
        extends = False
        if parent is None:
            released = () if enforce is None else enforce(())
        else:
            parent_released, parent_at, fixed_inputs, parent_snap = parent
            if enforce is None:
                restore(parent_snap)
                released = parent_released + (tick(observed[-1].input, program).released,)
            else:
                released = enforce(observed)
            monotone = released[: len(parent_released)] == parent_released
            extends = monotone and len(released) == len(parent_released) + 1
        if extends:
            released_at = table[parent_at][code(released[-1])]
        else:
            released_at = automaton.walk(released)
        if released_at == trap:
            fail("soundness", observed)
        if len(released) != len(observed):
            fail("instantaneity", observed)
        if observed_at != trap and released != observed:
            fail("weak_transparency", observed)
        if parent is not None:
            if not monotone:
                fail("monotonicity", observed)
            event = observed[-1]
            if table[parent_at][event.code] != trap and not (extends and released[-1] == event):
                fail("transparency", observed)
            # causality: one safe event whose input was fixed before the
            # output was seen, so siblings differing only in it agree on it
            x = released[-1].input if extends else None
            if x is None or released_at == trap or fixed_inputs.setdefault(event.input, x) != x:
                fail("causality", observed)
        if len(observed) < max_len:
            here = (released, released_at, {}, snapshot() if enforce is None else None)
            row = table[observed_at]
            for event, program in children:
                pending.append((observed + (event,), row[event.code], program, here))

    return ConstraintReport(results, counterexamples, words)
