"""Bounded constraint checking of the runtime enforcer.

:func:`check_constraints` enumerates every observed word up to a length
bound, releases each through the runtime :class:`~syncguard.runtime.Enforcer`
and checks the six defining enforcer constraints, reporting the first
counterexample per constraint.  It checks a transducer, so it takes
shortcuts that hold for one (each argued in its docstring); the literal
reading of the constraints, for any word function, is
``tests/constraint_spec.py``, and the tests compare the two.  It reads the
automaton and the released words, so this module, not the word-level
oracle, is where the two meet.  Causality is checked on sibling words that
differ only in their last output; the input projection is not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .automata import SafetyAutomaton
from .bits import Event, Word
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
MAX_DEPTH = 1000  # longest observed word it walks: each word with children copies its prefix


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
) -> ConstraintReport:
    """Check the runtime enforcer's six constraints over all words up to ``max_len``.

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

    The walk is one loop over a stack of pending children.  A word that
    has children (one below ``max_len``) becomes a frame: its observed
    word, the location of its released word (a number), the released
    input per observed input of its children, and the runtime's snapshot.
    A pending child is its frame, its last event, that event's program
    and the child's observed location, one lookup in
    :attr:`~syncguard.automata.SafetyAutomaton.table` from its parent's.
    A frame's children are pushed in reverse event order, each released
    only when popped, so words are checked, and the runtime ticked, in the
    order above.  A child's observed word is built only when it becomes a
    frame or when it fails a constraint (it is the counterexample).

    The runtime releases every child by a ``restore`` of its parent's
    snapshot and one ``tick``, and is asked for a ``snapshot`` only of a
    word that becomes a frame; nothing else is read from it.  Its program
    is one :class:`ConstantProgram` per event, built once per call, which
    answers with the word's last observed output because the runtime
    calls the program exactly once per tick.  A transducer releases the
    empty word for the empty word, whose location, the initial one, is
    never the trap, so the empty word passes every check and is counted
    only.  Every other released word is the parent's plus the tick's
    event, so monotone and instantaneous by construction, and is never
    built: its location is one lookup from the parent's (the event's code
    is read through :meth:`~syncguard.bits.Alphabet.code`, which refuses
    an event not in the alphabet), and every constraint is a lookup or a
    comparison of last events.  Weak transparency compares the last
    events alone, with the verdict and first counterexample of the whole
    words' comparison: the first accepted word that is released changed
    has an accepted parent, checked before it and so released unchanged.
    Causality compares a child's released input with the one its frame
    recorded for the first sibling of the same observed input.

    Counterexamples are observed words.  Raises ``ValueError`` for a
    malformed seed (see :func:`~syncguard.editing.check_seed`), a
    ``max_len`` that is not an int (a bool is not one) or is negative,
    when the enumeration would exceed :data:`WORD_BUDGET` words (counted
    level by level, stopping once past it), for a ``max_len`` above
    :data:`MAX_DEPTH` (the walk's cost grows with the square of the
    depth), or when a released event is not in the alphabet.
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

    runtime = Enforcer(automaton, policy, seed)
    restore, tick, snapshot = runtime.restore, runtime.tick, runtime.snapshot
    children = [(e, ConstantProgram(alphabet, e.output)) for e in reversed(alphabet.events)]
    table, code = automaton.table, alphabet.code
    trap = automaton.index[automaton.violating]

    results = {name: True for name in CONSTRAINTS}
    counterexamples: dict[str, Word] = {}

    def fail(name: str, prefix: Word, event: Event) -> None:
        if results[name]:
            results[name] = False
            counterexamples[name] = prefix + (event,)

    # a frame is a word with children: (observed word, released location,
    # the released input per observed input of its children, snapshot); a
    # pending child is (frame, its last event, that event's program, its
    # observed location)
    pending = []
    if max_len:
        initial = automaton.index[automaton.initial]
        frame = ((), initial, {}, snapshot())
        row = table[initial]
        pending += [(frame, event, program, row[event.code]) for event, program in children]
    words = 1
    current = None
    while pending:
        frame, event, program, observed_at = pending.pop()
        words += 1
        if frame is not current:
            current = frame
            prefix, parent_at, fixed_inputs, parent_snap = frame
            parents = len(prefix) + 1 < max_len  # its children get children
        restore(parent_snap)
        last = tick(event.input, program).released
        released_at = table[parent_at][code(last)]
        if released_at == trap:
            fail("soundness", prefix, event)
        # the first accepted word released changed has a parent that is
        # accepted and was checked first, so released unchanged: its own
        # last event decides
        if observed_at != trap and last is not event:
            fail("weak_transparency", prefix, event)
        if table[parent_at][event.code] != trap and last is not event:
            fail("transparency", prefix, event)
        # causality: one safe event whose input was fixed before the
        # output was seen, so siblings differing only in it agree on it
        if (
            released_at == trap
            or fixed_inputs.setdefault(event.input, last.input) is not last.input
        ):
            fail("causality", prefix, event)
        if parents:
            here = (prefix + (event,), released_at, {}, snapshot())
            row = table[observed_at]
            pending += [(here, event, program, row[event.code]) for event, program in children]

    return ConstraintReport(results, counterexamples, words)
