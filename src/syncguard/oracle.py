"""Brute-force reference semantics and constraint checking.

Everything here is computed from the automaton alone: its initial
location and :meth:`SafetyAutomaton.step`.  Locations are carried along
words (a word's location is one ``step`` from its parent's), but never
taken from the runtime's tracked location, its edit sets or its tables, so
a state-tracking bug in the runtime cannot hide behind itself:

* :func:`oracle_enforce` rebuilds the released word step by step, deciding
  each edit from the one-event extensions of the released prefix.
* :func:`check_constraints` enumerates every observed word up to a length
  bound and checks the six defining enforcer constraints literally as
  quantified, reporting the first counterexample per constraint.
* :func:`validate_witness` confirms a claimed proof that no enforcer
  exists: an accepted word leading to a location from which every event
  violates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .automata import SafetyAutomaton, project_inputs
from .bits import BitVector, Event, Word, word_inputs
from .editing import NEAREST, canonical_policy, select
from .runtime import Enforcer
from .programs import ScriptedProgram

CONSTRAINTS = (
    "soundness",
    "monotonicity",
    "instantaneity",
    "transparency",
    "causality",
    "weak_transparency",
)


def oracle_step(
    automaton: SafetyAutomaton,
    released: Word,
    observed: Event,
    policy: str = NEAREST,
    seed: Optional[int] = None,
) -> Event:
    """Event released for one observed event after a given released prefix.

    The prefix is run through the automaton once; each candidate event is
    then one ``step`` from the location it reaches.  The input is kept iff
    some output extends the released prefix into an accepted word (by the
    projection lemma this is exactly the safe-input test the runtime
    performs on its tracked location); the output is kept iff the
    extension itself is accepted.  Repairs use the same selection policy as
    the runtime, applied to sets recomputed here from the automaton alone.
    """
    location = automaton.run(released)
    trap = automaton.violating
    safe: dict[BitVector, set[BitVector]] = {}
    for event in automaton.alphabet.events:
        if automaton.step(location, event) != trap:
            safe.setdefault(event.input, set()).add(event.output)
    if observed.input in safe:
        fixed_input = observed.input
    else:
        fixed_input = select(frozenset(safe), observed.input, policy, seed)
    safe_outputs = frozenset(safe.get(fixed_input, ()))
    if observed.output in safe_outputs:
        fixed_output = observed.output
    else:
        fixed_output = select(safe_outputs, observed.output, policy, seed)
    return automaton.alphabet.event(fixed_input, fixed_output)


def oracle_enforce(
    automaton: SafetyAutomaton,
    observed: Word,
    policy: str = NEAREST,
    seed: Optional[int] = None,
) -> Word:
    """Released word computed purely from words and membership."""
    policy = canonical_policy(policy)
    released: Word = ()
    for event in observed:
        released = released + (oracle_step(automaton, released, event, policy, seed),)
    return released


def validate_witness(automaton: SafetyAutomaton, witness: Word) -> bool:
    """True iff every event from the location the witness reaches violates.

    Such a witness proves no enforcer exists: after releasing it
    (transparency forces that), the next event can neither be kept nor
    repaired.  Raises if the witness itself is not accepted.
    """
    location = automaton.run(witness)
    if location == automaton.violating:
        raise ValueError("witness not accepted")
    trap = automaton.violating
    return all(
        automaton.delta[(location, e)] == trap for e in automaton.alphabet.events
    )


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
    budget: int = 10**6,
) -> ConstraintReport:
    """Check the six enforcer constraints over all words up to ``max_len``.

    For every observed word w (depth-first, events in declaration order):

    * soundness: the released word is accepted;
    * monotonicity: the released word extends every ancestor's;
    * instantaneity: released and observed lengths match;
    * transparency: if the parent's released word extended by the observed
      event is accepted, it is exactly what gets released;
    * causality: the released word extends the parent's by one event whose
      input may follow the parent's released inputs in the (possibly
      nondeterministic) input projection and whose output completes an
      accepted extension;
    * weak transparency: an observed word that is itself accepted is
      released unchanged.

    The walk carries, per word, the automaton location of the observed
    word, the location of the released word and the input-projection
    frontier of the released word's inputs, each one ``step`` from its
    parent's, so every constraint is a lookup.  A released word that does
    not extend its parent's by one event (only a custom ``enforce`` makes
    one) is run again from the initial location.  Nothing is read from the
    runtime but the released words.  Monotonicity is checked against the
    parent alone: the first word whose released word misses an ancestor's
    also misses its parent's, since the parent's extends every ancestor's.

    ``enforce`` overrides the enforcement function under test (defaults to
    the runtime enforcer with the given policy); counterexamples are
    observed words.  Raises ``ValueError`` for a negative ``max_len``, when
    the enumeration would exceed ``budget`` words, or when a released
    event is not in the alphabet.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    policy = canonical_policy(policy)
    alphabet = automaton.alphabet
    n_events = len(alphabet.events)
    total = sum(n_events**k for k in range(max_len + 1))
    if total > budget:
        raise ValueError(f"enumeration budget exceeded: {total} words > {budget}")

    input_automaton = project_inputs(automaton)
    runtime = Enforcer(automaton, policy, seed) if enforce is None else None
    step = automaton.step
    trap = automaton.violating

    results = {name: True for name in CONSTRAINTS}
    counterexamples: dict[str, Word] = {}
    words = 0

    def fail(name: str, observed: Word) -> None:
        if results[name]:
            results[name] = False
            counterexamples[name] = observed

    def release_child(observed: Word, parent_released: Word, snap) -> tuple[Word, object]:
        """Released word for observed, plus an opaque continuation token."""
        if enforce is not None:
            return enforce(observed), None
        runtime.restore(snap)
        event = observed[-1]
        record = runtime.tick(event.input, ScriptedProgram([event.output]))
        return parent_released + (record.released,), runtime.snapshot()

    def advance(frontier, inputs) -> frozenset[str]:
        """Input-projection locations reachable from ``frontier`` over ``inputs``."""
        for x in inputs:
            frontier = frozenset(d for s in frontier for d in input_automaton.successors(s, x))
        return frontier

    def visit(observed: Word, observed_at: str, released: Word, snap, parent) -> None:
        """``parent`` is the parent word's (released word, its location, its
        input frontier), or None at the root."""
        nonlocal words
        words += 1
        extends = (
            parent is not None
            and len(released) == len(parent[0]) + 1
            and released[:-1] == parent[0]
        )
        if extends:
            new = released[-1]
            released_at = step(parent[1], new)
            frontier = advance(parent[2], (new.input,))
        else:
            released_at = automaton.run(released)
            frontier = advance(frozenset({automaton.initial}), word_inputs(released))
        if released_at == trap:
            fail("soundness", observed)
        if len(released) != len(observed):
            fail("instantaneity", observed)
        if observed_at != trap and released != observed:
            fail("weak_transparency", observed)
        if parent is not None:
            parent_released, parent_at, _ = parent
            if released[: len(parent_released)] != parent_released:
                fail("monotonicity", observed)
            event = observed[-1]
            if step(parent_at, event) != trap and not (extends and released[-1] == event):
                fail("transparency", observed)
            # causality: the new event decomposes into a safe input choice
            # followed by a safe output choice
            if not extends or released_at == trap or all(s == trap for s in frontier):
                fail("causality", observed)
        if len(observed) < max_len:
            here = (released, released_at, frontier)
            for event in alphabet.events:
                child = observed + (event,)
                child_released, child_snap = release_child(child, released, snap)
                visit(child, step(observed_at, event), child_released, child_snap, here)

    root_released = enforce(()) if enforce is not None else ()
    root_snap = runtime.snapshot() if runtime is not None else None
    visit((), automaton.initial, root_released, root_snap, None)

    return ConstraintReport(results, counterexamples, words)
