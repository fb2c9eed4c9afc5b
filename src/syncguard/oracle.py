"""Brute-force reference semantics and constraint checking.

Everything here recomputes from words and membership queries, never from
the runtime's tracked location, so a state-tracking bug in the runtime
cannot hide behind itself:

* :func:`oracle_enforce` rebuilds the released word step by step, deciding
  each edit from membership of candidate extensions of the released
  prefix.
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
from .bits import Event, Word, word_inputs
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

    The input is kept iff some output would extend the released prefix
    into an accepted word (by the projection lemma this is exactly the
    safe-input test the runtime performs on its tracked location); the
    output is kept iff the extension itself is accepted.  Repairs use the
    same selection policy as the runtime, applied to sets recomputed here
    from membership alone.
    """
    alphabet = automaton.alphabet
    safe_inputs = frozenset(
        x
        for x in alphabet.input_events
        if any(
            automaton.accepts(released + (alphabet.event(x, y),))
            for y in alphabet.output_events
        )
    )
    if observed.input in safe_inputs:
        fixed_input = observed.input
    else:
        fixed_input = select(safe_inputs, observed.input, policy, seed)
    safe_outputs = frozenset(
        y
        for y in alphabet.output_events
        if automaton.accepts(released + (alphabet.event(fixed_input, y),))
    )
    if observed.output in safe_outputs:
        fixed_output = observed.output
    else:
        fixed_output = select(safe_outputs, observed.output, policy, seed)
    return alphabet.event(fixed_input, fixed_output)


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

    ``enforce`` overrides the enforcement function under test (defaults to
    the runtime enforcer with the given policy); counterexamples are
    observed words.  Raises ``ValueError`` for a negative ``max_len`` or
    when the enumeration would exceed ``budget`` words.
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

    def visit(observed: Word, released: Word, snap, ancestors: list[Word]) -> None:
        nonlocal words
        words += 1
        if not automaton.accepts(released):
            fail("soundness", observed)
        if len(released) != len(observed):
            fail("instantaneity", observed)
        for ancestor in ancestors:
            if released[: len(ancestor)] != ancestor:
                fail("monotonicity", observed)
                break
        if automaton.accepts(observed) and released != observed:
            fail("weak_transparency", observed)
        if observed:
            parent_released = ancestors[-1]
            event = observed[-1]
            kept = parent_released + (event,)
            if automaton.accepts(kept) and released != kept:
                fail("transparency", observed)
            # causality: the new event decomposes into a safe input choice
            # followed by a safe output choice
            if len(released) == len(parent_released) + 1 and released[:-1] == parent_released:
                new = released[-1]
                input_word = word_inputs(parent_released) + (new.input,)
                if not input_automaton.accepts_inputs(input_word):
                    fail("causality", observed)
                elif not automaton.accepts(parent_released + (new,)):
                    fail("causality", observed)
            else:
                fail("causality", observed)
        if len(observed) < max_len:
            ancestors.append(released)
            for event in alphabet.events:
                child_released, child_snap = release_child(
                    observed + (event,), released, snap
                )
                visit(observed + (event,), child_released, child_snap, ancestors)
            ancestors.pop()

    root_released = enforce(()) if enforce is not None else ()
    root_snap = runtime.snapshot() if runtime is not None else None
    visit((), root_released, root_snap, [])

    return ConstraintReport(results, counterexamples, words)
