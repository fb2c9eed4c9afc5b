"""Brute-force reference semantics of enforcement.

Everything here is computed from the automaton alone: its alphabet, its
initial location and its transition table, read through
:meth:`SafetyAutomaton.walk` (the location a word reaches) and the table's
rows.  Nothing is taken from the runtime: not its tracked location, its
input projection, its edit sets or its repair tables, so a state-tracking
bug in the runtime cannot hide behind itself:

* :func:`oracle_enforce` rebuilds the released word step by step.  An
  observed event whose step from the released prefix's location avoids
  the trap is released as is, after that one lookup; otherwise the edit
  is decided from the one-event extensions of the released prefix.
* :func:`validate_witness` confirms a claimed proof that no enforcer
  exists: an accepted word leading to a location from which every event
  violates.
"""

from __future__ import annotations

from typing import Optional

from .automata import SafetyAutomaton
from .bits import BitVector, Event, Word
from .editing import NEAREST, canonical_policy, select


def oracle_step(
    automaton: SafetyAutomaton,
    released: Word,
    observed: Event,
    policy: str = NEAREST,
    seed: Optional[int] = None,
) -> Event:
    """Event released for one observed event after a given released prefix.

    The prefix is walked through the automaton once, and the observed
    event is one table lookup from the location it reaches.  If that
    avoids the trap, the observed event is released unchanged
    (transparency): its input has a safe output, the observed one, and its
    output is safe given that input.  Only when it reaches the trap is the
    location's whole row read: the input is kept iff some output extends
    the released prefix into an accepted word (by the projection lemma
    this is exactly the safe-input test the runtime performs on its
    tracked location); the output is kept iff the extension itself is
    accepted.  Repairs use the same selection policy as the runtime,
    applied to sets recomputed here from the automaton alone.  ``policy``
    may be an alias (``lex``, ``random``); an unknown name, or an event
    that is not in the alphabet, raises ``ValueError``.  So does any
    event after a prefix that reaches a dead location (one whose every
    event violates, which only a non-enforceable automaton has): no input
    is safe there, and :func:`~syncguard.editing.select` refuses an empty
    set under every policy.
    """
    policy = canonical_policy(policy)
    alphabet = automaton.alphabet
    trap = automaton.index[automaton.violating]
    row = automaton.table[automaton.walk(released)]
    code = alphabet.code(observed)
    if row[code] != trap:
        return alphabet.events[code]
    safe: dict[BitVector, set[BitVector]] = {}
    for event, target in zip(alphabet.events, row):
        if target != trap:
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
    trap = automaton.index[automaton.violating]
    location = automaton.walk(witness)
    if location == trap:
        raise ValueError("witness not accepted")
    return all(target == trap for target in automaton.table[location])
