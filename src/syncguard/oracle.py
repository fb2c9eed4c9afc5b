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
  is decided from the one-event extensions of the released prefix.  That
  decision is a function of the location, the observed event, the policy
  and the seed, so each automaton remembers it under that key, in a memo
  that only this module reads and the runtime never does.
* :func:`validate_witness` confirms a claimed proof that no enforcer
  exists: an accepted word leading to a location from which every event
  violates.
"""

from __future__ import annotations

from typing import Optional

from .automata import SafetyAutomaton
from .bits import BitVector, Event, Word
from .editing import NEAREST, POLICIES, SEEDED_RANDOM, canonical_policy, check_seed, select


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
    may be an alias (``lex``, ``random``); an unknown name, a seed
    :func:`~syncguard.editing.check_seed` refuses, or an event that is
    not in the alphabet raises ``ValueError``.  So does any
    event after a prefix that reaches a dead location (one whose every
    event violates, which only a non-enforceable automaton has): no input
    is safe there, and :func:`~syncguard.editing.select` refuses an empty
    set under every policy.

    Callers pass the same policy and seed for every step of a word, so
    each check costs one comparison when it passes: a canonical name is
    used as is, and ``None`` or an exact ``int`` seed is not checked
    further.  Anything else goes through the full check.

    A trap-bound step's repair is decided once per automaton and then
    remembered, keyed by (location number, observed event's code,
    canonical policy, seed), where the seed is ``None`` under every policy
    but ``seeded-random``, as the others ignore it; a copy of the
    automaton starts with none.
    A step that raises is not remembered, so it raises on every call.
    The runtime never reads these repairs, nor does the oracle read the
    runtime's sets or tables.
    """
    if policy not in POLICIES:
        policy = canonical_policy(policy)
    if seed is not None and seed.__class__ is not int:
        check_seed(seed)
    alphabet = automaton.alphabet
    trap = automaton.index[automaton.violating]
    location = automaton.walk(released)
    row = automaton.table[location]
    code = alphabet.code(observed)
    if row[code] != trap:
        return alphabet.events[code]
    repairs = automaton._oracle_repairs
    if repairs is None:
        repairs = {}
        # past the frozen __setattr__, as ``SafetyAutomaton.delta`` is set
        object.__setattr__(automaton, "_oracle_repairs", repairs)
    key = (location, code, policy, seed if policy == SEEDED_RANDOM else None)
    repair = repairs.get(key)
    if repair is None:
        # concurrent first calls compute the same event; the first stored wins
        repair = repairs.setdefault(key, _repair(alphabet, row, trap, observed, policy, seed))
    return repair


def _repair(alphabet, row, trap, observed, policy, seed) -> Event:
    """The event released for a trap-bound observed event, from the row
    of the released prefix's location (see :func:`oracle_step`)."""
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
    """Released word computed purely from words and membership.

    The policy and the seed are checked once, before the first step, so
    an empty word refuses them too.
    """
    policy = canonical_policy(policy)
    check_seed(seed)
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
