"""Edit sets and repair choices.

For every accepting location the *safe inputs* are the input events from
which some output keeps the run out of the trap; given a location and an
already-fixed input, the *safe outputs* are the outputs that do so.
:func:`compute_edit_sets` computes both once per automaton.  When an
observed event is not in its set, ``Enforcer.tick`` replaces it with an
element of that set, picked by one of three policies:

``nearest``
    Minimal Hamming distance from the observed event; ties prefer
    agreement with the observed event on earlier-declared variables.
    Observed-dependent, computed per event.
``lexicographic``
    Numerically smallest element.  Observed-independent, precomputable.
``seeded-random``
    Reproducible pseudo-random pick keyed by (seed, candidate set), via
    SHA-256.  Observed-independent, precomputable.

:func:`select` is the one dispatcher from a policy to its choice, and it
refuses an empty set under every policy.
:func:`build_edit_tables` applies it once per automaton for the
observed-independent policies, one pick per distinct safe set, keyed by
that set; the word-level oracle applies it to the sets it recomputes
from membership.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Iterable, Optional

from .analysis import NotEnforceableError
from .automata import InputAutomaton, SafetyAutomaton, project_inputs
from .bits import BitVector

NEAREST = "nearest"
LEXICOGRAPHIC = "lexicographic"
SEEDED_RANDOM = "seeded-random"
POLICIES = (NEAREST, LEXICOGRAPHIC, SEEDED_RANDOM)

_POLICY_ALIASES = {
    "nearest": NEAREST,
    "lex": LEXICOGRAPHIC,
    "lexicographic": LEXICOGRAPHIC,
    "random": SEEDED_RANDOM,
    "seeded-random": SEEDED_RANDOM,
}


def canonical_policy(name: str) -> str:
    try:
        return _POLICY_ALIASES[name]
    except (KeyError, TypeError):  # TypeError: unhashable, so no policy name
        raise ValueError(f"unknown repair policy {name!r}; choose from {POLICIES}") from None


def check_seed(seed: Optional[int]) -> None:
    """Refuse a repair seed that is neither ``None`` nor an int, or is a
    bool, with ``ValueError``: the seeded-random pick hashes the seed's
    int value, and a float or a bool is no seed even when it equals one
    (``1.0``, ``True``).  Every public entry point that takes a seed
    checks it, under every policy: ``Enforcer``, ``enforce_word``,
    ``check_constraints``, ``build_edit_tables``, ``oracle_enforce`` and
    ``oracle_step``.  The picks they reach (:func:`select`,
    :func:`choose_seeded`) take the seed as checked."""
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ValueError(f"repair seed must be an int or None, got {seed!r}")


@dataclass(frozen=True)
class EditSets:
    """Safe-event sets per location (inputs) and per location+input (outputs)."""

    safe_inputs: dict[str, frozenset[BitVector]]
    safe_outputs: dict[tuple[str, BitVector], frozenset[BitVector]]


def compute_edit_sets(
    automaton: SafetyAutomaton, input_automaton: Optional[InputAutomaton] = None
) -> EditSets:
    """Safe-input and safe-output sets for every accepting location.

    ``safe_inputs[q]`` is empty exactly when q is a dead location; under an
    enforceable automaton every ``safe_outputs[(q, x)]`` with x safe is
    non-empty (that is what makes output repair always possible).  An
    input x is safe at q iff the input automaton's targets
    ``delta[(q, x)]`` are not the trap alone.  Safe outputs are read from
    each location's row of :attr:`~syncguard.automata.SafetyAutomaton.table`,
    sliced per input.  Equal slices (which outputs stay out of the trap)
    share one set, so each distinct pattern is hashed once and
    :func:`build_edit_tables` finds the shared sets by identity.
    """
    if input_automaton is None:
        input_automaton = project_inputs(automaton)
    alphabet = automaton.alphabet
    trap = automaton.index[automaton.violating]
    relation, only_trap = input_automaton.delta, frozenset((automaton.violating,))
    input_events, output_events = alphabet.input_events, alphabet.output_events
    width = len(output_events)
    shared: dict[tuple[bool, ...], frozenset[BitVector]] = {}
    safe_inputs: dict[str, frozenset[BitVector]] = {}
    safe_outputs: dict[tuple[str, BitVector], frozenset[BitVector]] = {}
    for q, row in zip(automaton.locations, automaton.table):
        if q == automaton.violating:
            continue
        safe_inputs[q] = frozenset(
            x for x in input_events if not relation[(q, x)] <= only_trap
        )
        safe = tuple(map(trap.__ne__, row))
        for k, x in enumerate(input_events):
            pattern = safe[k * width : (k + 1) * width]
            outputs = shared.get(pattern)
            if outputs is None:
                outputs = shared[pattern] = frozenset(compress(output_events, pattern))
            safe_outputs[(q, x)] = outputs
    return EditSets(safe_inputs, safe_outputs)


# -- selection --


def choose_nearest(candidates: Iterable[BitVector], observed: BitVector) -> BitVector:
    """Candidate at minimal Hamming distance from the observed vector.

    Ties prefer candidates agreeing with the observed vector on the
    earliest-declared variables (mismatch positions compared left to
    right).  The mismatch positions fix the candidate, so no further
    tie-break is needed.
    """

    def key(c: BitVector):
        mismatches = tuple(int(a != b) for a, b in zip(c.bits, observed.bits))
        return (sum(mismatches), mismatches)

    return min(candidates, key=key)


def choose_lexicographic(candidates: Iterable[BitVector]) -> BitVector:
    """Candidate with the least ``code``: over vectors of one width, as
    every safe set holds, that is the least bit string."""
    return min(candidates, key=attrgetter("code"))


def choose_seeded(candidates: Iterable[BitVector], seed: Optional[int]) -> BitVector:
    """Stable pseudo-random pick: a pure function of the seed and the set.

    ``None`` is seed 0.  The seed's int value is hashed, not its text, so
    an ``int`` subclass with its own ``__str__`` picks as the int it
    equals.  The seed is not checked here: the entry point that took it
    has checked it (see :func:`check_seed`).  The candidates are ranked
    by ``code``, which over vectors of one width, as every safe set
    holds, is the order of their bit strings.
    """
    ranked = sorted(candidates, key=attrgetter("code"))
    material = f"{int(seed or 0)}:" + ",".join(str(c) for c in ranked)
    digest = hashlib.sha256(material.encode("ascii")).digest()
    return ranked[int.from_bytes(digest[:8], "big") % len(ranked)]


def select(
    candidates: frozenset[BitVector],
    observed: Optional[BitVector],
    policy: str,
    seed: Optional[int] = None,
) -> BitVector:
    """The policy's pick from a non-empty set; only ``nearest`` reads ``observed``.

    ``policy`` may be an alias (``lex``, ``random``); a canonical name is
    used as is, so callers that resolved it pay no second lookup.  An
    empty set raises ``ValueError`` under every policy, and so does an
    unknown policy name.  The seed is taken as checked by the caller.
    """
    if not candidates:
        raise ValueError("no candidate to pick from: the safe set is empty")
    if policy not in POLICIES:
        policy = canonical_policy(policy)
    if policy == NEAREST:
        return choose_nearest(candidates, observed)
    if policy == LEXICOGRAPHIC:
        return choose_lexicographic(candidates)
    return choose_seeded(candidates, seed)


def build_edit_tables(
    sets: EditSets, policy: str, seed: Optional[int] = None
) -> dict[frozenset[BitVector], BitVector]:
    """The policy's pick from every safe set, keyed by the set.

    The keys are each accepting location's safe inputs and, for each safe
    input, its safe outputs; a pick is a function of the set alone, so
    locations with equal sets share one entry.  A location with no safe
    input is dead, and raises :class:`NotEnforceableError` before any
    pick.  Then each distinct set, in first-seen order, gets one
    :func:`select` call, which refuses an empty set with ``ValueError``.
    Sets from :func:`compute_edit_sets` have no empty safe-output set
    under a safe input: by the projection lemma, an input is safe exactly
    when some output is.  ``nearest`` depends on the observed event, so
    it has no table.  An unknown policy name or a seed
    :func:`check_seed` refuses raises ``ValueError`` first, under every
    policy.
    """
    policy = canonical_policy(policy)
    check_seed(seed)
    if policy == NEAREST:
        raise ValueError("the nearest policy is observed-dependent; no static table exists")
    distinct: dict[frozenset[BitVector], None] = {}  # first-seen order
    for q, candidates in sets.safe_inputs.items():
        if not candidates:
            raise NotEnforceableError(f"automaton not enforceable: location {q} is dead")
        distinct[candidates] = None
        for x in candidates:
            distinct[sets.safe_outputs[(q, x)]] = None
    return {candidates: select(candidates, None, policy, seed) for candidates in distinct}
