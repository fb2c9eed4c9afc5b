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
    except KeyError:
        raise ValueError(f"unknown repair policy {name!r}; choose from {POLICIES}") from None


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
    return min(candidates, key=attrgetter("bits"))


def choose_seeded(candidates: Iterable[BitVector], seed: Optional[int]) -> BitVector:
    """Stable pseudo-random pick: a pure function of the seed and the set."""
    ranked = sorted(candidates, key=attrgetter("bits"))
    material = f"{0 if seed is None else seed}:" + ",".join(str(c) for c in ranked)
    digest = hashlib.sha256(material.encode("ascii")).digest()
    return ranked[int.from_bytes(digest[:8], "big") % len(ranked)]


def select(
    candidates: frozenset[BitVector],
    observed: Optional[BitVector],
    policy: str,
    seed: Optional[int] = None,
) -> BitVector:
    """The policy's pick from a non-empty set; only ``nearest`` reads ``observed``.

    An empty set raises ``ValueError`` under every policy.
    """
    if not candidates:
        raise ValueError("no candidate to pick from: the safe set is empty")
    if policy == NEAREST:
        return choose_nearest(candidates, observed)
    if policy == LEXICOGRAPHIC:
        return choose_lexicographic(candidates)
    if policy == SEEDED_RANDOM:
        return choose_seeded(candidates, seed)
    raise ValueError(f"unknown repair policy {policy!r}")


def build_edit_tables(
    sets: EditSets, policy: str, seed: Optional[int] = None
) -> dict[frozenset[BitVector], BitVector]:
    """The policy's pick from every safe set, keyed by the set.

    The keys are each accepting location's safe inputs and, for each safe
    input, its safe outputs; a pick is a function of the set alone, so
    locations with equal sets share one entry.  Every set is checked
    first: an empty one means the automaton violates the enforceability
    condition and raises :class:`NotEnforceableError`.  Then each distinct
    set, in first-seen order, gets one :func:`select` call.  ``nearest``
    depends on the observed event, so it has no table.
    """
    policy = canonical_policy(policy)
    if policy == NEAREST:
        raise ValueError("the nearest policy is observed-dependent; no static table exists")
    distinct: dict[frozenset[BitVector], None] = {}  # first-seen order
    for q, candidates in sets.safe_inputs.items():
        if not candidates:
            raise NotEnforceableError(f"automaton not enforceable: location {q} is dead")
        distinct[candidates] = None
        for x in candidates:
            outputs = sets.safe_outputs[(q, x)]
            if not outputs:
                raise NotEnforceableError(
                    f"automaton not enforceable: no safe output at ({q}, {x})"
                )
            distinct[outputs] = None
    return {candidates: select(candidates, None, policy, seed) for candidates in distinct}
