"""Automaton families for exhaustive and randomized test corpora.

Both build their candidates with :func:`_candidate`: the exhaustive family
from every sequence of target indices, the random family from a seeded draw.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from .analysis import check_enforceability
from .automata import SafetyAutomaton, normalize
from .bits import Alphabet


def _candidate(alphabet: Alphabet, n: int, targets: Iterable[int]) -> SafetyAutomaton:
    """Normalized automaton over ``s0 … s{n-1}`` and the trap ``bad`` (index
    n), taking one target index per (location, event) in that order."""
    locations = tuple(f"s{i}" for i in range(n)) + ("bad",)
    events = alphabet.events
    keys = [(src, event) for src in locations[:-1] for event in events]
    delta = dict(zip(keys, map(locations.__getitem__, targets)))
    delta.update((("bad", event), "bad") for event in events)
    return normalize(SafetyAutomaton(alphabet, locations, "s0", "bad", delta))


def all_normalized_automata(alphabet: Alphabet, max_accepting: int) -> list[SafetyAutomaton]:
    """Every structurally distinct normalized automaton with at most
    ``max_accepting`` accepting locations (plus the trap) over the alphabet.

    Enumerates all total transition maps, normalizes, and keeps the first
    of each isomorphism class, keyed by the ``delta`` values in the order
    :func:`normalize` inserts them.  Feasible at desk scale only; the
    count grows as (n+1)^(n*|events|).
    """
    size = len(alphabet.events)
    distinct: dict[tuple[str, ...], SafetyAutomaton] = {}
    for n in range(1, max_accepting + 1):
        for targets in itertools.product(range(n + 1), repeat=n * size):
            canonical = _candidate(alphabet, n, targets)
            distinct.setdefault(tuple(canonical.delta.values()), canonical)
    return list(distinct.values())


def random_enforceable_automata(
    alphabet: Alphabet, count: int, max_accepting: int, seed: int
) -> list[SafetyAutomaton]:
    """Seeded stream of normalized automata satisfying the enforceability
    condition, rejection-sampled from uniformly random transition maps."""
    rng = random.Random(seed)
    size = len(alphabet.events)
    found: list[SafetyAutomaton] = []
    while len(found) < count:
        n = rng.randint(1, max_accepting)
        candidate = _candidate(alphabet, n, [rng.randrange(n + 1) for _ in range(n * size)])
        if check_enforceability(candidate).enforceable:
            found.append(candidate)
    return found
