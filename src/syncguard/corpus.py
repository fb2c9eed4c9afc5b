"""Automaton families for exhaustive and randomized test corpora.

Both build their candidates with :func:`_candidate`: the exhaustive family
from every sequence of target indices, the random family from a seeded draw.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .analysis import check_enforceability
from .automata import SafetyAutomaton, normalize
from .bits import Alphabet


def _candidate(alphabet: Alphabet, n: int, targets: Sequence[int]) -> SafetyAutomaton:
    """Normalized automaton over ``s0 … s{n-1}`` and the trap ``bad`` (index
    n), taking one target index in ``range(n + 1)`` per (location, event)
    in that order.  Such a table is valid by construction, so the
    candidate is built without validation."""
    size = len(alphabet.events)
    table = tuple(tuple(targets[i * size : (i + 1) * size]) for i in range(n)) + ((n,) * size,)
    locations = tuple(f"s{i}" for i in range(n)) + ("bad",)
    return normalize(SafetyAutomaton._trusted(alphabet, locations, "s0", "bad", table))


def all_normalized_automata(alphabet: Alphabet, max_accepting: int) -> list[SafetyAutomaton]:
    """Every structurally distinct normalized automaton with at most
    ``max_accepting`` accepting locations (plus the trap) over the alphabet.

    Enumerates all total transition maps, normalizes, and keeps the first
    of each isomorphism class, keyed by its table: :func:`normalize` numbers
    locations canonically, so equal tables mean equal automata.  Feasible
    at desk scale only; the count grows as (n+1)^(n*|events|).
    """
    size = len(alphabet.events)
    distinct: dict[tuple[tuple[int, ...], ...], SafetyAutomaton] = {}
    for n in range(1, max_accepting + 1):
        for targets in itertools.product(range(n + 1), repeat=n * size):
            canonical = _candidate(alphabet, n, targets)
            distinct.setdefault(canonical.table, canonical)
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
