"""Automaton families for exhaustive and randomized test corpora.

Both read their candidates through :func:`_candidate`: the exhaustive
family from every sequence of target indices, the random family from a
seeded draw.  A candidate is deterministic and complete, so its
normalized form is a renaming of its locations (see
:func:`~syncguard.automata.normalize`), computed straight from the target
indices; no automaton is built for a candidate whose canonical table is
already in the family.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .analysis import check_enforceability
from .automata import SafetyAutomaton, _canonical, _renamed
from .bits import Alphabet


def _candidate(size: int, n: int, targets: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical table of the automaton over ``n`` accepting locations and
    the trap (index n) that takes one target index in ``range(n + 1)`` per
    (location, event), location by location, ``size`` events each, with
    location 0 initial: the table :func:`~syncguard.automata.normalize`
    gives that automaton."""
    return _renamed([targets[i * size : (i + 1) * size] for i in range(n)], 0, n)


def all_normalized_automata(alphabet: Alphabet, max_accepting: int) -> list[SafetyAutomaton]:
    """Every structurally distinct normalized automaton with at most
    ``max_accepting`` accepting locations (plus the trap) over the alphabet.

    Enumerates all total transition maps and keeps the first of each
    isomorphism class, keyed by its canonical table (see
    :func:`_candidate`): normalization numbers locations canonically, so
    equal tables mean equal automata.  Only the distinct tables become
    automata.  Feasible at desk scale only; the count grows as
    (n+1)^(n*|events|).
    """
    size = len(alphabet.events)
    tables = dict.fromkeys(
        _candidate(size, n, targets)
        for n in range(1, max_accepting + 1)
        for targets in itertools.product(range(n + 1), repeat=n * size)
    )
    return [_canonical(alphabet, table) for table in tables]


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
        targets = [rng.randrange(n + 1) for _ in range(n * size)]
        candidate = _canonical(alphabet, _candidate(size, n, targets))
        if check_enforceability(candidate).enforceable:
            found.append(candidate)
    return found
