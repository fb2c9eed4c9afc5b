"""Automaton families for exhaustive and randomized test corpora.

The exhaustive family is built from the canonical tables themselves (see
:func:`_canonical_tables`): each is formed once, in the order its class
first occurs among all transition maps, so no map is renamed and none is
dropped as a repeat.  The random family reads each seeded draw of target
indices through :func:`_candidate`, which renames the draw's locations to
its normalized form (see :func:`~syncguard.automata.normalize`).  Both
build an automaton only from a canonical table.
"""

from __future__ import annotations

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
    ``max_accepting`` accepting locations (plus the trap) over the alphabet,
    each once, ``n`` accepting locations before ``n + 1``.

    Within one ``n`` the members come in the order of their first
    occurrence among all total maps over ``n`` accepting locations and the
    trap, taken in :func:`itertools.product` order (target indices in
    ``range(n + 1)``, location by location, events in code order), which is
    the lexicographic order of their canonical tables (see
    :func:`_canonical_tables`).  A map that reaches fewer than ``n``
    locations normalizes to a table of a smaller ``n``, met earlier.  So
    the family is the first of each isomorphism class over all maps,
    without forming one: feasible at desk scale only, as the count grows
    about as fast as the (n+1)^(n*|events|) maps do.
    """
    size = len(alphabet.events)
    return [
        _canonical(alphabet, table)
        for n in range(1, max_accepting + 1)
        for table in _canonical_tables(size, n)
    ]


def _canonical_tables(size: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The canonical tables over ``n`` accepting locations, ``size`` events
    each, in lexicographic order: the tables that
    :func:`~syncguard.automata._renamed` leaves as they are.

    Renaming numbers locations in breadth-first discovery order, so a
    table is canonical iff, with ``k`` locations numbered when row ``q``
    is read (``k`` starts at 1), ``k > q``, each entry of the row is a
    known location ``0 … k-1``, the next number ``k`` (which numbers one
    more location; only while ``k < n``) or the trap ``n``; ``k > n - 1``
    at the last row means all ``n`` are numbered.  Rows are built once per
    ``k``, their entries tried in ascending order, and joined row by row,
    so the tables come out in lexicographic order.

    That order is the first-seen order of the maps: each canonical table
    is the least member of its class.  Let a map ``M`` of the class of
    ``C`` be less, first differing at row ``r``, event ``e``.  The two
    agree before it, so each number met so far names the same location in
    both (location 0 is the initial one in both, and equal entries of
    equal rows name the same successor); ``r`` is one of them.  The
    successor there is then neither the trap (``n`` in both) nor a known
    location (equal numbers), so it is new: ``C`` gives it ``k``, the
    least number not yet used, and ``M`` a number the prefix has not
    used, no less than ``k``.  So ``M`` is not less.
    """
    rows: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for k in range(1, n + 1):
        grown = [((), k)]  # (row so far, locations numbered after it)
        for _ in range(size):
            grown = [
                (row + (v,), j + (v == j < n))
                for row, j in grown
                for v in (*range(j + (j < n)), n)
            ]
        rows[k] = grown
    tables = [((), 1)]
    for q in range(n):
        tables = [(table + (row,), j) for table, k in tables if k > q for row, j in rows[k]]
    trap = ((n,) * size,)
    return [table + trap for table, _ in tables]


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
