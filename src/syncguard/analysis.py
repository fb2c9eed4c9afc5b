"""Enforceability analysis and repair of non-enforceable properties.

A normalized safety automaton is enforceable iff every accepting location
has at least one outgoing transition to an accepting location.  Accepting
locations that fail this ("dead" locations: every event falls into the
trap) make instantaneous correction impossible once reached.  Some
properties become enforceable after iteratively merging dead locations
into the trap; others (those where the merging reaches the initial
location) cannot be repaired at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import SafetyAutomaton, normalize
from .bits import Word


@dataclass(frozen=True)
class EnforceabilityReport:
    enforceable: bool
    dead_locations: tuple[str, ...]

    def __str__(self) -> str:
        if self.enforceable:
            return "enforceable"
        return "not enforceable; dead locations: " + " ".join(self.dead_locations)


class NotEnforceableError(ValueError):
    """Construction of an enforcer was attempted for a dead property."""

    def __init__(self, message: str, report: Optional[EnforceabilityReport] = None):
        super().__init__(message)
        self.report = report


def check_enforceability(automaton: SafetyAutomaton) -> EnforceabilityReport:
    """Report the accepting locations whose every event falls into the trap:
    the rows of :attr:`~syncguard.automata.SafetyAutomaton.table` that name
    the trap only."""
    trap = automaton.index[automaton.violating]
    dead = tuple(
        q
        for q, row in zip(automaton.locations, automaton.table)
        if q != automaton.violating and row.count(trap) == len(row)
    )
    return EnforceabilityReport(enforceable=not dead, dead_locations=dead)


def non_enforceability_witness(automaton: SafetyAutomaton, dead_location: str) -> Word:
    """Shortest accepted word reaching the given dead location.

    Past this word no event can be released without violating: from the
    location reached, every event falls into the trap, so any extension
    defeats instantaneous enforcement.  For a dead initial location the
    witness is the empty word.
    """
    if dead_location == automaton.violating:
        raise ValueError("the violating trap is not a dead accepting location")
    table, events, index = automaton.table, automaton.alphabet.events, automaton.index
    trap, goal = index[automaton.violating], index.get(dead_location)
    start = index[automaton.initial]
    paths: dict[int, Word] = {start: ()}
    queue: deque[int] = deque((start,))
    while queue:
        location = queue.popleft()
        if location == goal:
            return paths[location]
        for event, target in zip(events, table[location]):
            if target == trap or target in paths:
                continue
            paths[target] = paths[location] + (event,)
            queue.append(target)
    raise ValueError(f"location {dead_location!r} is unreachable")


def transform_non_enforceable(automaton: SafetyAutomaton) -> Optional[SafetyAutomaton]:
    """Shrink the property until every remaining location is live.

    Repeats the enforceability check on the normalized automaton: while it
    names dead locations, every transition into one of them is redirected
    to the trap and the result renormalized, which prunes them.  Returns
    ``None`` when the initial location is dead (the property cannot be
    made enforceable); otherwise the enforceable automaton, whose language
    is contained in the original's.  Already-enforceable automata come
    back normalized and otherwise unchanged.
    """
    automaton = normalize(automaton)
    while True:
        dead = check_enforceability(automaton).dead_locations
        if not dead:
            return automaton
        if automaton.initial in dead:
            return None
        trap = automaton.index[automaton.violating]
        doomed = {automaton.index[q] for q in dead}
        table = tuple(
            tuple(trap if target in doomed else target for target in row)
            for row in automaton.table
        )
        automaton = normalize(
            SafetyAutomaton._trusted(
                automaton.alphabet,
                automaton.locations,
                automaton.initial,
                automaton.violating,
                table,
            )
        )
