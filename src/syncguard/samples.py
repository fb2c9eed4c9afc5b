"""Built-in sample properties used in docs, tests, and benchmarks."""

from __future__ import annotations

from functools import lru_cache

from .automata import SafetyAutomaton, normalize, parse_automaton
from .bits import Alphabet


@lru_cache(maxsize=8)
def mutual_exclusion(output: str = "R") -> SafetyAutomaton:
    """Two inputs A, B and one output: A,B never together, nor B with the output.

    A bi-directional property: the first conjunct constrains the
    environment, the second ties the program's output to an input.
    """
    doc = f"""
    inputs: A B
    outputs: {output}
    states: ok bad
    initial: ok
    violating: bad
    ok -> bad : 11/-
    ok -> bad : -1/1
    ok -> ok : 00/-
    ok -> ok : 10/-
    ok -> ok : 01/0
    """
    return normalize(parse_automaton(doc))


@lru_cache(maxsize=1)
def at_most_one_tick() -> SafetyAutomaton:
    """Any first event is fine; every second event violates.

    Not enforceable, and not repairable: once the first event is released
    nothing can be done, and forbidding the first event empties the
    property.
    """
    doc = """
    inputs: A
    outputs: B
    states: fresh used dead
    initial: fresh
    violating: dead
    fresh -> used : -/-
    used -> dead : -/-
    """
    return normalize(parse_automaton(doc))


@lru_cache(maxsize=1)
def dead_end_branch() -> SafetyAutomaton:
    """Safe self-loops plus one branch into a location with no way out.

    Taking the (1,1) branch lands in a location from which every event
    violates, so the property is not enforceable as-is; removing the
    branch (see :func:`dead_end_branch_repaired`) fixes it.
    """
    doc = """
    inputs: A
    outputs: B
    states: main stuck dead
    initial: main
    violating: dead
    main -> stuck : 1/1
    main -> main : 0/-
    main -> main : 1/0
    stuck -> dead : -/-
    """
    return normalize(parse_automaton(doc))


@lru_cache(maxsize=1)
def dead_end_branch_repaired() -> SafetyAutomaton:
    """:func:`dead_end_branch` with the doomed branch redirected to the trap."""
    doc = """
    inputs: A
    outputs: B
    states: main dead
    initial: main
    violating: dead
    main -> dead : 1/1
    main -> main : 0/-
    main -> main : 1/0
    """
    return normalize(parse_automaton(doc))


def always_accepting(alphabet: Alphabet) -> SafetyAutomaton:
    """Property accepting everything: all events self-loop at the start."""
    delta = {("q0", e): "q0" for e in alphabet.events}
    delta.update({("qv", e): "qv" for e in alphabet.events})
    return SafetyAutomaton(
        alphabet=alphabet,
        locations=("q0", "qv"),
        initial="q0",
        violating="qv",
        delta=delta,
    )
