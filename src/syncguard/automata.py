"""Safety automata: parsing, normalization, input projection, membership.

A safety automaton is deterministic and complete, has a unique initial
location and a unique violating trap location, and accepts exactly the
prefix-closed words that never visit the trap.  User-supplied automata may
be nondeterministic, incomplete, or carry unreachable locations; they are
parsed into a :class:`RawAutomaton` and brought into shape by
:func:`normalize` (subset construction + completion + pruning + canonical
renaming).

Document format (line-oriented, UTF-8, ``#`` starts a comment)::

    inputs: A B
    outputs: R
    states: ok qv
    initial: ok
    violating: qv
    ok -> ok : 00/-
    ok -> qv : 11/-

Transition labels are ``input-pattern / output-pattern`` with one character
per declared variable, over ``0``, ``1`` and the wildcard ``-``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import or_
from typing import Sequence, Union

from .bits import Alphabet, BitVector, Event

VIOLATING_NAME = "qv"

_TRANSITION_RE = re.compile(r"^(\S+)\s*->\s*(\S+)\s*:\s*([01-]*)\s*/\s*([01-]*)$")
_AUTOMATON_KEYS = ("inputs", "outputs", "states", "initial", "violating")


class ParseError(ValueError):
    """Raised for malformed automaton or program documents."""


class EmptyPropertyError(ValueError):
    """The property rejects the empty word, so no prefix-closed run exists."""


@dataclass(frozen=True)
class RawAutomaton:
    """Parsed but not yet normalized automaton.

    ``transitions`` is a relation: it may be nondeterministic and
    incomplete, and states may be unreachable.  The violating state is
    already guaranteed to be a trap (parse-time check).
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    violating: str
    transitions: frozenset[tuple[str, Event, str]]

    @cached_property
    def _successors(self) -> dict[tuple[str, Event], frozenset[str]]:
        index: dict[tuple[str, Event], set[str]] = {}
        for src, event, dst in self.transitions:
            index.setdefault((src, event), set()).add(dst)
        return {key: frozenset(targets) for key, targets in index.items()}

    def successors(self, state: str, event: Event) -> frozenset[str]:
        return self._successors.get((state, event), frozenset())

    def accepts(self, word: Sequence[Event]) -> bool:
        """Relation semantics: some run over the word ends non-violating."""
        frontier = {self.initial}
        for event in word:
            frontier = {d for s in frontier for d in self.successors(s, event)}
            if not frontier:
                return False
        return any(s != self.violating for s in frontier)


@dataclass(frozen=True)
class SafetyAutomaton:
    """Deterministic, complete safety automaton with a unique violating trap.

    Instances produced by :func:`normalize` carry canonical location names
    ``q0, q1, ...`` in breadth-first discovery order, with the violating
    trap named last; two normalized automata are isomorphic iff equal.
    """

    alphabet: Alphabet
    locations: tuple[str, ...]
    initial: str
    violating: str
    delta: dict[tuple[str, Event], str]

    def __post_init__(self):
        locs = set(self.locations)
        if len(locs) != len(self.locations):
            raise ValueError("duplicate location names")
        if self.initial not in locs or self.violating not in locs:
            raise ValueError("initial and violating locations must be declared")
        if self.initial == self.violating:
            raise EmptyPropertyError("empty property: the initial location is violating")
        events = set(self.alphabet.events)
        if len(self.delta) != len(self.locations) * len(events):
            raise ValueError("transition map must be total and deterministic")
        for (src, event), dst in self.delta.items():
            if src not in locs or dst not in locs:
                raise ValueError(f"transition {src}->{dst} uses undeclared location")
            if event not in events:
                raise ValueError(f"transition label {event} is not in the alphabet")
            if src == self.violating and dst != self.violating:
                raise ValueError("violating location must be a trap")

    @property
    def accepting_locations(self) -> tuple[str, ...]:
        return tuple(q for q in self.locations if q != self.violating)

    @property
    def rows(self) -> dict[str, tuple[str, ...]]:
        """Every location's row of targets, the trap's included.

        ``rows[q][i] == step(q, alphabet.events[i])``: a row is in the
        event-index order :class:`~syncguard.bits.Alphabet` states, so the
        targets of input code x are the contiguous slice
        ``rows[q][x * 2**|O| : (x + 1) * 2**|O|]``, in output order.
        Gathered from ``delta`` the first time it is read, so every
        enforcer of this automaton and its rendering share one gather.
        The word-level oracle does not read it.
        """
        try:
            return self._rows
        except AttributeError:
            pass
        delta, events = self.delta, self.alphabet.events
        rows = {q: tuple(map(delta.__getitem__, zip(repeat(q), events))) for q in self.locations}
        # Not functools.cached_property: writing through the instance
        # __dict__ turns off CPython's fast attribute reads for this
        # automaton (2-3x slower on 3.11), which the oracle and the tick
        # make on every step.
        object.__setattr__(self, "_rows", rows)
        return rows

    def step(self, location: str, event: Event) -> str:
        try:
            return self.delta[(location, event)]
        except KeyError:
            if location not in self.locations:
                raise ValueError(f"unknown location {location!r}") from None
            raise ValueError(f"event width mismatch: {event} not in the alphabet") from None

    def run(self, word: Sequence[Event]) -> str:
        """Location reached from the initial location over the word."""
        location = self.initial
        for event in word:
            location = self.step(location, event)
        return location

    def accepts(self, word: Sequence[Event]) -> bool:
        return self.run(word) != self.violating


@dataclass(frozen=True)
class InputAutomaton:
    """Safety automaton with outputs erased from transition labels.

    Shares its location set with the source automaton.  The transition
    relation may be nondeterministic: ``delta[(q, x)]`` is the set of
    locations some output can reach.
    """

    alphabet: Alphabet
    locations: tuple[str, ...]
    initial: str
    violating: str
    delta: dict[tuple[str, BitVector], frozenset[str]]

    def successors(self, location: str, inputs: BitVector) -> frozenset[str]:
        try:
            return self.delta[(location, inputs)]
        except KeyError:
            if location not in self.locations:
                raise ValueError(f"unknown location {location!r}") from None
            raise ValueError(f"input width mismatch: {inputs}") from None


def parse_automaton(text: str) -> RawAutomaton:
    """Parse an automaton document; see the module docstring for the format.

    Nondeterminism and incompleteness are allowed here (``normalize``
    resolves them), but the violating state must already be a trap.
    """
    headers, alphabet, states, initial, lines = _parse_document(text, _AUTOMATON_KEYS)
    violating = _single_state(headers, "violating", states)

    transitions: set[tuple[str, Event, str]] = set()
    for lineno, src, dst, in_pat, out_pat in lines:
        try:
            events = alphabet.expand_event_pattern(f"{in_pat}/{out_pat}")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if src == violating and dst != violating:
            raise ParseError(f"line {lineno}: violating state must be a trap")
        for event in events:
            transitions.add((src, event, dst))

    return RawAutomaton(alphabet, states, initial, violating, frozenset(transitions))


def _parse_document(
    text: str, keys: tuple[str, ...]
) -> tuple[dict[str, str], Alphabet, tuple[str, ...], str, list[tuple[int, str, str, str, str]]]:
    """The grammar automaton and program documents share.

    ``keys`` are the document kind's declarations, all required; every
    other non-blank line must be a transition ``src -> dst : inpat /
    outpat`` between declared states.  Returns the declarations, the
    interface, the states, the initial state and the transitions as
    ``(lineno, src, dst, inpat, outpat)``; the caller reads the patterns.
    """
    headers: dict[str, str] = {}
    transition_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if sep and key in keys:
            if key in headers:
                raise ParseError(f"line {lineno}: duplicate '{key}:' declaration")
            headers[key] = rest.strip()
        else:
            transition_lines.append((lineno, line))
    for key in keys:
        if key not in headers:
            raise ParseError(f"missing '{key}:' declaration")

    try:
        alphabet = Alphabet(tuple(headers["inputs"].split()), tuple(headers["outputs"].split()))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    states = tuple(headers["states"].split())
    if not states:
        raise ParseError("'states:' declares no states")
    if len(set(states)) != len(states):
        dup = next(s for s in states if states.count(s) > 1)
        raise ParseError(f"duplicate state name {dup!r}")
    initial = _single_state(headers, "initial", states)

    transitions = []
    for lineno, line in transition_lines:
        match = _TRANSITION_RE.match(line)
        if match is None:
            raise ParseError(f"line {lineno}: cannot parse transition {line!r}")
        src, dst, in_pat, out_pat = match.groups()
        for name in (src, dst):
            if name not in states:
                raise ParseError(f"line {lineno}: unknown state {name!r}")
        transitions.append((lineno, src, dst, in_pat, out_pat))
    return headers, alphabet, states, initial, transitions


def _single_state(headers: dict[str, str], key: str, states: tuple[str, ...]) -> str:
    tokens = headers[key].split()
    if len(tokens) != 1:
        raise ParseError(f"'{key}:' must declare exactly one state")
    if tokens[0] not in states:
        raise ParseError(f"'{key}:' names undeclared state {tokens[0]!r}")
    return tokens[0]


def normalize(automaton: Union[RawAutomaton, SafetyAutomaton]) -> SafetyAutomaton:
    """Determinize, complete, prune, and canonically rename an automaton.

    Subset construction: a macro-state is accepting iff it contains at least
    one non-violating location; every non-accepting macro-state is collapsed
    into the single trap, and missing transitions are directed there.
    Locations unreachable from the initial one disappear (the trap is always
    retained as the completion target).  Accepting locations are named
    ``q0, q1, ...`` in breadth-first discovery order, visiting events in
    ``alphabet.events`` order; the trap is named last.  ``delta`` is inserted
    location by location in name order (the trap last), events in
    ``alphabet.events`` order, so two normalized automata are equal iff their
    ``delta`` values, in insertion order, are.  Raises
    :class:`EmptyPropertyError` if the initial state is violating (the
    property would reject the empty word).

    A set of raw states is an int bitmask (bit i for ``states[i]``, the
    violating state included, so {s} and {s, violating} are distinct
    macro-states), and each raw state's successors are a row of masks,
    one per event index; a macro-state's row is the OR of its members'.
    """
    if isinstance(automaton, SafetyAutomaton):
        states = automaton.locations
        transitions = ((src, event, dst) for (src, event), dst in automaton.delta.items())
    else:
        states, transitions = automaton.states, automaton.transitions
    if automaton.initial == automaton.violating:
        raise EmptyPropertyError("empty property: the initial state is violating")

    alphabet = automaton.alphabet
    events = alphabet.events
    index = {event: i for i, event in enumerate(events)}
    bit = {s: 1 << i for i, s in enumerate(states)}
    rows = {s: [0] * len(events) for s in states}
    try:
        for src, event, dst in transitions:
            rows[src][index[event]] |= bit[dst]
    except KeyError:
        raise ValueError(
            f"transition {src} -> {dst} : {event} uses an undeclared state "
            "or a label outside the alphabet"
        ) from None
    violating = bit[automaton.violating]

    # Every mask without a non-violating member names the trap.
    start = bit[automaton.initial]
    names: dict[int, str] = {0: VIOLATING_NAME, violating: VIOLATING_NAME, start: "q0"}
    count = 1
    queue: deque[int] = deque((start,))
    moves: dict[tuple[str, Event], str] = {}

    while queue:
        macro = queue.popleft()
        members = [rows[s] for s in states if macro & bit[s]]
        row = members[0]
        for other in members[1:]:
            row = list(map(or_, row, other))
        for target in dict.fromkeys(row):  # first occurrences, in event order
            if target not in names:
                names[target] = f"q{count}"
                count += 1
                queue.append(target)
        moves.update(zip(zip(repeat(names[macro]), events), map(names.__getitem__, row)))

    locations = tuple(f"q{i}" for i in range(count)) + (VIOLATING_NAME,)
    for event in events:
        moves[(VIOLATING_NAME, event)] = VIOLATING_NAME
    return SafetyAutomaton(alphabet, locations, "q0", VIOLATING_NAME, moves)


def project_inputs(automaton: SafetyAutomaton) -> InputAutomaton:
    """Erase outputs from transition labels, keeping the location set.

    Slices each location's row of :attr:`SafetyAutomaton.rows` per input:
    an input's successors are the targets of its contiguous slice.
    """
    alphabet = automaton.alphabet
    width = len(alphabet.output_events)
    relation: dict[tuple[str, BitVector], frozenset[str]] = {}
    for q, row in automaton.rows.items():
        for k, x in enumerate(alphabet.input_events):
            relation[(q, x)] = frozenset(row[k * width : (k + 1) * width])
    return InputAutomaton(
        alphabet=alphabet,
        locations=automaton.locations,
        initial=automaton.initial,
        violating=automaton.violating,
        delta=relation,
    )


def isomorphic(a: SafetyAutomaton, b: SafetyAutomaton) -> bool:
    """Structural equality up to location renaming (alphabets must match)."""
    if a.alphabet != b.alphabet:
        return False
    return normalize(a) == normalize(b)


def render_automaton(automaton: SafetyAutomaton) -> str:
    """Serialize in the document format; ``parse`` + ``normalize`` round-trips.

    Transitions are grouped per (source, target) pair and compressed with
    wildcards where a full input or output cube is covered.  The trap's
    self-loops are implied and omitted.  Each source's row of targets is
    read from :attr:`SafetyAutomaton.rows` and sliced per input as in
    :func:`project_inputs`.
    """
    alphabet = automaton.alphabet
    lines = [
        "inputs: " + " ".join(alphabet.inputs),
        "outputs: " + " ".join(alphabet.outputs),
        "states: " + " ".join(automaton.locations),
        f"initial: {automaton.initial}",
        f"violating: {automaton.violating}",
    ]
    all_outputs = alphabet.output_events
    width = len(all_outputs)
    full_output_pattern = "-" * len(alphabet.outputs)
    full_input_pattern = "-" * len(alphabet.inputs)

    for src in automaton.locations:
        if src == automaton.violating:
            continue
        row = automaton.rows[src]
        for dst in automaton.locations:
            count = row.count(dst)
            if not count:
                continue
            if count == len(row):
                lines.append(f"{src} -> {dst} : {full_input_pattern}/{full_output_pattern}")
                continue
            for k, x in enumerate(alphabet.input_events):
                targets = row[k * width : (k + 1) * width]
                outputs = [y for y, t in zip(all_outputs, targets) if t == dst]
                if not outputs:
                    continue
                if len(outputs) == width:
                    lines.append(f"{src} -> {dst} : {x}/{full_output_pattern}")
                else:
                    for y in outputs:
                        lines.append(f"{src} -> {dst} : {x}/{y}")
    return "\n".join(lines) + "\n"


def render_input_automaton(automaton: InputAutomaton) -> str:
    """Report form of an input automaton, one line per transition triple."""
    lines = [
        "inputs: " + " ".join(automaton.alphabet.inputs),
        "outputs: " + " ".join(automaton.alphabet.outputs) + "  # erased from labels",
        "states: " + " ".join(automaton.locations),
        f"initial: {automaton.initial}",
        f"violating: {automaton.violating}",
    ]
    for src in automaton.locations:
        for x in automaton.alphabet.input_events:
            for dst in automaton.locations:
                if dst in automaton.delta[(src, x)]:
                    lines.append(f"{src} -> {dst} : {x}")
    return "\n".join(lines) + "\n"
