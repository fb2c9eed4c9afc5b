"""Safety automata: parsing, normalization, input projection, membership.

A safety automaton is deterministic and complete, has a unique initial
location and a unique violating trap location, and accepts exactly the
prefix-closed words that never visit the trap.  User-supplied automata may
be nondeterministic, incomplete, or carry unreachable locations; they are
parsed into a :class:`RawAutomaton` and brought into shape by
:func:`normalize` (subset construction + completion + pruning + canonical
renaming).  A :class:`SafetyAutomaton` is already deterministic and
complete, so :func:`normalize` only prunes and renames it.

Document format (UTF-8, one declaration or transition per line, a line
ended by a newline only, ``#`` starts a comment)::

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
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product
from operator import or_
from types import MappingProxyType
from typing import Iterable, Optional, Sequence, Union

from .bits import WILDCARD, Alphabet, BitVector, Event, _codes

VIOLATING_NAME = "qv"

_TRANSITION_RE = re.compile(r"^(\S+)\s*->\s*(\S+)\s*:\s*([01-]*)\s*/\s*([01-]*)$")
_AUTOMATON_KEYS = ("inputs", "outputs", "states", "initial", "violating")


class ParseError(ValueError):
    """Raised for malformed automaton or program documents."""


class EmptyPropertyError(ValueError):
    """The property rejects the empty word, so no prefix-closed run exists."""


@dataclass(frozen=True, init=False)
class RawAutomaton:
    """Parsed but not yet normalized automaton.

    The relation may be nondeterministic and incomplete, and states may be
    unreachable, but the violating state is a trap: every transition from
    it returns to it.  The relation is held as rows of successor masks,
    one row per state in ``states`` order, indexed by event code in the
    layout of :attr:`~syncguard.bits.Alphabet.events`: bit i of
    ``rows[s][e]`` is set iff ``states[i]`` is a successor of
    ``states[s]`` by event code e.  :func:`parse_automaton` writes the
    rows directly, and :func:`normalize` and :meth:`accepts` read them.

    The constructor takes the relation as ``(src, event, dst)`` triples and
    checks it before the rows are built: duplicate states, an undeclared
    initial or violating state, a triple over an undeclared state or an
    event outside the alphabet, and a violating state that is not a trap
    raise ``ValueError``.  Equality, hashing, repr and pickling read the
    five fields, so a parsed automaton equals the one built from its
    triples.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    violating: str
    rows: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        alphabet: Alphabet,
        states: Sequence[str],
        initial: str,
        violating: str,
        transitions: Iterable[tuple[str, Event, str]],
    ):
        states = tuple(states)
        position = {s: i for i, s in enumerate(states)}
        if len(position) != len(states):
            raise ValueError("duplicate state names")
        if initial not in position or violating not in position:
            raise ValueError("initial and violating states must be declared")
        rows = [[0] * len(alphabet.events) for _ in states]
        for src, event, dst in transitions:
            try:
                rows[position[src]][alphabet.code(event)] |= 1 << position[dst]
            except (KeyError, ValueError):
                raise ValueError(
                    f"transition {src} -> {dst} : {event} uses an undeclared state "
                    "or a label outside the alphabet"
                ) from None
            if src == violating and dst != violating:
                raise ValueError("violating state must be a trap")
        self._fill(alphabet, states, initial, violating, tuple(map(tuple, rows)))

    @classmethod
    def _trusted(cls, alphabet, states, initial, violating, rows) -> "RawAutomaton":
        """Construct without validation, from rows :func:`parse_automaton` checked."""
        raw = cls.__new__(cls)
        raw._fill(alphabet, states, initial, violating, rows)
        return raw

    def _fill(self, alphabet, states, initial, violating, rows) -> None:
        fill = object.__setattr__
        fill(self, "alphabet", alphabet)
        fill(self, "states", states)
        fill(self, "initial", initial)
        fill(self, "violating", violating)
        fill(self, "rows", rows)

    def accepts(self, word: Sequence[Event]) -> bool:
        """Relation semantics: some run over the word ends non-violating."""
        rows, code = self.rows, self.alphabet.code
        frontier = 1 << self.states.index(self.initial)
        for event in word:
            try:
                e = code(event)
            except ValueError:
                return False
            step = 0
            for row in _members(frontier, rows):
                step |= row[e]
            frontier = step
            if not frontier:
                return False
        return frontier & ~(1 << self.states.index(self.violating)) != 0


def _members(mask: int, items: Sequence) -> list:
    """The items at the set bits of ``mask``, in order (bit i for ``items[i]``)."""
    return [item for i, item in enumerate(items) if mask >> i & 1]


@dataclass(frozen=True, init=False)
class SafetyAutomaton:
    """Deterministic, complete safety automaton with a unique violating trap.

    Locations are numbered by their position in ``locations`` (``index``
    maps a name to its number) and events by their code, so the
    transition function is one table: ``table[index[q]][e.code]`` is the
    number of ``step(q, e)``.  Every location has a row, the trap's
    included, in the event order :class:`~syncguard.bits.Alphabet` states,
    so the targets of input code x are the contiguous slice
    ``table[i][x * 2**|O| : (x + 1) * 2**|O|]``, in output order.
    ``delta`` is the same function keyed by ``(location, event)``: a
    read-only view of the table, made on each read and keeping nothing,
    that lists location by location in ``locations`` order and events in
    ``alphabet.events`` order.

    The constructor takes a ``delta`` mapping and validates it in full.
    Instances produced by :func:`normalize` skip that check, as their
    tables are total and trap-closed by construction; they carry
    canonical location names ``q0, q1, ...`` in breadth-first discovery
    order, with the violating trap named last, and two normalized
    automata are isomorphic iff equal.
    """

    alphabet: Alphabet
    locations: tuple[str, ...]
    initial: str
    violating: str
    table: tuple[tuple[int, ...], ...]
    index: Mapping[str, int] = field(compare=False, repr=False)

    def __init__(
        self,
        alphabet: Alphabet,
        locations: Sequence[str],
        initial: str,
        violating: str,
        delta: Mapping[tuple[str, Event], str],
    ):
        locations = tuple(locations)
        table, index = _validated_table(alphabet, locations, initial, violating, delta)
        self._fill(alphabet, locations, initial, violating, table, index)

    @classmethod
    def _trusted(
        cls,
        alphabet: Alphabet,
        locations: tuple[str, ...],
        initial: str,
        violating: str,
        table: tuple[tuple[int, ...], ...],
        index: Optional[Mapping[str, int]] = None,
    ) -> "SafetyAutomaton":
        """Construct without validation, from a table whose every row has
        one in-range target per event and whose trap row is all trap."""
        if index is None:
            index = MappingProxyType({q: i for i, q in enumerate(locations)})
        automaton = cls.__new__(cls)
        automaton._fill(alphabet, locations, initial, violating, table, index)
        return automaton

    def _fill(self, alphabet, locations, initial, violating, table, index) -> None:
        fill = object.__setattr__
        fill(self, "alphabet", alphabet)
        fill(self, "locations", locations)
        fill(self, "initial", initial)
        fill(self, "violating", violating)
        fill(self, "table", table)
        fill(self, "index", index)
        # later a weak reference to the safe sets of this automaton's live
        # enforcers (see syncguard.runtime) and the word-level oracle's
        # repairs of trap-bound steps, keyed by (location number, observed
        # code, policy, seed), which only syncguard.oracle reads (the
        # runtime never does).  Both are filled here so every instance
        # fills its attributes in one order, and later set past the frozen
        # __setattr__: a write through the instance __dict__ turns off
        # CPython's fast attribute reads for the automaton (2-3x slower on
        # 3.11), which the tick makes on every step.  They are not fields,
        # so equality, hashing, repr, copies and pickling ignore them.
        fill(self, "_edit_sets", None)
        fill(self, "_oracle_repairs", None)

    def __reduce__(self):
        # the read-only mappings do not pickle; the table rebuilds them
        return (
            SafetyAutomaton._trusted,
            (self.alphabet, self.locations, self.initial, self.violating, self.table),
        )

    @property
    def accepting_locations(self) -> tuple[str, ...]:
        return tuple(q for q in self.locations if q != self.violating)

    @property
    def delta(self) -> Mapping[tuple[str, Event], str]:
        return _Delta(self)

    def step(self, location: str, event: Event) -> str:
        """Successor of a location by an event :meth:`Alphabet.code` finds, or ``ValueError``."""
        try:
            row = self.table[self.index[location]]
        except KeyError:
            raise ValueError(f"unknown location {location!r}") from None
        return self.locations[row[self.alphabet.code(event)]]

    def walk(self, word: Sequence[Event]) -> int:
        """Number of the location reached from the initial location over the
        word; ``ValueError`` for an event not in the alphabet.

        An event is in the alphabet iff it is the instance at its code, as
        :meth:`~syncguard.bits.Alphabet.code` checks.  The check is made
        here inline, as the oracle walks every released word; anything
        else takes the step through that method, which raises its error.
        """
        table, events = self.table, self.alphabet.events
        q = self.index[self.initial]
        for event in word:
            try:
                if events[event.code] is event:
                    q = table[q][event.code]
                    continue
            except (AttributeError, IndexError, TypeError):
                pass
            q = table[q][self.alphabet.code(event)]
        return q

    def run(self, word: Sequence[Event]) -> str:
        """Location reached from the initial location over the word."""
        return self.locations[self.walk(word)]

    def accepts(self, word: Sequence[Event]) -> bool:
        return self.run(word) != self.violating


class _Delta(Mapping):
    """``SafetyAutomaton.delta``: the table read by ``(location, event)``.

    A key is a pair of a declared location and an event of the alphabet
    (the instance at its code, as :meth:`~syncguard.bits.Alphabet.code`
    checks); any other key raises ``KeyError``, and an unhashable one
    ``TypeError``, as a dict would.  Only the automaton is held.
    """

    __slots__ = ("_automaton",)

    def __init__(self, automaton: SafetyAutomaton):
        self._automaton = automaton

    def __getitem__(self, key: tuple[str, Event]) -> str:
        hash(key)
        a = self._automaton
        if isinstance(key, tuple) and len(key) == 2:
            location, event = key
            try:
                if a.alphabet.events[event.code] is event:
                    return a.locations[a.table[a.index[location]][event.code]]
            except (AttributeError, IndexError, KeyError, TypeError):
                pass
        raise KeyError(key)

    def __iter__(self):
        return product(self._automaton.locations, self._automaton.alphabet.events)

    def __len__(self) -> int:
        return len(self._automaton.locations) * len(self._automaton.alphabet.events)

    def items(self) -> "_DeltaItems":
        return _DeltaItems(self)


class _DeltaItems(ItemsView):
    """``delta``'s items, each target read off the table in key order."""

    __slots__ = ()

    def __iter__(self):
        a = self._mapping._automaton
        return zip(self._mapping, map(a.locations.__getitem__, chain.from_iterable(a.table)))


def _validated_table(
    alphabet: Alphabet,
    locations: tuple[str, ...],
    initial: str,
    violating: str,
    delta: Mapping[tuple[str, Event], str],
) -> tuple[tuple[tuple[int, ...], ...], Mapping[str, int]]:
    """The table and location index of a hand-built automaton, once its
    ``delta`` is checked total, deterministic, over declared locations and
    alphabet events, and closed on the trap."""
    index = {q: i for i, q in enumerate(locations)}
    if len(index) != len(locations):
        raise ValueError("duplicate location names")
    if initial not in index or violating not in index:
        raise ValueError("initial and violating locations must be declared")
    if initial == violating:
        raise EmptyPropertyError("empty property: the initial location is violating")
    size = len(alphabet.events)
    if len(delta) != len(locations) * size:
        raise ValueError("transition map must be total and deterministic")
    rows = [[0] * size for _ in locations]
    for (src, event), dst in delta.items():
        if src not in index or dst not in index:
            raise ValueError(f"transition {src}->{dst} uses undeclared location")
        try:
            code = alphabet.code(event)
        except ValueError:
            raise ValueError(f"transition label {event} is not in the alphabet") from None
        if src == violating and dst != violating:
            raise ValueError("violating location must be a trap")
        rows[index[src]][code] = index[dst]
    return tuple(map(tuple, rows)), MappingProxyType(index)


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
    resolves them), but the violating state must already be a trap.  Each
    transition line ORs its target's bit into its source's row of
    successor masks at the code of every event its label matches (see
    :class:`RawAutomaton`); no event or triple is built, and the rows,
    checked line by line here, are not checked again.  A label's event
    codes come from :func:`_event_codes`, once per distinct label and
    interface shape, as labels recur across lines and documents; a wider
    label (see :data:`_MEMO_WILDCARDS`) from :func:`_label_codes` on each line.
    """
    headers, alphabet, states, initial, lines = _parse_document(text, _AUTOMATON_KEYS)
    violating = _single_state(headers, "violating", states)

    position = {s: i for i, s in enumerate(states)}
    n_in, n_out = len(alphabet.inputs), len(alphabet.outputs)
    rows = [[0] * len(alphabet.events) for _ in states]
    limit = _MEMO_WILDCARDS
    narrow = n_in + n_out <= limit  # then no label matches more than 2**limit events
    for lineno, src, dst, in_pat, out_pat in lines:
        try:
            if narrow or in_pat.count(WILDCARD) + out_pat.count(WILDCARD) <= limit:
                codes = _event_codes(in_pat, out_pat, n_in, n_out)
            else:
                codes = _label_codes(in_pat, out_pat, n_in, n_out)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if src == violating and dst != violating:
            raise ParseError(f"line {lineno}: violating state must be a trap")
        row, bit = rows[position[src]], 1 << position[dst]
        for e in codes:
            row[e] |= bit

    return RawAutomaton._trusted(alphabet, states, initial, violating, tuple(map(tuple, rows)))


def _label_codes(in_pat: str, out_pat: str, n_in: int, n_out: int) -> tuple[int, ...]:
    """Codes of the events an ``in_pat/out_pat`` label matches over
    ``n_in`` inputs and ``n_out`` outputs, ascending.

    Built from the two sides' :func:`~syncguard.bits._codes`, input
    pattern first, so a malformed label raises that ``ValueError``.
    """
    xs = _codes(in_pat, n_in, "input")
    ys = _codes(out_pat, n_out, "output")
    return tuple([(x << n_out) | y for x in xs for y in ys])


# The parser's one memo, :func:`_label_codes` per label: a document repeats
# its labels.  ``parse_automaton`` asks it only for a label of at most
# ``_MEMO_WILDCARDS`` wildcards (64 events), so it holds at most 1024 labels
# of 64 codes; a wider one matches up to 2**16 events and is expanded again
# on each of its lines.  Errors are not cached.
_MEMO_WILDCARDS = 6
_event_codes = lru_cache(maxsize=1024)(_label_codes)


def _parse_document(
    text: str, keys: tuple[str, ...]
) -> tuple[dict[str, str], Alphabet, tuple[str, ...], str, list[tuple[int, str, str, str, str]]]:
    """The grammar automaton and program documents share.

    ``keys`` are the document kind's declarations, all required; every
    other non-blank line must be a transition ``src -> dst : inpat /
    outpat`` between declared states.  A line ends at ``\\n``, ``\\r\\n``
    or ``\\r`` only, as a text handle ends it: a form feed or another
    character at which ``str.splitlines`` would split stays in its line.
    Returns the declarations, the interface, the states, the initial state
    and the transitions as ``(lineno, src, dst, inpat, outpat)``; the
    caller reads the patterns, so every line's syntax and state names are
    checked before any line's patterns.
    """
    headers: dict[str, str] = {}
    transition_lines: list[tuple[int, str]] = []
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    comments = "#" in text
    for lineno, line in enumerate(text.split("\n"), start=1):
        if comments:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if sep and (key := key.strip()) in keys:
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
    declared = set(states)
    if len(declared) != len(states):
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
            if name not in declared:
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

    Locations unreachable from the initial one disappear (the trap is
    always retained as the completion target).  Accepting locations are
    named ``q0, q1, ...`` in breadth-first discovery order, visiting
    events in ``alphabet.events`` order; the trap is named last.  The
    table is built directly, one row per location in name order, so two
    normalized automata are equal iff their tables are, and ``delta``
    lists location by location in name order.  Raises
    :class:`EmptyPropertyError` if the initial state is violating (the
    property would reject the empty word).

    A :class:`SafetyAutomaton` is already deterministic and complete, so
    it is only renamed: :func:`_renamed` numbers its table's locations in
    one breadth-first pass.  A :class:`RawAutomaton` (a parsed document)
    goes through subset construction: a macro-state is accepting iff it
    contains at least one non-violating location; every non-accepting
    macro-state is collapsed into the single trap, and missing
    transitions are directed there.  A set of raw states is an int
    bitmask (bit i for ``states[i]``, the violating state included, so
    {s} and {s, violating} are distinct macro-states), and each raw
    state's successors are a row of masks, one per event code, read as
    they are, checked when the automaton was built; a macro-state's row
    is the OR of its members'.
    """
    if automaton.initial == automaton.violating:
        raise EmptyPropertyError("empty property: the initial state is violating")
    if isinstance(automaton, SafetyAutomaton):
        index = automaton.index
        table = _renamed(automaton.table, index[automaton.initial], index[automaton.violating])
        return _canonical(automaton.alphabet, table)
    states, rows = automaton.states, automaton.rows
    start = 1 << states.index(automaton.initial)
    violating = 1 << states.index(automaton.violating)

    # Accepting macro-states in discovery order, numbered by position;
    # every mask without a non-violating member names the trap, numbered
    # once the count is known.
    number: dict[int, int] = {0: -1, violating: -1, start: 0}
    order = [start]
    macro_rows = []
    for macro in order:  # grows while it is read: a breadth-first queue
        members = _members(macro, rows)
        row = members[0]
        for other in members[1:]:
            row = list(map(or_, row, other))
        for target in dict.fromkeys(row):  # first occurrences, in event order
            if target not in number:
                number[target] = len(order)
                order.append(target)
        macro_rows.append(row)

    trap = number[0] = number[violating] = len(order)
    table = tuple(tuple(map(number.__getitem__, row)) for row in macro_rows)
    return _canonical(automaton.alphabet, table + ((trap,) * len(automaton.alphabet.events),))


def _renamed(
    rows: Sequence[Sequence[int]], initial: int, violating: int
) -> tuple[tuple[int, ...], ...]:
    """The canonical table of a deterministic, complete table.

    The locations reachable from ``initial`` without entering
    ``violating`` are numbered in breadth-first discovery order (rows in
    queue order, each row's targets in event-code order) and the trap
    last, with a row of its own number.  ``rows[violating]`` is never
    read, so a caller may leave it out.
    """
    number = {violating: -1, initial: 0}
    order = [initial]
    for q in order:  # grows while it is read: a breadth-first queue
        for target in rows[q]:
            if target not in number:
                number[target] = len(order)
                order.append(target)
    trap = number[violating] = len(order)
    renumber = number.__getitem__
    table = tuple([tuple(map(renumber, rows[q])) for q in order])
    return table + ((trap,) * len(rows[initial]),)


def _canonical(alphabet: Alphabet, table: tuple[tuple[int, ...], ...]) -> SafetyAutomaton:
    """The normalized automaton of a canonical table (its trap row last)."""
    locations, index = _canonical_locations(len(table) - 1)
    return SafetyAutomaton._trusted(alphabet, locations, "q0", VIOLATING_NAME, table, index)


@lru_cache(maxsize=64)
def _canonical_locations(count: int) -> tuple[tuple[str, ...], Mapping[str, int]]:
    """``q0 … q{count-1}`` and the trap, with their index: one pair per
    count, shared by every normalized automaton of that size."""
    locations = tuple(f"q{i}" for i in range(count)) + (VIOLATING_NAME,)
    return locations, MappingProxyType({q: i for i, q in enumerate(locations)})


def project_inputs(automaton: SafetyAutomaton) -> InputAutomaton:
    """Erase outputs from transition labels, keeping the location set.

    Slices each location's row of :attr:`SafetyAutomaton.table` per input:
    an input's successors are the targets of its contiguous slice.  Equal
    slices share one set of successors, built once.
    """
    alphabet = automaton.alphabet
    locations = automaton.locations
    width = len(alphabet.output_events)
    shared: dict[tuple[int, ...], frozenset[str]] = {}
    relation: dict[tuple[str, BitVector], frozenset[str]] = {}
    for q, row in zip(locations, automaton.table):
        for k, x in enumerate(alphabet.input_events):
            targets = row[k * width : (k + 1) * width]
            successors = shared.get(targets)
            if successors is None:
                successors = shared[targets] = frozenset(map(locations.__getitem__, targets))
            relation[(q, x)] = successors
    return InputAutomaton(
        alphabet=alphabet,
        locations=locations,
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
    read from :attr:`SafetyAutomaton.table` and sliced per input as in
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

    for src, row in zip(automaton.locations, automaton.table):
        if src == automaton.violating:
            continue
        for dst_number, dst in enumerate(automaton.locations):
            count = row.count(dst_number)
            if not count:
                continue
            if count == len(row):
                lines.append(f"{src} -> {dst} : {full_input_pattern}/{full_output_pattern}")
                continue
            for k, x in enumerate(alphabet.input_events):
                targets = row[k * width : (k + 1) * width]
                outputs = [y for y, t in zip(all_outputs, targets) if t == dst_number]
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
