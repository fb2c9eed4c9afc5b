"""Bit-vector events over a declared input/output variable interface.

An interface declares an ordered list of Boolean input variables and an
ordered list of Boolean output variables.  A concrete input (or output)
valuation is a fixed-width :class:`BitVector` whose k-th bit is the value of
the k-th declared variable; an input/output pair is an :class:`Event`.  A
word is a plain tuple of events.

There is one instance per value: constructing, parsing, copying or
unpickling a vector or an event returns the member of the one enumeration
of its width or interface shape, so equality is identity.  One of more
than :data:`MAX_VARIABLES` bits fits no interface and raises ``ValueError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

WILDCARD = "-"

# Largest interface, inputs and outputs together: every event is
# enumerated, and 2**16 of them already take seconds and hundreds of MB.
MAX_VARIABLES = 16


class BitVector:
    """Immutable fixed-width vector of bits, ordered by variable declaration.

    Renders as the bare bit string, e.g. ``10`` for {A} over variables A, B.
    A zero-width vector (null interface) renders as the empty string.
    ``code`` is the numeric value of that string (0 for the empty one).
    ``BitVector(bits)`` is the shared vector of those bits (``True`` and
    ``1.0`` count as 1).  Its text is built on first use and kept in
    ``_text``, as :class:`Event` keeps its own: traces and the
    seeded-random pick repeat it.
    """

    __slots__ = ("bits", "code", "_text")

    def __new__(cls, bits: Iterable[int]) -> "BitVector":
        code = width = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
            code = 2 * code + int(b)
            width += 1
        return _valuations(width)[code]

    def __reduce__(self):
        # copies and unpickled vectors are the shared instance again
        return (BitVector, (self.bits,))

    @classmethod
    def from_text(cls, text: str) -> "BitVector":
        if any(c not in "01" for c in text):
            raise ValueError(f"invalid bit string {text!r}")
        return cls(map(int, text))

    def __len__(self) -> int:
        return len(self.bits)

    def __lt__(self, other: "BitVector") -> bool:
        return self.bits < other.bits

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            width = len(self.bits)
            self._text = text = format(self.code, f"0{width}b") if width else ""
            return text

    def __repr__(self) -> str:
        return f"BitVector({str(self)!r})"


class Event:
    """One reaction: an input valuation paired with an output valuation.

    ``code`` is ``input.code * 2**len(output) + output.code``, the event's
    index in :attr:`Alphabet.events` when it is in the alphabet.
    ``Event(input, output)`` is the shared event of the two vectors.  Its
    text is built on first use and kept in ``_text``: traces repeat it.
    """

    __slots__ = ("input", "output", "code", "_text")

    def __new__(cls, input: BitVector, output: BitVector) -> "Event":
        width = len(output.bits)
        return _events(len(input.bits), width)[(input.code << width) | output.code]

    def __reduce__(self):
        return (Event, (self.input, self.output))

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            self._text = text = f"{self.input}/{self.output}"
            return text

    def __repr__(self) -> str:
        return f"Event({str(self)!r})"

    # memoized per text, as traces repeat their events; errors are not cached
    @classmethod
    @lru_cache(maxsize=4096)
    def from_text(cls, text: str) -> "Event":
        left, sep, right = text.partition("/")
        if not sep:
            raise ValueError(f"expected 'inputs/outputs', got {text!r}")
        return cls(BitVector.from_text(left), BitVector.from_text(right))


Word = tuple[Event, ...]

EMPTY = "<empty>"


def format_word(word: Sequence[Event]) -> str:
    return " ".join(str(e) for e in word) if word else EMPTY


def format_vector(vector: BitVector) -> str:
    """The bit string, or ``<empty>`` for the zero-width valuation."""
    return str(vector) or EMPTY


@dataclass(frozen=True)
class Alphabet:
    """Declared interface: ordered input and output variable names.

    Names are non-empty and distinct across both lists, and there are at
    most :data:`MAX_VARIABLES` of them in total.  Either list may be empty:
    a side with no variables has the single zero-width valuation, and
    :meth:`null` (no variables at all) has exactly one event.

    Enumerations are indexed by *code*, the numeric value of the rendered
    bit string (:attr:`BitVector.code`, :attr:`Event.code`):
    ``input_events[x]`` and ``output_events[y]`` are the valuations with
    codes x and y, and ``events[x * 2**len(outputs) + y]`` is their event.
    So the events of one input are the contiguous slice
    ``events[x * 2**len(outputs) : (x + 1) * 2**len(outputs)]``, in output
    order; automata and synthesis index their transition tables by this
    layout.  The enumerations depend only on the interface's shape, its
    input and output counts: every alphabet of one shape is given the same
    three tuples when it is made.  They hold the one instance of each
    vector and event value, so :meth:`event` and :meth:`code` compare by
    identity at a code, and a vector of another width is in no event.
    Equality and hash read ``inputs`` and ``outputs`` only, and a pickled
    or copied alphabet is rebuilt from them.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        seen: set[str] = set()
        for name in self.inputs + self.outputs:
            if not name or name.isspace():
                raise ValueError("variable names must be non-empty")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        # the events first: their width check covers inputs and outputs together
        object.__setattr__(self, "events", _events(len(self.inputs), len(self.outputs)))
        object.__setattr__(self, "input_events", _valuations(len(self.inputs)))
        object.__setattr__(self, "output_events", _valuations(len(self.outputs)))

    @classmethod
    def null(cls) -> "Alphabet":
        return cls((), ())

    def __reduce__(self):
        # rebuilt from the names, so a copy shares the events again
        return (Alphabet, (self.inputs, self.outputs))

    def event(self, input: BitVector, output: BitVector) -> Event:
        """The event of an input and an output vector of this interface.

        The event at the pair's code is returned when it holds these
        vectors; any other pair raises ``ValueError``, even one whose code
        is in range.
        """
        try:
            event = self.events[(input.code << len(self.outputs)) | output.code]
            if event.input is input and event.output is output:
                return event
        except (AttributeError, IndexError, TypeError):
            pass
        raise ValueError(
            f"event width mismatch: {input}/{output} over "
            f"{len(self.inputs)} inputs, {len(self.outputs)} outputs"
        )

    def code(self, event: Event) -> int:
        """Index of ``event`` in :attr:`events`; anything else raises
        ``ValueError``, even an event of another shape at an in-range code."""
        try:
            if self.events[event.code] is event:
                return event.code
        except (AttributeError, IndexError, TypeError):
            pass
        raise ValueError(f"event width mismatch: {event} not in the alphabet")

    # -- text handling --

    def input_vector(self, text: str) -> BitVector:
        """The shared input valuation a bit string names."""
        return _vector(text, len(self.inputs), "input")

    def output_vector(self, text: str) -> BitVector:
        """The shared output valuation a bit string names."""
        return _vector(text, len(self.outputs), "output")

    def expand_event_pattern(self, pattern: str) -> tuple[Event, ...]:
        """Expand an ``inpat/outpat`` pattern over {0,1,-} to concrete events."""
        left, sep, right = pattern.partition("/")
        if not sep:
            raise ValueError(f"expected 'inpat/outpat', got {pattern!r}")
        xs = _codes(left.strip(), len(self.inputs), "input")
        ys = _codes(right.strip(), len(self.outputs), "output")
        events, shift = self.events, len(self.outputs)
        return tuple(events[(x << shift) | y] for x in xs for y in ys)


# The one table of instances: vectors by width, events by shape.  Threads that
# build one entry at once all return the first stored (``setdefault`` is atomic).
_VALUATIONS: dict[int, tuple[BitVector, ...]] = {}
_EVENTS: dict[tuple[int, int], tuple[Event, ...]] = {}


def _valuations(width: int) -> tuple[BitVector, ...]:
    """Every ``width``-bit vector, in numeric order of its bit string: the
    one instance of each, built here and nowhere else."""
    if width not in _VALUATIONS:
        _check_width(width)
        bits = enumerate(itertools.product((0, 1), repeat=width))
        _VALUATIONS.setdefault(width, tuple(_instance(BitVector, b, code) for code, b in bits))
    return _VALUATIONS[width]


def _events(n_in: int, n_out: int) -> tuple[Event, ...]:
    """Every event over ``n_in`` inputs and ``n_out`` outputs, in code order:
    the one instance of each, built here and nowhere else."""
    if (n_in, n_out) not in _EVENTS:
        _check_width(n_in + n_out)
        pairs = enumerate(itertools.product(_valuations(n_in), _valuations(n_out)))
        _EVENTS.setdefault((n_in, n_out), tuple(_instance(Event, x, y, c) for c, (x, y) in pairs))
    return _EVENTS[n_in, n_out]


def _check_width(width: int) -> None:
    if width > MAX_VARIABLES:
        raise ValueError(
            f"interface declares {width} variables; at most {MAX_VARIABLES} are supported"
        )


def _instance(cls, *values):
    """A new instance with its slots set to ``values``, past ``cls.__new__``."""
    instance = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(instance, name, value)
    return instance


def _vector(text: str, width: int, side: str) -> BitVector:
    if len(text) != width:
        raise ValueError(f"{side} pattern {text!r} has {len(text)} bits, expected {width}")
    return BitVector.from_text(text)


def _codes(pattern: str, width: int, side: str) -> tuple[int, ...]:
    """Codes of the valuations a {0,1,-} pattern matches, ascending; a
    malformed pattern raises ``ValueError``."""
    if len(pattern) != width:
        raise ValueError(
            f"{side} pattern {pattern!r} has {len(pattern)} positions, expected {width}"
        )
    codes = [0]
    for c in pattern:
        if c == WILDCARD:
            codes = [2 * k + b for k in codes for b in (0, 1)]
        elif c in "01":
            codes = [2 * k + int(c) for k in codes]
        else:
            raise ValueError(f"invalid pattern character {c!r} in {pattern!r}")
    return tuple(codes)
