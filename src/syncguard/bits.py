"""Bit-vector events over a declared input/output variable interface.

An interface declares an ordered list of Boolean input variables and an
ordered list of Boolean output variables.  A concrete input (or output)
valuation is a fixed-width :class:`BitVector` whose k-th bit is the value of
the k-th declared variable; an input/output pair is an :class:`Event`.  A
word is a plain tuple of events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

WILDCARD = "-"

# Largest interface, inputs and outputs together: every event is
# enumerated, and 2**16 of them already take seconds and hundreds of MB.
MAX_VARIABLES = 16


class BitVector:
    """Immutable fixed-width vector of bits, ordered by variable declaration.

    Renders as the bare bit string, e.g. ``10`` for {A} over variables A, B.
    A zero-width vector (null interface) renders as the empty string.
    """

    __slots__ = ("bits", "_hash")

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        self.bits = bits
        self._hash = hash(bits)

    @classmethod
    def from_text(cls, text: str) -> "BitVector":
        if any(c not in "01" for c in text):
            raise ValueError(f"invalid bit string {text!r}")
        return cls(int(c) for c in text)

    def hamming(self, other: "BitVector") -> int:
        if len(self.bits) != len(other.bits):
            raise ValueError("width mismatch")
        return sum(a != b for a, b in zip(self.bits, other.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitVector) and self.bits == other.bits

    def __lt__(self, other: "BitVector") -> bool:
        return self.bits < other.bits

    def __le__(self, other: "BitVector") -> bool:
        return self.bits <= other.bits

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __repr__(self) -> str:
        return f"BitVector({str(self)!r})"


class Event:
    """One reaction: an input valuation paired with an output valuation."""

    __slots__ = ("input", "output", "_hash")

    def __init__(self, input: BitVector, output: BitVector):
        self.input = input
        self.output = output
        self._hash = hash((input.bits, output.bits))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Event)
            and self.input == other.input
            and self.output == other.output
        )

    def __lt__(self, other: "Event") -> bool:
        return (self.input.bits, self.output.bits) < (other.input.bits, other.output.bits)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.input}/{self.output}"

    def __repr__(self) -> str:
        return f"Event({str(self)!r})"

    @classmethod
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
    bit string: ``input_events[x]`` and ``output_events[y]`` are the
    valuations with codes x and y, and ``events[x * 2**len(outputs) + y]``
    is their event.  So the events of one input are the contiguous slice
    ``events[x * 2**len(outputs) : (x + 1) * 2**len(outputs)]``, in output
    order; synthesis reads rows of a transition map through this layout.
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
        width = len(self.inputs) + len(self.outputs)
        if width > MAX_VARIABLES:
            raise ValueError(
                f"interface declares {width} variables; at most {MAX_VARIABLES} are supported"
            )

    @classmethod
    def null(cls) -> "Alphabet":
        return cls((), ())

    # -- enumeration, in numeric order of the rendered bit string --

    @cached_property
    def input_events(self) -> tuple[BitVector, ...]:
        return tuple(
            BitVector(bits) for bits in itertools.product((0, 1), repeat=len(self.inputs))
        )

    @cached_property
    def output_events(self) -> tuple[BitVector, ...]:
        return tuple(
            BitVector(bits) for bits in itertools.product((0, 1), repeat=len(self.outputs))
        )

    @cached_property
    def events(self) -> tuple[Event, ...]:
        return tuple(
            Event(x, y) for x in self.input_events for y in self.output_events
        )

    @cached_property
    def _events_by_pair(self) -> dict[tuple[BitVector, BitVector], Event]:
        return {(e.input, e.output): e for e in self.events}

    def event(self, input: BitVector, output: BitVector) -> Event:
        """Interned event instance for a valid (input, output) pair."""
        try:
            return self._events_by_pair[(input, output)]
        except KeyError:
            raise ValueError(
                f"event width mismatch: {input}/{output} over "
                f"{len(self.inputs)} inputs, {len(self.outputs)} outputs"
            ) from None

    # -- text handling --

    def input_vector(self, text: str) -> BitVector:
        if len(text) != len(self.inputs):
            raise ValueError(
                f"input pattern {text!r} has {len(text)} bits, expected {len(self.inputs)}"
            )
        return BitVector.from_text(text)

    def output_vector(self, text: str) -> BitVector:
        if len(text) != len(self.outputs):
            raise ValueError(
                f"output pattern {text!r} has {len(text)} bits, expected {len(self.outputs)}"
            )
        return BitVector.from_text(text)

    def expand_input_pattern(self, pattern: str) -> tuple[BitVector, ...]:
        inputs = self.input_events
        return tuple(inputs[x] for x in _codes(pattern, len(self.inputs), "input"))

    def expand_event_pattern(self, pattern: str) -> tuple[Event, ...]:
        """Expand an ``inpat/outpat`` pattern over {0,1,-} to concrete events."""
        left, sep, right = pattern.partition("/")
        if not sep:
            raise ValueError(f"expected 'inpat/outpat', got {pattern!r}")
        xs = _codes(left.strip(), len(self.inputs), "input")
        ys = _codes(right.strip(), len(self.outputs), "output")
        events, shift = self.events, len(self.outputs)
        return tuple(events[(x << shift) | y] for x in xs for y in ys)


def _codes(pattern: str, width: int, side: str) -> list[int]:
    """Codes of the valuations a {0,1,-} pattern matches, ascending."""
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
    return codes
