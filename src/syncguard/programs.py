"""Black-box tick functions the enforcer wraps.

A program is anything callable from an input bit vector to an output bit
vector, invoked exactly once per tick; internal state is allowed.
Programs used in replay comparisons and benchmarks must also offer
``reset()``.

The document format for Mealy programs is the automaton format without
the ``violating:`` line, which is rejected; transitions read ``src -> dst :
inpat / outbits`` where the output must be concrete (a Mealy machine is a
function)::

    inputs: A B
    outputs: O
    states: wait done
    initial: wait
    wait -> done : 11 / 1
    wait -> wait : 0- / 0
    wait -> wait : 10 / 0
    done -> done : -- / 0
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence

from .automata import ParseError, _parse_document
from .bits import Alphabet, BitVector, _codes

_MEALY_HEADER_KEYS = ("inputs", "outputs", "states", "initial")


class TickFunction(Protocol):
    def __call__(self, inputs: BitVector) -> BitVector: ...


class MealyProgram:
    """Table-driven synchronous program: (state, input) -> (state, output).

    The table must be total over declared states and inputs, and each
    entry's target declared and its output of the output width.  It is
    copied, entry by entry over the declared states and
    ``alphabet.input_events``, so a key over an undeclared state or an
    input that is not a vector of the input width raises ``ValueError``,
    and later writes to the caller's dict do not reach the program.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        states: Sequence[str],
        initial: str,
        transitions: dict[tuple[str, BitVector], tuple[str, BitVector]],
    ):
        self.alphabet = alphabet
        self.initial = initial
        states = tuple(states)
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not declared")
        width = len(alphabet.outputs)
        table: dict[tuple[str, BitVector], tuple[str, BitVector]] = {}
        for state in states:
            for x in alphabet.input_events:
                try:
                    target, y = transitions[(state, x)]
                except KeyError:
                    raise ValueError(f"missing transition from {state!r} on input {x}") from None
                if target not in states:
                    raise ValueError(
                        f"transition from {state!r} on input {x} targets undeclared state {target!r}"
                    )
                if not isinstance(y, BitVector) or len(y.bits) != width:
                    raise ValueError(
                        f"transition from {state!r} on input {x} outputs {y!r}, "
                        f"not a {width}-bit vector"
                    )
                table[(state, x)] = (target, y)
        if len(table) != len(transitions):
            key = next(key for key in transitions if key not in table)
            raise ValueError(
                f"transition key {key!r} is not a declared state and a "
                f"{len(alphabet.inputs)}-bit input"
            )
        self.transitions = table
        self.state = initial

    def __call__(self, inputs: BitVector) -> BitVector:
        self.state, outputs = self.transitions[(self.state, inputs)]
        return outputs

    def reset(self) -> None:
        self.state = self.initial


def parse_program(text: str) -> MealyProgram:
    """Parse a Mealy program document (format in the module docstring)."""
    _, alphabet, states, initial, lines = _parse_document(text, _MEALY_HEADER_KEYS)
    transitions: dict[tuple[str, BitVector], tuple[str, BitVector]] = {}
    for lineno, src, dst, in_pat, out_bits in lines:
        try:
            xs = _codes(in_pat, len(alphabet.inputs), "input")
            y = alphabet.output_vector(out_bits)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        for x in map(alphabet.input_events.__getitem__, xs):
            if (src, x) in transitions and transitions[(src, x)] != (dst, y):
                raise ParseError(
                    f"line {lineno}: conflicting transition from {src!r} on input {x}"
                )
            transitions[(src, x)] = (dst, y)

    return MealyProgram(alphabet, states, initial, transitions)


class ConstantProgram:
    """Emits the same output vector every tick."""

    __slots__ = ("outputs",)

    def __init__(self, alphabet: Alphabet, outputs: BitVector):
        if not isinstance(outputs, BitVector):
            raise ValueError(f"constant output must be a BitVector, got {outputs!r}")
        if len(outputs.bits) != len(alphabet.outputs):
            raise ValueError("output width mismatch")
        self.outputs = outputs

    def __call__(self, inputs: BitVector) -> BitVector:
        return self.outputs

    def reset(self) -> None:
        pass


class ScriptedProgram:
    """Replays a fixed output sequence, ignoring inputs.

    Stands in for the program when enforcing an already-observed
    input/output word: the t-th call returns the t-th observed output.
    A call past the end of the script raises ``IndexError``; ``tick``
    then leaves the enforcer as the last completed tick left it.  Neither
    caller reaches that: ``enforce_word`` builds a script exactly as long
    as the word, and the CLI rejects a script shorter than the run before
    the first tick.
    """

    __slots__ = ("script", "position")

    def __init__(self, outputs: Sequence[BitVector]):
        self.script = tuple(outputs)
        self.position = 0

    def __call__(self, inputs: BitVector) -> BitVector:
        if self.position >= len(self.script):
            raise IndexError("scripted program ran out of outputs")
        out = self.script[self.position]
        self.position += 1
        return out

    def reset(self) -> None:
        self.position = 0


class SyntheticProgram:
    """Shift-register network whose per-tick cost grows linearly with width.

    Semantically a finite Mealy machine (the register is the state), but
    evaluated gate by gate so that larger widths model larger reaction
    functions.  Used to benchmark how enforcement overhead scales with
    program size.
    """

    def __init__(self, alphabet: Alphabet, width: int, seed: int = 0):
        if width < 8:
            raise ValueError("width must be at least 8")
        self.alphabet = alphabet
        self.width = width
        self._taps = random.Random(seed).sample(range(width), k=4)
        self._initial = tuple(random.Random(seed + 1).getrandbits(1) for _ in range(width))
        self.register = list(self._initial)

    def __call__(self, inputs: BitVector) -> BitVector:
        reg = self.register
        width = self.width
        feed = sum(inputs.bits) & 1
        for t in self._taps:
            feed ^= reg[t]
        prev = reg[width - 1]
        for i in range(width):
            cur = reg[i]
            reg[i] = prev ^ (cur & feed)
            prev = cur
        reg[0] ^= feed
        n_out = len(self.alphabet.outputs)
        return BitVector(
            reg[(13 * k + 7) % width] ^ reg[(29 * k + 3) % width] for k in range(n_out)
        )

    def reset(self) -> None:
        self.register = list(self._initial)


def null_program() -> ConstantProgram:
    """Program over the null interface: no inputs, no outputs."""
    return ConstantProgram(Alphabet.null(), BitVector(()))

