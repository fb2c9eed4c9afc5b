"""Seeded simulation and per-tick overhead benchmarking.

The random environment draws inputs uniformly from the input alphabet
using CPython's Mersenne Twister: ``random.Random(seed).getrandbits(32) %
len(input_events)``.  The modulus is a power of two, so the draw is
unbiased, and the sequence is reproducible across platforms.  Draws are
taken up to :data:`DRAWS_PER_CALL` 32-bit words per ``getrandbits`` call,
which gives the same sequence: CPython fills a wide draw with successive
32-bit outputs, least significant word first, and the module's tests pin
the bulk draw to the per-tick definition.

Benchmarks time the same program twice over the same environment, bare
and wrapped in an enforcer, with a monotonic clock.  Each run is cut into
blocks of :data:`BLOCK_TICKS` ticks; each block is timed on both sides
back to back, and the side that goes first alternates from block to block
and from run to run.  Each side has its own copy of the program, and the
bare one is fed the inputs the enforced one is given, so the two copies
go through the same states.  The overhead is the median of the per-block
differences over the configured runs, after an untimed enforced run that
finds those inputs, so host drift slower than one block cancels.
"""

from __future__ import annotations

import copy
import random
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .automata import SafetyAutomaton
from .bits import Alphabet, BitVector
from .editing import NEAREST, canonical_policy
from .programs import TickFunction
from .runtime import Enforcer, TickRecord


def _check_int(name: str, value) -> None:
    """Refuse anything but an int, a bool included, with ``ValueError``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass
class SimConfig:
    """One run's settings; a policy alias is stored under its canonical name."""

    ticks: int = 1000
    runs: int = 5
    seed: int = 0
    policy: str = NEAREST

    def __post_init__(self):
        _check_int("ticks", self.ticks)
        _check_int("runs", self.runs)
        if self.ticks < 0:
            raise ValueError("ticks must be non-negative")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        # None would seed from OS entropy, and True draws as 1
        _check_int("seed", self.seed)
        self.policy = canonical_policy(self.policy)


DRAWS_PER_CALL = 1 << 16  # 32-bit words random_input_chunks takes per getrandbits call


def random_input_chunks(alphabet: Alphabet, ticks: int, seed: int) -> Iterator[list[BitVector]]:
    """The seeded input sequence of :func:`random_inputs`, drawn one chunk
    of at most :data:`DRAWS_PER_CALL` ticks at a time, as it is read.

    Each chunk is one wide draw of n 32-bit words, little-endian, of which
    only each word's two low bytes are read, as the modulus (at most
    2**16, a power of two) keeps no more: bytes ``0::4`` and ``1::4``, each
    masked through a 256-byte translation table (the modulus mask's low
    and high byte), are interleaved into one buffer read as n 16-bit
    codes.  The same path serves every input width.  The tick count and
    the seed are checked when this is called, before the first draw.
    """
    _check_int("ticks", ticks)
    _check_int("seed", seed)
    rng = random.Random(seed)
    choices = alphabet.input_events
    mask = len(choices) - 1
    low = bytes(b & mask & 0xFF for b in range(256))
    high = bytes(b & (mask >> 8) for b in range(256))

    def draw(n: int) -> list[BitVector]:
        words = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
        pairs = bytearray(2 * n)
        pairs[0::2] = words[0::4].translate(low)
        pairs[1::2] = words[1::4].translate(high)
        codes = array("H", pairs)
        if sys.byteorder == "big":
            codes.byteswap()
        return [choices[c] for c in codes]

    return (draw(min(DRAWS_PER_CALL, ticks - start)) for start in range(0, ticks, DRAWS_PER_CALL))


def random_inputs(alphabet: Alphabet, ticks: int, seed: int) -> list[BitVector]:
    """Uniform seeded input sequence (generator fixed in the module
    docstring), the chunks of :func:`random_input_chunks` joined.  A tick
    count or a seed that is not an int (a bool is not one) raises
    ``ValueError``; a tick count of 0 or less gives no inputs.
    """
    drawn: list[BitVector] = []
    for chunk in random_input_chunks(alphabet, ticks, seed):
        drawn += chunk
    return drawn


def simulate(
    automaton: SafetyAutomaton,
    program: TickFunction,
    config: SimConfig,
    env: Optional[Sequence[BitVector]] = None,
) -> list[TickRecord]:
    """Run the enforcer for the configured ticks over a seeded random
    environment (or an explicit one) and return the per-tick records."""
    if env is None:
        env = random_inputs(automaton.alphabet, config.ticks, config.seed)
    enforcer = Enforcer(automaton, config.policy, config.seed)
    return enforcer.run(env, program)


@dataclass(frozen=True)
class BenchResult:
    """Per-tick times in seconds for the bare and the enforced loop.

    ``mean_tick_plain`` is the median bare time; ``mean_tick_enforced`` is
    that plus the median paired difference, so ``overhead`` is the latter.
    """

    mean_tick_plain: float
    mean_tick_enforced: float

    @property
    def overhead(self) -> float:
        return self.mean_tick_enforced - self.mean_tick_plain

    @property
    def increase_percent(self) -> float:
        return 100.0 * self.overhead / self.mean_tick_plain

    def __str__(self) -> str:
        return (
            f"plain {self.mean_tick_plain * 1e6:.3f} us/tick, "
            f"enforced {self.mean_tick_enforced * 1e6:.3f} us/tick, "
            f"increase {self.increase_percent:.2f}%"
        )


BLOCK_TICKS = 40  # ticks per timed block; bench pairs the two sides block by block


def bench(
    automaton: SafetyAutomaton,
    program: TickFunction,
    config: SimConfig,
) -> BenchResult:
    """Per-tick time, bare versus enforced, over ``config.runs`` passes of
    ``config.ticks`` ticks of one seeded environment; see the module
    docstring for the pairing.

    The program must expose ``reset()``, and be copyable with
    :func:`copy.deepcopy`: the bare side runs a copy of it, so each side's
    program keeps its own state from block to block.  The bare copy is fed
    the inputs the enforced program is given (the released ones), so both
    go through the same states; each pass resets both and the enforcer.
    """
    if config.ticks < 1:
        raise ValueError("benchmarking needs at least one tick")
    env = random_inputs(automaton.alphabet, config.ticks, config.seed)
    enforcer = Enforcer(automaton, config.policy, config.seed)
    bare = copy.deepcopy(program)
    program.reset()
    fixed = [enforcer.tick(x, program).released.input for x in env]
    blocks = [
        (env[lo : lo + BLOCK_TICKS], fixed[lo : lo + BLOCK_TICKS])
        for lo in range(0, len(env), BLOCK_TICKS)
    ]

    def plain_block(inputs) -> float:
        start = time.perf_counter()
        for x in inputs:
            bare(x)
        return (time.perf_counter() - start) / len(inputs)

    def enforced_block(inputs) -> float:
        tick = enforcer.tick
        start = time.perf_counter()
        for x in inputs:
            tick(x, program)
        return (time.perf_counter() - start) / len(inputs)

    plain_times = []
    differences = []
    for run in range(config.runs):
        bare.reset()
        program.reset()
        enforcer.reset()
        for k, (observed, released) in enumerate(blocks):
            if (run + k) % 2:
                enforced = enforced_block(observed)
                plain = plain_block(released)
            else:
                plain = plain_block(released)
                enforced = enforced_block(observed)
            plain_times.append(plain)
            differences.append(enforced - plain)
    plain = statistics.median(plain_times)
    return BenchResult(
        mean_tick_plain=plain,
        mean_tick_enforced=plain + statistics.median(differences),
    )
