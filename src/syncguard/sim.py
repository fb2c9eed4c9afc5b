"""Seeded simulation and per-tick overhead benchmarking.

The random environment draws inputs uniformly from the input alphabet
using CPython's Mersenne Twister: ``random.Random(seed).getrandbits(32) %
len(input_events)``.  The modulus is a power of two, so the draw is
unbiased, and the sequence is reproducible across platforms.  Draws are
taken up to :data:`DRAWS_PER_CALL` 32-bit words per ``getrandbits`` call,
which gives the same sequence: CPython fills a wide draw with successive
32-bit outputs, least significant word first, and the module's tests pin
the bulk draw to the per-tick definition.

Benchmarks time the same program over the same environment twice, bare
and wrapped in an enforcer, back to back with a monotonic clock, and
alternate which of the pair goes first.  After a discarded warm-up pair,
the overhead is the median of the per-pair differences over the
configured runs, so host drift slower than one pair cancels.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from .automata import SafetyAutomaton
from .bits import Alphabet, BitVector
from .editing import NEAREST
from .programs import TickFunction
from .runtime import Enforcer, TickRecord


def _check_seed(seed) -> None:
    # None would seed from OS entropy, and True draws as 1 but picks repairs as "True"
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an int, got {seed!r}")


@dataclass
class SimConfig:
    ticks: int = 1000
    runs: int = 5
    seed: int = 0
    policy: str = NEAREST

    def __post_init__(self):
        if self.ticks < 0:
            raise ValueError("ticks must be non-negative")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        _check_seed(self.seed)


DRAWS_PER_CALL = 1 << 16  # 32-bit words random_inputs takes per getrandbits call


def random_inputs(alphabet: Alphabet, ticks: int, seed: int) -> list[BitVector]:
    """Uniform seeded input sequence (generator fixed in the module docstring).

    Each chunk of ticks is one wide draw, read as 16-bit halves: the low
    half of word i is the i-th ``getrandbits(32)``'s low 16 bits, which
    is all the modulus (at most 2**16, a power of two) keeps.  A seed
    that is not an int raises ``ValueError``.
    """
    _check_seed(seed)
    rng = random.Random(seed)
    choices = alphabet.input_events
    mask = len(choices) - 1
    drawn: list[BitVector] = []
    for start in range(0, ticks, DRAWS_PER_CALL):
        n = min(DRAWS_PER_CALL, ticks - start)
        halves = array("H", rng.getrandbits(32 * n).to_bytes(4 * n, "little"))
        if sys.byteorder == "big":
            halves.byteswap()
        drawn += [choices[h & mask] for h in halves[::2]]
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


def count_edits(records: Sequence[TickRecord]) -> tuple[int, int]:
    return (
        sum(r.input_edited for r in records),
        sum(r.output_edited for r in records),
    )


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


def bench(
    automaton: SafetyAutomaton,
    program: TickFunction,
    config: SimConfig,
) -> BenchResult:
    """Per-tick time over ``config.runs`` pairs of ``config.ticks``-tick
    runs, bare versus enforced, same seeded environment for both; see the
    module docstring for the pairing.

    The program must expose ``reset()``; it is reset before every run so
    both sides see identical program-state evolution.
    """
    if config.ticks < 1:
        raise ValueError("benchmarking needs at least one tick")
    env = random_inputs(automaton.alphabet, config.ticks, config.seed)
    enforcer = Enforcer(automaton, config.policy, config.seed)

    def plain_run() -> float:
        program.reset()
        start = time.perf_counter()
        for x in env:
            program(x)
        return (time.perf_counter() - start) / len(env)

    def enforced_run() -> float:
        program.reset()
        enforcer.reset()
        start = time.perf_counter()
        for x in env:
            enforcer.tick(x, program)
        return (time.perf_counter() - start) / len(env)

    plain_run()  # warm-up, discarded
    enforced_run()
    plain_times = []
    differences = []
    for i in range(config.runs):
        if i % 2:
            enforced = enforced_run()
            plain = plain_run()
        else:
            plain = plain_run()
            enforced = enforced_run()
        plain_times.append(plain)
        differences.append(enforced - plain)
    plain = statistics.median(plain_times)
    return BenchResult(
        mean_tick_plain=plain,
        mean_tick_enforced=plain + statistics.median(differences),
    )
