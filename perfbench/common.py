"""Shared pieces of the benchmark: locating the library, statistics, results.

The benchmark imports ``syncguard`` from ``src/`` of the checkout it lives
in and refuses any other copy, so a run always measures the tree it was
started from.
"""

from __future__ import annotations

import bisect
import gc
import math
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def check_library() -> None:
    """Raise ImportError unless ``syncguard`` comes from this checkout's src/."""
    import syncguard

    found = Path(syncguard.__file__).resolve().parent
    if found != (SRC / "syncguard").resolve():
        raise ImportError(f"syncguard imported from {found}, not from {SRC}")


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (0 <= q <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    k = (len(xs) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def item_medians(values, n_items: int) -> list[float]:
    """Median per item over passes, for ``values`` listed pass by pass.

    Every pass replays the same items from the same state, so an item's
    median over passes is its cost without the transient noise of any one
    pass, and percentiles over items describe how cost varies with input.
    """
    return [median(values[k::n_items]) for k in range(n_items)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    note: str = ""


@dataclass
class Result:
    """Outcome of one workload run.

    ``named`` holds the workload's own metrics under the names the
    documentation uses (``tick_us_p50``, ``synth_s``, ...); ``end_to_end``
    the metrics every workload reports under shared names (the ones
    ``BENCHMARK.json`` lists); ``per_layer`` the traced-mode metrics.
    ``problems`` lists every output check that failed.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    named: dict[str, Metric] = field(default_factory=dict)
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, Metric] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def add_error_rate(self, base: str) -> None:
        rate = self.failed / self.attempted if self.attempted else 1.0
        self.named["error_rate"] = Metric(
            rate, "ratio", f"{self.failed} of {self.attempted} {base} failed or mismatched"
        )


def timed_median(fn, repeats: int, speed: "Speed") -> tuple[float, object]:
    """Median duration, at the reference speed, of ``repeats`` calls of
    ``fn``, with a speed probe around each; also the last call's result.

    Each call starts after a full garbage collection, so that no call pays
    for the garbage of the one before it."""
    samples = []
    for _ in range(repeats):
        result = None
        gc.collect()
        speed.probe()
        start = perf_counter()
        result = fn()
        samples.append((start, perf_counter() - start))
    speed.probe()
    return median(speed.scaled(samples)), result


# Time the reference computation takes at the reference speed.  Durations
# are reported scaled to this speed; see :class:`Speed`.
REFERENCE_S = 0.001
# Target spacing of speed probes during a measurement, in seconds.
PROBE_INTERVAL_S = 0.05


def reference_work(n: int = 3000) -> int:
    """Fixed pure-Python computation (dict updates, tuples, hashing, a sort)
    that uses no syncguard code, so no change to the library moves it."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 31, (i >> 5) & 7)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 255
    items = sorted(table.items())
    return acc + len(items) + sum(v for _, v in items[:8])


class Speed:
    """Tracks how fast the machine runs during a measurement.

    The host is shared: its speed drifts by tens of percent within seconds
    and between runs, and moves interpreted code of every kind alike.  A
    measurement therefore calls :meth:`probe` every
    :data:`PROBE_INTERVAL_S` seconds, which times :func:`reference_work`.
    :meth:`scale` converts a duration measured at time ``t`` to the
    reference speed: it multiplies by ``REFERENCE_S`` over the median
    probe time around ``t``.
    """

    WINDOW = 5  # probes on each side of a sample that set its speed

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._next = 0.0
        self._factors: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._next = t1 + PROBE_INTERVAL_S

    def maybe_probe(self) -> None:
        if perf_counter() >= self._next:
            self.probe()

    def scale(self, t: float) -> float:
        """Factor to the reference speed for a duration starting at ``t``."""
        if len(self._factors) != len(self.took) + 1:
            w = self.WINDOW
            self._factors = [
                REFERENCE_S / median(self.took[max(0, i - w) : i + w])
                for i in range(len(self.took) + 1)
            ]
        return self._factors[bisect.bisect(self.at, t)]

    def scaled(self, samples) -> list[float]:
        """``(start time, duration)`` pairs as durations at the reference speed."""
        return [d * self.scale(t) for t, d in samples]


def check_spans(result: Result, stats, required) -> None:
    """Fail ``result`` when a span the workload must produce never ran."""
    missing = sorted(set(required) - set(stats))
    result.check(not missing, f"traced run produced no {', '.join(missing)} span")


def layer_metrics(stats, raw_states, locations, events, edits, overhead_pct, words=0):
    """Every per-layer metric, from span statistics and exact counts.

    Shared by all workloads.  A span that never ran reads 0; that is only
    allowed for a layer outside the workload's ``REQUIRED_SPANS``, see
    :func:`check_spans`.
    """

    def ms(name):
        return stats[name].mean(1e3) if name in stats else 0.0

    def us(name, self_time=False):
        return stats[name].mean(1e6, self_time) if name in stats else 0.0

    inputs_edited, outputs_edited, ticks = edits
    return {
        "runtime.tick_self_us": Metric(us("runtime.tick", True), "us"),
        "programs.call_us": Metric(us("programs.call"), "us"),
        "runtime.input_edit_rate": Metric(inputs_edited / ticks if ticks else 0.0, "ratio"),
        "runtime.output_edit_rate": Metric(outputs_edited / ticks if ticks else 0.0, "ratio"),
        "automata.parse_ms": Metric(ms("automata.parse"), "ms"),
        "automata.normalize_ms": Metric(ms("automata.normalize"), "ms"),
        "analysis.check_enforceability_ms": Metric(ms("analysis.check_enforceability"), "ms"),
        "automata.project_inputs_ms": Metric(ms("automata.project_inputs"), "ms"),
        "editing.compute_edit_sets_ms": Metric(ms("editing.compute_edit_sets"), "ms"),
        "editing.build_edit_tables_ms": Metric(ms("editing.build_edit_tables"), "ms"),
        "runtime.enforcer_init_ms": Metric(ms("runtime.enforcer_init"), "ms"),
        "sim.random_inputs_ms": Metric(ms("sim.random_inputs"), "ms"),
        "corpus.generate_ms": Metric(ms("corpus.generate"), "ms"),
        "automata.raw_states": Metric(raw_states, "count"),
        "automata.normalized_locations": Metric(locations, "count"),
        "bits.events": Metric(events, "count"),
        "oracle.check_constraints_ms": Metric(ms("oracle.check_constraints"), "ms"),
        "oracle.words_checked": Metric(words, "count"),
        "oracle.oracle_step_us": Metric(us("oracle.oracle_step"), "us"),
        "runtime.restore_tick_us": Metric(us("runtime.restore_tick", True), "us"),
        "runtime.enforcer_init_us": Metric(us("runtime.enforcer_init", True), "us"),
        "tracing.overhead_pct": Metric(overhead_pct, "%"),
    }
