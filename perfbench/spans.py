"""In-memory spans for the traced mode.

A span records its name, start and end (``perf_counter_ns``), its parent
span and the unit of work it belongs to: the outermost span enclosing it
(a tick block, a document, a verification unit, or a set-up step).  Spans
are kept in memory and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children; the run is
single-threaded, so children never overlap.

Spans are placed from outside the library: around the benchmark's own calls
into each module, and around the calls ``syncguard.runtime`` makes through
its module-level names (see :data:`RUNTIME_SPANS`), which :func:`patched`
swaps for traced wrappers while a traced phase runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

# Names that ``syncguard.runtime`` looks up at call time inside
# ``Enforcer.__init__``, mapped to the span that times them.  A name the
# module no longer has makes :func:`patched` raise, and each workload's
# ``REQUIRED_SPANS`` fails the run when a span it needs never ran.
RUNTIME_SPANS = {
    "check_enforceability": "analysis.check_enforceability",
    "project_inputs": "automata.project_inputs",
    "compute_edit_sets": "editing.compute_edit_sets",
    "build_edit_tables": "editing.build_edit_tables",
}


@dataclass
class SpanStats:
    count: int = 0
    total_ns: float = 0.0
    self_ns: float = 0.0

    def mean(self, scale: float, self_time: bool = False) -> float:
        """Mean per span in seconds * ``scale``; 0 when the span never ran."""
        if not self.count:
            return 0.0
        return (self.self_ns if self_time else self.total_ns) / self.count * scale / 1e9


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start_ns, end_ns, parent index or -1, unit index]
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        spans = self.spans
        index = len(spans)
        if self._open:
            parent = self._open[-1]
            unit = spans[parent][4]
        else:
            parent = -1
            unit = index
        span = [name, 0, 0, parent, unit]
        spans.append(span)
        self._open.append(index)
        span[1] = perf_counter_ns()

    def end(self) -> None:
        now = perf_counter_ns()
        self.spans[self._open.pop()][2] = now

    def wrap(self, name: str, fn):
        """``fn`` with every call enclosed in a span called ``name``."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def stats(self, scale=None) -> dict[str, SpanStats]:
        """Count, total and self time per span name.

        ``scale(start_seconds)``, when given, multiplies each duration
        (see ``common.Speed.scale``).
        """
        durations = [
            (end - start) * (scale(start / 1e9) if scale else 1.0)
            for _, start, end, _, _ in self.spans
        ]
        children = [0.0] * len(self.spans)
        for (_, _, _, parent, _), d in zip(self.spans, durations):
            if parent >= 0:
                children[parent] += d
        out: dict[str, SpanStats] = {}
        for (name, _, _, _, _), d, c in zip(self.spans, durations, children):
            s = out.setdefault(name, SpanStats())
            s.count += 1
            s.total_ns += d
            s.self_ns += d - c
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as stream:
            stream.write("run_id\tunit\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent, unit) in enumerate(self.spans):
                stream.write(
                    f"{self.run_id}\t{unit}\t{index}\t{parent}\t{name}\t{start}\t{end}\n"
                )


def call(tracer: Tracer | None, name: str, fn, *args):
    """``fn(*args)``, inside a span called ``name`` when tracing."""
    if tracer is None:
        return fn(*args)
    tracer.begin(name)
    try:
        return fn(*args)
    finally:
        tracer.end()


@contextmanager
def patched(tracer: Tracer, module, names: dict[str, str]):
    """Swap ``module``'s listed functions for traced wrappers, then restore.

    Raises AttributeError when ``module`` lacks a listed name, so a
    refactored module cannot make its spans vanish unnoticed.
    """
    missing = [attr for attr in names if not hasattr(module, attr)]
    if missing:
        raise AttributeError(f"{module.__name__} has no {', '.join(missing)} to trace")
    saved = {attr: getattr(module, attr) for attr in names}
    for attr, fn in saved.items():
        setattr(module, attr, tracer.wrap(names[attr], fn))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)
