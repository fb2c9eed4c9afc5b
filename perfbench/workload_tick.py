"""``tick`` workload: one long online run of ``Enforcer.tick``.

Property: a two-client arbiter over inputs R0 R1 P S (requests, priority,
stop) and outputs G0 G1 (grants), written as rules below and rendered to
the automaton document format.  Some rules constrain the environment (P
and S never together; a request never waits two ticks, which can force an
input edit when a grant is impossible), others the program (exclusive
grants, no grant without a request or while stopped, immediate service of
a priority request), so both input and output edits happen at non-zero
rates.  A seeded random enforceable automaton is no substitute: its
input-edit rate is typically zero, so the input-repair path never runs.

Program: a table-driven round-robin arbiter (``MealyProgram``) over the
same interface that ignores P and S.  Environment: ``sim.random_inputs``
from the workload seed.  Closed loop, one process, one thread: each tick
is issued when the previous one returns.  Each pass replays the same
seeded inputs from a reset enforcer and program, in blocks; every block
runs once wrapped in the enforcer (``nearest`` policy) and once bare,
alternating which goes first, so the per-block difference is a paired
measurement of the enforcement overhead.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from time import perf_counter

import common
from common import (
    Metric,
    Result,
    Speed,
    check_spans,
    item_medians,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
    timed_median,
)
from spans import RUNTIME_SPANS, Tracer, call, patched

import syncguard.runtime
from syncguard import Enforcer, normalize, parse_automaton, parse_program
from syncguard.oracle import oracle_enforce
from syncguard.sim import random_inputs
from syncguard.trace import format_record

# The pinned run: seed, length, input edits, output edits, and the SHA-256
# of its ``trace.format_record`` lines joined by newlines.
PINNED_SEED = 1
PINNED_TICKS = 4096
PINNED_EDITS = (1342, 967)
PINNED_SHA256 = "c03c2f592ae8d4b1c2854b2a1d3e4f3be05edc1b11bb61ec9f978a517f6a7120"

# Spans a traced run must produce.  The ``nearest`` enforcer builds no
# repair tables, so ``editing.build_edit_tables`` is not among them.
REQUIRED_SPANS = (
    "automata.parse", "automata.normalize", "programs.parse", "runtime.enforcer_init",
    "analysis.check_enforceability", "automata.project_inputs", "editing.compute_edit_sets",
    "sim.random_inputs", "tick.block", "runtime.tick", "programs.call",
)


def _arbiter_target(state: str, r0, r1, p, s, g0, g1):
    """Successor of one event under the arbiter rules, or None for the trap."""
    wait0 = state in ("w0", "w01")
    wait1 = state in ("w1", "w01")
    if p and s:
        return None  # the environment never raises priority and stop together
    if g0 and g1:
        return None  # grants are exclusive
    if (g0 and not r0) or (g1 and not r1):
        return None  # no grant without a request
    if s and (g0 or g1):
        return None  # no grant while stopped
    if p and r0 and not g0:
        return None  # a priority request of client 0 is served at once
    if (wait0 and r0 and not g0) or (wait1 and r1 and not g1):
        return None  # a request waits at most one tick
    waiting = ("0" if r0 and not g0 else "") + ("1" if r1 and not g1 else "")
    return f"w{waiting}" if waiting else "idle"


def arbiter_document() -> str:
    states = ("idle", "w0", "w1", "w01")
    lines = [
        "inputs: R0 R1 P S",
        "outputs: G0 G1",
        "states: " + " ".join(states) + " bad",
        "initial: idle",
        "violating: bad",
    ]
    for state in states:
        for bits in itertools.product((0, 1), repeat=6):
            target = _arbiter_target(state, *bits)
            if target is not None:  # missing transitions complete to the trap
                text = "".join(map(str, bits))
                lines.append(f"{state} -> {target} : {text[:4]}/{text[4:]}")
    return "\n".join(lines) + "\n"


PROGRAM_DOCUMENT = """\
inputs: R0 R1 P S
outputs: G0 G1
states: turn0 turn1
initial: turn0
turn0 -> turn1 : 1--- / 10
turn0 -> turn0 : 01-- / 01
turn0 -> turn0 : 00-- / 00
turn1 -> turn0 : -1-- / 01
turn1 -> turn1 : 10-- / 10
turn1 -> turn1 : 00-- / 00
"""


@dataclass(frozen=True)
class Sizes:
    ticks: int = 32768  # seeded inputs replayed by every pass
    block: int = 64  # ticks per timed block
    setup_repeats: int = 15
    oracle_prefix: int = 128  # ticks cross-checked against the word-level oracle
    span_budget: int = 300_000  # the traced phase stops at the pass that reaches it


@dataclass
class _Setup:
    automaton: object
    raw_states: int
    enforcer: Enforcer
    program: object
    bare: object
    inputs: list


def _setup(seed: int, ticks: int, tracer: Tracer | None = None) -> _Setup:
    raw = call(tracer, "automata.parse", parse_automaton, arbiter_document())
    automaton = call(tracer, "automata.normalize", normalize, raw)
    program = call(tracer, "programs.parse", parse_program, PROGRAM_DOCUMENT)
    bare = call(tracer, "programs.parse", parse_program, PROGRAM_DOCUMENT)
    enforcer = call(tracer, "runtime.enforcer_init", Enforcer, automaton)
    inputs = call(tracer, "sim.random_inputs", random_inputs, automaton.alphabet, ticks, seed)
    return _Setup(automaton, len(raw.states), enforcer, program, bare, inputs)


def _reset(st: _Setup) -> None:
    st.enforcer.reset()
    st.program.reset()
    st.bare.reset()


def _paired_passes(st: _Setup, sizes: Sizes, seconds: float, speed: Speed):
    """Timed passes, enforced and bare per block.

    Returns ``(block start, per-tick mean)`` pairs for the enforced and the
    bare side, and the first and last pass's records.
    """
    tick = st.enforcer.tick
    program, bare = st.program, st.bare
    blocks = [st.inputs[i : i + sizes.block] for i in range(0, len(st.inputs), sizes.block)]
    enforced, plain, first, last = [], [], None, None
    speed.probe()
    start = perf_counter()
    while True:
        _reset(st)
        records = []
        for k, block in enumerate(blocks):
            if k & 1:
                t0 = perf_counter()
                recs = [tick(x, program) for x in block]
                t1 = perf_counter()
                [bare(x) for x in block]
                t2 = perf_counter()
                enforced.append((t0, (t1 - t0) / len(block)))
                plain.append((t1, (t2 - t1) / len(block)))
            else:
                t0 = perf_counter()
                [bare(x) for x in block]
                t1 = perf_counter()
                recs = [tick(x, program) for x in block]
                t2 = perf_counter()
                plain.append((t0, (t1 - t0) / len(block)))
                enforced.append((t1, (t2 - t1) / len(block)))
            records.extend(recs)
            speed.maybe_probe()
        if first is None:
            first = records
        last = records
        if perf_counter() - start >= seconds:
            speed.probe()
            return enforced, plain, first, last


def _traced_passes(st: _Setup, sizes: Sizes, seconds: float, speed: Speed, tracer: Tracer):
    """Enforced blocks only, with a span per block, tick and program call."""
    tick = st.enforcer.tick
    program = tracer.wrap("programs.call", st.program)
    begin, end = tracer.begin, tracer.end
    blocks = [st.inputs[i : i + sizes.block] for i in range(0, len(st.inputs), sizes.block)]
    enforced = []
    speed.probe()
    start = perf_counter()
    while True:
        _reset(st)
        for block in blocks:
            begin("tick.block")
            recs = []
            t0 = perf_counter()
            for x in block:
                begin("runtime.tick")
                recs.append(tick(x, program))
                end()
            t1 = perf_counter()
            end()
            enforced.append((t0, (t1 - t0) / len(block)))
            speed.maybe_probe()
        if perf_counter() - start >= seconds or len(tracer.spans) >= sizes.span_budget:
            speed.probe()
            return enforced


def trace_digest(records) -> str:
    text = "\n".join(format_record(r) for r in records)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _edits(records) -> tuple[int, int]:
    return sum(r.input_edited for r in records), sum(r.output_edited for r in records)


def _check(result: Result, st: _Setup, first, last, sizes: Sizes) -> None:
    """Output checks, all outside the timed region."""
    a = st.automaton
    location = a.initial
    for r in first:
        location = a.step(location, r.released)
        if r.state_after == a.violating or r.state_after != location:
            result.failed += 1
    result.check(result.failed == 0, "a tick left the tracked location or reached the trap")
    result.check(a.accepts(tuple(r.released for r in first)), "released word not accepted")
    result.check(
        [format_record(r) for r in first] == [format_record(r) for r in last],
        "passes over the same inputs released different traces",
    )
    prefix = first[: sizes.oracle_prefix]
    expected = oracle_enforce(a, tuple(r.observed for r in prefix))
    result.check(
        expected == tuple(r.released for r in prefix),
        "released prefix differs from the word-level oracle",
    )
    inputs_edited, outputs_edited = _edits(first)
    result.check(inputs_edited > 0 and outputs_edited > 0, "an edit path never ran")

    pinned = _setup(PINNED_SEED, PINNED_TICKS)
    records = pinned.enforcer.run(pinned.inputs, pinned.program)
    result.check(_edits(records) == PINNED_EDITS, f"pinned edit counts {_edits(records)}")
    result.check(trace_digest(records) == PINNED_SHA256, "pinned trace digest differs")


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    result = Result("tick")
    speed = Speed()
    if not trace:
        setup_s, st = timed_median(lambda: _setup(seed, sizes.ticks), sizes.setup_repeats, speed)
        enforced, plain, first, last = _paired_passes(st, sizes, seconds, speed)
    else:
        tracer = Tracer(f"tick-{seed}")
        speed.probe()
        with patched(tracer, syncguard.runtime, RUNTIME_SPANS):
            st = _setup(seed, sizes.ticks, tracer)
        enforced, plain, first, last = _paired_passes(st, sizes, seconds / 2, speed)
        with patched(tracer, syncguard.runtime, RUNTIME_SPANS):
            traced = _traced_passes(st, sizes, seconds / 2, speed, tracer)
        tracer.write(common.OUT_DIR / f"spans-tick-{seed}.tsv")

    result.attempted = len(first)
    _check(result, st, first, last, sizes)
    result.add_error_rate("ticks of the first pass")
    inputs_edited, outputs_edited = _edits(first)
    n_blocks = -(-len(st.inputs) // sizes.block)
    enforced_s = speed.scaled(enforced)
    per_block = item_medians(enforced_s, n_blocks)

    if not trace:
        us = [t * 1e6 for t in per_block]
        plain_s = speed.scaled(plain)
        overhead = item_medians([(e - p) * 1e6 for e, p in zip(enforced_s, plain_s)], n_blocks)
        passes = len(enforced_s) // n_blocks
        blocks = f"over {n_blocks} blocks of {sizes.block} ticks, median of {passes} passes each"
        named = {
            "setup_s": Metric(setup_s, "s", f"median of {sizes.setup_repeats} set-ups"),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
            "tick_us_p50": Metric(median(us), "us", blocks),
            "tick_us_p95": Metric(percentile(us, 95), "us", blocks),
            "ticks_per_s": Metric(n_blocks / sum(per_block), "1/s", f"{passes * len(st.inputs)} ticks run"),
            "overhead_us_p50": Metric(median(overhead), "us", "paired enforced-minus-bare per-block differences"),
            "bare_us_p50": Metric(median(item_medians(plain_s, n_blocks)) * 1e6, "us", blocks),
            "probe_ms_p50": Metric(median(speed.took) * 1e3, "ms", "speed probe; 1 ms at the reference speed"),
        }
        result.named.update(named)
        result.end_to_end = {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "latency_us_p50": named["tick_us_p50"],
            "latency_us_p95": named["tick_us_p95"],
            "throughput_per_s": named["ticks_per_s"],
        }
    else:
        stats = tracer.stats(speed.scale)
        check_spans(result, stats, REQUIRED_SPANS)
        result.per_layer = layer_metrics(
            stats,
            raw_states=st.raw_states,
            locations=len(st.automaton.locations),
            events=len(st.automaton.alphabet.events),
            edits=(inputs_edited, outputs_edited, len(first)),
            overhead_pct=(median(item_medians(speed.scaled(traced), n_blocks)) / median(per_block) - 1) * 100,
        )
    return result
