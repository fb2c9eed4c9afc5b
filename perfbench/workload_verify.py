"""``verify`` workload: bounded constraint checking and oracle agreement.

A seeded slice of the acceptance corpus: stratified samples of the
``random_enforceable_automata`` family over 2 inputs and 1 output (seed 42,
the acceptance suite's family) and of the exhaustive family of normalized
automata over 1 input and 1 output.  Each automaton, under each
of the three policies, is one verification unit: one ``check_constraints``
call with ``max_len=4`` and one agreement walk that compares
``Enforcer.tick`` after ``restore`` with ``oracle_step`` on every observed
word up to the same length (the acceptance suite's criterion 6).  The
oracle dominates here, and the runtime is used the way verification uses
it: many short-lived enforcers, ``restore`` before every event, and
one-shot ``ScriptedProgram``s.
"""

from __future__ import annotations

import random
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
from syncguard import (
    POLICIES,
    Alphabet,
    Enforcer,
    ScriptedProgram,
    all_normalized_automata,
    check_constraints,
    check_enforceability,
    random_enforceable_automata,
)
from syncguard.oracle import oracle_step

POLICY_SEED = 7
RANDOM_FAMILY_SEED = 42

# Spans a traced run must produce.
REQUIRED_SPANS = (
    "corpus.generate", "verify.unit", "oracle.check_constraints", "runtime.enforcer_init",
    "analysis.check_enforceability", "automata.project_inputs", "editing.compute_edit_sets",
    "editing.build_edit_tables", "runtime.restore_tick", "programs.call", "oracle.oracle_step",
)


@dataclass(frozen=True)
class Sizes:
    # A tenth of the units come from the costlier random family, so the
    # 95th percentile falls inside that tier rather than on its edge.
    random_automata: int = 7  # sampled from the 100-automaton random family
    exhaustive_automata: int = 60  # sampled from the exhaustive family
    max_len: int = 4
    setup_repeats: int = 11
    span_budget: int = 300_000


def _trap_edges(automaton) -> int:
    return sum(
        1
        for (src, _), dst in automaton.delta.items()
        if dst == automaton.violating and src != automaton.violating
    )


def stratified_sample(rng: random.Random, population: list, k: int) -> list:
    """One automaton from each of ``k`` equal strata of the population
    ordered by its number of edges into the trap, which sets how often
    the enforcer repairs and so what a unit costs; seeds then differ in
    which automata they verify, not in how costly the slice is."""
    ordered = sorted(population, key=_trap_edges)
    bounds = [len(ordered) * i // k for i in range(k + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def corpus_slice(seed: int, sizes: Sizes) -> list:
    """Verification units ``(automaton, policy)`` in a seeded order."""
    random_family = random_enforceable_automata(
        Alphabet(("A", "B"), ("R",)), count=100, max_accepting=4, seed=RANDOM_FAMILY_SEED
    )
    exhaustive = [
        a
        for a in all_normalized_automata(Alphabet(("A",), ("B",)), max_accepting=2)
        if check_enforceability(a).enforceable
    ]
    rng = random.Random(seed)
    automata = stratified_sample(rng, random_family, sizes.random_automata)
    automata += stratified_sample(rng, exhaustive, sizes.exhaustive_automata)
    units = [(a, p) for a in automata for p in POLICIES]
    rng.shuffle(units)
    return units


def agreement_walk(automaton, policy: str, max_len: int, tracer: Tracer | None = None):
    """Runtime against ``oracle_step`` on every observed word up to
    ``max_len``; returns (steps, mismatches, input edits, output edits).

    A mismatch stops the walk below that word, as in the acceptance suite.
    """
    enforcer = call(tracer, "runtime.enforcer_init", Enforcer, automaton, policy, POLICY_SEED)
    events = automaton.alphabet.events
    counts = [0, 0, 0, 0]

    def walk(depth, released, snap):
        if depth >= max_len:
            return
        for event in events:
            if tracer is None:
                enforcer.restore(snap)
                record = enforcer.tick(event.input, ScriptedProgram([event.output]))
                expected = oracle_step(automaton, released, event, policy, POLICY_SEED)
            else:
                program = tracer.wrap("programs.call", ScriptedProgram([event.output]))
                tracer.begin("runtime.restore_tick")
                enforcer.restore(snap)
                record = enforcer.tick(event.input, program)
                tracer.end()
                tracer.begin("oracle.oracle_step")
                expected = oracle_step(automaton, released, event, policy, POLICY_SEED)
                tracer.end()
                counts[2] += record.input_edited
                counts[3] += record.output_edited
            counts[0] += 1
            if record.released != expected:
                counts[1] += 1
                continue
            walk(depth + 1, released + (expected,), enforcer.snapshot())

    walk(0, (), enforcer.snapshot())
    return counts


def _passes(units, sizes: Sizes, seconds: float, speed: Speed, tracer: Tracer | None = None):
    """Verify every unit per pass until ``seconds`` have elapsed.

    Returns per-unit ``(start, duration)`` samples, the same for the
    ``check_constraints`` and walk parts, and per-unit outcomes
    ``(report, walk counts)`` of every pass.
    """
    total, checks, walks, outcomes = [], [], [], []
    speed.probe()
    start = perf_counter()
    while True:
        for automaton, policy in units:
            if tracer is not None:
                tracer.begin("verify.unit")
            t0 = perf_counter()
            report = call(
                tracer, "oracle.check_constraints",
                check_constraints, automaton, policy, sizes.max_len, POLICY_SEED,
            )
            t1 = perf_counter()
            counts = agreement_walk(automaton, policy, sizes.max_len, tracer)
            t2 = perf_counter()
            if tracer is not None:
                tracer.end()
            total.append((t0, t2 - t0))
            checks.append((t0, t1 - t0))
            walks.append((t1, t2 - t1))
            outcomes.append((automaton, report, counts))
            speed.maybe_probe()
        done = perf_counter() - start >= seconds
        if done or (tracer is not None and len(tracer.spans) >= sizes.span_budget):
            speed.probe()
            return total, checks, walks, outcomes


def _check(result: Result, outcomes, sizes: Sizes) -> None:
    """Every report passes, every walk agrees, and both cover every word."""
    for automaton, report, (steps, mismatches, _, _) in outcomes:
        n = len(automaton.alphabet.events)
        words = sum(n**k for k in range(sizes.max_len + 1))
        if not report.passed or report.words_checked != words or mismatches or steps != words - 1:
            result.failed += 1
    result.check(result.failed == 0, "a constraint report failed or the runtime disagreed with the oracle")


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    result = Result("verify")
    speed = Speed()
    if not trace:
        setup_s, units = timed_median(lambda: corpus_slice(seed, sizes), sizes.setup_repeats, speed)
        total, checks, walks, outcomes = _passes(units, sizes, seconds, speed)
    else:
        tracer = Tracer(f"verify-{seed}")
        speed.probe()
        tracer.begin("corpus.generate")
        units = corpus_slice(seed, sizes)
        tracer.end()
        total, checks, walks, outcomes = _passes(units, sizes, seconds / 2, speed)
        with patched(tracer, syncguard.runtime, RUNTIME_SPANS):
            traced, _, _, traced_outcomes = _passes(units, sizes, seconds / 2, speed, tracer)
        tracer.write(common.OUT_DIR / f"spans-verify-{seed}.tsv")
        outcomes += traced_outcomes

    result.attempted = len(outcomes)
    _check(result, outcomes, sizes)
    result.add_error_rate("verification units")
    n = len(units)
    per_unit = item_medians(speed.scaled(total), n)
    words = sum(report.words_checked for _, report, _ in outcomes[:n])
    steps = sum(counts[0] for _, _, counts in outcomes[:n])

    if not trace:
        us = [t * 1e6 for t in per_unit]
        passes = len(total) // n
        over = f"over {n} (automaton, policy) units, median of {passes} passes each"
        check_s = sum(item_medians(speed.scaled(checks), n))
        walk_s = sum(item_medians(speed.scaled(walks), n))
        named = {
            "setup_s": Metric(setup_s, "s", f"median of {sizes.setup_repeats} corpus generations"),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
            "verify_words_per_s": Metric(words / check_s, "1/s", f"{words} check_constraints words per pass"),
            "oracle_steps_per_s": Metric(steps / walk_s, "1/s", f"{steps} agreement-walk steps per pass"),
            "probe_ms_p50": Metric(median(speed.took) * 1e3, "ms", "speed probe; 1 ms at the reference speed"),
        }
        result.named.update(named)
        result.end_to_end = {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "latency_us_p50": Metric(median(us), "us", over),
            "latency_us_p95": Metric(percentile(us, 95), "us", over),
            "throughput_per_s": Metric((words + steps) / sum(per_unit), "1/s", "checked words and walk steps per second"),
        }
    else:
        stats = tracer.stats(speed.scale)
        check_spans(result, stats, REQUIRED_SPANS)
        walked = [counts for _, _, counts in traced_outcomes]
        per_pass = traced_outcomes[: len(units)]
        distinct = list({id(a): a for a, _ in units}.values())
        result.per_layer = layer_metrics(
            stats,
            raw_states=0,
            locations=sum(len(a.locations) for a in distinct),
            events=sum(len(a.alphabet.events) for a in distinct),
            edits=(sum(c[2] for c in walked), sum(c[3] for c in walked), sum(c[0] for c in walked)),
            overhead_pct=(median(item_medians(speed.scaled(traced), n)) / median(per_unit) - 1) * 100,
            words=sum(report.words_checked for _, report, _ in per_pass),
        )
    return result
