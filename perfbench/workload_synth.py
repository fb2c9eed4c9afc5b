"""``synth`` workload: property documents synthesized into enforcers.

Each document goes from text to an ``Enforcer`` under each of the three
policies: ``parse_automaton``, ``normalize``, ``check_enforceability``,
then ``Enforcer(...)`` three times.  The seeded mix alternates two kinds:

* nondeterministic documents with wildcards over 3 to 6 variables, where
  ``normalize`` (subset construction) dominates;
* deterministic documents over 5 to 8 variables, where the input
  projection and the edit sets built by each ``Enforcer`` dominate.

Shapes (interface width and raw state count) are cycled in a fixed order,
so every seed gets the same shape mix and only the transitions vary.  Every
raw non-violating state has a transition to a non-violating state, which
makes each document enforceable by construction.  ``Enforcer.tick`` never
runs in the timed region: this is where set-up cost lives, and it is the
workload on which a tick optimisation should change nothing.  Its set-up
time is ``parse_automaton`` over the whole mix; generating the mix is the
benchmark's own work and is not timed.
"""

from __future__ import annotations

import hashlib
import itertools
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
    Enforcer,
    Event,
    check_enforceability,
    enforce_word,
    normalize,
    parse_automaton,
    render_automaton,
)
from syncguard.oracle import oracle_enforce

POLICY_SEED = 7

# (inputs, outputs, raw states) per document kind, cycled in this order.
NONDETERMINISTIC_SHAPES = (
    (2, 1, 4), (2, 1, 5), (2, 2, 4), (3, 1, 4), (2, 2, 5), (3, 2, 4), (2, 1, 6), (3, 1, 5),
)
# The last shape is the widest and the costliest: a tenth of the mix, so
# the 95th percentile falls inside its tier rather than on a tier's edge.
DETERMINISTIC_SHAPES = ((3, 2, 4), (3, 3, 3), (4, 2, 4), (4, 3, 3), (5, 3, 6))

# The pinned mix: seed, number of documents, and the SHA-256 over each
# document's rendered normalized automaton followed by its verdict.
PINNED_SEED = 1
PINNED_DOCUMENTS = 32
PINNED_SHA256 = "f20097996a8f940a845c8a66aa3a682af6f62a22cfe5e4ce0d12194a706c5354"

# Spans a traced run must produce.
REQUIRED_SPANS = (
    "synth.document", "automata.parse", "automata.normalize", "analysis.check_enforceability",
    "runtime.enforcer_init", "automata.project_inputs", "editing.compute_edit_sets",
    "editing.build_edit_tables",
)


def _header(n_in: int, n_out: int, n_states: int) -> tuple[list[str], list[str]]:
    states = [f"s{j}" for j in range(n_states)]
    lines = [
        "inputs: " + " ".join(f"i{j}" for j in range(n_in)),
        "outputs: " + " ".join(f"o{j}" for j in range(n_out)),
        "states: " + " ".join(states) + " bad",
        "initial: s0",
        "violating: bad",
    ]
    return states, lines


def _pattern(rng: random.Random, width: int) -> str:
    return "".join("-" if rng.random() < 0.5 else rng.choice("01") for _ in range(width))


def nondeterministic_document(rng: random.Random, n_in: int, n_out: int, n_states: int) -> str:
    """Three wildcard transitions per state; overlapping labels make it
    nondeterministic, and the first always stays out of the trap."""
    states, lines = _header(n_in, n_out, n_states)
    for src in states:
        for k in range(3):
            dst = "bad" if k and rng.random() < 0.15 else rng.choice(states)
            lines.append(f"{src} -> {dst} : {_pattern(rng, n_in)}/{_pattern(rng, n_out)}")
    return "\n".join(lines) + "\n"


def deterministic_document(rng: random.Random, n_in: int, n_out: int, n_states: int) -> str:
    """Each state branches on two random variables; one branch leads to the
    next state in a ring, so every state is reachable and live.  Labels
    partition the events, so the document is deterministic."""
    states, lines = _header(n_in, n_out, n_states)
    width = n_in + n_out
    for j, src in enumerate(states):
        guards = rng.sample(range(width), 2)
        live = rng.randrange(4)
        for branch in range(4):
            label = ["-"] * width
            label[guards[0]] = "01"[branch >> 1]
            label[guards[1]] = "01"[branch & 1]
            if branch == live:
                dst = states[(j + 1) % n_states]
            else:
                dst = rng.choice(states) if rng.random() > 0.3 else "bad"
            text = "".join(label)
            lines.append(f"{src} -> {dst} : {text[:n_in]}/{text[n_in:]}")
    return "\n".join(lines) + "\n"


def document_mix(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    docs = []
    for i in range(count):
        if i % 2 == 0:
            shape = NONDETERMINISTIC_SHAPES[(i // 2) % len(NONDETERMINISTIC_SHAPES)]
            docs.append(nondeterministic_document(rng, *shape))
        else:
            shape = DETERMINISTIC_SHAPES[(i // 2) % len(DETERMINISTIC_SHAPES)]
            docs.append(deterministic_document(rng, *shape))
    return docs


@dataclass(frozen=True)
class Sizes:
    documents: int = 512
    setup_repeats: int = 9
    language_words: int = 24  # random words on which raw and normalized must agree
    span_budget: int = 300_000


def synthesize(text: str, tracer: Tracer | None = None):
    raw = call(tracer, "automata.parse", parse_automaton, text)
    automaton = call(tracer, "automata.normalize", normalize, raw)
    report = call(tracer, "analysis.check_enforceability", check_enforceability, automaton)
    enforcers = tuple(
        call(tracer, "runtime.enforcer_init", Enforcer, automaton, p, POLICY_SEED) for p in POLICIES
    )
    return raw, automaton, report, enforcers


def _passes(
    docs, seconds: float, speed: Speed, checker: "_Checker",
    tracer: Tracer | None = None, span_budget: int = 0,
):
    """Synthesize the whole mix per pass until ``seconds`` have elapsed.

    Returns ``(start, duration)`` per synthesis, grouped by pass.  Each
    product goes to ``checker`` after its timing ends; a document that
    raises yields None.
    """
    passes = []
    speed.probe()
    start = perf_counter()
    for pass_index in itertools.count():
        times = []
        for i, text in enumerate(docs):
            t0 = perf_counter()
            try:
                out = call(tracer, "synth.document", synthesize, text, tracer)
            except ValueError:
                out = None
            times.append((t0, perf_counter() - t0))
            checker.take(pass_index, i, out)
            speed.maybe_probe()
        passes.append(times)
        now = perf_counter() - start
        if now >= seconds or (tracer is not None and len(tracer.spans) >= span_budget):
            speed.probe()
            return passes


def _parse_all(docs) -> None:
    """Parse every document, keeping none, so the set-up holds no more
    memory than one document's automaton."""
    for text in docs:
        parse_automaton(text)


def pinned_digest(seed: int = PINNED_SEED, count: int = PINNED_DOCUMENTS) -> str:
    digest = hashlib.sha256()
    for text in document_mix(seed, count):
        raw, automaton, report, _ = synthesize(text)
        digest.update(render_automaton(automaton).encode("ascii"))
        digest.update(f"{report.enforceable}\n".encode("ascii"))
    return digest.hexdigest()


def _random_word(rng: random.Random, events, length: int):
    return tuple(events[rng.randrange(len(events))] for _ in range(length))


class _Checker:
    """Output checks, run on each product after its timing has ended.

    The first pass is checked in full and its automata kept; every later
    pass must normalize each document to an equal automaton.  Only the
    latest pass's automata are held, so memory stays that of one mix.
    """

    def __init__(self, seed: int, sizes: Sizes):
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.first: list = []
        self.latest: list = []
        self.failed = 0
        self.counts = [0, 0, 0]  # raw states, normalized locations, events

    def take(self, pass_index: int, i: int, out) -> None:
        if pass_index == 0:
            self.first.append(None if out is None else out[1])
            if out is None or not self._correct(out):
                self.failed += 1
            else:
                raw, a, _, _ = out
                self.counts[0] += len(raw.states)
                self.counts[1] += len(a.locations)
                self.counts[2] += len(a.alphabet.events)
        else:
            if i == 0:
                self.latest = []
            self.latest.append(None if out is None else out[1])

    def _correct(self, out) -> bool:
        raw, a, report, enforcers = out
        rng = self.rng
        if not report.enforceable:
            return False
        events = a.alphabet.events
        for _ in range(self.sizes.language_words):
            word = _random_word(rng, events, rng.randint(1, 6))
            if raw.accepts(word) != a.accepts(word):
                return False
        word = _random_word(rng, events, 3)
        for policy, enforcer in zip(POLICIES, enforcers):
            released = enforce_word(enforcer, word)
            if not a.accepts(released) or released != oracle_enforce(a, word, policy, POLICY_SEED):
                return False
        return True

    def finish(self, result: Result) -> None:
        result.failed = self.failed
        result.check(self.failed == 0, "a document failed or was synthesized wrongly")
        if self.latest:
            same = all(
                (x is None and y is None) or (x is not None and y is not None and x == y)
                for x, y in zip(self.first, self.latest)
            )
            result.check(same, "a document normalized differently in a later pass")
        result.check(pinned_digest() == PINNED_SHA256, "pinned render digests or verdicts differ")


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    result = Result("synth")
    speed = Speed()
    docs = document_mix(seed, sizes.documents)
    if not trace:
        setup_s, _ = timed_median(lambda: _parse_all(docs), sizes.setup_repeats, speed)
    checker = _Checker(seed, sizes)
    passes = _passes(docs, seconds / 2 if trace else seconds, speed, checker)
    if trace:
        tracer = Tracer(f"synth-{seed}")
        with patched(tracer, syncguard.runtime, RUNTIME_SPANS):
            traced = _passes(docs, seconds / 2, speed, _Checker(seed, sizes), tracer, sizes.span_budget)
        tracer.write(common.OUT_DIR / f"spans-synth-{seed}.tsv")

    result.attempted = len(docs)
    checker.finish(result)
    result.add_error_rate("documents of the first pass")
    times = speed.scaled([t for p in passes for t in p])
    per_doc = item_medians(times, len(docs))

    if not trace:
        ms = [t * 1e3 for t in per_doc]
        over = f"over {len(docs)} documents, median of {len(passes)} passes each"
        named = {
            "setup_s": Metric(setup_s, "s", f"parse the whole mix, median of {sizes.setup_repeats}"),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB"),
            "synth_ms_p50": Metric(median(ms), "ms", over),
            "synth_ms_p95": Metric(percentile(ms, 95), "ms", over),
            "synth_s": Metric(sum(per_doc), "s", "whole mix, sum of per-document medians"),
            "probe_ms_p50": Metric(median(speed.took) * 1e3, "ms", "speed probe; 1 ms at the reference speed"),
        }
        result.named.update(named)
        result.end_to_end = {
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
            "latency_us_p50": Metric(named["synth_ms_p50"].value * 1e3, "us", over),
            "latency_us_p95": Metric(named["synth_ms_p95"].value * 1e3, "us", over),
            "throughput_per_s": Metric(len(docs) / sum(per_doc), "1/s", "documents synthesized per second"),
        }
    else:
        traced_s = item_medians(speed.scaled([t for p in traced for t in p]), len(docs))
        raw_states, locations, events = checker.counts
        stats = tracer.stats(speed.scale)
        check_spans(result, stats, REQUIRED_SPANS)
        result.per_layer = layer_metrics(
            stats,
            raw_states=raw_states,
            locations=locations,
            events=events,
            edits=(0, 0, 0),
            overhead_pct=(median(traced_s) / median(per_doc) - 1) * 100,
        )
    return result
