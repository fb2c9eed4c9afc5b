"""Tests of the benchmark itself, on a tiny smoke configuration.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import common
import run
import workload_synth
import workload_tick
import workload_verify
from spans import Tracer, patched

from syncguard import Enforcer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMOKE = {
    "tick": workload_tick.Sizes(ticks=512, block=64, setup_repeats=1, oracle_prefix=32),
    "synth": workload_synth.Sizes(documents=8, setup_repeats=1, language_words=4),
    "verify": workload_verify.Sizes(
        random_automata=1, exhaustive_automata=2, max_len=2, setup_repeats=1
    ),
}

# The metrics each workload reports under its own names.
NAMED = {
    "tick": ("tick_us_p50", "tick_us_p95", "ticks_per_s", "overhead_us_p50"),
    "synth": ("synth_ms_p50", "synth_ms_p95", "synth_s"),
    "verify": ("verify_words_per_s", "oracle_steps_per_s"),
}
COMMON_NAMED = ("setup_s", "peak_rss_mb", "error_rate")


@pytest.fixture(autouse=True)
def span_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "OUT_DIR", tmp_path)


def smoke(workload: str, trace: bool) -> common.Result:
    return run.run_one(workload, seed=3, seconds=0.0, trace=trace, sizes=SMOKE[workload])


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert result.correct, result.problems
    text = "\n".join(run.report_lines(result, trace))
    last = json.loads(run.result_json(result, trace))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    printed = dict(result.per_layer if trace else {**result.named, **result.end_to_end})
    names = [m["name"] for m in spec] + ([] if trace else [*COMMON_NAMED, *NAMED[workload]])
    for name in names:
        metric = printed[name]
        assert f"{name} " in text and f" {metric.unit}" in text
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result.end_to_end[m["name"]].value > 0


def released_unchanged(monkeypatch):
    """Break the enforcer: every tick releases the observed event as is."""
    original = Enforcer.tick

    def tick(self, inputs, program=None):
        record = original(self, inputs, program)
        return dataclasses.replace(record, released=record.observed)

    monkeypatch.setattr(Enforcer, "tick", tick)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_output_checks_reject_a_broken_enforcer(workload, monkeypatch):
    released_unchanged(monkeypatch)
    result = smoke(workload, False)
    assert not result.correct
    assert not json.loads(run.result_json(result, False))["correct"]


def test_patched_refuses_a_missing_name():
    module = types.ModuleType("refactored")
    module.project_inputs = len
    with pytest.raises(AttributeError, match="compute_edit_sets"):
        with patched(Tracer("t"), module, {"project_inputs": "a", "compute_edit_sets": "b"}):
            pass
    assert module.project_inputs is len


def test_traced_run_fails_when_a_required_span_never_ran(monkeypatch):
    # The nearest enforcer of ``tick`` builds no repair tables.
    required = workload_tick.REQUIRED_SPANS + ("editing.build_edit_tables",)
    monkeypatch.setattr(workload_tick, "REQUIRED_SPANS", required)
    result = smoke("tick", True)
    assert not result.correct
    assert any("editing.build_edit_tables" in p for p in result.problems)


def test_self_time_excludes_children():
    tracer = Tracer("t")
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.end()
    tracer.begin("inner")
    tracer.end()
    tracer.end()
    stats = tracer.stats()
    assert stats["inner"].count == 2
    outer, inner = tracer.spans[0], tracer.spans[1]
    assert inner[3] == 0 and inner[4] == 0  # parent and unit are the outer span
    assert stats["outer"].self_ns == (outer[2] - outer[1]) - stats["inner"].total_ns


def cli(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_cli_prints_the_result_last():
    proc = cli("--workload", "tick", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_all_prints_the_named_metrics_of_every_workload():
    proc = cli("--workload", "all", "--seed", "1", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    for name in COMMON_NAMED + sum(NAMED.values(), ()):
        assert f"    {name} " in proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = cli("--workload", "tick", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
