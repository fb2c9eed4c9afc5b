"""Committed A/B records (``BENCH_pr*.json`` at the repository root) agree
with their own run values.

Each record pairs runs of a parent commit and a change per workload; for
every end-to-end metric ``BENCHMARK.json`` names it stores both sides'
values, median and quartiles, how many pairs the change won and the
change of the median in percent.  The files are only read.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_pr*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_agrees_with_its_values(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        assert set(workload["metrics"]) == set(BETTER), name
        for metric, entry in workload["metrics"].items():
            where = f"{name} {metric}"
            parent, change = entry["parent"], entry["change"]
            for side in (parent, change):
                values = side["values"]
                assert len(values) == pairs, where
                assert side["median"] == statistics.median(values), where
                q1, _, q3 = statistics.quantiles(values, n=4)
                assert (side["q1"], side["q3"]) == (q1, q3), where
            lower = BETTER[metric] == "lower"
            wins = sum(
                c < p if lower else c > p for p, c in zip(parent["values"], change["values"])
            )
            assert entry["change_wins"] == wins, where
            pct = (change["median"] - parent["median"]) / parent["median"] * 100
            assert entry["median_change_pct"] == round(pct, 2), where
