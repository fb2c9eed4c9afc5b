"""Benchmark entry point.

    python3 perfbench/run.py --workload tick --seed 1 --seconds 20 --trace 0

``--workload`` is ``tick``, ``synth``, ``verify`` or ``all``.  A single
workload runs in this process and thread.  It prints a human-readable
report, then with ``--trace 0`` a line ``named {...}`` holding as JSON the
workload's metrics under their own names (``tick_us_p50``, ``synth_s``,
...), and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``all`` runs each
workload in its own process, one after the other, and repeats their
reports.  The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the library cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys

import common

WORKLOADS = ("tick", "synth", "verify")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_lines(result: common.Result, trace: bool) -> list[str]:
    lines = [f"workload {result.workload}: " + ("correct" if result.correct else "INCORRECT")]
    lines += [f"  check failed: {p}" for p in result.problems]
    groups = [("per-layer", result.per_layer)] if trace else [
        ("workload", result.named),
        ("end-to-end", result.end_to_end),
    ]
    for title, metrics in groups:
        lines.append(f"  {title} metrics:")
        for name, m in metrics.items():
            note = f"  ({m.note})" if m.note else ""
            lines.append(f"    {name:<34} {m.value:>16.6f} {m.unit}{note}")
    return lines


def _values(metrics: dict[str, common.Metric]) -> dict:
    return {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()}


def named_json(result: common.Result) -> str:
    return json.dumps(_values(result.named))


def result_json(result: common.Result, trace: bool) -> str:
    metrics = result.per_layer if trace else result.end_to_end
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": _values(metrics),
        }
    )


def run_one(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> common.Result:
    module = importlib.import_module(f"workload_{workload}")
    if sizes is None:
        return module.run(seed, seconds, trace)
    return module.run(seed, seconds, trace, sizes)


def _run_all(args) -> int:
    """Each workload in its own process; merge their last lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        common.check_library()
    except ImportError as exc:
        print(f"perfbench: cannot import syncguard from {common.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report_lines(result, bool(args.trace))))
    if not args.trace:
        print("named " + named_json(result))
    print(result_json(result, bool(args.trace)))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
