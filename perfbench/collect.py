"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
per metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the interquartile distance as a share of the median.  With
``--out`` the summary and every run's metrics are written as JSON; with
``--trace 0`` that includes the workload's metrics under their own names
(``tick_us_p50``, ``synth_s``, ...), from the run's ``named`` line.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMED = "named "


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/collect.py")
    parser.add_argument("--workloads", default="tick,synth,verify")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {}
    code = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            last = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode in (0, 1) else None
            if last is None or not last["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                code = 1
                continue
            run = {"seed": seed, **last}
            for line in proc.stdout.splitlines():
                if line.startswith(NAMED):
                    named = json.loads(line[len(NAMED):]).items()
                    run["named"] = {k: m for k, m in named if k not in last["metrics"]}
            runs.append(run)
        summary[workload] = {"runs": runs}
        for key in ("metrics", "named"):
            if runs and key in runs[0]:
                summary[workload][key] = {
                    name: {"unit": m["unit"], **summarize([r[key][name]["value"] for r in runs])}
                    for name, m in runs[0][key].items()
                }
        for name, m in summary[workload].get("metrics", {}).items():
            print(f"{workload:<7} {name:<34} median {m['median']:>14.6g} {m['unit']:<6}"
                  f" q1 {m['q1']:>12.6g} q3 {m['q3']:>12.6g} spread {m['spread']:.4f}", flush=True)

    if args.out:
        document = {
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": args.seeds,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
