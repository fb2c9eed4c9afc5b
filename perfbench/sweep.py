"""Synthesis cost against interface width and raw state count.

    python3 perfbench/sweep.py [--out perfbench/results/sweep.json]

Runs on its own, outside the benchmark's repeated runs.  Two axes:

* width: deterministic documents (the ``synth`` workload's generator) with
  4 raw states over |I|+|O| = 2, 3, ... ``MAX_WIDTH`` variables, inputs
  taking the larger half; ``bits.events`` is 2^(|I|+|O|);
* raw states: nondeterministic wildcard documents over 3 inputs and 2
  outputs with 2, 3, ... ``MAX_STATES`` raw states, where subset
  construction can blow up.

Each point times the synthesis stages one by one through their public
functions (parse, normalize, check_enforceability, project_inputs,
compute_edit_sets, build_edit_tables for ``lex``, and a whole
``Enforcer(nearest)``), as the median of three documents from seeds 0-2,
and records the normalized location count and the process's peak RSS so
far.  Each axis stops after the first point whose median synthesis takes
longer than ``STOP_S`` or at its maximum; the first width at which it
exceeds ``PRACTICAL_S`` is reported as the point where enumerating
``Alphabet.events`` stops being practical.  Times are wall-clock and not
scaled; ``probe_ms`` gives the machine's speed (see ``common.Speed``).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
from time import perf_counter

import common
from common import Speed, median, peak_rss_mb
from workload_synth import deterministic_document, nondeterministic_document

from syncguard import (
    Enforcer,
    build_edit_tables,
    check_enforceability,
    compute_edit_sets,
    normalize,
    parse_automaton,
    project_inputs,
)

PRACTICAL_S = 1.0  # one document's synthesis, parse to Enforcer
STOP_S = 20.0  # an axis ends after its first point slower than this
MAX_WIDTH = 16
MAX_STATES = 12


def stage_times(text: str) -> dict:
    times = {}

    def timed(name, fn, *args):
        start = perf_counter()
        out = fn(*args)
        times[name] = perf_counter() - start
        return out

    raw = timed("automata.parse", parse_automaton, text)
    a = timed("automata.normalize", normalize, raw)
    timed("analysis.check_enforceability", check_enforceability, a)
    ai = timed("automata.project_inputs", project_inputs, a)
    sets = timed("editing.compute_edit_sets", compute_edit_sets, a, ai)
    timed("editing.build_edit_tables", build_edit_tables, sets, "lex")
    timed("runtime.enforcer_init", Enforcer, a)
    times["synthesis"] = sum(times.values())
    return {
        "raw_states": len(raw.states),
        "normalized_locations": len(a.locations),
        "events": len(a.alphabet.events),
        "seconds": times,
    }


def point(make_doc, seeds=(0, 1, 2)) -> dict:
    runs = [stage_times(make_doc(random.Random(seed))) for seed in seeds]
    names = runs[0]["seconds"]
    return {
        "raw_states": runs[0]["raw_states"],
        "normalized_locations": [r["normalized_locations"] for r in runs],
        "events": runs[0]["events"],
        "seconds": {n: median([r["seconds"][n] for r in runs]) for n in names},
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/sweep.py")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    widths, practical_limit = [], None
    for width in range(2, MAX_WIDTH + 1):
        n_in = (width + 1) // 2
        p = point(lambda rng: deterministic_document(rng, n_in, width - n_in, 4))
        p["inputs"], p["outputs"] = n_in, width - n_in
        widths.append(p)
        total = p["seconds"]["synthesis"]
        print(f"width {width:>2} events {p['events']:>6} synthesis {total:9.4f} s"
              f" rss {p['peak_rss_mb']:.0f} MB", flush=True)
        if practical_limit is None and total > PRACTICAL_S:
            practical_limit = width
        if total > STOP_S:
            break

    states = []
    for n in range(2, MAX_STATES + 1):
        p = point(lambda rng: nondeterministic_document(rng, 3, 2, n))
        states.append(p)
        print(f"raw states {n:>2} locations {p['normalized_locations']}"
              f" synthesis {p['seconds']['synthesis']:.4f} s", flush=True)
        if p["seconds"]["synthesis"] > STOP_S:
            break

    speed = Speed()
    for _ in range(20):
        speed.probe()

    result = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "probe_ms": median(speed.took) * 1e3,
        "practical_s": PRACTICAL_S,
        "first_impractical_width": practical_limit,
        "width_axis": widths,
        "raw_state_axis": states,
    }
    if args.out:
        with open(args.out, "w", encoding="ascii") as stream:
            json.dump(result, stream, indent=1)
            stream.write("\n")
    return 0


if __name__ == "__main__":
    common.check_library()
    sys.exit(main())
