"""Smoke test of the benchmark's width sweep (``perfbench/sweep.py``).

The sweep runs only by hand, yet it calls the synthesis stages one by one
through their public functions: ``project_inputs``,
``compute_edit_sets(a, ai)``, ``build_edit_tables(sets, "lex")`` and
``Enforcer(a)``.  Timing one small document through it keeps those calls
in step with the library.  The benchmark's files are only imported.
"""

import random
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

STAGES = {
    "automata.parse",
    "automata.normalize",
    "analysis.check_enforceability",
    "automata.project_inputs",
    "editing.compute_edit_sets",
    "editing.build_edit_tables",
    "runtime.enforcer_init",
    "synthesis",
}


def test_stage_times_runs_every_synthesis_stage(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sweep
    from workload_synth import deterministic_document

    sweep.common.check_library()
    point = sweep.stage_times(deterministic_document(random.Random(0), 2, 1, 4))
    assert set(point["seconds"]) == STAGES
    assert all(seconds >= 0 for seconds in point["seconds"].values())
    assert point["events"] == 8
    assert point["raw_states"] == 5 and 2 <= point["normalized_locations"] <= 5
