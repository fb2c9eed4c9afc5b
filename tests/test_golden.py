"""Byte-for-byte comparison of CLI output with recorded golden files.

``tests/golden/`` holds two enforceable automata (``mutex.aut``: the
mutual-exclusion sample; ``random19.aut``: entry 19 of the seeded random
family, which has two accepting locations and edits both inputs and
outputs), and for each of them the ``project`` output, and the ``explain``
output and a 200-tick ``simulate`` trace under every policy, all with
``--seed 3``.  A third automaton, ``dead_end.aut`` (the dead-end branch
sample, not enforceable), has its ``check`` report with the witness line
(exit 1) and its ``transform`` output.  They are the reference output: a
change to what the enforcer decides or prints shows up here as a byte
difference, so regenerate them only together with an intended change of
output.
"""

from pathlib import Path

import pytest

from syncguard import dead_end_branch, mutual_exclusion, render_automaton
from syncguard.cli import main

GOLDEN = Path(__file__).parent / "golden"
PROGRAMS = {"mutex": "const:1", "random19": "synthetic:8:1"}
POLICIES = ("nearest", "lex", "random")
CASES = [(name, policy) for name in PROGRAMS for policy in POLICIES]


def test_golden_automata_are_the_named_ones(random_family):
    assert (GOLDEN / "mutex.aut").read_text() == render_automaton(mutual_exclusion())
    assert (GOLDEN / "random19.aut").read_text() == render_automaton(random_family[19])
    assert (GOLDEN / "dead_end.aut").read_text() == render_automaton(dead_end_branch())


@pytest.mark.parametrize("name", PROGRAMS)
def test_project_matches_golden(name, capsys):
    assert main(["project", str(GOLDEN / f"{name}.aut")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"project-{name}.txt").read_text()


def test_check_of_the_dead_end_matches_golden(capsys):
    assert main(["check", str(GOLDEN / "dead_end.aut")]) == 1
    assert capsys.readouterr().out == (GOLDEN / "check-dead_end.txt").read_text()


def test_transform_of_the_dead_end_matches_golden(tmp_path):
    out = tmp_path / "repaired.aut"
    assert main(["transform", str(GOLDEN / "dead_end.aut"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "transform-dead_end.aut").read_bytes()


@pytest.mark.parametrize("name,policy", CASES)
def test_explain_matches_golden(name, policy, capsys):
    automaton = str(GOLDEN / f"{name}.aut")
    assert main(["explain", automaton, "--policy", policy, "--seed", "3"]) == 0
    expected = (GOLDEN / f"explain-{name}-{policy}.txt").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name,policy", CASES)
def test_simulate_trace_matches_golden(name, policy, tmp_path, capsys):
    automaton = str(GOLDEN / f"{name}.aut")
    trace = tmp_path / "run.trace"
    argv = ["simulate", automaton, PROGRAMS[name], "--policy", policy,
            "--seed", "3", "--ticks", "200", "--out", str(trace)]
    assert main(argv) == 0
    assert trace.read_bytes() == (GOLDEN / f"simulate-{name}-{policy}.trace").read_bytes()
