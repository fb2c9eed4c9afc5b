"""CLI runs that a row of ``test_cli_cases.CASES`` cannot hold: runs
chained through the files they write, a trace read back and checked
record by record, a run with ``Enforcer.tick`` patched, ``--out`` through
a symlink, the memory a long ``simulate`` run takes, and a run whose
reader closes its stdout.
"""

import dataclasses
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from syncguard import Enforcer, Event, mutual_exclusion, render_automaton
from syncguard.cli import main
from syncguard.programs import ScriptedProgram
from syncguard.trace import read_trace

SRC = Path(__file__).parent.parent / "src"


def records_of(path):
    with open(path, encoding="utf-8") as handle:
        return list(read_trace(handle))


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.aut"
    path.write_text(render_automaton(mutual_exclusion()))
    return str(path)


class TestSimulate:
    def test_writes_trace_and_summary(self, s1_file, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        code = main(
            ["simulate", s1_file, "const:1", "--ticks", "40", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "ticks=40" in summary
        records = records_of(out)
        assert len(records) == 40
        a = mutual_exclusion()
        released = tuple(r.released for r in records)
        for k in range(len(released) + 1):
            assert a.accepts(released[:k])

    def test_random_environment_runs_1000_ticks_by_default(self, s1_file, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        assert main(["simulate", s1_file, "const:1", "--seed", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("ticks=1000 ")
        assert len(records_of(out)) == 1000
        # the same when the environment is named
        named = tmp_path / "named.txt"
        argv = ["simulate", s1_file, "const:1", "--env", "random", "--seed", "5", "--out", str(named)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("ticks=1000 ")
        assert named.read_bytes() == out.read_bytes()

    def test_byte_identical_reruns(self, s1_file, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["simulate", s1_file, "const:1", "--ticks", "100", "--seed", "9"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert filecmp.cmp(out1, out2, shallow=False)
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_environment_replay(self, s1_file, tmp_path):
        first = tmp_path / "first.txt"
        main(["simulate", s1_file, "const:1", "--ticks", "25", "--seed", "3",
              "--out", str(first)])
        second = tmp_path / "second.txt"
        code = main(
            ["simulate", s1_file, "const:1", "--env", f"trace:{first}",
             "--out", str(second)]
        )
        assert code == 0
        r1 = records_of(first)
        r2 = records_of(second)
        assert [r.observed.input for r in r1] == [r.observed.input for r in r2]

    def test_scripted_program_replays_outputs(self, s1_file, tmp_path):
        first = tmp_path / "first.txt"
        main(["simulate", s1_file, "const:1", "--ticks", "25", "--seed", "3",
              "--out", str(first)])
        second = tmp_path / "second.txt"
        code = main(
            ["simulate", s1_file, f"scripted:{first}", "--env", f"trace:{first}",
             "--out", str(second)]
        )
        assert code == 0
        assert records_of(first) == records_of(second)


class TestVerify:
    def test_failed_check_prints_counterexamples_and_writes_the_replay(
        self, s1_file, tmp_path, capsys, monkeypatch
    ):
        # break the enforcer: every tick releases the observed event as is
        original = Enforcer.tick

        def tick(self, inputs, program):
            record = original(self, inputs, program)
            return dataclasses.replace(record, released=record.observed)

        monkeypatch.setattr(Enforcer, "tick", tick)
        out = tmp_path / "counterexample.trace"
        capsys.readouterr()
        assert main(["verify", s1_file, "--max-len", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().out == (
            "soundness: FAIL\n"
            "monotonicity: pass\n"
            "instantaneity: pass\n"
            "transparency: pass\n"
            "causality: FAIL\n"
            "weak_transparency: pass\n"
            "words checked: 73\n"
            "counterexample (soundness): 00/0 01/1\n"
            "counterexample (causality): 00/0 01/1\n"
            f"counterexample trace written to {out}\n"
        )
        assert out.read_text() == (
            "# counterexample for soundness\n"
            "0\t00/0\t00/0\t0\t0\tq0\n"
            "1\t01/1\t01/1\t0\t0\tq0\n"
        )
        # the replay's records: one tick per observed event, each with its own output
        enforcer = Enforcer(mutual_exclusion())
        expected = [
            enforcer.tick(e.input, ScriptedProgram([e.output]))
            for e in map(Event.from_text, ("00/0", "01/1"))
        ]
        assert records_of(out) == expected


class TestOut:
    def test_out_through_a_symlink_writes_the_target(self, s1_file, tmp_path, capsys):
        target = tmp_path / "target.trace"
        target.write_text("previous\n")
        link = tmp_path / "link.trace"
        link.symlink_to(target)
        argv = ["simulate", s1_file, "const:1", "--ticks", "3", "--seed", "4"]
        assert main(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert main(argv + ["--out", str(tmp_path / "plain.trace")]) == 0
        assert target.read_bytes() == (tmp_path / "plain.trace").read_bytes()
        assert records_of(target)[2].t == 2


# Run in a fresh interpreter, which reads its own peak RSS before and after
# the run: in pytest, RUSAGE_CHILDREN would also cover every other child.
PEAK_PROBE = """
import resource, sys
from syncguard.cli import main

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

before = peak()
code = main(sys.argv[1:])
print(code, before, peak(), file=sys.stderr)
"""


def test_simulate_streams_its_trace(s1_file, tmp_path):
    """A 300,000-tick run that kept its records grew the peak RSS by 33 MB
    on CPython 3.11; streamed, it grows 3.3 MB, most of it the environment's
    list of inputs."""
    out = tmp_path / "long.trace"
    argv = ["simulate", s1_file, "const:1", "--ticks", "300000", "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    code, before, after = map(int, result.stderr.split())
    assert code == 0 and result.stdout.startswith("ticks=300000 "), result.stdout
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, else KiB
    assert (after - before) * unit < 10 * 2**20
    with open(out, encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 300001


def test_a_closed_stdout_ends_the_run_quietly(s1_file):
    """A reader that stops after two lines (``| head -2``) closes the pipe;
    the run stops with 141, as a shell reports SIGPIPE, and says nothing."""
    argv = [sys.executable, "-m", "syncguard.cli", "simulate", s1_file, "const:1",
            "--ticks", "200000"]
    run = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": str(SRC)},
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [run.stdout.readline() for _ in range(2)]
    run.stdout.close()
    stderr = run.stderr.read()
    assert run.wait(timeout=60) == 141
    assert stderr == b""
    assert lines[0].startswith(b"# syncguard simulate ") and lines[1].startswith(b"0\t")
