"""CLI runs that a row of ``test_cli_cases.CASES`` cannot hold: runs
chained through the files they write, a trace read back and checked
record by record, and a run with ``Enforcer.tick`` patched.
"""

import dataclasses
import filecmp

import pytest

from syncguard import Enforcer, Event, mutual_exclusion, render_automaton
from syncguard.cli import main
from syncguard.programs import ScriptedProgram
from syncguard.trace import read_trace


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
        records = read_trace(out.read_text())
        assert len(records) == 40
        a = mutual_exclusion()
        released = tuple(r.released for r in records)
        for k in range(len(released) + 1):
            assert a.accepts(released[:k])

    def test_random_environment_runs_1000_ticks_by_default(self, s1_file, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        assert main(["simulate", s1_file, "const:1", "--seed", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("ticks=1000 ")
        assert len(read_trace(out.read_text())) == 1000
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
        r1 = read_trace(first.read_text())
        r2 = read_trace(second.read_text())
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
        assert read_trace(first.read_text()) == read_trace(second.read_text())


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
        assert read_trace(out.read_text()) == expected
