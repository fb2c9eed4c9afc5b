import dataclasses
import filecmp

import pytest

from syncguard import (
    Enforcer,
    Event,
    dead_end_branch,
    dead_end_branch_repaired,
    isomorphic,
    mutual_exclusion,
    normalize,
    parse_automaton,
    render_automaton,
    at_most_one_tick,
)
from syncguard.cli import main
from syncguard.programs import ScriptedProgram
from syncguard.trace import read_trace


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.aut"
    path.write_text(render_automaton(mutual_exclusion()))
    return str(path)


@pytest.fixture
def doomed_file(tmp_path):
    path = tmp_path / "doomed.aut"
    path.write_text(render_automaton(at_most_one_tick()))
    return str(path)


@pytest.fixture
def branchy_file(tmp_path):
    path = tmp_path / "branchy.aut"
    path.write_text(render_automaton(dead_end_branch()))
    return str(path)


class TestCheck:
    def test_enforceable_exits_zero(self, s1_file, capsys):
        assert main(["check", s1_file]) == 0
        assert "enforceable" in capsys.readouterr().out

    def test_dead_location_reported(self, doomed_file, capsys):
        assert main(["check", doomed_file]) == 1
        out = capsys.readouterr().out
        assert "not enforceable" in out and "q1" in out and "witness" in out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.aut"
        path.write_text("inputs: A\nstates: q0\n")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent.aut"]) == 2

    def test_too_wide_interface_exits_two(self, tmp_path, capsys):
        path = tmp_path / "wide.aut"
        path.write_text(
            "inputs: " + " ".join(f"i{j}" for j in range(17)) + "\noutputs:\n"
            "states: q0 qv\ninitial: q0\nviolating: qv\n"
        )
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "declares 17 variables; at most 16" in captured.err


class TestTransform:
    def test_writes_repaired_automaton(self, branchy_file, tmp_path):
        out = tmp_path / "repaired.aut"
        assert main(["transform", branchy_file, "--out", str(out)]) == 0
        repaired = normalize(parse_automaton(out.read_text()))
        assert isomorphic(repaired, dead_end_branch_repaired())

    def test_unrepairable_prints_none(self, doomed_file, capsys):
        assert main(["transform", doomed_file]) == 1
        assert capsys.readouterr().out.strip() == "NONE"

    def test_enforceable_round_trips(self, s1_file, tmp_path):
        out = tmp_path / "same.aut"
        assert main(["transform", s1_file, "--out", str(out)]) == 0
        assert normalize(parse_automaton(out.read_text())) == mutual_exclusion()


def test_project_lists_nondeterministic_branches(s1_file, capsys):
    assert main(["project", s1_file]) == 0
    out = capsys.readouterr().out
    assert "q0 -> q0 : 01" in out
    assert "q0 -> qv : 01" in out


class TestExplain:
    def test_lexicographic_table(self, s1_file, capsys):
        assert main(["explain", s1_file, "--policy", "lex"]) == 0
        out = capsys.readouterr().out
        assert "q0: safe inputs {00 01 10}  choose 00" in out
        assert "q0 given 01: safe outputs {0}  choose 0" in out

    def test_nearest_prints_sets_without_table(self, s1_file, capsys):
        assert main(["explain", s1_file]) == 0
        out = capsys.readouterr().out
        assert "safe inputs {00 01 10}" in out
        assert "choose" not in out

    def test_zero_width_inputs_render_as_empty(self, tmp_path, capsys):
        path = tmp_path / "no_inputs.aut"
        path.write_text(
            "inputs:\noutputs: R\nstates: q0 qv\ninitial: q0\nviolating: qv\n"
            "q0 -> q0 : /0\nq0 -> qv : /1\n"
        )
        assert main(["explain", str(path), "--policy", "lex"]) == 0
        out = capsys.readouterr().out
        assert "q0: safe inputs {<empty>}  choose <empty>\n" in out
        assert "q0 given <empty>: safe outputs {0}  choose 0\n" in out


    @pytest.mark.parametrize("policy", ["nearest", "lex", "random"])
    def test_dead_automaton_prints_sets_without_choice(self, doomed_file, capsys, policy):
        assert main(["explain", doomed_file, "--policy", policy]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("policy: ")
        assert [line for line in lines[1:] if not line.startswith("(nearest")] == [
            "q0: safe inputs {0 1}",
            "q0 given 0: safe outputs {0 1}",
            "q0 given 1: safe outputs {0 1}",
            "q1: safe inputs {}",
        ]


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

    def test_non_enforceable_needs_flag(self, branchy_file, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        argv = ["simulate", branchy_file, "const:0", "--ticks", "10", "--out", str(out)]
        assert main(argv) == 1
        assert "auto-transform" in capsys.readouterr().err
        assert main(argv + ["--auto-transform"]) == 0
        assert len(read_trace(out.read_text())) == 10

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

    @pytest.fixture
    def trace_30(self, s1_file, tmp_path):
        path = tmp_path / "thirty.txt"
        main(["simulate", s1_file, "const:1", "--ticks", "30", "--seed", "4",
              "--out", str(path)])
        return path

    def test_trace_environment_runs_whole_trace_by_default(self, s1_file, trace_30, capsys):
        capsys.readouterr()
        assert main(["simulate", s1_file, "const:1", "--env", f"trace:{trace_30}"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# syncguard simulate policy=nearest seed=0 ticks=30 ")
        assert "ticks=30 " in captured.err

    def test_ticks_cuts_trace_environment(self, s1_file, trace_30, tmp_path, capsys):
        out = tmp_path / "five.txt"
        argv = ["simulate", s1_file, "const:1", "--env", f"trace:{trace_30}",
                "--ticks", "5", "--out", str(out)]
        assert main(argv) == 0
        assert "ticks=5 " in out.read_text().splitlines()[0]
        records = read_trace(out.read_text())
        whole = read_trace(trace_30.read_text())
        assert [r.observed.input for r in records] == [r.observed.input for r in whole[:5]]

    def test_ticks_beyond_trace_rejected_before_any_tick(self, s1_file, trace_30, capsys):
        capsys.readouterr()
        argv = ["simulate", s1_file, "const:1", "--env", f"trace:{trace_30}", "--ticks", "31"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{trace_30}: trace has 30 records, --ticks asks for 31" in captured.err

    @pytest.fixture
    def short_trace(self, s1_file, tmp_path):
        path = tmp_path / "short.txt"
        main(["simulate", s1_file, "const:1", "--ticks", "3", "--out", str(path)])
        return path

    def test_short_script_rejected_before_any_tick(self, s1_file, short_trace, capsys):
        capsys.readouterr()
        for argv in (
            ["simulate", s1_file, f"scripted:{short_trace}", "--ticks", "10"],
            ["bench", s1_file, f"scripted:{short_trace}", "--ticks", "10", "--runs", "1"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "script has 3 outputs, the run needs 10" in captured.err
        # a script as long as the run is accepted
        argv = ["simulate", s1_file, f"scripted:{short_trace}", "--ticks", "3"]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "record, role",
        [("00/10\t00/10\t0\t0\tq0", "program"), ("001/1\t001/1\t0\t0\tq0", "env")],
        ids=["program", "env"],
    )
    def test_trace_widths_checked_on_load(self, s1_file, tmp_path, capsys, record, role):
        path = tmp_path / "wide.txt"
        path.write_text("0\t00/0\t00/0\t0\t0\tq0\n1\t" + record + "\n")
        program = f"scripted:{path}" if role == "program" else "const:1"
        env = f"trace:{path}" if role == "env" else "random"
        argv = ["simulate", s1_file, program, "--env", env, "--ticks", "2"]
        assert main(argv) == 2
        assert f"{path}: tick 1" in capsys.readouterr().err


    @pytest.mark.parametrize("role", ["program", "env"])
    def test_bad_trace_flag_exits_two(self, s1_file, tmp_path, capsys, role):
        path = tmp_path / "flagged.txt"
        path.write_text("0\t00/0\t00/0\t0\t0\tq0\n1\t00/0\t00/0\t7\t0\tq0\n")
        program = f"scripted:{path}" if role == "program" else "const:1"
        env = f"trace:{path}" if role == "env" else "random"
        capsys.readouterr()
        argv = ["simulate", s1_file, program, "--env", env, "--ticks", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "edit flag must be 0 or 1, got '7'" in captured.err

    @pytest.mark.parametrize("role", ["program", "env"])
    @pytest.mark.parametrize(
        "record, message",
        [
            ("00/0\t10/0\t0\t0", "input-edited flag '0' disagrees"),
            ("00/0\t0/00\t1\t1", "differ in shape"),
        ],
        ids=["flag", "shape"],
    )
    def test_trace_line_contradicting_itself_exits_two(
        self, s1_file, tmp_path, capsys, role, record, message
    ):
        path = tmp_path / "contradicting.txt"
        path.write_text(f"0\t{record}\tq0\n")
        program = f"scripted:{path}" if role == "program" else "const:1"
        env = f"trace:{path}" if role == "env" else "random"
        capsys.readouterr()
        argv = ["simulate", s1_file, program, "--env", env, "--ticks", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("role", ["program", "env"])
    @pytest.mark.parametrize(
        "record, message",
        [
            (
                "007\t00/0\t00/0\t0\t0\tq0",
                "tick index must be a non-negative decimal integer, got '007'",
            ),
            ("0\t00/0\t00/0\t0\t0\t", "location field must not be empty"),
        ],
        ids=["leading-zero", "empty-location"],
    )
    def test_non_canonical_trace_line_exits_two(
        self, s1_file, tmp_path, capsys, role, record, message
    ):
        path = tmp_path / "noncanonical.txt"
        path.write_text(f"{record}\n")
        program = f"scripted:{path}" if role == "program" else "const:1"
        env = f"trace:{path}" if role == "env" else "random"
        capsys.readouterr()
        argv = ["simulate", s1_file, program, "--env", env, "--ticks", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: {message}" in captured.err

    @pytest.mark.parametrize("role", ["program", "env"])
    def test_trace_field_wider_than_any_interface_exits_two(self, s1_file, tmp_path, capsys, role):
        path = tmp_path / "wide17.txt"
        path.write_text(f"0\t{'0' * 17}/0\t00/0\t0\t0\tq0\n")
        program = f"scripted:{path}" if role == "program" else "const:1"
        env = f"trace:{path}" if role == "env" else "random"
        capsys.readouterr()
        argv = ["simulate", s1_file, program, "--env", env, "--ticks", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: interface declares 17 variables; at most 16" in captured.err


    def test_mealy_program_document(self, s1_file, tmp_path, capsys):
        program = tmp_path / "toggle.mealy"
        program.write_text(
            "inputs: A B\noutputs: R\nstates: s t\ninitial: s\n"
            "s -> t : -- / 1\nt -> s : -- / 0\n"
        )
        capsys.readouterr()
        argv = ["simulate", s1_file, str(program), "--ticks", "6", "--seed", "2"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "# syncguard simulate policy=nearest seed=2 ticks=6 env=random\n"
            "0\t11/1\t10/1\t1\t0\tq0\n"
            "1\t01/0\t01/0\t0\t0\tq0\n"
            "2\t11/1\t10/1\t1\t0\tq0\n"
            "3\t00/0\t00/0\t0\t0\tq0\n"
            "4\t11/1\t10/1\t1\t0\tq0\n"
            "5\t11/0\t10/0\t1\t0\tq0\n"
        )
        assert captured.err == "ticks=6 input_edits=4 output_edits=0\n"

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    @pytest.mark.parametrize("spec", ["synthetic:8:1:junk", "synthetic:8:", "synthetic:"])
    def test_malformed_synthetic_spec_exits_two(self, s1_file, capsys, command, spec):
        capsys.readouterr()
        assert main([command, s1_file, spec, "--ticks", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expected synthetic:WIDTH[:SEED], got {spec!r}\n"

    def test_unknown_environment_spec_exits_two(self, s1_file, capsys):
        capsys.readouterr()
        assert main(["simulate", s1_file, "const:0", "--env", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown environment spec 'bogus'\n"

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_untransformable_property_exits_one(self, doomed_file, capsys, command):
        capsys.readouterr()
        argv = [command, doomed_file, "const:0", "--auto-transform", "--ticks", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: property cannot be transformed into an enforceable one\n"


class TestVerify:
    def test_all_constraints_pass(self, s1_file, capsys):
        assert main(["verify", s1_file, "--max-len", "3"]) == 0
        out = capsys.readouterr().out
        for name in ("soundness", "monotonicity", "instantaneity",
                     "transparency", "causality", "weak_transparency"):
            assert f"{name}: pass" in out

    def test_non_enforceable_rejected(self, doomed_file, capsys):
        assert main(["verify", doomed_file]) == 1

    def test_negative_max_len_exits_two(self, s1_file, capsys):
        assert main(["verify", s1_file, "--max-len", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_len" in captured.err

    def test_over_budget_max_len_exits_two(self, s1_file, capsys):
        assert main(["verify", s1_file, "--max-len", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "enumeration budget exceeded" in captured.err

    def test_depth_past_the_bound_exits_two(self, tmp_path, capsys):
        # one event per level: 100000 is within the word budget, not the depth bound
        path = tmp_path / "null.aut"
        path.write_text("inputs:\noutputs:\nstates: q0 qv\ninitial: q0\nviolating: qv\nq0 -> q0 : /\n")
        assert main(["verify", str(path), "--max-len", "1000"]) == 0
        assert capsys.readouterr().out.endswith("words checked: 1001\n")
        assert main(["verify", str(path), "--max-len", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_len must be at most 1000, got 100000\n"

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


def test_bench_prints_result(s1_file, capsys):
    code = main(["bench", s1_file, "const:1", "--ticks", "50", "--runs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "us/tick" in out and "increase" in out


def test_mealy_program_file(s1_file, tmp_path, capsys):
    # interface mismatch is a load error
    program = tmp_path / "prog.mealy"
    program.write_text(
        "inputs: A\noutputs: B\nstates: s\ninitial: s\ns -> s : - / 0\n"
    )
    assert main(["simulate", s1_file, str(program), "--ticks", "5"]) == 2
    assert "does not match" in capsys.readouterr().err
