import functools
import io
import random
from pathlib import Path

import pytest

from syncguard import (
    LEXICOGRAPHIC,
    SEEDED_RANDOM,
    Alphabet,
    BitVector,
    SimConfig,
    SyntheticProgram,
    always_accepting,
    bench,
    mutual_exclusion,
    null_program,
    random_inputs,
    simulate,
)
from syncguard.sim import random_input_chunks
from syncguard.trace import format_record, parse_record, read_trace, write_trace


def test_random_inputs_are_seed_deterministic():
    alpha = Alphabet(("A", "B"), ("R",))
    assert random_inputs(alpha, 50, seed=3) == random_inputs(alpha, 50, seed=3)
    assert random_inputs(alpha, 50, seed=3) != random_inputs(alpha, 50, seed=4)
    assert random_inputs(alpha, 0, seed=3) == []


@pytest.mark.parametrize("ticks", [2.5, True, "3", None])
def test_random_inputs_tick_count_must_be_an_int(ticks):
    alpha = Alphabet(("A", "B"), ("R",))
    with pytest.raises(ValueError, match=f"^ticks must be an int, got {ticks!r}$"):
        random_inputs(alpha, ticks, 0)
    # checked when the chunks are asked for, before any is drawn
    with pytest.raises(ValueError, match=f"^ticks must be an int, got {ticks!r}$"):
        random_input_chunks(alpha, ticks, 0)
    assert random_inputs(alpha, -5, 0) == []


def test_random_inputs_cover_the_input_alphabet():
    alpha = Alphabet(("A", "B"), ("R",))
    drawn = set(random_inputs(alpha, 500, seed=0))
    assert drawn == set(alpha.input_events)


@functools.lru_cache(maxsize=3)
def _per_tick_words(seed, count):
    """The first ``count`` ``getrandbits(32)`` draws of ``Random(seed)``,
    one call per tick: the definition the bulk draw must reproduce."""
    rng = random.Random(seed)
    return tuple(rng.getrandbits(32) for _ in range(count))


@pytest.mark.parametrize("width", range(17))
def test_random_inputs_match_the_per_tick_definition(width):
    from syncguard.sim import DRAWS_PER_CALL

    alpha = Alphabet(tuple(f"i{k}" for k in range(width)), ())
    choices = alpha.input_events
    lengths = [-1, 0, 1, 2, 3, DRAWS_PER_CALL - 1, DRAWS_PER_CALL, DRAWS_PER_CALL + 1]
    for seed in (0, 7, 2**40 + 3):
        words = _per_tick_words(seed, max(lengths))
        for ticks in lengths:
            expected = [choices[word % len(choices)] for word in words[: max(ticks, 0)]]
            drawn = random_inputs(alpha, ticks, seed)
            assert len(drawn) == len(expected), (seed, ticks)
            chunks = list(random_input_chunks(alpha, ticks, seed))
            assert all(0 < len(chunk) <= DRAWS_PER_CALL for chunk in chunks), (seed, ticks)
            assert all(d is e for d, e in zip(drawn, expected)), (seed, ticks)


def null_output_program(automaton):
    from syncguard import ConstantProgram

    alphabet = automaton.alphabet
    return ConstantProgram(alphabet, BitVector((0,) * len(alphabet.outputs)))


class TestTraceFormat:
    def test_record_round_trip(self):
        a = mutual_exclusion()
        config = SimConfig(ticks=20, seed=5)
        records = simulate(a, null_output_program(a), config)
        for record in records:
            assert parse_record(format_record(record)) == record

    def test_file_round_trip_skips_comments(self):
        a = mutual_exclusion()
        records = simulate(a, null_output_program(a), SimConfig(ticks=10, seed=5))
        buffer = io.StringIO()
        write_trace(buffer, records, header=["example header"])
        text = buffer.getvalue()
        assert text.startswith("# example header\n")
        assert list(read_trace(io.StringIO(text))) == records

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="fields"):
            parse_record("0\t10/1\t10/1")

    @pytest.mark.parametrize("flag", ["7", "-2", "", " 1", "01"])
    @pytest.mark.parametrize("position", [3, 4])
    def test_edit_flag_must_be_zero_or_one(self, flag, position):
        fields = ["0", "00/0", "00/0", "0", "0", "q0"]
        fields[position] = flag
        with pytest.raises(ValueError, match="edit flag must be 0 or 1"):
            parse_record("\t".join(fields))

    # a leading zero too: int() would read it, but format_record never writes it
    @pytest.mark.parametrize("t", ["-3", "+3", " 3", "", "1.0", "\u0663", "007", "00", "01"])
    def test_tick_index_must_be_a_non_negative_integer(self, t):
        with pytest.raises(ValueError, match="tick index"):
            parse_record(f"{t}\t00/0\t00/0\t0\t0\tq0")

    def test_empty_location_rejected(self):
        with pytest.raises(ValueError, match="^location field must not be empty$"):
            parse_record("7\t00/0\t00/0\t0\t0\t")
        with pytest.raises(ValueError, match="^location field must not be empty$"):
            list(read_trace(io.StringIO("0\t00/0\t00/0\t0\t0\tq0\n1\t00/0\t00/0\t0\t0\t\n")))

    # a document's names are split on whitespace, and # starts a comment there
    @pytest.mark.parametrize(
        "state", ["q0 ", " q0", "q 0", " ", "\u3000", "q0\x0b", "q0\x1c", "q#0", "#", "q0#"]
    )
    def test_location_no_automaton_can_declare_rejected(self, state):
        with pytest.raises(ValueError, match="^location field must be one name, without"):
            parse_record(f"0\t00/0\t00/0\t0\t0\t{state}")

    def test_location_names_a_document_can_declare_parse(self):
        for state in ("q0", "ok", "s_1", "état", "q0'"):
            assert parse_record(f"0\t00/0\t00/0\t0\t0\t{state}").state_after == state

    @pytest.mark.parametrize(
        "observed, released, flags, side",
        [
            ("00/0", "10/0", "0\t0", "input"),
            ("00/0", "00/0", "1\t0", "input"),
            ("00/0", "01/1", "0\t1", "input"),
            ("00/0", "00/1", "0\t0", "output"),
            ("00/0", "00/0", "0\t1", "output"),
            ("11/1", "10/1", "1\t1", "output"),
        ],
    )
    def test_flags_that_disagree_with_the_events_rejected(self, observed, released, flags, side):
        with pytest.raises(ValueError, match=f"^{side}-edited flag .* disagrees"):
            parse_record(f"0\t{observed}\t{released}\t{flags}\tq0")

    @pytest.mark.parametrize("flags", ["0\t0", "1\t1"])
    @pytest.mark.parametrize(
        "observed, released", [("00/0", "0/00"), ("00/0", "000/0"), ("/1", "1/")]
    )
    def test_events_of_different_shapes_rejected(self, observed, released, flags):
        with pytest.raises(ValueError, match="differ in shape"):
            parse_record(f"0\t{observed}\t{released}\t{flags}\tq0")

    def test_flags_agreeing_with_the_events_parse(self):
        for observed, released, flags in (
            ("00/0", "00/0", (False, False)),
            ("11/1", "10/1", (True, False)),
            ("01/1", "01/0", (False, True)),
            ("11/1", "00/0", (True, True)),
            ("/", "/", (False, False)),
        ):
            line = f"4\t{observed}\t{released}\t{int(flags[0])}\t{int(flags[1])}\tq1"
            record = parse_record(line)
            assert (record.input_edited, record.output_edited) == flags
            assert format_record(record) == line

    def test_negative_index_and_stray_flags_rejected(self):
        with pytest.raises(ValueError):
            parse_record("-3\t00/0\t00/0\t7\t-2\tq0")


GOLDEN = Path(__file__).parent / "golden"
LINE = "0\t00/0\t00/0\t0\t0\tq0"


class TestStreaming:
    """The writer writes each record before it takes the next one, and the
    reader yields records from a text handle, whose lines end at ``\\n``."""

    def test_writer_writes_each_record_before_it_takes_the_next(self):
        a = mutual_exclusion()
        records = simulate(a, null_output_program(a), SimConfig(ticks=50, seed=5))
        stream = io.StringIO()

        def one_at_a_time():
            for k, record in enumerate(records):
                written = "# h\n" + "".join(format_record(r) + "\n" for r in records[:k])
                assert stream.getvalue() == written
                yield record

        assert write_trace(stream, one_at_a_time(), ["h"])[0] == 50
        assert stream.getvalue() == "# h\n" + "".join(format_record(r) + "\n" for r in records)

    @pytest.mark.parametrize(
        "path", sorted(GOLDEN.glob("simulate-*.trace")), ids=lambda path: path.stem
    )
    def test_counts_equal_recounts_over_the_golden_traces(self, path):
        text = path.read_bytes().decode("utf-8")
        with path.open(encoding="utf-8") as handle:
            records = list(read_trace(handle))
        header = text.split("\n", 1)[0]
        assert f" ticks={len(records)} " in header
        stream = io.StringIO()
        counts = write_trace(stream, iter(records), [header[len("# "):]])
        assert stream.getvalue() == text
        assert counts == (
            len(records),
            sum(1 for r in records if r.input_edited),
            sum(1 for r in records if r.output_edited),
        )
        assert counts == write_trace(io.StringIO(), records)

    def test_reader_reads_a_line_only_when_asked_for_its_record(self):
        lines = iter(["# comment\n", "\n", LINE + "\n", "not a record\n"])
        reader = read_trace(lines)
        assert next(reader) == parse_record(LINE)
        assert next(lines) == "not a record\n"
        assert list(reader) == []

    # every separator str.splitlines splits on but \n, \r and \r\n
    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_a_newline_ends_a_line(self, separator, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(f"{LINE}{separator}\n{LINE}\n".encode("utf-8"))
        with path.open(encoding="utf-8") as handle:
            with pytest.raises(ValueError, match="^location field must be one name, without"):
                list(read_trace(handle))

    def test_crlf_lines_read_as_newline_lines(self, tmp_path):
        golden = GOLDEN / "simulate-mutex-lex.trace"
        path = tmp_path / "crlf.trace"
        path.write_bytes(golden.read_bytes().replace(b"\n", b"\r\n"))
        with path.open(encoding="utf-8") as crlf, golden.open(encoding="utf-8") as lf:
            assert list(read_trace(crlf)) == list(read_trace(lf))


class TestSimulate:
    def test_every_prefix_of_trace_satisfies_property(self):
        a = mutual_exclusion()
        records = simulate(a, null_output_program(a), SimConfig(ticks=300, seed=11))
        released = tuple(r.released for r in records)
        for k in range(len(released) + 1):
            assert a.accepts(released[:k])

    def test_zero_ticks(self):
        a = mutual_exclusion()
        assert simulate(a, null_output_program(a), SimConfig(ticks=0, seed=1)) == []

    def test_same_seed_same_records(self):
        a = mutual_exclusion()
        runs = [
            simulate(a, null_output_program(a), SimConfig(ticks=100, seed=8))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_edit_counts_match_flags(self):
        a = mutual_exclusion()
        records = simulate(a, null_output_program(a), SimConfig(ticks=200, seed=13))
        ticks, input_edits, output_edits = write_trace(io.StringIO(), records)
        assert ticks == 200
        assert input_edits == sum(1 for r in records if r.input_edited)
        assert output_edits == sum(1 for r in records if r.output_edited)
        assert input_edits > 0  # seed 13 hits 11-inputs within 200 ticks


class TestBench:
    def test_null_alphabet_overhead_small_and_positive(self):
        a = always_accepting(Alphabet.null())
        result = bench(a, null_program(), SimConfig(ticks=400, runs=3, seed=0))
        assert result.increase_percent > 0
        assert result.overhead < 100e-6  # a few microseconds expected

    def test_enforced_and_plain_share_the_environment(self):
        # same seed twice: identical released traces, whatever the timings
        a = mutual_exclusion(output="O")
        program = SyntheticProgram(a.alphabet, width=16, seed=2)
        records1 = simulate(a, program, SimConfig(ticks=50, seed=6))
        program.reset()
        records2 = simulate(a, program, SimConfig(ticks=50, seed=6))
        assert [r.released for r in records1] == [r.released for r in records2]

    def test_bench_requires_ticks(self):
        a = always_accepting(Alphabet.null())
        with pytest.raises(ValueError):
            bench(a, null_program(), SimConfig(ticks=0, runs=1))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(ticks=-1)
    with pytest.raises(ValueError):
        SimConfig(runs=0)
    assert SimConfig().ticks == 1000 and SimConfig().runs == 5
    # a float would fail only once a run starts; True would run one tick
    for name in ("ticks", "runs"):
        for value in (2.5, True, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                SimConfig(**{name: value})
    with pytest.raises(ValueError, match="unknown repair policy 'bogus'"):
        SimConfig(policy="bogus")
    assert SimConfig(policy="lex").policy == LEXICOGRAPHIC
    assert SimConfig(policy="random").policy == SEEDED_RANDOM
    # None would draw the environment from OS entropy; True would draw as 1
    alpha = Alphabet(("A", "B"), ())
    for seed in (None, True, 1.0, "1"):
        with pytest.raises(ValueError, match="seed must be an int"):
            SimConfig(seed=seed)
        for ticks in (0, 10):
            with pytest.raises(ValueError, match="seed must be an int"):
                random_inputs(alpha, ticks, seed)
            with pytest.raises(ValueError, match="seed must be an int"):
                random_input_chunks(alpha, ticks, seed)
