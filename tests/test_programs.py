import pytest
from hypothesis import given, settings

from syncguard import (
    Alphabet,
    BitVector,
    ConstantProgram,
    MealyProgram,
    ParseError,
    ScriptedProgram,
    SyntheticProgram,
    null_program,
    parse_program,
)

from .strategies import mutated_documents

# Awaits A and B (in any order), emits O once when both have arrived.
ABO_DOC = """
inputs: A B
outputs: O
states: wait sawA sawB done
initial: wait
wait -> done : 11 / 1
wait -> sawA : 10 / 0
wait -> sawB : 01 / 0
wait -> wait : 00 / 0
sawA -> done : -1 / 1
sawA -> sawA : -0 / 0
sawB -> done : 1- / 1
sawB -> sawB : 0- / 0
done -> done : -- / 0
"""


def bv(text):
    return BitVector.from_text(text)


class TestMealyParsing:
    def test_round_trip_behavior(self):
        program = parse_program(
            """
            inputs: A
            outputs: B
            states: off on
            initial: off
            off -> on : 1 / 1
            off -> off : 0 / 0
            on -> on : - / 0
            """
        )
        assert program(bv("0")) == bv("0")
        assert program(bv("1")) == bv("1")
        assert program(bv("1")) == bv("0")  # latched
        program.reset()
        assert program(bv("1")) == bv("1")

    def test_totality_is_required(self):
        with pytest.raises(ValueError, match="missing transition"):
            parse_program(
                """
                inputs: A
                outputs: B
                states: s
                initial: s
                s -> s : 1 / 0
                """
            )

    def test_conflicting_transitions_rejected(self):
        with pytest.raises(ParseError, match="conflicting"):
            parse_program(
                """
                inputs: A
                outputs: B
                states: s
                initial: s
                s -> s : - / 0
                s -> s : 1 / 1
                """
            )

    def test_output_must_be_concrete(self):
        with pytest.raises(ParseError):
            parse_program(
                """
                inputs: A
                outputs: B
                states: s
                initial: s
                s -> s : - / -
                """
            )

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("states: s s", "duplicate state name 's'"),
            ("initial: nope", "undeclared"),
            ("s -> t : - / 0", "unknown state"),
            ("s -> s : -- / 0", "pattern"),
            ("violating: s", "transition"),
        ],
    )
    def test_malformed_documents(self, mutation, message):
        lines = ["inputs: A", "outputs: B", "states: s", "initial: s", "s -> s : - / 0"]
        key = mutation.split(":")[0] + ":"
        if any(line.startswith(key) for line in lines):
            lines = [mutation if line.startswith(key) else line for line in lines]
        else:
            lines.append(mutation)
        with pytest.raises(ParseError, match=message):
            parse_program("\n".join(lines))

    @settings(max_examples=200, deadline=None)
    @given(text=mutated_documents(ABO_DOC))
    def test_mutated_document_parses_or_raises_value_error(self, text):
        try:
            parse_program(text)
        except ValueError:  # ParseError is a subclass
            pass


class TestMealyConstruction:
    """A hand-built program is checked as a parsed one is."""

    @pytest.mark.parametrize(
        "target, output, message",
        [
            ("zz", bv("0"), "transition from 'm0' on input 0 targets undeclared state 'zz'"),
            ("m0", bv("00"), r"transition from 'm0' on input 0 outputs BitVector\('00'\), not a"),
            ("m0", "0", "transition from 'm0' on input 0 outputs '0', not a 1-bit vector"),
        ],
        ids=["undeclared-target", "wrong-width-output", "not-a-vector"],
    )
    def test_bad_transitions_are_rejected_when_built(self, alpha_11, target, output, message):
        x0, x1 = alpha_11.input_events
        transitions = {("m0", x0): (target, output), ("m0", x1): ("m0", bv("1"))}
        with pytest.raises(ValueError, match=f"^{message}"):
            MealyProgram(alpha_11, ("m0",), "m0", transitions)

    @pytest.mark.parametrize(
        "key, shown",
        [
            (lambda x0: ("ghost", x0), r"\('ghost', BitVector\('0'\)\)"),
            (lambda x0: ("m0", bv("11")), r"\('m0', BitVector\('11'\)\)"),
        ],
        ids=["undeclared-state", "wrong-width-input"],
    )
    def test_keys_outside_the_declarations_are_rejected_when_built(self, alpha_11, key, shown):
        x0, x1 = alpha_11.input_events
        transitions = {("m0", x0): ("m0", bv("0")), ("m0", x1): ("m0", bv("1"))}
        transitions[key(x0)] = ("m0", bv("1"))
        with pytest.raises(ValueError, match=f"^transition key {shown} is not a declared state"):
            MealyProgram(alpha_11, ("m0",), "m0", transitions)

    def test_undeclared_initial_state_is_rejected_when_built(self, alpha_11):
        x0, x1 = alpha_11.input_events
        transitions = {("m0", x0): ("m0", bv("0")), ("m0", x1): ("m0", bv("1"))}
        with pytest.raises(ValueError, match="^initial state 'ghost' not declared$"):
            MealyProgram(alpha_11, ("m0",), "ghost", transitions)

    def test_the_table_is_copied_when_built(self, alpha_11):
        x0, x1 = alpha_11.input_events
        transitions = {("m0", x0): ("m0", bv("0")), ("m0", x1): ("m0", bv("1"))}
        program = MealyProgram(alpha_11, ("m0",), "m0", transitions)
        transitions[("m0", x0)] = ("zz", bv("1"))
        transitions[("ghost", x0)] = ("m0", bv("1"))
        assert [program(x) for x in (x0, x0, x1, x0)] == [bv("0"), bv("0"), bv("1"), bv("0")]
        assert program.transitions == {("m0", x0): ("m0", bv("0")), ("m0", x1): ("m0", bv("1"))}


class TestAbo:
    def test_emits_once_when_both_seen(self):
        program = parse_program(ABO_DOC)
        assert program(bv("10")) == bv("0")  # A first
        assert program(bv("01")) == bv("1")  # B completes the pair
        assert program(bv("11")) == bv("0")  # done; never again
        program.reset()
        assert program(bv("11")) == bv("1")  # both at once


def test_constant_program():
    alpha = Alphabet(("A",), ("X", "Y"))
    program = ConstantProgram(alpha, bv("10"))
    assert program(bv("0")) == bv("10")
    assert program(bv("1")) == bv("10")
    with pytest.raises(ValueError):
        ConstantProgram(alpha, bv("1"))


def test_scripted_program_replays_and_resets():
    program = ScriptedProgram([bv("1"), bv("0")])
    assert program(bv("0")) == bv("1")
    assert program(bv("0")) == bv("0")
    with pytest.raises(IndexError):
        program(bv("0"))
    program.reset()
    assert program(bv("0")) == bv("1")


def test_null_program_ticks():
    program = null_program()
    assert program(BitVector(())) == BitVector(())


class TestSynthetic:
    def test_deterministic_and_resettable(self):
        alpha = Alphabet(("A", "B"), ("O",))
        p1 = SyntheticProgram(alpha, width=32, seed=3)
        p2 = SyntheticProgram(alpha, width=32, seed=3)
        env = [bv("10"), bv("01"), bv("11"), bv("00")] * 8
        run1 = [p1(x) for x in env]
        assert [p2(x) for x in env] == run1
        p1.reset()
        assert [p1(x) for x in env] == run1

    def test_output_width_matches_interface(self):
        alpha = Alphabet(("A",), ("X", "Y"))
        program = SyntheticProgram(alpha, width=16, seed=0)
        assert len(program(bv("1"))) == 2

    def test_minimum_width(self):
        with pytest.raises(ValueError):
            SyntheticProgram(Alphabet(("A",), ("B",)), width=4)
