import copy
import dataclasses
import gc
import pickle
import random
import threading
import weakref
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncguard import (
    LEXICOGRAPHIC,
    NEAREST,
    POLICIES,
    SEEDED_RANDOM,
    Alphabet,
    BitVector,
    ConstantProgram,
    Enforcer,
    Event,
    NotEnforceableError,
    ScriptedProgram,
    SimConfig,
    SyntheticProgram,
    TickRecord,
    bench,
    check_constraints,
    dead_end_branch,
    enforce_word,
    mutual_exclusion,
    normalize,
    parse_automaton,
    parse_program,
    project_inputs,
    random_enforceable_automata,
    random_inputs,
    simulate,
)
from syncguard import runtime
from syncguard.trace import format_record

from .strategies import mealy_programs, words


def bv(text):
    return BitVector.from_text(text)


def ev(text):
    return Event.from_text(text)


TOGGLE = """
inputs: A
outputs: B
states: even odd bad
initial: even
violating: bad
even -> odd : -/-
odd -> even : -/-
"""

BAD_SNAPSHOTS = {
    "trap": ("qv", 0),
    "unknown": ("nope", 0),
    "unhashable": (["q0"], 0),
    "str-ticks": ("q0", "x"),
    "bool-ticks": ("q0", True),
    "negative": ("q0", -1),
    "bare-name": "q0",
}
MORE_BAD_SNAPSHOTS = {
    "none": None,
    "triple": ("q0", 0, 0),
    "float-ticks": ("q0", 1.0),
    "none-ticks": ("q0", None),
    "location-this-automaton-lacks": ("q1", 0),
}

CONSTANT_ONE = """
inputs: A B
outputs: R
states: s
initial: s
s -> s : -- / 1
"""


class TestTick:
    def test_input_repair_keeps_program_output(self):
        # x=11 must be repaired to 10; the program's 1 then passes
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        record = enforcer.tick(bv("11"), parse_program(CONSTANT_ONE))
        assert record.released == ev("10/1")
        assert record.input_edited and not record.output_edited
        assert record.observed == ev("11/1")
        assert record.t == 0

    def test_output_repair_on_forbidden_conjunction(self):
        # input 01 is kept; the program answers 1, which with B violates
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        record = enforcer.tick(bv("01"), parse_program(CONSTANT_ONE))
        assert record.released == ev("01/0")
        assert not record.input_edited and record.output_edited

    def test_compliant_event_untouched(self):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        record = enforcer.tick(bv("10"), parse_program(CONSTANT_ONE))
        assert record.released == ev("10/1")
        assert not record.input_edited and not record.output_edited

    def test_repaired_property_constructs(self):
        from syncguard import dead_end_branch_repaired

        enforcer = Enforcer(dead_end_branch_repaired())
        assert enforcer.location == "q0" and enforcer.ticks == 0

    def test_program_width_checked(self):
        enforcer = Enforcer(mutual_exclusion())
        with pytest.raises(ValueError, match="width"):
            enforcer.tick(bv("10"), lambda x: bv("10"))


class TestTickRecord:
    """A record is slotted and frozen, and still replaces, compares and
    prints as a dataclass."""

    @staticmethod
    def _record():
        return Enforcer(mutual_exclusion(), NEAREST).tick(bv("11"), parse_program(CONSTANT_ONE))

    def test_has_no_instance_dict(self):
        record = self._record()
        assert not hasattr(record, "__dict__")
        assert TickRecord.__slots__ == ("t", "observed", "released", "state_after")
        assert [f.name for f in dataclasses.fields(TickRecord)] == list(TickRecord.__slots__)

    def test_edit_flags_are_read_off_the_events(self):
        record = self._record()
        for name in ("input_edited", "output_edited"):
            flag = getattr(TickRecord, name)
            assert isinstance(flag, property) and flag.fset is None
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, False)
            with pytest.raises(TypeError):
                dataclasses.replace(record, **{name: False})
        assert (record.input_edited, record.output_edited) == (True, False)
        kept = dataclasses.replace(record, released=record.observed)
        assert not (kept.input_edited or kept.output_edited)

    def test_assignment_raises(self):
        record = self._record()
        for name in TickRecord.__slots__ + ("extra",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name, 1))
        assert record == self._record()

    def test_copy_and_pickle_round_trip(self):
        record = self._record()
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is TickRecord

    def test_replace_equality_and_repr(self):
        record = self._record()
        assert record == self._record() and hash(record) == hash(self._record())
        changed = dataclasses.replace(record, released=record.observed)
        assert changed != record
        assert (changed.t, changed.released, changed.state_after) == (0, ev("11/1"), "q0")
        assert dataclasses.replace(changed, released=ev("10/1")) == record
        assert repr(record) == (
            "TickRecord(t=0, observed=Event('11/1'), released=Event('10/1'), state_after='q0')"
        )


GOLDEN = Path(__file__).parent / "golden"


class TestFastRecord:
    """``TickRecord``'s hand-written ``__init__`` stores each field through
    its slot descriptor; over the golden ``simulate`` runs each record
    ``tick`` returns behaves exactly as the record the generated frozen
    ``__init__`` would build, which stores each field through
    ``object.__setattr__``."""

    @staticmethod
    def _generated(fields):
        record = object.__new__(TickRecord)
        for name, value in fields.items():
            object.__setattr__(record, name, value)
        return record

    @staticmethod
    def _golden_runs():
        """(records, golden trace lines) of every golden simulate run."""
        for name in ("mutex", "random19"):
            a = normalize(parse_automaton((GOLDEN / f"{name}.aut").read_text()))
            for policy, short in zip(POLICIES, ("nearest", "lex", "random")):
                if name == "mutex":
                    program = ConstantProgram(a.alphabet, a.alphabet.output_vector("1"))
                else:
                    program = SyntheticProgram(a.alphabet, 8, 1)
                records = simulate(a, program, SimConfig(ticks=200, seed=3, policy=policy))
                trace = (GOLDEN / f"simulate-{name}-{short}.trace").read_text()
                yield records, [line for line in trace.splitlines() if not line.startswith("#")]

    def test_records_behave_as_built_by_init(self):
        runs = 0
        for records, lines in self._golden_runs():
            runs += 1
            assert [format_record(r) for r in records] == lines
            for record in records:
                fields = {name: getattr(record, name) for name in TickRecord.__slots__}
                built = self._generated(fields)
                assert type(record) is TickRecord and not hasattr(record, "__dict__")
                assert TickRecord(**fields) == built and TickRecord(*fields.values()) == built
                assert record == built and built == record and not record != built
                assert hash(record) == hash(built) and repr(record) == repr(built)
                assert record.__reduce__() == built.__reduce__()
                assert dataclasses.astuple(record) == dataclasses.astuple(built)
                for clone in (
                    copy.copy(record),
                    copy.deepcopy(record),
                    pickle.loads(pickle.dumps(record)),
                ):
                    assert type(clone) is TickRecord and clone == built
                    assert repr(clone) == repr(built) and hash(clone) == hash(built)
                with pytest.raises(TypeError):  # a flag is read off the events, not a field
                    dataclasses.replace(record, input_edited=not record.input_edited)
                assert dataclasses.replace(record) == built
        assert runs == 6

    def test_every_slot_is_frozen(self):
        records, _ = next(self._golden_runs())
        for record in records[:20]:
            before = repr(record)
            for name in TickRecord.__slots__:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, getattr(record, name))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)
            assert repr(record) == before


class TestRejectedTick:
    """A failed tick raises before the enforcer's state changes."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "inputs",
        [bv("111"), bv("1"), (1, 1), [1, 0], "10", None],
        ids=["too-wide", "too-narrow", "tuple", "list", "str", "none"],
    )
    def test_bad_input_rejected_before_the_program_runs(self, policy, inputs):
        enforcer = Enforcer(mutual_exclusion(), policy, seed=1)
        enforcer.tick(bv("10"), parse_program(CONSTANT_ONE))
        before = enforcer.snapshot()
        calls = []

        def program(x):
            calls.append(x)
            return bv("0")

        with pytest.raises(ValueError, match="input"):
            enforcer.tick(inputs, program)
        assert calls == []
        assert enforcer.snapshot() == before

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("outputs", [(1,), [0], None], ids=["tuple", "list", "none"])
    def test_bad_program_output_rejected(self, policy, outputs):
        enforcer = Enforcer(mutual_exclusion(), policy, seed=1)
        with pytest.raises(ValueError, match="program output"):
            enforcer.tick(bv("10"), lambda x: outputs)
        assert enforcer.snapshot() == (enforcer.automaton.initial, 0)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "outputs", [bv("00"), bv("11"), bv("")], ids=["too-wide-0", "too-wide-1", "too-narrow"]
    )
    def test_wrong_width_program_output_rejected(self, policy, outputs):
        enforcer = Enforcer(mutual_exclusion(), policy, seed=1)
        kept = enforcer.tick(bv("10"), lambda x: bv("1"))
        assert not (kept.input_edited or kept.output_edited)
        assert kept.observed is kept.released
        before = enforcer.snapshot()
        with pytest.raises(ValueError, match="program output"):
            enforcer.tick(bv("10"), lambda x: outputs)
        assert enforcer.snapshot() == before

    @pytest.mark.parametrize("policy", POLICIES)
    def test_program_exception_leaves_the_enforcer_unchanged(self, policy):
        a = mutual_exclusion()
        program = parse_program(CONSTANT_ONE)
        env = random_inputs(a.alphabet, 48, seed=5)
        expected = Enforcer(a, policy, seed=1).run(env, program)

        def failing(x):
            raise RuntimeError("program crashed")

        enforcer = Enforcer(a, policy, seed=1)
        records = []
        for k, x in enumerate(env):
            if k % 3 == 0:
                before = enforcer.snapshot()
                with pytest.raises(RuntimeError, match="crashed"):
                    enforcer.tick(x, failing)
                assert enforcer.snapshot() == before
            records.append(enforcer.tick(x, program))
        assert any(r.input_edited for r in records[::3])
        assert records == expected


class TestRun:
    def test_three_tick_trace(self):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        script = ScriptedProgram([bv("1"), bv("1"), bv("0")])
        records = enforcer.run([bv("10"), bv("11"), bv("01")], script)
        assert [r.released for r in records] == [ev("10/1"), ev("10/1"), ev("01/0")]

    def test_empty_environment(self):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        assert enforcer.run([], ScriptedProgram([])) == []

    def test_script_running_out_raises_after_its_last_tick(self):
        # every A must be answered by R on the next tick
        a = normalize(parse_automaton(
            """
            inputs: A
            outputs: R
            states: idle busy qv
            initial: idle
            violating: qv
            idle -> idle : 0/-
            idle -> busy : 1/-
            busy -> idle : -/1
            busy -> qv : -/0
            """
        ))
        env, script = [bv("0"), bv("1"), bv("1")], [bv("0"), bv("1")]
        records = Enforcer(a).run(env[: len(script)], ScriptedProgram(script))
        enforcer = Enforcer(a)
        with pytest.raises(IndexError):
            enforcer.run(env, ScriptedProgram(script))
        assert enforcer.ticks == len(script)
        assert enforcer.location == records[-1].state_after != a.initial

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_long_random_run_never_violates(self, data, seed):
        a = mutual_exclusion()
        program = data.draw(mealy_programs(a.alphabet))
        env = random_inputs(a.alphabet, 200, seed)
        enforcer = Enforcer(a, NEAREST)
        records = enforcer.run(env, program)
        released = tuple(r.released for r in records)
        assert len(released) == len(env)
        for k in range(len(released) + 1):
            assert a.accepts(released[:k])

    def test_thousand_tick_run_every_prefix_sound(self):
        a = mutual_exclusion()
        env = random_inputs(a.alphabet, 1000, seed=9)
        records = Enforcer(a, NEAREST).run(env, parse_program(CONSTANT_ONE))
        released = tuple(r.released for r in records)
        location = a.initial
        for event in released:
            location = a.delta[(location, event)]
            assert location != a.violating


class TestStateTracking:
    def test_location_matches_released_word(self):
        a = mutual_exclusion()
        ai = project_inputs(a)
        enforcer = Enforcer(a, NEAREST)
        program = parse_program(CONSTANT_ONE)
        released = []
        for x in random_inputs(a.alphabet, 64, seed=1):
            record = enforcer.tick(x, program)
            released.append(record.released)
            # synchronized with the property automaton
            assert enforcer.location == a.run(released)
            assert enforcer.location != a.violating
            # and consistent with the input projection (some run reaches it)
            frontier = {ai.initial}
            for e in released:
                frontier = {d for s in frontier for d in ai.successors(s, e.input)}
            assert enforcer.location in frontier

    def test_edit_flags_match_event_comparison(self):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        program = parse_program(CONSTANT_ONE)
        for x in random_inputs(enforcer.automaton.alphabet, 64, seed=2):
            record = enforcer.tick(x, program)
            assert record.input_edited == (record.released.input != record.observed.input)
            assert record.output_edited == (record.released.output != record.observed.output)

    def test_input_edited_only_without_safe_successor(self):
        a = mutual_exclusion()
        ai = project_inputs(a)
        enforcer = Enforcer(a, NEAREST)
        program = parse_program(CONSTANT_ONE)
        for x in random_inputs(a.alphabet, 64, seed=3):
            before = enforcer.location
            record = enforcer.tick(x, program)
            assert record.input_edited == (ai.successors(before, x) <= {a.violating})

    def test_snapshot_restore_replays_identically(self):
        a = mutual_exclusion()
        enforcer = Enforcer(a, NEAREST)
        program = parse_program(CONSTANT_ONE)
        enforcer.tick(bv("10"), program)
        snap = enforcer.snapshot()
        first = enforcer.tick(bv("11"), program)
        enforcer.restore(snap)
        again = enforcer.tick(bv("11"), program)
        assert first == again

    @pytest.mark.parametrize("snapshot", BAD_SNAPSHOTS.values(), ids=BAD_SNAPSHOTS)
    def test_restore_rejects_a_bad_snapshot(self, snapshot):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        program = parse_program(CONSTANT_ONE)
        enforcer.tick(bv("10"), program)
        before = enforcer.snapshot()
        with pytest.raises(ValueError, match="not a snapshot"):
            enforcer.restore(snapshot)
        assert enforcer.snapshot() == before
        assert enforcer.tick(bv("11"), program).t == before[1]

    def test_restore_accepts_a_namedtuple_and_an_int_subclass(self):
        class Ticks(int):
            pass

        Snapshot = namedtuple("Snapshot", "location ticks")
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        program = parse_program(CONSTANT_ONE)
        enforcer.restore(Snapshot("q0", 3))
        assert enforcer.snapshot() == ("q0", 3)
        enforcer.restore(("q0", Ticks(5)))
        assert enforcer.snapshot() == ("q0", 5)
        assert enforcer.tick(bv("10"), program).t == 5

    @pytest.mark.parametrize("snapshot", MORE_BAD_SNAPSHOTS.values(), ids=MORE_BAD_SNAPSHOTS)
    def test_restore_rejects_more_bad_snapshots(self, snapshot):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        program = parse_program(CONSTANT_ONE)
        enforcer.tick(bv("10"), program)
        before = enforcer.snapshot()
        with pytest.raises(ValueError, match=r"^not a snapshot of this enforcer: "):
            enforcer.restore(snapshot)
        assert enforcer.snapshot() == before
        assert enforcer.tick(bv("11"), program).t == before[1]


def _count_location_checks(enforcer):
    """Make ``restore``'s location lookup count itself in ``lookups`` of
    the returned class."""

    class Counted(dict):
        lookups = 0

        def __contains__(self, key):
            Counted.lookups += 1
            return super().__contains__(key)

    sets = enforcer.edit_sets
    enforcer.edit_sets = dataclasses.replace(sets, safe_inputs=Counted(sets.safe_inputs))
    return Counted


class TestRestoreMemo:
    """``restore`` takes the last exact tuple it checked by identity; every
    other snapshot is checked as before, also right after a valid restore."""

    def test_none_on_a_fresh_enforcer_raises(self):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        for snapshot in (None, ()):
            with pytest.raises(ValueError, match=r"^not a snapshot of this enforcer: "):
                enforcer.restore(snapshot)
            assert enforcer.snapshot() == ("q0", 0)

    @pytest.mark.parametrize(
        "snapshot",
        [*BAD_SNAPSHOTS.values(), *MORE_BAD_SNAPSHOTS.values()],
        ids=[*BAD_SNAPSHOTS, *MORE_BAD_SNAPSHOTS],
    )
    def test_a_bad_snapshot_right_after_a_valid_restore_raises(self, snapshot):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        program = parse_program(CONSTANT_ONE)
        enforcer.tick(bv("10"), program)
        snap = enforcer.snapshot()
        enforcer.restore(snap)
        for _ in range(2):  # a refused snapshot is not remembered either
            with pytest.raises(ValueError, match=r"^not a snapshot of this enforcer: "):
                enforcer.restore(snapshot)
            assert enforcer.snapshot() == snap
        enforcer.restore(snap)
        assert enforcer.tick(bv("11"), program).t == snap[1]

    def test_the_same_tuple_is_checked_once_and_others_every_time(self):
        class Ticks(int):
            pass

        Snapshot = namedtuple("Snapshot", "location ticks")
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        counted = _count_location_checks(enforcer)
        enforcer.tick(bv("10"), parse_program(CONSTANT_ONE))
        snap = enforcer.snapshot()
        for _ in range(3):
            enforcer.restore(snap)
        assert counted.lookups == 1
        named = Snapshot(*snap)
        for other in (tuple(list(snap)), ("q0", Ticks(1)), named, named):
            assert other is not snap
            enforcer.restore(other)
            assert enforcer.snapshot() == snap
        assert counted.lookups == 5  # a subclass is never remembered

    def test_another_automatons_snapshot_is_refused_after_a_valid_restore(self):
        toggle = normalize(parse_automaton(TOGGLE))
        other = Enforcer(toggle, NEAREST)
        zero = toggle.alphabet.output_events[0]
        other.tick(toggle.alphabet.input_events[0], lambda x: zero)
        foreign = other.snapshot()
        assert foreign[0] not in mutual_exclusion().locations
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        snap = enforcer.snapshot()
        enforcer.restore(snap)
        with pytest.raises(ValueError, match=r"^not a snapshot of this enforcer: "):
            enforcer.restore(foreign)
        assert enforcer.snapshot() == snap


class TestReplayMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_released_prefix_is_stable_under_extension(self, data):
        a = mutual_exclusion()
        program = data.draw(mealy_programs(a.alphabet))
        env = data.draw(words(a.alphabet, max_len=4))
        extension = data.draw(words(a.alphabet, max_len=3))
        inputs = [e.input for e in env]
        extra = [e.input for e in extension]

        program.reset()
        short = Enforcer(a, NEAREST).run(inputs, program)
        program.reset()
        long = Enforcer(a, NEAREST).run(inputs + extra, program)
        assert [r.released for r in long[: len(short)]] == [r.released for r in short]


class TestEnforceWord:
    def test_matches_scripted_run(self):
        a = mutual_exclusion()
        observed = (ev("10/1"), ev("11/1"), ev("01/0"))
        direct = enforce_word(a, observed, NEAREST)
        enforcer = Enforcer(a, NEAREST)
        script = ScriptedProgram([e.output for e in observed])
        via_run = tuple(
            r.released for r in enforcer.run([e.input for e in observed], script)
        )
        assert direct == via_run == (ev("10/1"), ev("10/1"), ev("01/0"))

    def test_accepts_existing_enforcer_and_resets_it(self):
        a = mutual_exclusion()
        enforcer = Enforcer(a, NEAREST)
        enforcer.tick(bv("10"), parse_program(CONSTANT_ONE))
        assert enforce_word(enforcer, (ev("11/1"),)) == (ev("10/1"),)
        assert enforcer.ticks == 1  # reset happened before the word

    def test_checks_policy_and_seed_with_an_existing_enforcer(self):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        enforcer.tick(bv("10"), parse_program(CONSTANT_ONE))
        with pytest.raises(ValueError, match="unknown repair policy 'junk'"):
            enforce_word(enforcer, (ev("11/1"),), "junk")
        with pytest.raises(ValueError, match="repair seed must be an int or None"):
            enforce_word(enforcer, (ev("11/1"),), "lex", "bad")
        assert enforcer.ticks == 1  # refused before the reset
        # the enforcer's own policy wins over a valid argument
        assert enforce_word(enforcer, (ev("11/1"),), "lex", 3) == (ev("10/1"),)

    def test_observed_word_satisfying_property_is_untouched(self):
        a = mutual_exclusion()
        observed = (ev("10/1"), ev("01/0"), ev("00/1"))
        assert a.accepts(observed)
        for policy in (NEAREST, LEXICOGRAPHIC, SEEDED_RANDOM):
            assert enforce_word(a, observed, policy, seed=4) == observed
        assert enforce_word(a, iter(observed)) == observed  # an iterator is read once

    def test_seeded_policy_is_reproducible(self):
        a = mutual_exclusion()
        observed = (ev("11/1"), ev("11/0"), ev("01/1"))
        first = enforce_word(a, observed, SEEDED_RANDOM, seed=21)
        second = enforce_word(a, observed, SEEDED_RANDOM, seed=21)
        assert first == second

    @pytest.mark.parametrize("observed", [["junk"], [ev("11/1"), None], [ev("1/1")]],
                             ids=["str", "none", "foreign"])
    def test_a_word_of_foreign_events_is_refused_before_the_reset(self, observed):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        enforcer.tick(bv("10"), parse_program(CONSTANT_ONE))
        for target in (enforcer, mutual_exclusion()):
            with pytest.raises(ValueError, match="not in the alphabet"):
                enforce_word(target, observed)
        assert enforcer.ticks == 1

    @pytest.mark.parametrize("observed", [None, 5, ev("11/1")], ids=["none", "int", "one-event"])
    def test_a_word_that_cannot_be_iterated_is_refused_before_the_reset(self, observed):
        enforcer = Enforcer(mutual_exclusion(), NEAREST)
        enforcer.tick(bv("10"), parse_program(CONSTANT_ONE))
        for target in (enforcer, mutual_exclusion()):
            with pytest.raises(ValueError, match="^a word is an iterable of events, got "):
                enforce_word(target, observed)
        assert enforcer.ticks == 1


def test_a_parsed_automaton_is_refused_with_a_hint_to_normalize():
    raw = parse_automaton(TOGGLE)
    program = ConstantProgram(raw.alphabet, bv("1"))
    for call in (
        lambda: Enforcer(raw),
        lambda: enforce_word(raw, ()),
        lambda: check_constraints(raw, NEAREST, 1),
        lambda: bench(raw, program, SimConfig(ticks=10, runs=1)),
    ):
        with pytest.raises(ValueError, match="^an Enforcer needs a SafetyAutomaton, got "
                           "RawAutomaton: normalize a parsed automaton first$"):
            call()


# The policy-independent builders, called through the names ``runtime`` looks
# up when an enforcer is constructed.
BUILDERS = ("check_enforceability", "project_inputs", "compute_edit_sets")


@pytest.fixture
def builds(monkeypatch):
    """Calls of each builder, counted through the runtime's names."""
    counts = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:

        def counted(*args, _name=name, _build=getattr(runtime, name), **kwargs):
            counts[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(runtime, name, counted)
    return counts


def fresh(a):
    """An equal automaton that no other code holds, so no enforcer of it is alive."""
    return copy.copy(a)


def scripted_run(enforcer, word):
    return enforcer.run([e.input for e in word], ScriptedProgram([e.output for e in word]))


def random_word(a, length=60, seed=3):
    rng = random.Random(seed)
    return tuple(rng.choice(a.alphabet.events) for _ in range(length))


class TestSharedEditSets:
    """The live enforcers of one automaton object share its safe sets;
    each builds its own repair table."""

    def test_unknown_policy_rejected_before_any_set_is_built(self, builds):
        with pytest.raises(ValueError, match="unknown repair policy"):
            Enforcer(fresh(mutual_exclusion()), "bogus")
        assert builds == dict.fromkeys(BUILDERS, 0)

    def test_one_build_for_all_three_policies(self, builds):
        a = fresh(mutual_exclusion())
        enforcers = [Enforcer(a, policy, 7) for policy in POLICIES]
        assert builds == dict.fromkeys(BUILDERS, 1)
        first = enforcers[0].edit_sets
        assert all(e.edit_sets is first for e in enforcers)
        assert [e.tables is None for e in enforcers] == [True, False, False]
        assert enforcers[1].tables is not enforcers[2].tables

    def test_shared_runs_equal_runs_built_alone(self, random_family):
        for a in (fresh(mutual_exclusion()), fresh(random_family[0])):
            word = random_word(a)
            shared = [Enforcer(a, policy, 7) for policy in POLICIES]
            for policy, enforcer in zip(POLICIES, shared):
                alone = Enforcer(fresh(a), policy, 7)
                assert alone.edit_sets is not enforcer.edit_sets
                assert alone.edit_sets == enforcer.edit_sets
                assert scripted_run(enforcer, word) == scripted_run(alone, word), policy

    def test_sets_die_with_the_last_enforcer_and_are_rebuilt(self, builds):
        a = fresh(mutual_exclusion())
        enforcers = [Enforcer(a, policy, 7) for policy in POLICIES]
        probe = weakref.ref(enforcers[0].edit_sets)
        del enforcers
        gc.collect()
        assert probe() is None  # nothing else kept the sets alive
        assert a._edit_sets() is None
        rebuilt = Enforcer(a, LEXICOGRAPHIC, 7)
        assert builds == dict.fromkeys(BUILDERS, 2)
        assert a._edit_sets() is rebuilt.edit_sets

    def test_dead_automaton_rejected_on_every_attempt(self, builds):
        a = fresh(dead_end_branch())
        for policy in POLICIES * 2:
            with pytest.raises(NotEnforceableError):
                Enforcer(a, policy, 7)
        assert builds == {"check_enforceability": 6, "project_inputs": 0, "compute_edit_sets": 0}
        assert a._edit_sets is None

    def test_threads_building_one_automaton_release_equal_runs(self):
        a = fresh(mutual_exclusion())
        word = random_word(a)
        expected = {p: scripted_run(Enforcer(fresh(a), p, 7), word) for p in POLICIES}
        start = threading.Barrier(4)
        released = []

        def build():
            start.wait()
            for _ in range(20):
                for policy in POLICIES:
                    released.append((policy, scripted_run(Enforcer(a, policy, 7), word)))

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(released) == 4 * 20 * len(POLICIES)
        assert all(run == expected[policy] for policy, run in released)

    def test_live_enforcer_leaves_the_automaton_unchanged(self):
        a = fresh(mutual_exclusion())
        before = (hash(a), repr(a), pickle.dumps(a))
        enforcer = Enforcer(a, NEAREST)
        assert a._edit_sets() is enforcer.edit_sets
        after = (hash(a), repr(a), pickle.dumps(a))
        assert a == mutual_exclusion()
        assert after == before
        assert b"weakref" not in after[2] and b"_edit_sets" not in after[2]
        for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert copied == a and hash(copied) == hash(a)
            assert copied._edit_sets is None


POLICY_NAMES = ("nearest", "lex", "lexicographic", "random", "seeded-random")


def _row_contents(enforcer):
    """Each built row as plain data: location -> input -> (released input, outputs)."""
    return {
        q: {x: (fixed, dict(outs)) for x, (fixed, outs) in row.items()}
        for q, row in enforcer._rows.items()
    }


class TestRows:
    """Each location's decisions are built on the first tick there and
    read back with one lookup per side; ``sweep`` in ``test_oracle.py``
    checks what they release against the oracle."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_a_row_holds_one_output_dict_per_safe_input(self, policy):
        # and at most one output entry per event of its location
        two_outputs = random_enforceable_automata(Alphabet(("A",), ("R", "S")), 6, 3, seed=1)
        random19 = normalize(parse_automaton((GOLDEN / "random19.aut").read_text()))
        for a in [mutual_exclusion(), random19] + two_outputs:
            enforcer, trap, width = Enforcer(a, policy, 1), a.index[a.violating], len(a.alphabet.outputs)
            for q in a.accepting_locations:
                for event in a.alphabet.events:
                    enforcer.restore((q, 0))
                    enforcer.tick(event.input, lambda _, y=event.output: y)
                safe_inputs = {c >> width for c, r in enumerate(a.table[a.index[q]]) if r != trap}
                outs = {id(o): o for _, o in enforcer._rows[q].values()}
                assert len(outs) == len(safe_inputs)
                assert sum(map(len, outs.values())) <= len(a.alphabet.events)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("side", ["input", "program output"])
    @pytest.mark.parametrize(
        "bad", [bv("111"), 1, "10", [1, 0]], ids=["wrong-width", "int", "str", "unhashable"]
    )
    def test_a_bad_vector_raises_and_adds_no_row_entry(self, policy, side, bad):
        a = mutual_exclusion()
        enforcer = Enforcer(a, policy, seed=1)
        for q in a.accepting_locations:  # build every row
            enforcer.restore((q, 0))
            enforcer.tick(bv("10"), lambda _: bv("1"))
        before, rows = enforcer.snapshot(), _row_contents(enforcer)
        assert set(rows) == set(a.accepting_locations)
        inputs, outputs = (bad, bv("1")) if side == "input" else (bv("01"), bad)
        with pytest.raises(ValueError, match=side):
            enforcer.tick(inputs, lambda _: outputs)
        assert enforcer.snapshot() == before
        assert _row_contents(enforcer) == rows

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rows_are_built_on_the_first_tick_at_a_location(self, policy):
        a = mutual_exclusion()
        enforcer = Enforcer(a, policy, seed=1)
        assert enforcer._rows == {}
        enforcer.tick(bv("00"), lambda _: bv("0"))
        assert list(enforcer._rows) == [a.initial]

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_only_nearest_sends_a_valid_vector_to_repair(self, monkeypatch, policy):
        repairs = []
        repair = Enforcer._repair

        def counted(self, *args):
            repairs.append(args)
            return repair(self, *args)

        monkeypatch.setattr(Enforcer, "_repair", counted)
        random19 = normalize(parse_automaton((GOLDEN / "random19.aut").read_text()))
        for a in (mutual_exclusion(), random19):
            enforcer = Enforcer(a, policy, seed=3)
            for q in a.accepting_locations:
                for event in a.alphabet.events:
                    enforcer.restore((q, 0))
                    enforcer.tick(event.input, lambda _, y=event.output: y)
        assert bool(repairs) == (policy == NEAREST)
