import ast
import copy
import gc
import hashlib
import itertools
import pickle
import sys
import weakref
from pathlib import Path

import pytest

import syncguard.harness
from syncguard import (
    NEAREST,
    POLICIES,
    SEEDED_RANDOM,
    Alphabet,
    BitVector,
    ConstantProgram,
    Enforcer,
    Event,
    SafetyAutomaton,
    TickRecord,
    always_accepting,
    at_most_one_tick,
    check_constraints,
    check_enforceability,
    dead_end_branch,
    dead_end_branch_repaired,
    enforce_word,
    mutual_exclusion,
    non_enforceability_witness,
    normalize,
    oracle_enforce,
    parse_automaton,
    random_enforceable_automata,
    validate_witness,
)
from syncguard.bits import format_word
from syncguard.editing import canonical_policy, choose_nearest, select
from syncguard.harness import MAX_DEPTH, WORD_BUDGET
from syncguard.oracle import oracle_step

from .constraint_spec import check_literally


def ev(text):
    return Event.from_text(text)


class TestOracleEnforce:
    def test_three_tick_trace(self):
        released = oracle_enforce(
            mutual_exclusion(), (ev("10/1"), ev("11/1"), ev("01/0")), NEAREST
        )
        assert released == (ev("10/1"), ev("10/1"), ev("01/0"))

    def test_empty_word(self):
        assert oracle_enforce(mutual_exclusion(), ()) == ()

    def test_state_sensitive_input_retention(self):
        # Two outputs lead out of q0 into different locations whose safe
        # inputs differ.  Projecting away outputs, input 0 still looks fine
        # after releasing (0,0) (a run through the other location survives),
        # but the deterministic run sits in the location where only input 1
        # survives; the oracle must repair, exactly like the runtime.
        from syncguard import Alphabet

        alphabet = Alphabet(("A",), ("B",))
        targets = {
            "q0": {"0/0": "q1", "0/1": "q2", "1/0": "qv", "1/1": "qv"},
            "q1": {"0/0": "qv", "0/1": "qv", "1/0": "q1", "1/1": "q1"},
            "q2": {"0/0": "q2", "0/1": "q2", "1/0": "qv", "1/1": "qv"},
            "qv": {"0/0": "qv", "0/1": "qv", "1/0": "qv", "1/1": "qv"},
        }
        delta = {
            (src, event): targets[src][str(event)]
            for src in targets
            for event in alphabet.events
        }
        a = SafetyAutomaton(alphabet, ("q0", "q1", "q2", "qv"), "q0", "qv", delta)
        assert check_enforceability(a).enforceable

        observed = (ev("0/0"), ev("0/0"))
        expected = (ev("0/0"), ev("1/0"))
        assert enforce_word(a, observed, NEAREST) == expected
        assert oracle_enforce(a, observed, NEAREST) == expected


class TestCheckConstraints:
    def test_all_pass_for_mutual_exclusion(self):
        report = check_constraints(mutual_exclusion(), NEAREST, max_len=4, seed=7)
        assert report.passed, report
        assert report.counterexamples == {}
        assert report.words_checked == 1 + 8 + 64 + 512 + 4096

    def test_all_policies_pass_for_mutual_exclusion(self):
        for policy in POLICIES:
            report = check_constraints(mutual_exclusion(), policy, max_len=3, seed=7)
            assert report.passed, report

    def test_restores_only_where_the_runtime_moved(self, monkeypatch):
        a = mutual_exclusion()
        events = a.alphabet.events
        size = len(events)
        # one tick per non-empty word, depth first in event order, each from
        # the state a fresh runtime reaches on the word's prefix
        expected = []
        for word in sorted(
            w for n in range(1, 4) for w in itertools.product(range(size), repeat=n)
        ):
            runner = Enforcer(a, NEAREST)
            for i in word[:-1]:
                runner.tick(events[i].input, lambda _, y=events[i].output: y)
            expected.append((runner.snapshot(), events[word[-1]].input))

        restores, ticks = [], []
        restore, tick = Enforcer.restore, Enforcer.tick

        def counting_restore(self, snapshot):
            restores.append(snapshot)
            restore(self, snapshot)

        def recording_tick(self, inputs, program):
            ticks.append((self.snapshot(), inputs))
            return tick(self, inputs, program)

        monkeypatch.setattr(Enforcer, "restore", counting_restore)
        monkeypatch.setattr(Enforcer, "tick", recording_tick)
        report = check_constraints(a, NEAREST, max_len=3)
        assert report.passed and report.words_checked == 1 + size + size**2 + size**3
        # every word but the root is ticked, each after a restore of its parent's snapshot
        assert len(restores) == size + size**2 + size**3
        assert ticks == expected

    def test_enforcer_freed_on_return_without_the_cyclic_collector(self, monkeypatch):
        probes = []

        class Probed(Enforcer):
            def __init__(self, *args):
                super().__init__(*args)
                probes.append(weakref.ref(self))

        monkeypatch.setattr(syncguard.harness, "Enforcer", Probed)
        gc.disable()
        try:
            report = check_constraints(mutual_exclusion(), "lex", max_len=2)
            assert report.passed
            assert len(probes) == 1 and probes[0]() is None
        finally:
            gc.enable()

    def test_trivial_property_releases_everything_unchanged(self, alpha_11):
        a = always_accepting(alpha_11)
        report = check_constraints(a, NEAREST, max_len=3)
        assert report.passed
        for length in range(3):
            for observed in itertools.product(alpha_11.events, repeat=length):
                assert enforce_word(a, observed) == observed

    def test_transparency_implies_weak_transparency(self, enforceable_family):
        for a in enforceable_family[::100]:
            for policy in POLICIES:
                report = check_constraints(a, policy, max_len=3, seed=7)
                if report.results["transparency"]:
                    assert report.results["weak_transparency"]

    def test_enumeration_budget(self):
        with pytest.raises(ValueError, match="budget"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=8)

    def test_budget_checked_without_counting_every_word(self):
        # the count is never formed: it would have 6000 digits here
        with pytest.raises(ValueError, match="enumeration budget exceeded"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=10_000)
        # one event per level: the check stops once the budget is passed
        single = Alphabet((), ())
        (event,) = single.events
        a = SafetyAutomaton(
            single, ("q0", "qv"), "q0", "qv", {("q0", event): "q0", ("qv", event): "qv"}
        )
        with pytest.raises(ValueError, match=f"more than {WORD_BUDGET} words"):
            check_constraints(a, NEAREST, max_len=10**9)

    @pytest.mark.parametrize("max_len", [MAX_DEPTH + 1, 3000, 100_000, WORD_BUDGET - 1])
    def test_depth_past_the_bound_rejected(self, max_len):
        # one event per level: within the word budget, but past the depth bound
        a = always_accepting(Alphabet.null())
        message = f"^max_len must be at most {MAX_DEPTH}, got {max_len}$"
        with pytest.raises(ValueError, match=message):
            check_constraints(a, NEAREST, max_len=max_len)

    def test_every_depth_up_to_the_bound_walked(self, monkeypatch):
        snapshots = []
        snapshot = Enforcer.snapshot
        monkeypatch.setattr(Enforcer, "snapshot", lambda self: snapshots.append(1) or snapshot(self))
        a = always_accepting(Alphabet.null())
        report = check_constraints(a, NEAREST, max_len=MAX_DEPTH)
        assert report.passed and report.words_checked == MAX_DEPTH + 1
        # the runtime snapshots each word with children, every one but the deepest
        assert len(snapshots) == MAX_DEPTH

    def test_word_budget_binds_before_the_depth_bound_from_two_events(self):
        # every bound accepted on two or more events is under the depth bound
        a = always_accepting(Alphabet(("A",), ()))
        assert len(a.alphabet.events) == 2
        with pytest.raises(ValueError, match="^enumeration budget exceeded"):
            check_constraints(a, NEAREST, max_len=MAX_DEPTH)

    def test_negative_max_len_rejected(self):
        with pytest.raises(ValueError, match="max_len"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=-1)

    @pytest.mark.parametrize("max_len", [2.5, True, "2", None])
    def test_max_len_that_is_not_an_int_rejected(self, max_len):
        # a float would fail in range(); True would walk as 1
        with pytest.raises(ValueError, match=f"^max_len must be an int, got {max_len!r}$"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=max_len)

    def test_foreign_event_from_the_runtime_raises(self, monkeypatch):
        monkeypatch.setattr(syncguard.harness, "Enforcer", _releasing(ev("101/1")))
        with pytest.raises(ValueError, match="width"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=2)

    def test_foreign_event_with_an_in_range_code_raises(self, monkeypatch):
        # 1/11 has code (1 << 2) | 3 == 7 over two inputs and one output,
        # the code of 11/1: a lookup by code alone would step it as 11/1
        monkeypatch.setattr(syncguard.harness, "Enforcer", _releasing(ev("1/11")))
        with pytest.raises(ValueError, match="^event width mismatch: 1/11 not in the alphabet$"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=1)

    def test_rejects_dead_automata(self):
        from syncguard import NotEnforceableError

        with pytest.raises(NotEnforceableError):
            check_constraints(at_most_one_tick(), NEAREST, max_len=2)


class TestConstraintSpec:
    """Word functions that break constraints, through the literal reading
    in ``constraint_spec``; each of the last three is aimed at a shortcut
    ``check_constraints`` takes for a transducer."""

    def test_broken_enforcer_fails_soundness(self):
        # mutant that skips the output check entirely
        a = mutual_exclusion()
        alphabet = a.alphabet

        def broken(observed):
            released = ()
            for event in observed:
                safe_in = frozenset(
                    x
                    for x in alphabet.input_events
                    if any(
                        a.accepts(released + (alphabet.event(x, y),))
                        for y in alphabet.output_events
                    )
                )
                if event.input in safe_in or not safe_in:
                    x = event.input  # once past a violation anything goes
                else:
                    x = choose_nearest(safe_in, event.input)
                released = released + (alphabet.event(x, event.output),)
            return released

        report = check_literally(a, broken, 4)
        assert not report.results["soundness"]
        counterexample = report.counterexamples["soundness"]
        assert not a.accepts(broken(counterexample))
        # the offending step pairs B with the output it must not join
        last = counterexample[-1]
        assert last.input.bits[1] == 1 and last.output.bits[0] == 1

    def test_the_empty_words_own_checks_fail_on_a_non_empty_unsafe_answer(self):
        # an enforce that answers the empty word with one event into the
        # trap breaks the three checks the root has, each at the root
        a = mutual_exclusion()
        into_trap = next(e for e in a.alphabet.events if not a.accepts((e,)))
        report = check_literally(a, lambda observed: (into_trap,), 0)
        failed = {"soundness", "instantaneity", "weak_transparency"}
        assert {name for name, ok in report.results.items() if not ok} == failed
        assert report.counterexamples == {name: () for name in failed}
        assert report.words_checked == 1

    def test_input_steered_by_output_fails_causality(self):
        # sound, monotone and instantaneous, but the input is picked from
        # the observed output: the largest safe input for output 1, the
        # smallest for output 0
        a = mutual_exclusion()
        alphabet = a.alphabet

        def output_steered(observed):
            released = ()
            for event in observed:

                def safe_outputs(x):
                    return [
                        y
                        for y in alphabet.output_events
                        if a.accepts(released + (alphabet.event(x, y),))
                    ]

                safe_in = [x for x in alphabet.input_events if safe_outputs(x)]
                x = max(safe_in) if event.output.bits[0] else min(safe_in)
                outputs = safe_outputs(x)
                y = event.output
                if y not in outputs:
                    y = choose_nearest(outputs, y)
                released = released + (alphabet.event(x, y),)
            return released

        report = check_literally(a, output_steered, 3)
        assert not report.results["causality"], report
        for name in ("soundness", "monotonicity", "instantaneity"):
            assert report.results[name], report
        counterexample = report.counterexamples["causality"]
        last = counterexample[-1]
        flipped = BitVector(1 - b for b in last.output.bits)
        sibling = counterexample[:-1] + (alphabet.event(last.input, flipped),)
        assert output_steered(counterexample)[-1].input != output_steered(sibling)[-1].input

    def test_monotonicity_broken_against_a_grandparent_only(self, alpha_11):
        # from length 2 on, the first event is released as the last event
        # of the alphabet: (e0, e0, e0) releases a word that extends its
        # parent's but not its grandparent's, and its parent (e0, e0),
        # walked first, fails against its own parent, so it is the
        # counterexample
        a = always_accepting(alpha_11)
        e0, last = alpha_11.events[0], alpha_11.events[-1]

        def rewrites_the_first_event(observed):
            return observed if len(observed) < 2 else (last,) + observed[1:]

        report = check_literally(a, rewrites_the_first_event, 3)
        failed = {"monotonicity", "transparency", "causality", "weak_transparency"}
        assert {name for name, ok in report.results.items() if not ok} == failed
        assert report.counterexamples == {name: (e0, e0) for name in failed}
        assert report.words_checked == 1 + 4 + 16 + 64

    def test_a_non_empty_answer_to_the_empty_word(self):
        # the empty word is released as one safe event, every other word as
        # the oracle releases it: the root breaks instantaneity and weak
        # transparency, and its children causality, transparency and, where
        # they do not release that event, monotonicity
        a = mutual_exclusion()
        first = a.alphabet.events[0]

        def answers_the_empty_word(observed):
            return oracle_enforce(a, observed) if observed else (first,)

        report = check_literally(a, answers_the_empty_word, 2)
        assert report.results == {
            "soundness": True,
            "monotonicity": False,
            "instantaneity": False,
            "transparency": False,
            "causality": False,
            "weak_transparency": False,
        }
        assert report.counterexamples == {
            "instantaneity": (),
            "weak_transparency": (),
            "causality": (ev("00/0"),),
            "transparency": (ev("00/0"),),
            "monotonicity": (ev("00/1"),),
        }
        assert report.words_checked == 1 + 8 + 64

    def test_released_word_one_event_short_at_depth_two(self):
        # the oracle's words with the last event dropped at length 2 only:
        # still sound and monotone, and a length-3 word's release extends
        # its parent's by two events, which causality refuses
        a = mutual_exclusion()

        def short_at_two(observed):
            released = oracle_enforce(a, observed)
            return released[:-1] if len(observed) == 2 else released

        report = check_literally(a, short_at_two, 3)
        failed = {"instantaneity", "transparency", "causality", "weak_transparency"}
        assert {name for name, ok in report.results.items() if not ok} == failed
        assert report.counterexamples == {name: (ev("00/0"), ev("00/0")) for name in failed}
        assert report.words_checked == 1 + 8 + 64 + 512


def _releasing(event):
    """An ``Enforcer`` whose every tick releases ``event``."""

    class Releasing(Enforcer):
        def tick(self, inputs, program):
            record = super().tick(inputs, program)
            return TickRecord(record.t, record.observed, event, record.state_after)

    return Releasing


def _report_text(report):
    lines = [str(report)]
    lines += [
        f"{name}: {format_word(word)}"
        for name, word in sorted(report.counterexamples.items())
    ]
    return "\n".join(lines) + "\n"


def _broken_enforcers(a):
    """Enforcement functions that each break some constraints on ``a``."""
    constant = a.alphabet.events[-1]
    return {
        "identity": lambda w: w,
        "drop_last": lambda w: w[:-1],
        "reversed": lambda w: w[::-1],
        "constant": lambda w: (constant,) * len(w),
        "first_then_echo": lambda w: oracle_enforce(a, w[:1]) + w[1:],
    }


CORPUS_DIGEST = "c157b4ec1131694f830ebd4657d6f1f814d42ad5c5657ef80ad5159ef188cfed"
BROKEN_DIGEST = "b9a93b55c37d7c6517a74f2b61120ed0f472e49a73c18ff512fdd7390e243c07"


class TestPinnedReports:
    """SHA-256 of constraint reports (verdicts, word counts and first
    counterexamples), recorded before the oracle carried locations along
    its word tree; the digests must not move.  The runtime's come from
    ``check_constraints``, the broken word functions' from the literal
    reading in ``constraint_spec``."""

    def test_corpus_reports(self, enforceable_family, random_family):
        digest = hashlib.sha256()
        for a in enforceable_family[::50] + random_family[::5]:
            for policy in POLICIES:
                report = check_constraints(a, policy, max_len=4, seed=7)
                digest.update(_report_text(report).encode())
        assert digest.hexdigest() == CORPUS_DIGEST

    def test_broken_enforcer_reports(self, enforceable_family, random_family):
        digest = hashlib.sha256()
        automata = [mutual_exclusion()] + enforceable_family[::250] + random_family[::20]
        for a in automata:
            for name, enforce in _broken_enforcers(a).items():
                report = check_literally(a, enforce, 3)
                digest.update(f"{name}\n{_report_text(report)}".encode())
        assert digest.hexdigest() == BROKEN_DIGEST


class _SkipsOutputRepair(Enforcer):
    """Releases the program's output where the runtime repairs it; the
    tracked location follows the repaired event, so it is never the trap."""

    def tick(self, inputs, program):
        record = super().tick(inputs, program)
        released = self.automaton.alphabet.event(record.released.input, record.observed.output)
        return TickRecord(record.t, record.observed, released, record.state_after)


class _SkipsInputRepair(Enforcer):
    """Releases the environment's input where the runtime repairs it."""

    def tick(self, inputs, program):
        record = super().tick(inputs, program)
        released = self.automaton.alphabet.event(record.observed.input, record.released.output)
        return TickRecord(record.t, record.observed, released, record.state_after)


class _HoldsLocation(Enforcer):
    """Decides every tick at the location it started in."""

    def tick(self, inputs, program):
        location = self.location
        record = super().tick(inputs, program)
        self.location = location
        return record


class _PeeksAtOutput(Enforcer):
    """Asks the program first and, on a non-zero output, takes the safe
    input of the highest code: its input depends on the output."""

    def tick(self, inputs, program):
        output = program(inputs)  # once per tick, so a script stays in step
        if output.code:
            a = self.automaton
            row, trap = a.table[a.index[self.location]], a.index[a.violating]
            # an input is safe iff some event with it stays out of the trap
            safe = max(code for code, r in enumerate(row) if r != trap)
            inputs = a.alphabet.input_events[safe >> len(a.alphabet.outputs)]
        return super().tick(inputs, lambda _: output)


class _RepairsTowardTheTrap(Enforcer):
    """Where the runtime repairs the output, releases an unsafe output
    instead: one other than the observed output if there is one, else the
    observed output (over one output bit, always the latter).  The tracked
    location follows the repaired event, so it is never the trap."""

    def tick(self, inputs, program):
        automaton = self.automaton
        successors = automaton.table[automaton.index[self.location]]
        record = super().tick(inputs, program)
        if not record.output_edited:
            return record
        alphabet, trap = automaton.alphabet, automaton.index[automaton.violating]
        x, observed = record.released.input, record.observed.output
        unsafe = [
            y
            for y in alphabet.output_events
            if y is not observed and successors[alphabet.event(x, y).code] == trap
        ]
        released = alphabet.event(x, unsafe[0] if unsafe else observed)
        return TickRecord(record.t, record.observed, released, record.state_after)


MUTANTS = {
    "skips_output_repair": _SkipsOutputRepair,
    "skips_input_repair": _SkipsInputRepair,
    "holds_location": _HoldsLocation,
    "peeks_at_output": _PeeksAtOutput,
}
# recorded with the walk that built every observed and released word
MUTANT_DIGEST = "96d736d605fa53162202cbf0fe7e15c54beeb40082095aad319eb17299fe4472"


@pytest.fixture(scope="module")
def mutant_slice(enforceable_family, random_family):
    return [mutual_exclusion()] + enforceable_family[::250] + random_family[::20]


def shortest_words(a, reverse=False):
    """Each reachable accepting location's shortest accepted word, by
    location number: breadth first over ``a.table``, never into the trap,
    trying events in code order (descending if ``reverse``)."""
    table, events, trap = a.table, a.alphabet.events, a.index[a.violating]
    codes = range(len(events))[:: -1 if reverse else 1]
    words, frontier = {a.index[a.initial]: ()}, [a.index[a.initial]]
    for q in frontier:
        for code in codes:
            r = table[q][code]
            if r != trap and r not in words:
                words[r] = words[q] + (events[code],)
                frontier.append(r)
    return words


def sweep(a, policies, seed, runtime=Enforcer):
    """Per policy, None or the first ``(check, location number, event,
    released event)`` at which ``runtime`` parts from the oracle.

    Each event e is ticked from ``(q, 0)``, for each reachable accepting
    location q, and must be released as ``oracle_step`` releases it after
    q's shortest word, observed as e, and followed by the table's successor
    as the state after and as the location.  A decision depends only on
    the location, and the oracle reads a prefix only through its location
    (pinned below), so by induction this holds for words of every length.
    """
    words, alphabet, locations = shortest_words(a), a.alphabet, a.locations
    programs = [ConstantProgram(alphabet, y) for y in alphabet.output_events]

    def first_failure(enforcer, policy):
        for q, word in words.items():
            for e in alphabet.events:
                enforcer.restore((locations[q], 0))
                record = enforcer.tick(e.input, programs[e.output.code])
                released, after = record.released, locations[a.table[q][record.released.code]]
                for check, ok in (
                    ("released", released is oracle_step(a, word, e, policy, seed)),
                    ("observed", record.observed is e),
                    ("state_after", record.state_after == after),
                    ("location", enforcer.location == after),
                ):
                    if not ok:
                        return (check, q, e, released)
        return None

    # built before any is swept, so the enforcers share one build of the safe sets
    enforcers = [runtime(a, policy, seed) for policy in policies]
    return [first_failure(enforcer, policy) for enforcer, policy in zip(enforcers, policies)]


@pytest.fixture(scope="module")
def multi_bit_families():
    """Where an output repair chooses: 2 inputs and 2 outputs, 1 input and 3 outputs."""
    shapes = ((("A", "B"), ("R", "S")), (("A",), ("R", "S", "T")))
    return [random_enforceable_automata(Alphabet(*shape), 200, 4, seed=42) for shape in shapes]


class TestAgreementSweep:
    @staticmethod
    def _agrees(automata, policies, seeds):
        for a in automata:
            assert len(shortest_words(a)) == len(a.accepting_locations)
            for seed in seeds:
                assert sweep(a, policies, seed) == [None] * len(policies), (a, seed)

    def test_on_the_criteria_corpus(self, enforceable_family, random_family):
        named = [mutual_exclusion(), dead_end_branch_repaired()]
        self._agrees(enforceable_family + random_family + named, POLICIES, [7])

    def test_on_the_multi_bit_families(self, multi_bit_families):
        self._agrees(multi_bit_families[0] + multi_bit_families[1], POLICIES, [0, 5])

    @pytest.mark.parametrize("policy", POLICIES + ("lex", "random"))
    def test_under_every_policy_name_and_seed_built_alone(self, policy):
        automata = [mutual_exclusion(), dead_end_branch_repaired(), _random19(), _one_safe_output()]
        self._agrees(automata, [policy], range(6))

    def test_the_oracle_reads_a_released_prefix_only_through_its_location(
        self, enforceable_family, random_family, multi_bit_families
    ):
        # each word asks its own copy, so no answer comes from the other's memo
        compared = 0
        for a in enforceable_family + random_family + multi_bit_families[0]:
            forward, backward = shortest_words(a), shortest_words(a, reverse=True)
            first, second = copy.copy(a), copy.copy(a)
            for q in (q for q in forward if forward[q] != backward[q]):
                for e, policy in itertools.product(a.alphabet.events, POLICIES):
                    compared += 1
                    answer = oracle_step(first, forward[q], e, policy, 7)
                    assert answer is oracle_step(second, backward[q], e, policy, 7)
        assert compared == 48_072

    def test_every_committed_mutant_is_caught(self, mutant_slice, multi_bit_families):
        # failing (automaton, policy) units of mutant_slice and the 2x2
        # family, and the checks they fail first
        caught = {
            "skips_output_repair": (672, {"released"}),
            "skips_input_repair": (78, {"released"}),
            "holds_location": (522, {"location"}),
            "peeks_at_output": (681, {"released", "observed"}),
            "repairs_toward_the_trap": (672, {"released"}),
        }
        failures = {}
        for name, mutant in {**MUTANTS, "repairs_toward_the_trap": _RepairsTowardTheTrap}.items():
            failures[name] = [sweep(a, POLICIES, 7, mutant) for a in mutant_slice + multi_bit_families[0]]
            found = [f for unit in failures[name] for f in unit if f]
            assert (len(found), {f[0] for f in found}) == caught[name], name
        # over one output bit both fail first at the same units and events;
        # over two their first failures part
        n = len(mutant_slice)
        toward, skips = failures["repairs_toward_the_trap"], failures["skips_output_repair"]
        assert toward[:n] == skips[:n] and toward[n:] != skips[n:]


class TestRuntimePathCounterexamples:
    """``check_constraints`` with ``Enforcer`` replaced by a mutant: its
    failed constraints and counterexamples are pinned, and they equal the
    ones the literal reading finds when it replays every word through the
    same mutant."""

    def test_mutant_reports_pinned(self, monkeypatch, mutant_slice):
        digest = hashlib.sha256()
        for name, mutant in MUTANTS.items():
            monkeypatch.setattr(syncguard.harness, "Enforcer", mutant)
            failed = set()
            for a in mutant_slice:
                for policy in POLICIES:
                    report = check_constraints(a, policy, max_len=4, seed=7)
                    digest.update(f"{name} {policy}\n{_report_text(report)}".encode())
                    failed.update(c for c, ok in report.results.items() if not ok)
                    if "soundness" in report.counterexamples:
                        observed = report.counterexamples["soundness"]
                        assert not a.accepts(enforce_word(mutant(a, policy, 7), observed))
            assert failed, name
        assert digest.hexdigest() == MUTANT_DIGEST

    @staticmethod
    def _agree(monkeypatch, mutant_slice, runtime):
        """Compare both reports on every slice automaton and policy; the
        failed constraints over the slice."""
        monkeypatch.setattr(syncguard.harness, "Enforcer", runtime)
        failed = set()
        for a in mutant_slice:
            for policy in POLICIES:
                enforcer = runtime(a, policy, 7)
                by_word = check_literally(a, lambda w: enforce_word(enforcer, w), 4)
                by_tick = check_constraints(a, policy, 4, 7)
                assert _report_text(by_tick) == _report_text(by_word), (runtime, policy)
                assert by_tick.counterexamples == by_word.counterexamples
                failed.update(c for c, ok in by_tick.results.items() if not ok)
        return failed

    @pytest.mark.parametrize("name", ["runtime"] + list(MUTANTS))
    def test_runtime_path_agrees_with_replaying_each_word(self, monkeypatch, mutant_slice, name):
        self._agree(monkeypatch, mutant_slice, MUTANTS.get(name, Enforcer))

    def test_repair_toward_the_trap_flagged(self, monkeypatch, mutant_slice):
        # kept out of MUTANTS, whose digest predates it
        failed = self._agree(monkeypatch, mutant_slice, _RepairsTowardTheTrap)
        assert "soundness" in failed

    def test_repair_toward_the_trap_prefers_another_unsafe_output(self):
        # the runtime repairs 11 to 00, the mutant releases 01, the first
        # other unsafe output
        a = _one_safe_output()
        inputs, observed = a.alphabet.input_vector("1"), a.alphabet.output_vector("11")
        assert Enforcer(a).tick(inputs, lambda _: observed).released == ev("1/00")
        assert _RepairsTowardTheTrap(a).tick(inputs, lambda _: observed).released == ev("1/01")

    def test_repair_toward_the_trap_over_two_outputs(self, monkeypatch):
        # over one output bit, as on mutant_slice, this mutant releases what
        # _SkipsOutputRepair does; over two it takes its other-unsafe-output
        # branch, and both readings must agree there too
        a = _one_safe_output()
        failed = self._agree(monkeypatch, [a], _RepairsTowardTheTrap)
        assert "soundness" in failed
        mutant, skips = _RepairsTowardTheTrap(a), _SkipsOutputRepair(a)
        words = [(e,) for e in a.alphabet.events]
        assert any(enforce_word(mutant, w) != enforce_word(skips, w) for w in words)


def _random19() -> SafetyAutomaton:
    return normalize(parse_automaton((Path(__file__).parent / "golden" / "random19.aut").read_text()))


def _one_safe_output() -> SafetyAutomaton:
    """One input bit, two output bits, and only output 00 is safe."""
    alphabet = Alphabet(("A",), ("B", "C"))
    safe = alphabet.output_vector("00")
    delta = {("q0", e): "q0" if e.output == safe else "qv" for e in alphabet.events}
    delta.update({("qv", e): "qv" for e in alphabet.events})
    return SafetyAutomaton(alphabet, ("q0", "qv"), "q0", "qv", delta)


class TestValidateWitness:
    def test_witness_on_doomed_property(self):
        a = at_most_one_tick()
        assert validate_witness(a, (ev("1/1"),))

    def test_enforceable_property_has_no_witness(self):
        a = mutual_exclusion()
        for word in ((), (ev("10/1"),), (ev("10/1"), ev("01/0"))):
            assert not validate_witness(a, word)

    def test_empty_witness_with_live_initial_location(self, alpha_11):
        a = always_accepting(alpha_11)
        assert not validate_witness(a, ())

    def test_rejected_witness_raises(self):
        a = mutual_exclusion()
        with pytest.raises(ValueError, match="not accepted"):
            validate_witness(a, (ev("11/0"),))

    def test_every_dead_family_member_yields_validated_witness(self, dead_family):
        for a in dead_family:
            report = check_enforceability(a)
            witness = non_enforceability_witness(a, report.dead_locations[0])
            assert a.accepts(witness)
            assert validate_witness(a, witness)

    def test_dead_end_branch_witness(self):
        a = dead_end_branch()
        report = check_enforceability(a)
        witness = non_enforceability_witness(a, report.dead_locations[0])
        assert witness == (ev("1/1"),)
        assert validate_witness(a, witness)


def test_oracle_step_matches_published_edit_values():
    a = mutual_exclusion()
    released = oracle_step(a, (), ev("01/1"), NEAREST)
    assert released == ev("01/0")  # only output 0 may join B


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "observed",
    ["111/1", "11/11", "1/11"],
    ids=["too-wide-input", "too-wide-output", "code-in-range"],
)
def test_oracle_step_rejects_a_foreign_event(policy, observed):
    # the runtime rejects the same vectors; the oracle must not repair them
    a = mutual_exclusion()
    for released in ((), (ev("10/1"),)):
        with pytest.raises(ValueError, match="not in the alphabet"):
            oracle_step(a, released, ev(observed), policy, 7)


@pytest.mark.parametrize("policy", POLICIES)
def test_oracle_refuses_an_event_at_a_dead_location(policy):
    # the first event reaches a location whose every event violates, so no
    # input is safe there and the pick has nothing to choose from
    a = at_most_one_tick()
    e = a.alphabet.events[0]
    with pytest.raises(ValueError, match="the safe set is empty"):
        oracle_step(a, (e,), e, policy, 3)
    with pytest.raises(ValueError, match="the safe set is empty"):
        oracle_enforce(a, (e, e), policy, 3)


class TestOracleStepDefinition:
    """``oracle_step`` against its definition, rebuilt here from
    ``SafetyAutomaton.accepts`` alone: keep the observed input iff some
    output extends the released prefix into an accepted word, keep the
    observed output iff the extension is accepted, otherwise release the
    policy's pick from the set rebuilt by membership.  The policy may be
    named by an alias; an unknown name raises, even for a kept event."""

    @staticmethod
    def _defined(a, released, observed, policy, seed):
        alphabet = a.alphabet
        policy = canonical_policy(policy)

        def accepted(x, y):
            return a.accepts(released + (alphabet.event(x, y),))

        safe_inputs = frozenset(
            x for x in alphabet.input_events if any(accepted(x, y) for y in alphabet.output_events)
        )
        x = observed.input
        if x not in safe_inputs:
            x = select(safe_inputs, x, policy, seed)
        safe_outputs = frozenset(y for y in alphabet.output_events if accepted(x, y))
        y = observed.output
        if y not in safe_outputs:
            y = select(safe_outputs, y, policy, seed)
        return alphabet.event(x, y)

    def test_every_accepted_prefix_and_event(self, random_family):
        automata = [mutual_exclusion(), _random19()] + random_family[::10]
        for a in automata:
            events = a.alphabet.events
            prefixes = [
                w for n in range(3) for w in itertools.product(events, repeat=n) if a.accepts(w)
            ]
            for released in prefixes:
                for observed in events:
                    for policy in POLICIES + ("lex", "random"):
                        expected = self._defined(a, released, observed, policy, 7)
                        got = oracle_step(a, released, observed, policy, 7)
                        assert got == expected, (policy, released, observed)
                    with pytest.raises(ValueError, match="unknown repair policy"):
                        oracle_step(a, released, observed, "bogus", 7)


class TestOracleRepairMemo:
    """Each automaton remembers the oracle's trap-bound repairs, keyed by
    (location, observed event, policy, seed); a warmed automaton answers
    as a cold copy of it and as the definition does."""

    def test_warmed_answers_equal_cold_copies_and_the_definition(self):
        policies = POLICIES + ("lex", "random")
        for a in (copy.copy(mutual_exclusion()), _random19()):
            events = a.alphabet.events
            prefixes = [
                w for n in range(3) for w in itertools.product(events, repeat=n) if a.accepts(w)
            ]
            cases = [
                (released, observed, policy, seed)
                for released in prefixes
                for observed in events
                for policy in policies
                for seed in range(8)
            ]
            for case in cases:
                oracle_step(a, *case)
            assert a._oracle_repairs
            for released, observed, policy, seed in cases:
                warm = oracle_step(a, released, observed, policy, seed)
                cold = copy.copy(a)
                assert cold == a and hash(cold) == hash(a) and cold._oracle_repairs is None
                assert oracle_step(cold, released, observed, policy, seed) is warm
                defined = TestOracleStepDefinition._defined(a, released, observed, policy, seed)
                assert warm == defined, (policy, seed, released, observed)

    def test_seed_and_policy_each_change_some_repair(self):
        # so a key without either would answer some step wrongly
        a = copy.copy(mutual_exclusion())
        observed = ev("11/1")
        seeded = {oracle_step(a, (), observed, "random", seed) for seed in range(8)}
        assert len(seeded) > 1
        by_policy = {oracle_step(a, (), observed, policy, 0) for policy in POLICIES}
        assert len(by_policy) > 1

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_seed_sweep_keys_by_the_seed_only_where_it_picks(self, policy):
        def sweep(seeds):
            a = copy.copy(mutual_exclusion())
            events = a.alphabet.events
            prefixes = [
                w for n in range(3) for w in itertools.product(events, repeat=n) if a.accepts(w)
            ]
            answers = {
                (released, observed, seed): oracle_step(a, released, observed, policy, seed)
                for seed in seeds
                for released in prefixes
                for observed in events
            }
            return a, answers

        one, _ = sweep([0])
        swept, answers = sweep(range(100))
        if policy == SEEDED_RANDOM:
            assert len(swept._oracle_repairs) > len(one._oracle_repairs)
            colds = {}  # one cold copy per seed, so no seed sees another's entries
            for (released, observed, seed), warm in answers.items():
                cold = colds.setdefault(seed, copy.copy(swept))
                assert oracle_step(cold, released, observed, policy, seed) is warm
        else:
            assert len(swept._oracle_repairs) == len(one._oracle_repairs) > 0

    def test_copies_and_pickles_start_empty(self):
        a = copy.copy(mutual_exclusion())
        oracle_step(a, (), ev("11/1"), NEAREST)
        assert a._oracle_repairs
        for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert other == a and repr(other) == repr(a)
            assert other._oracle_repairs is None

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_dead_location_step_raises_on_every_call(self, policy):
        a = copy.copy(at_most_one_tick())
        e = a.alphabet.events[0]
        for _ in range(3):
            with pytest.raises(ValueError, match="the safe set is empty"):
                oracle_step(a, (e,), e, policy, 3)
        assert not a._oracle_repairs


class _CompiledFormRead(Exception):
    pass


# What the runtime compiles an automaton into, and the runtime itself.
COMPILED_FORM = ("project_inputs", "compute_edit_sets", "build_edit_tables", "Enforcer")


def test_oracle_reads_nothing_of_the_compiled_form(monkeypatch):
    # a copy no other code holds: an enforcer of the cached sample that is
    # alive elsewhere would lend its safe sets and skip the patched names
    a = copy.copy(mutual_exclusion())
    observed = (ev("10/1"), ev("11/1"), ev("01/1"))

    def verdicts():
        return [
            (
                oracle_step(a, observed[:1], observed[1], policy, 7),
                oracle_enforce(a, observed, policy, 7),
                _report_text(
                    check_literally(
                        a, lambda w, policy=policy: oracle_enforce(a, w, policy, 7), 3
                    )
                ),
            )
            for policy in POLICIES
        ] + [validate_witness(a, observed[:1]), validate_witness(dead_end_branch(), (ev("1/1"),))]

    unpatched = verdicts()

    def forbidden(*args, **kwargs):
        raise _CompiledFormRead("the oracle built or read the runtime's compiled form")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("syncguard"):
            for name in COMPILED_FORM:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(_CompiledFormRead):
        Enforcer(a)  # the runtime builds its form through these names, so the patch is live
    assert verdicts() == unpatched


# Names each module may give ``oracle.py``: the automaton, events, the
# repair policies' names, and their one dispatcher with its checks of the
# policy name and seed, but no edit set, table, input projection, program
# or runtime.
ORACLE_IMPORTS = {
    "__future__": {"annotations"},
    "typing": {"Optional"},
    "automata": {"SafetyAutomaton"},
    "bits": {"BitVector", "Event", "Word"},
    "editing": {
        "NEAREST", "POLICIES", "SEEDED_RANDOM", "canonical_policy", "check_seed", "select",
    },
}


def test_oracle_imports_only_the_automaton_and_the_policy_dispatcher():
    import syncguard.oracle

    tree = ast.parse(Path(syncguard.oracle.__file__).read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            names = imported.setdefault(node.module or "", set())
            names.update(alias.name for alias in node.names)
    for module, names in imported.items():
        assert module in ORACLE_IMPORTS, f"oracle.py imports {module}"
        assert names <= ORACLE_IMPORTS[module], f"oracle.py imports {names} from {module}"


# Names ``constraint_spec.py`` may import: the automaton and the report type
# through the package, and the word type; nothing of the checker
# (``syncguard.harness``) or the runtime (``syncguard.runtime``).
SPEC_IMPORTS = {
    "__future__": {"annotations"},
    "typing": {"Callable"},
    "syncguard": {"ConstraintReport", "SafetyAutomaton"},
    "syncguard.bits": {"Word"},
}


def test_constraint_spec_imports_nothing_of_the_checker_or_the_runtime():
    from . import constraint_spec

    tree = ast.parse(Path(constraint_spec.__file__).read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            names = imported.setdefault(node.module or "", set())
            names.update(alias.name for alias in node.names)
    for module, names in imported.items():
        assert module not in ("syncguard.harness", "syncguard.runtime")
        assert module in SPEC_IMPORTS, f"constraint_spec.py imports {module}"
        assert names <= SPEC_IMPORTS[module], f"constraint_spec.py imports {names} from {module}"
