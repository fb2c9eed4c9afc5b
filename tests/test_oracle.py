import hashlib
import itertools

import pytest

from syncguard import (
    NEAREST,
    POLICIES,
    BitVector,
    Enforcer,
    Event,
    SafetyAutomaton,
    always_accepting,
    at_most_one_tick,
    check_constraints,
    check_enforceability,
    dead_end_branch,
    enforce_word,
    mutual_exclusion,
    non_enforceability_witness,
    oracle_enforce,
    validate_witness,
)
from syncguard.bits import format_word
from syncguard.editing import choose_nearest
from syncguard.oracle import oracle_step


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

    def test_agrees_with_runtime_on_exhaustive_slice(self, enforceable_family):
        for a in enforceable_family[::50]:
            enforcer = Enforcer(a, NEAREST)
            for length in range(4):
                for observed in itertools.product(a.alphabet.events, repeat=length):
                    assert oracle_enforce(a, observed, NEAREST) == enforce_word(
                        enforcer, observed
                    )

    def test_agrees_with_runtime_on_named_automata(self):
        from syncguard import dead_end_branch_repaired

        for a in (mutual_exclusion(), dead_end_branch_repaired()):
            for policy in POLICIES:
                enforcer = Enforcer(a, policy, seed=7)
                for length in range(4):
                    for observed in itertools.product(a.alphabet.events, repeat=length):
                        assert oracle_enforce(a, observed, policy, seed=7) == enforce_word(
                            enforcer, observed
                        )

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

    def test_trivial_property_releases_everything_unchanged(self, alpha_11):
        a = always_accepting(alpha_11)
        report = check_constraints(a, NEAREST, max_len=3)
        assert report.passed
        for length in range(3):
            for observed in itertools.product(alpha_11.events, repeat=length):
                assert enforce_word(a, observed) == observed

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

        report = check_constraints(a, NEAREST, max_len=4, enforce=broken)
        assert not report.results["soundness"]
        counterexample = report.counterexamples["soundness"]
        assert not a.accepts(broken(counterexample))
        # the offending step pairs B with the output it must not join
        last = counterexample[-1]
        assert last.input.bits[1] == 1 and last.output.bits[0] == 1

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

        report = check_constraints(a, NEAREST, max_len=3, enforce=output_steered)
        assert not report.results["causality"], report
        for name in ("soundness", "monotonicity", "instantaneity"):
            assert report.results[name], report
        counterexample = report.counterexamples["causality"]
        last = counterexample[-1]
        flipped = BitVector(1 - b for b in last.output.bits)
        sibling = counterexample[:-1] + (alphabet.event(last.input, flipped),)
        assert output_steered(counterexample)[-1].input != output_steered(sibling)[-1].input

    def test_transparency_implies_weak_transparency(self, enforceable_family):
        for a in enforceable_family[::100]:
            for policy in POLICIES:
                report = check_constraints(a, policy, max_len=3, seed=7)
                if report.results["transparency"]:
                    assert report.results["weak_transparency"]

    def test_enumeration_budget(self):
        with pytest.raises(ValueError, match="budget"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=8, budget=10**6)

    def test_negative_max_len_rejected(self):
        with pytest.raises(ValueError, match="max_len"):
            check_constraints(mutual_exclusion(), NEAREST, max_len=-1)

    def test_foreign_event_from_custom_enforce_raises(self):
        a = mutual_exclusion()
        wide = ev("101/1")

        def wrong_width(observed):
            return tuple(wide for _ in observed)

        with pytest.raises(ValueError, match="width"):
            check_constraints(a, NEAREST, max_len=2, enforce=wrong_width)

    def test_rejects_dead_automata(self):
        from syncguard import NotEnforceableError

        with pytest.raises(NotEnforceableError):
            check_constraints(at_most_one_tick(), NEAREST, max_len=2)


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
    """SHA-256 of ``check_constraints`` reports (verdicts, word counts and
    first counterexamples), recorded before the oracle carried locations
    along its word tree; the digests must not move."""

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
                report = check_constraints(a, NEAREST, max_len=3, enforce=enforce)
                digest.update(f"{name}\n{_report_text(report)}".encode())
        assert digest.hexdigest() == BROKEN_DIGEST


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
