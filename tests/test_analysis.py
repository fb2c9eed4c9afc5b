import itertools

import pytest
from hypothesis import given, settings

from syncguard import (
    NotEnforceableError,
    always_accepting,
    at_most_one_tick,
    check_enforceability,
    dead_end_branch,
    dead_end_branch_repaired,
    isomorphic,
    mutual_exclusion,
    non_enforceability_witness,
    transform_non_enforceable,
)

from .strategies import safety_automata


class TestEnforceability:
    def test_mutual_exclusion_is_enforceable(self):
        report = check_enforceability(mutual_exclusion())
        assert report.enforceable
        assert report.dead_locations == ()

    def test_dead_location_after_first_tick(self):
        report = check_enforceability(at_most_one_tick())
        assert not report.enforceable
        assert report.dead_locations == ("q1",)

    def test_all_self_loops_enforceable(self, alpha_11):
        assert check_enforceability(always_accepting(alpha_11)).enforceable

    def test_report_matches_dead_location_definition(self, exhaustive_family):
        for a in exhaustive_family:
            report = check_enforceability(a)
            expected = tuple(
                q
                for q in a.accepting_locations
                if all(a.delta[(q, e)] == a.violating for e in a.alphabet.events)
            )
            assert report.dead_locations == expected
            assert report.enforceable == (not expected)


class TestWitness:
    def test_witness_reaches_dead_location(self):
        a = at_most_one_tick()
        witness = non_enforceability_witness(a, "q1")
        assert len(witness) == 1
        assert a.run(witness) == "q1"
        assert a.accepts(witness)

    def test_witness_for_dead_initial_location_is_empty(self):
        # only the empty word is accepted here
        from syncguard import normalize, parse_automaton

        a = normalize(
            parse_automaton(
                """
                inputs: A
                outputs: B
                states: q0 qv
                initial: q0
                violating: qv
                q0 -> qv : -/-
                """
            )
        )
        assert non_enforceability_witness(a, "q0") == ()

    def test_witness_rejects_trap_argument(self):
        with pytest.raises(ValueError):
            non_enforceability_witness(at_most_one_tick(), "qv")


class TestTransform:
    def test_dead_end_branch_repairs_to_published_shape(self):
        result = transform_non_enforceable(dead_end_branch())
        assert result is not None
        assert result == dead_end_branch_repaired()
        assert isomorphic(result, dead_end_branch_repaired())

    def test_unrepairable_property(self):
        assert transform_non_enforceable(at_most_one_tick()) is None

    def test_enforceable_input_comes_back_unchanged(self):
        a = mutual_exclusion()
        assert transform_non_enforceable(a) == a

    def test_transform_result_is_enforceable(self, exhaustive_family):
        for a in exhaustive_family:
            result = transform_non_enforceable(a)
            if result is not None:
                assert check_enforceability(result).enforceable

    def test_language_containment(self, dead_family):
        for a in dead_family:
            result = transform_non_enforceable(a)
            if result is None:
                continue
            for length in range(4):
                for word in itertools.product(a.alphabet.events, repeat=length):
                    if result.accepts(word):
                        assert a.accepts(word)

    @settings(max_examples=50, deadline=None)
    @given(a=safety_automata())
    def test_idempotence(self, a):
        result = transform_non_enforceable(a)
        if result is not None:
            assert transform_non_enforceable(result) == result


def test_not_enforceable_error_carries_report():
    from syncguard import Enforcer

    with pytest.raises(NotEnforceableError) as excinfo:
        Enforcer(at_most_one_tick())
    assert excinfo.value.report.dead_locations == ("q1",)
