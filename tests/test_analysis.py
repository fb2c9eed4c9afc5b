import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

from syncguard import (
    NotEnforceableError,
    SafetyAutomaton,
    always_accepting,
    at_most_one_tick,
    check_enforceability,
    dead_end_branch,
    dead_end_branch_repaired,
    isomorphic,
    mutual_exclusion,
    non_enforceability_witness,
    render_automaton,
    transform_non_enforceable,
)

from .strategies import safety_automata

# SHA-256 over the rendered transform of every automaton in the exhaustive
# family followed by the 500 automata of ``_unnormalized_automata`` over
# the two-input, one-output alphabet.
TRANSFORM_DIGEST = "89389b230ed5b6e90e0f2427856ec7d33c5e0f9e616ae57f31a7bc5630d5e04e"


def _unnormalized_automata(alphabet, count=500, seed=7):
    """Seeded automata with 1-6 accepting states, left as generated: names
    ``s0 ...`` plus ``bad``, unreachable states kept."""
    rng = random.Random(seed)
    events = alphabet.events
    automata = []
    for _ in range(count):
        n = rng.randint(1, 6)
        states = tuple(f"s{i}" for i in range(n)) + ("bad",)
        delta = {("bad", e): "bad" for e in events}
        for src in states[:-1]:
            # a per-state trap bias leaves dead locations, some in chains
            bias = rng.choice((0.0, 0.5, 0.9, 1.0))
            for e in events:
                delta[(src, e)] = "bad" if rng.random() < bias else rng.choice(states[:-1])
        automata.append(SafetyAutomaton(alphabet, states, "s0", "bad", delta))
    return automata


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

    def test_witness_rejects_unreachable_location(self, alpha_11):
        # q1 is declared but no event leads to it
        targets = {"q0": "q0", "q1": "qv", "qv": "qv"}
        delta = {(q, e): target for q, target in targets.items() for e in alpha_11.events}
        a = SafetyAutomaton(alpha_11, ("q0", "q1", "qv"), "q0", "qv", delta)
        for location in ("q1", "nope"):
            with pytest.raises(ValueError, match=f"^location '{location}' is unreachable$"):
                non_enforceability_witness(a, location)


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

    def test_output_is_pinned(self, exhaustive_family, alpha_21):
        digest = hashlib.sha256()
        for a in list(exhaustive_family) + _unnormalized_automata(alpha_21):
            result = transform_non_enforceable(a)
            text = "NONE\n" if result is None else render_automaton(result)
            digest.update(text.encode())
        assert digest.hexdigest() == TRANSFORM_DIGEST

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
