import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncguard import (
    LEXICOGRAPHIC,
    NEAREST,
    POLICIES,
    SEEDED_RANDOM,
    BitVector,
    EditSets,
    Enforcer,
    Event,
    NotEnforceableError,
    always_accepting,
    at_most_one_tick,
    build_edit_tables,
    canonical_policy,
    check_constraints,
    compute_edit_sets,
    editing,
    mutual_exclusion,
    normalize,
    project_inputs,
)
from syncguard.editing import choose_lexicographic, choose_nearest, choose_seeded, select
from syncguard.oracle import oracle_enforce, oracle_step

from .strategies import safety_automata


def bv(text):
    return BitVector.from_text(text)


def ev(text):
    return Event.from_text(text)


def set_of(vectors):
    return frozenset(bv(t) for t in vectors)


def _vectors(width):
    return [BitVector(bits) for bits in itertools.product((0, 1), repeat=width)]


class TestEditSets:
    def test_s1_safe_inputs_exclude_simultaneous_ab(self):
        sets = compute_edit_sets(mutual_exclusion())
        assert sets.safe_inputs["q0"] == set_of(["00", "01", "10"])

    def test_s1_safe_outputs_given_b(self):
        sets = compute_edit_sets(mutual_exclusion())
        assert sets.safe_outputs[("q0", bv("01"))] == set_of(["0"])

    def test_all_self_loops_keep_everything(self, alpha_11):
        a = always_accepting(alpha_11)
        sets = compute_edit_sets(a)
        assert sets.safe_inputs["q0"] == frozenset(alpha_11.input_events)
        for x in alpha_11.input_events:
            assert sets.safe_outputs[("q0", x)] == frozenset(alpha_11.output_events)

    def test_non_empty_under_enforceability(self, enforceable_family, random_family):
        # the step that makes output repair always possible at runtime
        for a in enforceable_family[::25] + random_family:
            sets = compute_edit_sets(a)
            for q in a.accepting_locations:
                assert sets.safe_inputs[q]
                for x in sets.safe_inputs[q]:
                    assert sets.safe_outputs[(q, x)]

    @settings(max_examples=50, deadline=None)
    @given(a=safety_automata())
    def test_sets_match_their_definition(self, a):
        sets = compute_edit_sets(a, project_inputs(a))
        for q in a.accepting_locations:
            for x in a.alphabet.input_events:
                outputs = frozenset(
                    y
                    for y in a.alphabet.output_events
                    if a.delta[(q, a.alphabet.event(x, y))] != a.violating
                )
                assert sets.safe_outputs[(q, x)] == outputs
            expected_inputs = frozenset(
                x
                for x in a.alphabet.input_events
                if sets.safe_outputs[(q, x)]
            )
            assert sets.safe_inputs[q] == expected_inputs

    @settings(max_examples=50, deadline=None)
    @given(a=safety_automata())
    def test_the_location_reader_matches_its_definition(self, a):
        # each safe input, in code order, to the outputs that keep the step
        # out of the trap; an input with none is absent, so the trap's and a
        # dead location's sets are empty
        shared, first = {}, {}
        alphabet = a.alphabet
        for i, q in enumerate(a.locations):
            sets = editing._location_sets(a, i, shared)
            for outputs in sets.values():  # equal slices share one set
                assert first.setdefault(outputs, outputs) is outputs
            expected = {}
            for x in alphabet.input_events:
                outputs = frozenset(
                    y
                    for y in alphabet.output_events
                    if a.delta[(q, alphabet.event(x, y))] != a.violating
                )
                if outputs:
                    expected[x] = outputs
            assert sets == expected
            assert list(sets) == [x for x in alphabet.input_events if x in expected]
            assert sets == editing._location_sets(a, i)  # alike without a shared dict

    @settings(max_examples=40, deadline=None)
    @given(a=safety_automata())
    def test_sets_agree_with_membership_after_accepted_words(self, a):
        # the location-indexed sets, read at the location a word reaches,
        # are the one-event extensions of that word the automaton accepts
        sets = compute_edit_sets(a)
        alphabet = a.alphabet
        for length in range(3):
            for word in itertools.product(alphabet.events, repeat=length):
                if not a.accepts(word):
                    continue
                q = a.run(word)
                for x in alphabet.input_events:
                    outputs = frozenset(
                        y
                        for y in alphabet.output_events
                        if a.accepts(word + (alphabet.event(x, y),))
                    )
                    assert sets.safe_outputs[(q, x)] == outputs
                    assert (x in sets.safe_inputs[q]) == bool(outputs)


class TestEditTables:
    def test_lexicographic_choices_for_s1(self):
        sets = compute_edit_sets(mutual_exclusion())
        tables = build_edit_tables(sets, LEXICOGRAPHIC)
        assert tables[sets.safe_inputs["q0"]] == bv("00")
        assert tables[sets.safe_outputs[("q0", bv("00"))]] == bv("0")

    def test_singleton_sets_force_the_choice(self):
        sets = compute_edit_sets(mutual_exclusion())
        for policy in (LEXICOGRAPHIC, SEEDED_RANDOM):
            tables = build_edit_tables(sets, policy, seed=11)
            assert tables[sets.safe_outputs[("q0", bv("01"))]] == bv("0")

    def test_same_seed_same_tables(self):
        sets = compute_edit_sets(mutual_exclusion())
        t1 = build_edit_tables(sets, SEEDED_RANDOM, seed=5)
        t2 = build_edit_tables(sets, SEEDED_RANDOM, seed=5)
        assert t1 == t2

    def test_keys_are_the_distinct_safe_sets(self, random_family, monkeypatch):
        picked = []

        def counting_select(candidates, observed, policy, seed=None):
            picked.append(candidates)
            return select(candidates, observed, policy, seed)

        monkeypatch.setattr(editing, "select", counting_select)
        for a in [mutual_exclusion()] + random_family[:20]:
            sets = compute_edit_sets(a)
            expected = {sets.safe_inputs[q] for q in a.accepting_locations}
            expected |= {
                sets.safe_outputs[(q, x)]
                for q in a.accepting_locations
                for x in sets.safe_inputs[q]
            }
            for policy in (LEXICOGRAPHIC, SEEDED_RANDOM):
                picked.clear()
                assert set(build_edit_tables(sets, policy, 3)) == expected
                # one select call per distinct set
                assert len(picked) == len(expected) and set(picked) == expected

    def test_tables_stay_inside_the_sets(self, random_family):
        # each value is the policy's pick from its key, so a member of it
        for a in [mutual_exclusion()] + random_family[:20]:
            sets = compute_edit_sets(a)
            for policy, seed in ((LEXICOGRAPHIC, None), (SEEDED_RANDOM, 3)):
                for safe, choice in build_edit_tables(sets, policy, seed).items():
                    assert choice == select(safe, None, policy, seed)
                    assert choice in safe

    def test_dead_location_raises(self):
        sets = compute_edit_sets(at_most_one_tick())
        with pytest.raises(NotEnforceableError, match="not enforceable"):
            build_edit_tables(sets, LEXICOGRAPHIC)

    def test_nearest_has_no_table(self):
        sets = compute_edit_sets(mutual_exclusion())
        with pytest.raises(ValueError, match="observed-dependent"):
            build_edit_tables(sets, NEAREST)

    @pytest.mark.parametrize("policy", (LEXICOGRAPHIC, SEEDED_RANDOM))
    def test_select_refuses_an_empty_safe_output_set(self, policy):
        # compute_edit_sets makes none under a safe input, so built by hand
        sets = compute_edit_sets(mutual_exclusion())
        outputs = dict(sets.safe_outputs)
        outputs[("q0", bv("00"))] = frozenset()
        with pytest.raises(ValueError, match="the safe set is empty") as raised:
            build_edit_tables(EditSets(sets.safe_inputs, outputs), policy, 3)
        assert not isinstance(raised.value, NotEnforceableError)


class TestRepair:
    def test_nearest_prefers_agreement_on_earlier_variables(self):
        # observed 11; distance-1 candidates are {01, 10}; 10 agrees with
        # the observed value of A (declared first), so it wins
        sets = compute_edit_sets(mutual_exclusion())
        assert choose_nearest(sets.safe_inputs["q0"], bv("11")) == bv("10")

    def test_singleton_output_repair(self):
        # given input 01 the only safe output is 0, whatever the policy
        for policy in POLICIES:
            enforcer = Enforcer(mutual_exclusion(), policy, seed=11)
            record = enforcer.tick(bv("01"), lambda _: bv("1"))
            assert record.released == ev("01/0") and record.output_edited

    def test_repair_refuses_safe_observed_event(self):
        a = mutual_exclusion()
        sets = compute_edit_sets(a)
        for policy in POLICIES:
            enforcer = Enforcer(a, policy, seed=11)
            for x in sets.safe_inputs["q0"]:
                for y in sets.safe_outputs[("q0", x)]:
                    record = enforcer.tick(x, lambda _: y)
                    assert record.released == record.observed == ev(f"{x}/{y}")
                    assert not record.input_edited and not record.output_edited

    def test_repair_on_empty_set_reports_non_enforceable(self):
        # q1 of at_most_one_tick has no safe input: no enforcer is built
        for policy in POLICIES:
            with pytest.raises(NotEnforceableError, match="q1"):
                Enforcer(at_most_one_tick(), policy)

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.integers(1, 4),
        candidate_bits=st.data(),
    )
    def test_nearest_is_distance_optimal(self, width, candidate_bits):
        vectors = [
            BitVector(bits) for bits in itertools.product((0, 1), repeat=width)
        ]
        chosen = candidate_bits.draw(
            st.sets(st.sampled_from(vectors), min_size=1).map(frozenset)
        )
        observed = candidate_bits.draw(st.sampled_from(vectors))
        best = choose_nearest(chosen, observed)
        assert best in chosen
        distance = {c: sum(a != b for a, b in zip(observed.bits, c.bits)) for c in chosen}
        assert distance[best] == min(distance.values())

    def test_nearest_equals_the_code_key(self):
        # the Hamming distance is the XOR's bit count, and the XOR's numeric
        # order is the order of the mismatch tuples choose_nearest compares
        def by_code(candidates, observed):
            return min(
                candidates,
                key=lambda c: ((c.code ^ observed.code).bit_count(), c.code ^ observed.code),
            )

        for width in range(4):
            vectors = _vectors(width)
            for mask in range(1, 2 ** len(vectors)):
                candidates = frozenset(v for k, v in enumerate(vectors) if mask >> k & 1)
                for observed in vectors:
                    assert choose_nearest(candidates, observed) is by_code(candidates, observed)
        rng = random.Random(4)
        for width in (4, 5, 6, 8):
            vectors = _vectors(width)
            for _ in range(1000):
                candidates = frozenset(rng.sample(vectors, rng.randint(1, len(vectors))))
                observed = rng.choice(vectors)
                assert choose_nearest(candidates, observed) is by_code(candidates, observed)

    def test_seeded_and_lexicographic_picks_equal_the_definitions_by_lt(self):
        # the picks compare ``bits`` tuples; these definitions compare
        # through ``BitVector.__lt__`` and render each vector bit by bit
        def seeded(candidates, seed):
            ranked = sorted(candidates)
            material = f"{0 if seed is None else seed}:" + ",".join(
                "".join(str(b) for b in c.bits) for c in ranked
            )
            digest = hashlib.sha256(material.encode("ascii")).digest()
            return ranked[int.from_bytes(digest[:8], "big") % len(ranked)]

        rng = random.Random(8)
        for width in range(9):
            vectors = _vectors(width)
            for _ in range(200):
                candidates = frozenset(rng.sample(vectors, rng.randint(1, len(vectors))))
                seed = rng.choice((None, rng.randrange(2**32)))
                assert choose_seeded(candidates, seed) is seeded(candidates, seed)
                assert choose_lexicographic(candidates) is min(candidates)

    def test_seeded_choice_is_stable_and_member(self):
        candidates = set_of(["00", "01", "10"])
        pick = choose_seeded(candidates, seed=9)
        assert pick in candidates
        assert choose_seeded(candidates, seed=9) == pick
        # and differs for at least one other seed over many tries
        assert any(choose_seeded(candidates, seed=s) != pick for s in range(32))


@pytest.mark.parametrize("policy", POLICIES)
def test_select_refuses_an_empty_set(policy):
    with pytest.raises(ValueError, match="the safe set is empty"):
        select(frozenset(), bv("01"), policy, 3)


@pytest.mark.parametrize("seed", (True, 1.0, "1"))
@pytest.mark.parametrize("policy", POLICIES)
def test_a_repair_seed_is_an_int_or_none(policy, seed):
    a = mutual_exclusion()
    observed = ev("11/1")  # both halves repaired at the initial location
    # refused under every policy, not only where the seeded-random pick
    # reads it: each would pick differently from the int it equals
    with pytest.raises(ValueError, match="repair seed must be an int or None"):
        Enforcer(a, policy, seed)
    for event in (observed, ev("00/0")):  # repaired, and kept as it is
        with pytest.raises(ValueError, match="repair seed must be an int or None"):
            oracle_step(a, (), event, policy, seed)
    with pytest.raises(ValueError, match="repair seed must be an int or None"):
        check_constraints(a, policy, 1, seed)
    with pytest.raises(ValueError, match="repair seed must be an int or None"):
        build_edit_tables(compute_edit_sets(a), policy, seed)
    with pytest.raises(ValueError, match="repair seed must be an int or None"):
        oracle_enforce(a, (), policy, seed)
    if policy == SEEDED_RANDOM:
        assert oracle_step(a, (), observed, policy, 1) is ev("00/1")
        assert _releases(Enforcer(a, policy, None)) == _releases(Enforcer(a, policy, 0))


def _releases(enforcer):
    """The event released for each event at each accepting location."""
    a, released = enforcer.automaton, []
    for q, e in itertools.product(a.accepting_locations, a.alphabet.events):
        enforcer.restore((q, 0))
        released.append(enforcer.tick(e.input, lambda _: e.output).released)
    return released


def test_a_malformed_seed_is_refused_before_any_set_is_built():
    a = normalize(mutual_exclusion())  # a fresh object: no enforcer has seen it
    with pytest.raises(ValueError, match="repair seed must be an int or None"):
        Enforcer(a, "lex", "junk")
    assert a._edit_sets is None


def test_check_constraints_refuses_a_malformed_seed_no_pick_reads():
    with pytest.raises(ValueError, match="repair seed must be an int or None"):
        check_constraints(mutual_exclusion(), "nearest", 2, 1.5)


def test_oracle_enforce_refuses_a_malformed_seed_on_a_word_it_keeps():
    a = mutual_exclusion()
    kept = (ev("00/0"), ev("01/0"))
    assert oracle_enforce(a, kept, "random", 1) == kept
    with pytest.raises(ValueError, match="repair seed must be an int or None"):
        oracle_enforce(a, kept, "random", True)


def test_oracle_step_takes_an_int_subclass_seed_as_its_int():
    # the seeded pick hashes the seed's value, not its text; the oracle
    # remembers repairs by seed, and Seed(1) == 1 share a key, so a pick
    # by text would answer by whichever of the two came first
    class Seed(int):
        def __str__(self):
            return "seed"

    candidates = frozenset(_vectors(2))
    for seed in range(8):
        assert choose_seeded(candidates, Seed(seed)) is choose_seeded(candidates, seed)
    a = mutual_exclusion()
    for policy in POLICIES + ("lex", "random"):
        for seed in range(8):
            assert oracle_step(normalize(a), (), ev("11/1"), policy, Seed(seed)) is oracle_step(
                normalize(a), (), ev("11/1"), policy, seed
            )
    assert _releases(Enforcer(a, "random", Seed(1))) == _releases(Enforcer(a, "random", 1))


def test_policy_aliases():
    assert canonical_policy("lex") == LEXICOGRAPHIC
    assert canonical_policy("random") == SEEDED_RANDOM
    assert canonical_policy("nearest") == NEAREST
    with pytest.raises(ValueError):
        canonical_policy("closest")


def test_an_unhashable_policy_name_is_refused_with_value_error():
    a = mutual_exclusion()
    with pytest.raises(ValueError, match=r"unknown repair policy \['lex'\]"):
        Enforcer(a, ["lex"])
    with pytest.raises(ValueError, match=r"unknown repair policy \['lex'\]"):
        oracle_step(a, (), ev("11/1"), ["lex"])


def test_select_accepts_the_policy_aliases():
    safe = set_of(["00", "01", "10"])
    for alias, policy in (("lex", LEXICOGRAPHIC), ("random", SEEDED_RANDOM)):
        assert select(safe, None, alias, 4) is select(safe, None, policy, 4)
    assert select(safe, bv("11"), "lex") is bv("00")
    with pytest.raises(ValueError, match="unknown repair policy 'closest'"):
        select(safe, bv("11"), "closest")
