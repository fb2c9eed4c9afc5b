import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncguard import (
    Alphabet,
    all_normalized_automata,
    dead_end_branch,
    dead_end_branch_repaired,
    random_enforceable_automata,
    transform_non_enforceable,
    BitVector,
    EmptyPropertyError,
    Event,
    ParseError,
    RawAutomaton,
    SafetyAutomaton,
    isomorphic,
    mutual_exclusion,
    normalize,
    parse_automaton,
    project_inputs,
    render_automaton,
)
from syncguard import automata, bits
from syncguard.automata import _AUTOMATON_KEYS, _parse_document

from .strategies import mutated_documents, raw_automata, raw_relations, safety_automata, words


def ev(text):
    return Event.from_text(text)


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
MUTEX_DOC = (GOLDEN / "mutex.aut").read_text(encoding="utf-8")

S1_DOC = """
# A and B never together; B and R never together
inputs: A B
outputs: R
states: ok bad
initial: ok
violating: bad
ok -> bad : 11/-
ok -> bad : -1/1
ok -> ok : 00/-
ok -> ok : 10/-
ok -> ok : 01/0
"""


def _doc(*extra):
    """A one-input, one-output document: five declarations, then ``extra``."""
    lines = ["inputs: A", "outputs: B", "states: q0 qv", "initial: q0", "violating: qv"]
    return "\n".join(lines + list(extra))


# a blank and a comment line before the faulty line 9
COMMENTED = _doc("# note", "", "q0 -> q0 : 1/-", "q0 -> q0 : 0-/1")


class TestParse:
    def test_s1_document(self):
        raw = parse_automaton(S1_DOC)
        assert raw.alphabet == Alphabet(("A", "B"), ("R",))
        assert raw.states == ("ok", "bad")
        a = normalize(raw)
        assert len(a.locations) == 2
        # the two forbidden conjunctions and nothing else violate
        violating = sorted(
            str(e) for e in a.alphabet.events if a.delta[(a.initial, e)] == a.violating
        )
        assert violating == ["01/1", "11/0", "11/1"]

    def test_wildcard_pattern_expands(self):
        raw = parse_automaton(
            """
            inputs: A B
            outputs: R
            states: s qv
            initial: s
            violating: qv
            s -> s : 1-/-
            """
        )
        expected = {("s", ev(label), "s") for label in ("10/0", "10/1", "11/0", "11/1")}
        assert raw == RawAutomaton(raw.alphabet, ("s", "qv"), "s", "qv", expected)

    def test_violating_must_be_trap(self):
        with pytest.raises(ParseError, match="trap"):
            parse_automaton(
                """
                inputs: A
                outputs: B
                states: q0 qv
                initial: q0
                violating: qv
                qv -> q0 : -/-
                """
            )

    def test_nondeterminism_is_not_a_parse_error(self):
        raw = parse_automaton(
            """
            inputs: A
            outputs: B
            states: q0 q1 qv
            initial: q0
            violating: qv
            q0 -> q0 : 1/1
            q0 -> q1 : 1/1
            """
        )
        one = ev("1/1")
        expected = {("q0", one, "q0"), ("q0", one, "q1")}
        assert raw == RawAutomaton(raw.alphabet, ("q0", "q1", "qv"), "q0", "qv", expected)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("states: q0 q0 qv", "duplicate state"),
            ("initial: nope", "undeclared"),
            ("q0 -> q9 : -/-", "unknown state"),
            ("q0 -> q0 : --/-", "pattern"),
            ("q0 -> q0 : -/2", "transition"),
            ("states:", "^'states:' declares no states$"),
        ],
    )
    def test_malformed_documents(self, mutation, message):
        lines = [
            "inputs: A",
            "outputs: B",
            "states: q0 qv",
            "initial: q0",
            "violating: qv",
        ]
        key = mutation.split(":")[0] + ":"
        if any(line.startswith(key) for line in lines):
            lines = [mutation if line.startswith(key) else line for line in lines]
        else:
            lines.append(mutation)
        with pytest.raises(ParseError, match=message):
            parse_automaton("\n".join(lines))

    def test_too_wide_interface_rejected(self):
        doc = "\n".join(
            (
                "inputs: " + " ".join(f"i{j}" for j in range(9)),
                "outputs: " + " ".join(f"o{j}" for j in range(8)),
                "states: q0 qv",
                "initial: q0",
                "violating: qv",
            )
        )
        with pytest.raises(ParseError, match="declares 17 variables; at most 16"):
            parse_automaton(doc)

    def test_transition_outside_declarations_rejected(self, alpha_11):
        event = alpha_11.events[0]
        for triple in (("s0", event, "s9"), ("s0", Event.from_text("00/0"), "s0")):
            with pytest.raises(ValueError, match="undeclared state or a label outside"):
                RawAutomaton(alpha_11, ("s0", "bad"), "s0", "bad", frozenset((triple,)))

    @pytest.mark.parametrize("header", ["initial: q0", "violating: qv"])
    def test_missing_declarations(self, header):
        doc = "\n".join(
            line
            for line in (
                "inputs: A",
                "outputs: B",
                "states: q0 qv",
                "initial: q0",
                "violating: qv",
            )
            if line != header
        )
        with pytest.raises(ParseError, match="missing"):
            parse_automaton(doc)

    @settings(max_examples=200, deadline=None)
    @given(text=mutated_documents(MUTEX_DOC))
    def test_mutated_document_parses_or_raises_value_error(self, text):
        try:
            parse_automaton(text)
        except ValueError:  # ParseError and EmptyPropertyError are subclasses
            pass

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(_doc("q0 -> q9 : -/-"), "line 6: unknown state 'q9'", id="state"),
            pytest.param(_doc("q0 -> q0 : --/-"),
                         "line 6: input pattern '--' has 2 positions, expected 1", id="input"),
            pytest.param(_doc("q0 -> q0 : 1/"),
                         "line 6: output pattern '' has 0 positions, expected 1", id="output"),
            pytest.param(_doc("q0 -> q0 : -/2"),
                         "line 6: cannot parse transition 'q0 -> q0 : -/2'", id="syntax"),
            pytest.param(_doc("q0 -> q0 : -/-", "qv -> q0 : 1/0"),
                         "line 7: violating state must be a trap", id="trap"),
            pytest.param(COMMENTED,
                         "line 9: input pattern '0-' has 2 positions, expected 1", id="comment"),
            pytest.param(_doc("inputs: B"),
                         "line 6: duplicate 'inputs:' declaration", id="duplicate"),
            # every line's syntax and state names are read before any pattern
            pytest.param(_doc("q0 -> q0 : 11/-", "q0 -> zz : 1/-"),
                         "line 7: unknown state 'zz'", id="names-first"),
            # a line ends at a newline only: a form feed (where str.splitlines
            # also splits) stays in its line, and so does a record separator
            pytest.param(_doc("q0 -> q9 : -/-").replace("initial: q0", "initial: q0\x0c"),
                         "line 6: unknown state 'q9'", id="form-feed"),
            pytest.param(_doc("q0 -> q0 : 0/0\x1cq0 -> qv : 1/-"),
                         "line 6: cannot parse transition 'q0 -> q0 : 0/0\\x1cq0 -> qv : 1/-'",
                         id="record-separator"),
            pytest.param(COMMENTED.replace("\n", "\r\n"),
                         "line 9: input pattern '0-' has 2 positions, expected 1", id="crlf"),
            pytest.param(COMMENTED.replace("\n", "\r"),
                         "line 9: input pattern '0-' has 2 positions, expected 1", id="cr"),
        ],
    )
    def test_parse_error_messages_and_line_numbers(self, text, message):
        # a label read a second time comes from the memo; the message is the same
        for _ in range(2):
            with pytest.raises(ParseError) as caught:
                parse_automaton(text)
            assert str(caught.value) == message

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_every_newline_ends_a_line_alike(self, newline):
        assert parse_automaton(MUTEX_DOC.replace("\n", newline)) == parse_automaton(MUTEX_DOC)
        assert parse_automaton(S1_DOC.replace("\n", newline)) == parse_automaton(S1_DOC)

    def test_the_label_memo_is_bounded(self):
        assert automata._event_codes.cache_info().maxsize == 1024
        codes = automata._event_codes("1-", "-", 2, 1)
        assert codes == (4, 5, 6, 7) and type(codes) is tuple
        assert automata._event_codes("1-", "-", 2, 1) is codes
        # a label of more than 64 events is not kept: the parser expands it
        automata._event_codes.cache_clear()
        parse_automaton(_doc("q0 -> q0 : 1/-"))
        parse_automaton("\n".join(WIDE_HEAD + ["s0 -> s0 : ----/---"]))
        assert automata._event_codes.cache_info().currsize == 1

    def test_memoized_and_expanded_labels_parse_alike(self, monkeypatch):
        def outcome(text):
            try:
                return parse_automaton(text)
            except ParseError as exc:
                return str(exc)

        texts = ROW_DOCUMENTS + [
            _doc("q0 -> q0 : 1/-", "q0 -> q0 : 11/-"),
            "\n".join(WIDE_HEAD + ["s0 -> s0 : 1---/---", "s0 -> bad : 0---/-1-", "s0 -> s0 : 0-1-/-0-"]),
            "\n".join(WIDE_HEAD + ["s0 -> s0 : 1---/---", "s0 -> s0 : ----/----"]),
        ]
        expected = [outcome(text) for text in texts]
        assert expected[-1] == "line 7: output pattern '----' has 4 positions, expected 3"
        # from a cold memo: every label expanded, every label memoized, the default
        for limit in (-1, 16, bits._MEMO_WILDCARDS):
            monkeypatch.setattr(bits, "_MEMO_WILDCARDS", limit)
            automata._event_codes.cache_clear()
            bits._memo_codes.cache_clear()
            assert [outcome(text) for text in texts] == expected

    def test_wide_labels_leave_no_memory_behind(self):
        """32 distinct labels of 16,384 events each over 8 inputs and 8
        outputs, and 32 over 16 inputs: memoized, as every label once was,
        they grew the peak RSS by 62 MB on CPython 3.11; expanded on each
        line, by 3.5 MB."""
        result = subprocess.run(
            [sys.executable, "-c", WIDE_LABEL_PROBE],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        before, after = map(int, result.stdout.split())
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, else KiB
        assert (after - before) * unit < 16 * 2**20


# A 4 x 3 interface, where a label of 7 wildcards matches 128 events.
WIDE_HEAD = ["inputs: a b c d", "outputs: x y z", "states: s0 bad", "initial: s0", "violating: bad"]


# Parses 32 labels that each fix two of 16 variables to 1, over 8 inputs and
# 8 outputs and over 16 inputs; prints the peak RSS before and after.
WIDE_LABEL_PROBE = """
import itertools, resource
from syncguard import Alphabet, parse_automaton

texts = []
for n_in in (8, 16):
    names = ["i%d" % k for k in range(n_in)], ["o%d" % k for k in range(16 - n_in)]
    Alphabet(*names).events  # the event table is built once either way
    head = ["inputs: " + " ".join(names[0]), "outputs: " + " ".join(names[1]),
            "states: s0 bad", "initial: s0", "violating: bad"]
    pairs = itertools.islice(itertools.combinations(range(16), 2), 32)
    labels = ["".join("1" if k in pair else "-" for k in range(16)) for pair in pairs]
    lines = ["s0 -> s0 : %s/%s" % (label[:n_in], label[n_in:]) for label in labels]
    texts += ["\\n".join(head + lines[k : k + 8]) for k in range(0, 32, 8)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for text in texts:
    parse_automaton(text)
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _line_by_line(text):
    """A document's relation rebuilt one transition line at a time, each
    label expanded to its events by ``Alphabet.expand_event_pattern``: the
    automaton built by hand from those triples, and the triples."""
    headers, alphabet, states, initial, lines = _parse_document(text, _AUTOMATON_KEYS)
    triples = frozenset(
        (src, event, dst)
        for _, src, dst, in_pat, out_pat in lines
        for event in alphabet.expand_event_pattern(f"{in_pat}/{out_pat}")
    )
    violating = headers["violating"].strip()
    return RawAutomaton(alphabet, states, initial, violating, triples), triples


def _relation_accepts(triples, initial, violating, word):
    """``accepts`` as a relation of ``(src, event, dst)`` triples defines it."""
    frontier = {initial}
    for event in word:
        frontier = {d for s, e, d in triples if s in frontier and e is event}
    return any(s != violating for s in frontier)


def _wide_deterministic_document(seed=5):
    """The ``synth`` benchmark mix's widest shape: 5 inputs, 3 outputs, 6
    states, each branching four ways on two of the eight variables, so
    every label fixes 2 positions and matches 64 events."""
    rng = random.Random(seed)
    states = [f"s{j}" for j in range(6)]
    lines = ["inputs: i0 i1 i2 i3 i4", "outputs: o0 o1 o2", "states: " + " ".join(states) + " bad",
             "initial: s0", "violating: bad"]
    for j, src in enumerate(states):
        guards = rng.sample(range(8), 2)
        for branch in range(4):
            label = ["-"] * 8
            label[guards[0]], label[guards[1]] = "01"[branch >> 1], "01"[branch & 1]
            dst = states[(j + 1) % 6] if branch == 0 else rng.choice(states + ["bad"])
            lines.append(f"{src} -> {dst} : {''.join(label[:5])}/{''.join(label[5:])}")
    return "\n".join(lines) + "\n"


def _overlapping_document(seed=8):
    """3 inputs, 2 outputs, 4 states, three random wildcard labels per
    state: the labels overlap, so the relation is nondeterministic."""
    rng = random.Random(seed)

    def pattern(width):
        return "".join("-" if rng.random() < 0.5 else rng.choice("01") for _ in range(width))

    states = [f"s{j}" for j in range(4)]
    lines = ["inputs: a b c", "outputs: x y", "states: " + " ".join(states) + " bad",
             "initial: s0", "violating: bad"]
    for src in states:
        for k in range(3):
            dst = rng.choice(states + ["bad"] if k else states)
            lines.append(f"{src} -> {dst} : {pattern(3)}/{pattern(2)}")
    return "\n".join(lines) + "\n"


ROW_DOCUMENTS = [S1_DOC, MUTEX_DOC] + [
    path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.aut"))
] + [_wide_deterministic_document(), _overlapping_document()]


class TestRows:
    """An automaton keeps one form, its successor-mask rows, whether parsed
    or built by hand from triples; a hand-built relation is checked when
    it is built."""

    @pytest.mark.parametrize("text", ROW_DOCUMENTS)
    def test_parsed_relation_is_the_line_by_line_relation(self, text):
        raw, (built, _) = parse_automaton(text), _line_by_line(text)
        assert raw.rows == built.rows
        assert raw == built and built == raw and hash(raw) == hash(built)
        assert normalize(raw) == normalize(built)

    @pytest.mark.parametrize("text", ROW_DOCUMENTS)
    def test_copies_and_pickles_round_trip(self, text):
        built, _ = _line_by_line(text)
        for raw in (parse_automaton(text), built):
            for clone in (copy.copy(raw), copy.deepcopy(raw), pickle.loads(pickle.dumps(raw))):
                assert clone == raw == built and hash(clone) == hash(built)
                assert normalize(clone) == normalize(raw)

    @settings(max_examples=200, deadline=None)
    @given(text=mutated_documents(MUTEX_DOC))
    def test_mutated_documents_parse_to_the_line_by_line_relation(self, text):
        try:
            raw = parse_automaton(text)
        except ValueError:
            return
        built, _ = _line_by_line(text)
        assert raw == built and hash(raw) == hash(built)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_accepts_and_successors_follow_the_relation(self, data):
        alphabet, states, triples = data.draw(raw_relations())
        raw = RawAutomaton(alphabet, states, "s0", "bad", triples)
        for word in data.draw(st.lists(words(alphabet), max_size=5)):
            assert raw.accepts(word) == _relation_accepts(triples, "s0", "bad", word)
        for (i, src), event in itertools.product(enumerate(states), alphabet.events):
            expected = {d for s, e, d in triples if s == src and e is event}
            mask = raw.rows[i][event.code]
            assert {dst for j, dst in enumerate(states) if mask >> j & 1} == expected

    def test_parsed_and_built_step_alike(self):
        for text in ROW_DOCUMENTS:
            raw, (built, triples) = parse_automaton(text), _line_by_line(text)
            # words of length 2 over 8 events; the wide documents' 256 and
            # 32 events stop at length 1
            for length in range(3 if len(raw.alphabet.events) <= 8 else 2):
                for word in itertools.product(raw.alphabet.events, repeat=length):
                    assert raw.accepts(word) == built.accepts(word)
                    assert raw.accepts(word) == _relation_accepts(
                        triples, raw.initial, raw.violating, word
                    )

    def test_outside_the_declarations_there_are_no_successors(self, alpha_11):
        raw = parse_automaton(MUTEX_DOC)
        event, foreign = raw.alphabet.events[0], alpha_11.events[0]
        assert not raw.accepts((foreign,))
        assert raw.accepts((event,)) and not raw.accepts((event, foreign))
        for triple in (("nope", event, raw.initial), (raw.initial, foreign, raw.initial)):
            with pytest.raises(ValueError, match="undeclared state or a label outside"):
                RawAutomaton(raw.alphabet, raw.states, raw.initial, raw.violating, {triple})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"states": ("s0", "s0", "bad")}, "duplicate state names"),
            ({"initial": "s9"}, "initial and violating states must be declared"),
            ({"violating": "s9"}, "initial and violating states must be declared"),
            ({"transitions": {("s9", "0/0", "s0")}}, "transition s9 -> s0 : 0/0 uses"),
            ({"transitions": {("s0", "0/0", "s9")}}, "transition s0 -> s9 : 0/0 uses"),
            ({"transitions": {("s0", "00/0", "s0")}}, "transition s0 -> s0 : 00/0 uses"),
            # code (0 << 2) | 3 == 3, the code of 1/1 over one input and one output
            ({"transitions": {("s0", "0/11", "s0")}}, "transition s0 -> s0 : 0/11 uses"),
            # s0 -0/0-> bad -0/0-> s0: were it accepted, the relation would
            # accept 0/0 0/0 and its normalized automaton would not
            (
                {"transitions": {("s0", "0/0", "bad"), ("bad", "0/0", "s0")}},
                "violating state must be a trap",
            ),
        ],
        ids=[
            "duplicate", "initial-undeclared", "violating-undeclared", "undeclared-source",
            "undeclared-target", "foreign-label", "foreign-label-code-in-range", "trap-leaves",
        ],
    )
    def test_malformed_relations_are_rejected_when_built(self, alpha_11, change, message):
        arguments = {
            "states": ("s0", "bad"),
            "initial": "s0",
            "violating": "bad",
            "transitions": {("s0", "0/0", "s0"), ("bad", "0/0", "bad")},
        }
        arguments.update(change)
        arguments["transitions"] = {(s, ev(e), d) for s, e, d in arguments["transitions"]}
        with pytest.raises(ValueError, match=f"^{message}"):
            RawAutomaton(alpha_11, **arguments)

    def test_immutable(self):
        raw = parse_automaton(MUTEX_DOC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            raw.states = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            raw.rows = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del raw.initial


class TestNormalize:
    def test_fixpoint_on_already_normal_automaton(self):
        a = mutual_exclusion()
        assert normalize(a) == a

    def test_completion_directs_missing_events_to_trap(self):
        # only (1,1) declared; the other 3 events must fall into the trap
        raw = parse_automaton(
            """
            inputs: A
            outputs: B
            states: q0 qv
            initial: q0
            violating: qv
            q0 -> q0 : 1/1
            """
        )
        a = normalize(raw)
        assert a.delta[("q0", ev("1/1"))] == "q0"
        for text in ("0/0", "0/1", "1/0"):
            assert a.delta[("q0", ev(text))] == a.violating

    def test_subset_construction_preserves_language(self):
        # q0 --(1,1)--> {q1, qv}: the macro-state {q1, qv} is accepting
        raw = parse_automaton(
            """
            inputs: A
            outputs: B
            states: q0 q1 qv
            initial: q0
            violating: qv
            q0 -> q1 : 1/1
            q0 -> qv : 1/1
            q1 -> q1 : -/0
            """
        )
        a = normalize(raw)
        assert a.accepts((ev("1/1"),))
        for length in range(4):
            for word in itertools.product(raw.alphabet.events, repeat=length):
                assert raw.accepts(word) == a.accepts(word)

    def test_unreachable_states_are_pruned(self):
        raw = parse_automaton(
            """
            inputs: A
            outputs: B
            states: q0 orphan qv
            initial: q0
            violating: qv
            q0 -> q0 : -/-
            orphan -> q0 : -/-
            """
        )
        a = normalize(raw)
        assert a.locations == ("q0", "qv")

    def test_initial_equal_violating_is_empty_property(self):
        doc = """
        inputs: A
        outputs: B
        states: q0
        initial: q0
        violating: q0
        """
        with pytest.raises(EmptyPropertyError):
            normalize(parse_automaton(doc))

    @staticmethod
    def _inserted_in_order(a):
        assert list(a.delta) == list(itertools.product(a.locations, a.alphabet.events))

    @settings(max_examples=100, deadline=None)
    @given(raw=raw_automata())
    def test_delta_inserted_location_by_location(self, raw):
        self._inserted_in_order(normalize(raw))

    def test_delta_inserted_location_by_location_over_the_families(
        self, exhaustive_family, random_family
    ):
        for a in exhaustive_family + random_family:
            self._inserted_in_order(normalize(a))

    def test_renaming_agrees_with_subset_construction(self):
        # normalize renames a SafetyAutomaton and determinizes a RawAutomaton;
        # over every member of a family with three accepting locations, and
        # a copy of each with its locations renamed, listed in a random
        # order and joined by an unreachable one, both give the member
        family = all_normalized_automata(Alphabet(("A",), ()), max_accepting=3)
        assert len(family) == 865
        rng = random.Random(23)
        for a in family:
            names = [f"p{i}" for i in range(len(a.locations) + 1)]
            rng.shuffle(names)
            rename = dict(zip(a.locations + ("unreachable",), names))
            delta = {(rename[q], e): rename[t] for (q, e), t in a.delta.items()}
            for e in a.alphabet.events:
                delta[(rename["unreachable"], e)] = rng.choice(names)
            copy = SafetyAutomaton(
                a.alphabet, rng.sample(names, len(names)), rename[a.initial], rename[a.violating], delta
            )
            for b in (a, copy):
                triples = [(q, e, t) for (q, e), t in b.delta.items()]
                raw = RawAutomaton(b.alphabet, b.locations, b.initial, b.violating, triples)
                assert normalize(b) == normalize(raw) == a

    @settings(max_examples=60, deadline=None)
    @given(raw=raw_automata())
    def test_normalization_preserves_language(self, raw):
        a = normalize(raw)
        for length in range(4):
            for word in itertools.product(raw.alphabet.events, repeat=length):
                assert raw.accepts(word) == a.accepts(word)


def _hand_built(alphabet, **changes):
    """A two-location automaton over ``alphabet``, built by hand, with the
    given constructor arguments replaced."""
    events = alphabet.events
    arguments = {
        "locations": ("q0", "qv"),
        "initial": "q0",
        "violating": "qv",
        "delta": {(q, e): q for q in ("q0", "qv") for e in events},
    }
    arguments.update(changes)
    return SafetyAutomaton(alphabet, **arguments)


def _rekey(delta, old, new):
    """``delta`` with the key ``old`` renamed to ``new``, in place."""
    return {(new if k == old else k): v for k, v in delta.items()}


class TestHandBuiltValidation:
    """A hand-built automaton is validated in full; each rejection names
    what is wrong."""

    def test_valid_automaton_is_accepted(self, alpha_11):
        a = _hand_built(alpha_11)
        assert a.accepts((ev("1/1"), ev("0/0")))
        assert normalize(a) == a

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d, e: {"locations": ("q0", "q0", "qv")}, "duplicate location names"),
            (lambda d, e: {"initial": "q9"}, "initial and violating locations must be declared"),
            (lambda d, e: {"violating": "q9"}, "initial and violating locations must be declared"),
            (
                lambda d, e: {"delta": {k: v for k, v in d.items() if k != ("q0", e[0])}},
                "transition map must be total and deterministic",
            ),
            (
                lambda d, e: {"delta": {**d, ("q0", e[1]): "q9"}},
                "transition q0->q9 uses undeclared location",
            ),
            (
                lambda d, e: {"delta": _rekey(d, ("q0", e[1]), ("q9", e[1]))},
                "transition q9->q0 uses undeclared location",
            ),
            (
                lambda d, e: {"delta": _rekey(d, ("q0", e[3]), ("q0", ev("11/1")))},
                "transition label 11/1 is not in the alphabet",
            ),
            (
                # code (0 << 2) | 3 == 3, the code of 1/1 over one input and one output
                lambda d, e: {"delta": _rekey(d, ("q0", e[3]), ("q0", ev("0/11")))},
                "transition label 0/11 is not in the alphabet",
            ),
            (
                lambda d, e: {"delta": {**d, ("qv", e[2]): "q0"}},
                "violating location must be a trap",
            ),
        ],
        ids=[
            "duplicate", "initial-undeclared", "violating-undeclared", "not-total",
            "undeclared-target", "undeclared-source", "foreign-label",
            "foreign-label-code-in-range", "trap-leaves",
        ],
    )
    def test_rejections_name_what_is_wrong(self, alpha_11, change, message):
        delta = _hand_built(alpha_11).delta
        with pytest.raises(ValueError, match=f"^{message}$"):
            _hand_built(alpha_11, **change(dict(delta), alpha_11.events))

    def test_initial_violating_location_is_an_empty_property(self, alpha_11):
        with pytest.raises(EmptyPropertyError, match="initial location is violating"):
            _hand_built(alpha_11, initial="qv")

    def test_normalize_and_the_corpus_builders_never_validate(self, monkeypatch, alpha_11):
        hand_built = _hand_built(alpha_11)
        raw = parse_automaton(MUTEX_DOC)

        def refuse(*args):
            raise AssertionError("the validator ran")

        monkeypatch.setattr("syncguard.automata._validated_table", refuse)
        with pytest.raises(AssertionError, match="the validator ran"):
            _hand_built(alpha_11)
        assert normalize(hand_built) == hand_built
        assert normalize(raw) == mutual_exclusion()
        assert transform_non_enforceable(dead_end_branch()) == dead_end_branch_repaired()
        assert len(all_normalized_automata(alpha_11, max_accepting=1)) > 1
        assert len(random_enforceable_automata(alpha_11, 5, 2, seed=1)) == 5


class TestMembership:
    def test_compliant_word(self):
        a = mutual_exclusion()
        assert a.accepts((ev("10/1"), ev("01/0")))

    def test_simultaneous_a_and_b_violates(self):
        a = mutual_exclusion()
        assert not a.accepts((ev("11/0"),))

    def test_empty_word_always_accepted(self):
        assert mutual_exclusion().accepts(())

    def test_width_mismatch(self):
        a = mutual_exclusion()
        with pytest.raises(ValueError, match="width"):
            a.accepts((ev("1/1"),))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda a: a.step("nope", a.alphabet.events[0]), "unknown location 'nope'"),
            (lambda a: a.step("q0", ev("1/1")), "event width mismatch: 1/1 not in the alphabet"),
            (
                lambda a: project_inputs(a).successors("nope", a.alphabet.input_events[0]),
                "unknown location 'nope'",
            ),
            (
                lambda a: project_inputs(a).successors("q0", BitVector.from_text("1")),
                "input width mismatch: 1",
            ),
            # 1/11 has code (1 << 2) | 3 == 7 over two inputs and one
            # output, the code of 11/1: a lookup by code alone would take it
            # for 11/1
            (lambda a: a.step("q0", ev("1/11")), "event width mismatch: 1/11 not in the alphabet"),
            (lambda a: a.step("qv", ev("1/11")), "event width mismatch: 1/11 not in the alphabet"),
            (
                lambda a: a.run((ev("10/0"), ev("1/11"))),
                "event width mismatch: 1/11 not in the alphabet",
            ),
            (lambda a: a.accepts((ev("1/11"),)), "event width mismatch: 1/11 not in the alphabet"),
            (
                lambda a: a.alphabet.event(ev("1/11").input, ev("1/11").output),
                "event width mismatch: 1/11 over 2 inputs, 1 outputs",
            ),
        ],
        ids=[
            "step-location", "step-event", "successors-location", "successors-input",
            "step-code-in-range", "step-from-trap-code-in-range", "run-code-in-range",
            "accepts-code-in-range", "alphabet-event-code-in-range",
        ],
    )
    def test_lookup_errors_name_what_is_unknown(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(mutual_exclusion())

    @pytest.mark.parametrize(
        "event, shown",
        [
            # 1/11 has code 7, in range over two inputs and one output
            (ev("1/11"), "1/11"),
            (ev("11/11"), "11/11"),
            (ev("11/1").input, "11"),
            ("10/0", "10/0"),
            (None, "None"),
        ],
        ids=["foreign-shape-code-in-range", "code-out-of-range", "a-vector", "a-string", "none"],
    )
    @pytest.mark.parametrize("prefix", [0, 2], ids=["first", "third"])
    def test_walk_rejects_an_event_outside_the_alphabet(self, event, shown, prefix):
        a = mutual_exclusion()
        word = a.alphabet.events[:prefix] + (event,) + a.alphabet.events[:1]
        with pytest.raises(ValueError, match=f"^event width mismatch: {shown} not in the alphabet$"):
            a.walk(word)

    @settings(max_examples=60, deadline=None)
    @given(a=safety_automata())
    def test_prefix_closure(self, a):
        for length in range(4):
            for word in itertools.product(a.alphabet.events, repeat=length):
                if a.accepts(word):
                    for k in range(length):
                        assert a.accepts(word[:k])
                    break


class TestProjection:
    def test_s1_projection_is_nondeterministic_on_01(self):
        a = mutual_exclusion()
        ai = project_inputs(a)
        successors = ai.successors("q0", a.alphabet.input_vector("01"))
        assert successors == frozenset({"q0", "qv"})

    def test_self_loop_projection(self, alpha_11):
        from syncguard import always_accepting

        a = always_accepting(alpha_11)
        ai = project_inputs(a)
        for x in alpha_11.input_events:
            assert ai.successors("q0", x) == frozenset({"q0"})

    @settings(max_examples=60, deadline=None)
    @given(a=safety_automata())
    def test_projection_lemma_both_clauses(self, a):
        ai = project_inputs(a)
        # every automaton transition appears with its output erased
        for (q, event), q2 in a.delta.items():
            assert q2 in ai.successors(q, event.input)
        # every projected transition is witnessed by some output
        for (q, x), targets in ai.delta.items():
            for q2 in targets:
                assert any(
                    a.delta[(q, a.alphabet.event(x, y))] == q2
                    for y in a.alphabet.output_events
                )

    @settings(max_examples=60, deadline=None)
    @given(a=safety_automata())
    def test_rows_follow_the_event_layout(self, a):
        events = a.alphabet.events
        assert len(a.table) == len(a.locations)
        for q in a.locations:
            row = a.table[a.index[q]]
            assert len(row) == len(events)
            for i, event in enumerate(events):
                assert a.locations[row[i]] == a.step(q, event)


class TestTable:
    """The table against ``delta`` and a walk of ``delta`` by hashed
    lookups, over the corpus families and normalized raw automata."""

    @staticmethod
    def _agrees_with_delta(a, rng):
        events = a.alphabet.events
        delta = a.delta
        for q in a.locations:
            for i, event in enumerate(events):
                assert a.locations[a.table[a.index[q]][i]] == delta[(q, event)]
        # the validating constructor rebuilds the same table from delta alone
        rebuilt = SafetyAutomaton(a.alphabet, a.locations, a.initial, a.violating, dict(delta))
        assert rebuilt.table == a.table and rebuilt == a
        for _ in range(10):
            word = tuple(rng.choice(events) for _ in range(rng.randint(0, 6)))
            location = a.initial
            for event in word:
                location = delta[(location, event)]
            copies = tuple(ev(str(event)) for event in word)
            assert a.run(word) == a.run(copies) == location
            assert a.locations[a.walk(word)] == location
            if word:
                assert a.step(a.run(word[:-1]), copies[-1]) == location

    def test_families(self, exhaustive_family, random_family):
        rng = random.Random(3)
        for a in exhaustive_family + random_family:
            self._agrees_with_delta(a, rng)

    @settings(max_examples=60, deadline=None)
    @given(raw=raw_automata())
    def test_normalized_raw_automata(self, raw):
        self._agrees_with_delta(normalize(raw), random.Random(5))

    def test_equality_and_isomorphism_over_the_families(self, exhaustive_family, random_family):
        assert len(set(exhaustive_family)) == len(exhaustive_family)
        for family in (exhaustive_family, random_family):
            # equal exactly when the renders are (the random family repeats some)
            assert len(set(family)) == len({render_automaton(a) for a in family})
            for a in family:
                b = normalize(a)
                assert b == a and hash(b) == hash(a) and isomorphic(a, b)
        for a in exhaustive_family[::250] + random_family[::10]:
            # the same automaton with its locations renamed and listed in reverse
            names = {q: f"x{i}" for i, q in enumerate(a.locations)}
            renamed = SafetyAutomaton(
                a.alphabet,
                tuple(names[q] for q in reversed(a.locations)),
                names[a.initial],
                names[a.violating],
                {(names[q], event): names[target] for (q, event), target in a.delta.items()},
            )
            assert renamed != a and isomorphic(renamed, a) and normalize(renamed) == a

    def test_delta_is_read_only(self):
        a = mutual_exclusion()
        with pytest.raises(TypeError):
            a.delta[("q0", a.alphabet.events[0])] = "qv"
        with pytest.raises(AttributeError):
            a.table = ()


class TestRendering:
    def test_round_trip_on_s1(self):
        a = mutual_exclusion()
        assert normalize(parse_automaton(render_automaton(a))) == a

    @settings(max_examples=60, deadline=None)
    @given(a=safety_automata())
    def test_round_trip_is_isomorphic(self, a):
        b = normalize(parse_automaton(render_automaton(a)))
        assert b == a
        assert isomorphic(a, b)

    def test_isomorphic_ignores_names(self):
        doc = S1_DOC.replace("ok", "fine").replace("bad", "boom")
        assert isomorphic(normalize(parse_automaton(doc)), mutual_exclusion())

    def test_isomorphic_needs_equal_alphabets(self):
        renamed_output = mutual_exclusion("S")
        assert renamed_output.table == mutual_exclusion().table
        assert not isomorphic(renamed_output, mutual_exclusion())
