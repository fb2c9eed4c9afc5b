import hashlib
import itertools

import pytest

import syncguard.corpus
from syncguard import (
    Alphabet,
    SafetyAutomaton,
    all_normalized_automata,
    normalize,
    random_enforceable_automata,
    render_automaton,
)

# SHA-256 over render_automaton of every member of the session families, in order.
FAMILY_DIGESTS = {
    "exhaustive": "120f5f25e151c5ab73d944965dad95249ebf294d5ee5b345dc288a6835a2dfa1",
    "random": "3c5b58b5d9f331f87f728a7a4b39174b1c71491744839ae480fe70af007be4ed",
    # one input, no output, up to three accepting locations: most members
    # are renamed by normalization, where the families above rarely are
    "three_accepting": "c77fbd70fd9b3661153b5ada007f843e804022f62c34d6eb81bbaba97284da72",
}


def _digest(family):
    h = hashlib.sha256()
    for a in family:
        h.update(render_automaton(a).encode("ascii"))
    return h.hexdigest()


def test_families_are_pinned(exhaustive_family, random_family):
    three_accepting = all_normalized_automata(Alphabet(("A",), ()), max_accepting=3)
    assert (len(exhaustive_family), len(random_family), len(three_accepting)) == (5281, 100, 865)
    assert {
        "exhaustive": _digest(exhaustive_family),
        "random": _digest(random_family),
        "three_accepting": _digest(three_accepting),
    } == FAMILY_DIGESTS


def test_generation_does_not_render(monkeypatch):
    def refuse(automaton):
        raise AssertionError("corpus generation rendered an automaton")

    monkeypatch.setattr("syncguard.corpus.render_automaton", refuse, raising=False)
    assert len(all_normalized_automata(Alphabet(("A",), ()), max_accepting=2)) > 1
    assert len(random_enforceable_automata(Alphabet(("A",), ("B",)), 5, 2, seed=1)) == 5


def _first_of_each_class(alphabet, max_accepting):
    """The exhaustive family by its definition: every total map over n
    accepting locations and a trap, n ascending, in product order,
    normalized through the public API; the first of each class kept."""
    events = alphabet.events
    family = {}
    for n in range(1, max_accepting + 1):
        names = [f"s{i}" for i in range(n)] + ["bad"]
        trap_row = {("bad", e): "bad" for e in events}
        for targets in itertools.product(names, repeat=n * len(events)):
            delta = {**dict(zip(itertools.product(names[:n], events), targets)), **trap_row}
            automaton = normalize(SafetyAutomaton(alphabet, names, "s0", "bad", delta))
            family.setdefault(automaton, None)
    return list(family)


@pytest.mark.parametrize(
    "inputs, outputs, max_accepting",
    [
        ((), (), 4),
        (("A",), (), 3),
        ((), ("B",), 3),
        (("A", "B"), (), 2),
        (("A",), ("B",), 2),
        (("A",), ("B",), 1),
        (("A",), ("B",), 0),
    ],
)
def test_exhaustive_family_is_the_first_of_each_class(inputs, outputs, max_accepting):
    alphabet = Alphabet(inputs, outputs)
    expected = _first_of_each_class(alphabet, max_accepting)
    assert all_normalized_automata(alphabet, max_accepting) == expected


def test_exhaustive_family_renames_no_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("a map was renamed")

    canonical = syncguard.corpus._canonical
    made = []

    def count(alphabet, table):
        made.append(table)
        return canonical(alphabet, table)

    monkeypatch.setattr("syncguard.corpus._renamed", refuse)
    monkeypatch.setattr("syncguard.corpus._canonical", count)
    family = all_normalized_automata(Alphabet(("A",), ("B",)), max_accepting=2)
    assert len(family) == len(made) == 5281
    assert [a.table for a in family] == made
