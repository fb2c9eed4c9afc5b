import hashlib

from syncguard import (
    Alphabet,
    all_normalized_automata,
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
