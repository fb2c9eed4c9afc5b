"""Hypothesis strategies for automata, programs, and words."""

from hypothesis import strategies as st

from syncguard import (
    Alphabet,
    MealyProgram,
    RawAutomaton,
    SafetyAutomaton,
    normalize,
)

SMALL_ALPHABETS = (
    Alphabet(("A",), ("B",)),
    Alphabet(("A", "B"), ("R",)),
    Alphabet(("A",), ("X", "Y")),
)


def alphabets():
    return st.sampled_from(SMALL_ALPHABETS)


@st.composite
def safety_automata(draw, alphabet=None, max_accepting=3):
    """Normalized automaton with a random total transition map."""
    if alphabet is None:
        alphabet = draw(alphabets())
    n = draw(st.integers(1, max_accepting))
    states = tuple(f"s{i}" for i in range(n)) + ("bad",)
    events = alphabet.events
    targets = draw(
        st.lists(
            st.integers(0, n), min_size=n * len(events), max_size=n * len(events)
        )
    )
    delta = {}
    flat = iter(targets)
    for src in states[:-1]:
        for event in events:
            delta[(src, event)] = states[next(flat)]
    for event in events:
        delta[("bad", event)] = "bad"
    return normalize(
        SafetyAutomaton(alphabet, states, "s0", "bad", delta)
    )


# Characters the document grammar gives meaning to, drawn more often than
# arbitrary ones so that most mutants stay close to a valid document.
DOCUMENT_CHARACTERS = "01-/:>#\n \tqvsABRO"


@st.composite
def mutated_documents(draw, text, max_edits=4):
    """``text`` with one to ``max_edits`` characters inserted, deleted or replaced."""
    chars = list(text)
    characters = st.sampled_from(DOCUMENT_CHARACTERS) | st.characters()
    for _ in range(draw(st.integers(1, max_edits))):
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            chars.insert(draw(st.sampled_from(range(len(chars) + 1))), draw(characters))
        elif chars:
            at = draw(st.sampled_from(range(len(chars))))
            if edit == "delete":
                del chars[at]
            else:
                chars[at] = draw(characters)
    return "".join(chars)


@st.composite
def raw_relations(draw, alphabet=None, max_states=3):
    """``(alphabet, states, triples)``: a possibly nondeterministic,
    incomplete relation from ``s0`` over ``s0 … s{n-1}`` and the trap
    ``bad``, which may loop on itself by any event, as in a document."""
    if alphabet is None:
        alphabet = draw(alphabets())
    n = draw(st.integers(1, max_states))
    states = tuple(f"s{i}" for i in range(n)) + ("bad",)
    triples = [
        (src, event, dst)
        for src in states[:-1]
        for event in alphabet.events
        for dst in states
    ] + [("bad", event, "bad") for event in alphabet.events]
    chosen = draw(st.sets(st.sampled_from(triples), max_size=len(triples)))
    return alphabet, states, frozenset(chosen)


def raw_automata(alphabet=None, max_states=3):
    """The automaton of a :func:`raw_relations` draw."""
    return raw_relations(alphabet, max_states).map(
        lambda relation: RawAutomaton(relation[0], relation[1], "s0", "bad", relation[2])
    )


@st.composite
def words(draw, alphabet, max_len=4):
    return tuple(
        draw(st.lists(st.sampled_from(alphabet.events), max_size=max_len))
    )


@st.composite
def mealy_programs(draw, alphabet, max_states=3):
    n = draw(st.integers(1, max_states))
    states = tuple(f"m{i}" for i in range(n))
    transitions = {}
    for src in states:
        for x in alphabet.input_events:
            dst = states[draw(st.integers(0, n - 1))]
            y = draw(st.sampled_from(alphabet.output_events))
            transitions[(src, x)] = (dst, y)
    return MealyProgram(alphabet, states, "m0", transitions)
