import copy
import functools
import importlib
import itertools
import pickle
import pkgutil
import random
import sys
import threading

import pytest

import syncguard
from syncguard import Alphabet, BitVector, Event, bits
from syncguard.bits import MAX_VARIABLES
from syncguard.runtime import TickRecord
from syncguard.samples import mutual_exclusion


def test_bitvector_rendering_follows_declaration_order():
    # {A} over I={A,B} renders "10"
    assert str(BitVector((1, 0))) == "10"
    assert str(BitVector.from_text("01")) == "01"
    assert str(BitVector(())) == ""


def test_rendering_is_the_bits_in_order_at_every_width():
    for width in range(13):
        for bits_ in itertools.product((0, 1), repeat=width):
            vector = BitVector(bits_)
            assert str(vector) == "".join(map(str, vector.bits))


def test_bitvector_rejects_non_bits():
    with pytest.raises(ValueError):
        BitVector((0, 2))
    with pytest.raises(ValueError):
        BitVector.from_text("0x")


def test_bitvector_ordering_is_numeric():
    vectors = [BitVector.from_text(t) for t in ("10", "00", "11", "01")]
    assert [str(v) for v in sorted(vectors)] == ["00", "01", "10", "11"]


def test_event_text_round_trip():
    e = Event.from_text("10/1")
    assert str(e) == "10/1"
    assert e.input == BitVector.from_text("10")
    assert e.output == BitVector.from_text("1")


def _text_cache_events() -> list[Event]:
    """Every event at widths 0 to 8, in every split, and a seeded sample at 16."""
    events = [
        event
        for width in range(9)
        for inputs in range(width + 1)
        for event in bits._events(inputs, width - inputs)
    ]
    return events + random.Random(16).sample(bits._events(8, 8), 500)


def test_event_text_is_built_once_from_its_vectors():
    for event in _text_cache_events():
        first, second = str(event), str(event)
        assert first == second == f"{event.input}/{event.output}"
        assert Event.from_text(first) is event
        assert Event.from_text(first) is event


def _memos():
    """Every ``functools.lru_cache`` wrapper among the package's module
    attributes and the attributes of the classes its modules define, by
    qualified name (a ``classmethod`` or ``staticmethod`` is unwrapped)."""
    found = {}
    for info in pkgutil.iter_modules(syncguard.__path__):
        module = importlib.import_module(f"syncguard.{info.name}")
        owners = [(module.__name__, vars(module))] + [
            (f"{module.__name__}.{name}", vars(value))
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for prefix, attributes in owners:
            for name, value in attributes.items():
                value = getattr(value, "__func__", value)
                if isinstance(value, functools._lru_cache_wrapper):
                    found[f"{prefix}.{name}"] = value
    return found


def test_every_memo_in_the_package_is_bounded():
    # each lives for the whole process, so each holds a bounded number of entries
    memos = _memos()
    assert {"syncguard.bits.Event.from_text", "syncguard.automata._event_codes"} <= set(memos)
    unbounded = [name for name, memo in memos.items() if memo.cache_parameters()["maxsize"] is None]
    assert unbounded == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("10", "expected 'inputs/outputs', got '10'"),
        ("1x/0", "invalid bit string '1x'"),
        ("0/2", "invalid bit string '2'"),
        ("0" * 9 + "/" + "0" * 8, "interface declares 17 variables; at most 16 are supported"),
    ],
)
def test_malformed_event_text_raises_alike_on_every_call(text, message):
    for _ in range(2):
        with pytest.raises(ValueError) as caught:
            Event.from_text(text)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_rendered_event_clones_to_the_shared_instance(clone):
    event = Event.from_text("01/1")
    assert str(event) == "01/1"
    assert clone(event) is event and str(clone(event)) == "01/1"


@pytest.mark.parametrize(
    "parse, message",
    [
        (lambda a: a.input_vector("1"), "input pattern '1' has 1 bits, expected 2"),
        (lambda a: a.output_vector("10"), "output pattern '10' has 2 bits, expected 1"),
        (lambda a: Event.from_text("10"), "expected 'inputs/outputs', got '10'"),
    ],
    ids=["input-width", "output-width", "no-slash"],
)
def test_malformed_text_is_rejected(parse, message):
    with pytest.raises(ValueError) as caught:
        parse(Alphabet(("A", "B"), ("R",)))
    assert str(caught.value) == message


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(("A", "A"), ("R",))
    with pytest.raises(ValueError):
        Alphabet(("A",), ("A",))  # clash across lists
    with pytest.raises(ValueError):
        Alphabet(("",), ("R",))
    null = Alphabet.null()
    assert null.events == (Event(BitVector(()), BitVector(())),)


def test_event_enumeration_order():
    alpha = Alphabet(("A", "B"), ("R",))
    assert [str(x) for x in alpha.input_events] == ["00", "01", "10", "11"]
    assert [str(e) for e in alpha.events] == [
        "00/0", "00/1", "01/0", "01/1", "10/0", "10/1", "11/0", "11/1",
    ]


def test_wildcard_expansion():
    alpha = Alphabet(("A", "B"), ("R",))
    # "1-/-" expands to the four concrete events with A set
    events = alpha.expand_event_pattern("1-/-")
    assert sorted(str(e) for e in events) == ["10/0", "10/1", "11/0", "11/1"]


def test_pattern_length_mismatch():
    alpha = Alphabet(("A", "B"), ("R",))
    with pytest.raises(ValueError):
        alpha.expand_event_pattern("1/-")
    with pytest.raises(ValueError):
        alpha.expand_event_pattern("11/--")


def test_pattern_codes_are_ascending_tuples():
    codes = bits._codes("1-0", 3, "input")
    assert codes == (4, 6) and type(codes) is tuple
    assert bits._codes("", 0, "output") == (0,)
    assert bits._codes("1------", 7, "input") == tuple(range(64, 128))
    assert bits._codes("1-------", 8, "input") == tuple(range(128, 256))


@pytest.mark.parametrize(
    "pattern, width, message",
    [
        ("1-", 3, "input pattern '1-' has 2 positions, expected 3"),
        ("1x", 2, "invalid pattern character 'x' in '1x'"),
    ],
)
def test_malformed_pattern_raises_alike_on_every_call(pattern, width, message):
    for _ in range(2):
        with pytest.raises(ValueError) as caught:
            bits._codes(pattern, width, "input")
        assert str(caught.value) == message


def test_event_interning():
    alpha = Alphabet(("A",), ("B",))
    x = BitVector.from_text("1")
    y = BitVector.from_text("0")
    assert alpha.event(x, y) is alpha.event(x, y) is alpha.events[2]
    # one instance per vector value, shared by every alphabet; events are found by code
    shared_x, shared_y = alpha.input_vector("1"), alpha.output_vector("0")
    assert shared_x is Alphabet(("C",), ()).input_events[1] and shared_x is x
    assert shared_y is alpha.output_events[0] is y and (x.code, y.code) == (1, 0)
    assert alpha.event(shared_x, shared_y) is alpha.events[2]
    assert alpha.events[2].code == 2 and alpha.code(Event.from_text("1/0")) == 2
    with pytest.raises(ValueError):
        alpha.event(BitVector.from_text("11"), y)


def test_interface_width_limit():
    assert MAX_VARIABLES == 16
    widest = Alphabet(tuple(f"i{j}" for j in range(10)), tuple(f"o{j}" for j in range(6)))
    assert len(widest.inputs) + len(widest.outputs) == 16
    for n_in in (0, 9, 17):
        names = [f"v{j}" for j in range(17)]
        with pytest.raises(ValueError, match="declares 17 variables; at most 16"):
            Alphabet(tuple(names[:n_in]), tuple(names[n_in:]))


def test_event_index_layout():
    """``events[x * 2**|O| + y]`` pairs the input of code x with the output of code y."""
    for n_in, n_out in ((0, 0), (0, 2), (2, 0), (1, 2), (3, 1)):
        alpha = Alphabet(tuple(f"i{j}" for j in range(n_in)), tuple(f"o{j}" for j in range(n_out)))
        for x, xv in enumerate(alpha.input_events):
            assert int(str(xv) or "0", 2) == x
            for y, yv in enumerate(alpha.output_events):
                assert int(str(yv) or "0", 2) == y
                assert alpha.events[x * 2**n_out + y] == Event(xv, yv)


def test_alphabets_of_one_shape_share_their_events():
    a, b = Alphabet(("A", "B"), ("R",)), Alphabet(("X", "Y"), ("Z",))
    assert a != b
    assert a.events is b.events
    assert a.input_events is b.input_events
    assert a.output_events is b.output_events


def test_constructed_vectors_are_the_shared_instances():
    alpha = Alphabet(("A", "B"), ("R",))
    for event in alpha.events:
        x, y = BitVector.from_text(str(event.input)), BitVector.from_text(str(event.output))
        assert x is event.input and y is event.output
        assert BitVector(x.bits) is x and Event(x, y) is event
        assert Event.from_text(str(event)) is event
        assert alpha.event(x, y) is event
    shared_y = alpha.output_vector("1")
    for x, y in [
        # code (1 << 1) | 3 == 5 is in range, but no event holds these widths
        (BitVector.from_text("1"), BitVector.from_text("11")),
        ((1, 0), shared_y),  # a tuple in place of a vector
    ]:
        with pytest.raises(ValueError, match="event width mismatch"):
            alpha.event(x, y)


def test_bool_and_float_bits_are_the_shared_vector():
    alpha = Alphabet(("A", "B"), ("R",))
    ten, one = alpha.input_vector("10"), alpha.output_vector("1")
    for values in [(True, False), (1.0, 0), (1, 0.0)]:
        vector = BitVector(values)
        assert vector is ten and vector.bits == (1, 0) and str(vector) == "10"
        event = Event(vector, BitVector((True,)))
        assert event is alpha.event(ten, one) and str(event) == "10/1"
        assert Event.from_text(str(event)) is event


def test_vectors_and_events_wider_than_any_interface_raise():
    with pytest.raises(ValueError, match="declares 17 variables; at most 16"):
        BitVector((0,) * (MAX_VARIABLES + 1))
    with pytest.raises(ValueError, match="declares 17 variables; at most 16"):
        BitVector.from_text("1" * (MAX_VARIABLES + 1))
    with pytest.raises(ValueError, match="declares 17 variables; at most 16"):
        Event(BitVector((1,) * 9), BitVector((0,) * 8))


def test_threads_building_one_shape_share_its_instances(monkeypatch, request):
    # empty tables, so the threads race to build widths 10, 6 and 4 and shape (6, 4);
    # the text memo holds instances, so it is emptied before and after
    Event.from_text.cache_clear()
    request.addfinalizer(Event.from_text.cache_clear)
    monkeypatch.setattr(bits, "_VALUATIONS", {})
    monkeypatch.setattr(bits, "_EVENTS", {})
    count = 8
    barrier = threading.Barrier(count)
    built = []

    def build():
        barrier.wait(timeout=10)
        built.append((BitVector((1,) * 10), Event.from_text("110011/0101")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build) for _ in range(count)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers) and len(built) == count
    assert len({id(vector) for vector, _ in built}) == 1
    assert len({id(event) for _, event in built}) == 1
    assert built[0][1] is Alphabet(tuple("abcdef"), tuple("wxyz")).events[0b110011_0101]


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_the_alphabets_own_instances(clone):
    alpha = Alphabet(("A", "B"), ("R",))
    event = alpha.events[5]
    assert clone(event.input) is event.input and clone(event.output) is event.output
    assert clone(event) is event
    record = TickRecord(3, alpha.events[7], event, "q1")
    copied = clone(record)
    assert copied == record
    assert copied.observed is alpha.events[7] and copied.released is event


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_share_the_events(clone):
    automaton = mutual_exclusion()
    alphabet, copied = clone(automaton.alphabet), clone(automaton)
    assert alphabet == automaton.alphabet and copied == automaton
    assert alphabet.events is copied.alphabet.events is automaton.alphabet.events
