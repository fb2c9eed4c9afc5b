"""Online bi-directional enforcer wrapping a black-box tick function.

Per tick: read the environment input, replace it if no output could keep
the run safe from the current location, call the program with the (possibly
fixed) input, replace the program's output if the resulting event would
fall into the trap, release the event, and advance the tracked location.
The tracked location always equals the state reached by the released word
in the property automaton (and by its input projection in the input
automaton), and it never becomes the trap.

Each location's decisions are compiled on the first tick there into a row
of two dict levels, so a tick is one lookup per side: the observed input
gives the released input and its output dict, and the observed output
gives the released event and the next location.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .analysis import NotEnforceableError, check_enforceability
from .automata import SafetyAutomaton, project_inputs
from .bits import BitVector, Event, Word
from .editing import (
    NEAREST,
    EditSets,
    build_edit_tables,
    canonical_policy,
    check_seed,
    choose_nearest,
    compute_edit_sets,
)
from .programs import ScriptedProgram, TickFunction


@dataclass(frozen=True)
class TickRecord:
    """What one enforcement step observed and released.

    Four fields decide a record: the tick index, the observed and the
    released event, and the location after the tick.  A side is edited
    exactly when its released vector differs from the observed one (an
    acceptable vector is never edited), so ``input_edited`` and
    ``output_edited`` are read off the two events, not stored: each
    vector value has one instance, so the test is one identity check.

    Slotted, so a record has no ``__dict__``: a run keeps one per tick.
    By hand, as ``slots=True`` makes a non-field assignment raise
    ``TypeError`` on CPython 3.10/3.11; ``__reduce__`` rebuilds copies
    through ``__init__``, as the default would assign to the frozen slots.
    ``__init__`` is written by hand too, so the dataclass keeps it: it
    stores each field through its slot descriptor's ``__set__``, at under
    half the cost of the generated one's ``object.__setattr__`` per field,
    and a run builds one record per tick.
    """

    __slots__ = ("t", "observed", "released", "state_after")

    t: int
    observed: Event
    released: Event
    state_after: str

    def __init__(self, t, observed, released, state_after):
        _set_t(self, t)
        _set_observed(self, observed)
        _set_released(self, released)
        _set_state_after(self, state_after)

    def __reduce__(self):
        return (TickRecord, tuple(getattr(self, name) for name in self.__slots__))

    @property
    def input_edited(self) -> bool:
        return self.observed.input is not self.released.input

    @property
    def output_edited(self) -> bool:
        return self.observed.output is not self.released.output


_set_t, _set_observed, _set_released, _set_state_after = (
    getattr(TickRecord, name).__set__ for name in TickRecord.__slots__
)


class Enforcer:
    """Stateful enforcer for one enforceable safety automaton.

    Construction checks that the automaton is a :class:`SafetyAutomaton`
    (a parsed one must be normalized first), the policy name and the
    repair seed (ValueError before anything is built), takes the
    safe-event sets (through the input projection) and, for
    observed-independent policies, builds the repair table (one pick
    per distinct safe set, keyed by the set); it fails with the
    enforceability report if the automaton has dead locations.  The
    enforcers of one automaton object that are alive at once share one
    ``edit_sets``, built by the first of them, so it is read-only by
    contract; only the table is each enforcer's own.

    Nothing else is built at construction.  The first tick at a location
    builds its row (see :meth:`_row`) from the safe sets, the table and
    the automaton's transitions, and later ticks there read it: the
    observed input if it is in the safe inputs at the location, and then
    the program's output if it is in the safe outputs given the released
    input, are kept.  Under ``lex`` and ``seeded-random`` every other
    vector of the interface maps to the table's pick; under ``nearest``
    it misses the row and goes to ``_repair``, which checks it and asks
    ``choose_nearest`` on every such tick.  The program is passed to each
    ``tick`` or ``run`` call.  A single instance is single-owner: only
    ``tick`` changes its state, and only after the program has returned;
    the row a tick builds before that is a cache, keyed by valid vectors
    only.
    """

    def __init__(
        self,
        automaton: SafetyAutomaton,
        policy: str = NEAREST,
        seed: Optional[int] = None,
    ):
        if not isinstance(automaton, SafetyAutomaton):
            raise ValueError(
                f"an Enforcer needs a SafetyAutomaton, got {type(automaton).__name__}: "
                "normalize a parsed automaton first"
            )
        policy = canonical_policy(policy)
        check_seed(seed)
        self.automaton = automaton
        self.edit_sets = _shared_edit_sets(automaton)
        self.tables = (
            None if policy == NEAREST else build_edit_tables(self.edit_sets, policy, seed)
        )
        self.location = automaton.initial
        self.ticks = 0
        # the last snapshot restore checked: a fresh valid pair no caller holds
        self._restored = (self.location, 0)
        self._in_width = len(automaton.alphabet.inputs)
        self._out_width = len(automaton.alphabet.outputs)
        self._events = automaton.alphabet.events
        self._rows: dict[str, dict] = {}  # location -> its decisions, built on first tick there

    def reset(self) -> None:
        self.location = self.automaton.initial
        self.ticks = 0

    def snapshot(self) -> tuple[str, int]:
        return (self.location, self.ticks)

    def restore(self, snapshot: tuple[str, int]) -> None:
        """Return to a state :meth:`snapshot` took.

        Anything but a pair of an accepting location of this automaton
        and a non-negative int raises ValueError, leaving the state
        unchanged.  The location check is one lookup: the keys of
        ``edit_sets.safe_inputs`` are exactly the accepting locations.

        The last exact ``tuple`` that passed is remembered, and the same
        object passed again is taken after one identity test: a tuple
        cannot change, and the automaton is this enforcer's for life.  So
        a walk that restores one parent's snapshot before each of its
        children, as ``check_constraints`` does, checks it once.  An equal
        but distinct tuple is checked again, and so is a tuple subclass,
        which may unpack differently each time.  The memo starts as a
        fresh valid pair that no caller holds.
        """
        if snapshot is self._restored:
            self.location, self.ticks = snapshot
            return
        if isinstance(snapshot, tuple) and len(snapshot) == 2:
            location, ticks = snapshot
            try:
                accepting = location in self.edit_sets.safe_inputs
            except TypeError:  # unhashable, so no location
                accepting = False
            if accepting and isinstance(ticks, int) and not isinstance(ticks, bool) and ticks >= 0:
                self.location, self.ticks = location, ticks
                if snapshot.__class__ is tuple:
                    self._restored = snapshot
                return
        raise ValueError(f"not a snapshot of this enforcer: {snapshot!r}")

    def tick(self, inputs: BitVector, program: TickFunction) -> TickRecord:
        """Run one enforcement step and return what happened.

        The program sees the fixed input, so the recorded observed event
        pairs the raw environment input with the program's response to the
        fixed one (a response to the raw input never exists).  An input or
        output that is not a vector of the interface's width raises
        ValueError; a bad input does so before the program is called.  If
        anything raises, the enforcer's state is unchanged.

        Each side is one lookup in the current location's row, built on
        the first tick there.  A row's keys are vectors of the interface,
        so a vector found is valid; only a miss (a ``nearest`` repair, or
        a vector that is not the interface's) goes to ``_repair``, which
        checks it first.  Once both vectors are known valid, the observed
        event is one lookup at their pair's code in
        :attr:`~syncguard.bits.Alphabet.events`; the released event and
        the next location come from the row.  The record stores the two
        events; a side's edit flag is read off them, as a repair never
        picks the observed vector (it is not in the safe set).
        """
        rows = self._rows
        q = self.location
        row = rows.get(q)
        if row is None:
            row = rows[q] = self._row(q)
        try:
            x, outs = row[inputs]
        except (KeyError, TypeError):  # TypeError: unhashable, so not a BitVector
            safe = self.edit_sets.safe_inputs[q]
            x, outs = row[self._repair(safe, inputs, self._in_width, "input")]
        outputs = program(x)
        try:
            released, location = outs[outputs]
        except (KeyError, TypeError):
            safe = self.edit_sets.safe_outputs[(q, x)]
            y = self._repair(safe, outputs, self._out_width, "program output")
            released, location = outs[y]
        record = TickRecord(
            self.ticks,
            self._events[(inputs.code << self._out_width) | outputs.code],
            released,
            location,
        )
        self.location = location
        self.ticks += 1
        return record

    def _row(self, q: str) -> dict:
        """Location ``q``'s decisions: input vector -> (released input, output dict).

        Each output dict maps an output vector to (released event, next
        location).  The safe vectors map to themselves; under an
        observed-independent policy every other vector of the interface
        maps to the table's pick from its safe set, so only a ``nearest``
        repair or a vector that is not the interface's misses.  The
        output dicts hold at most one entry per event of ``q``.
        """
        automaton, sets, tables = self.automaton, self.edit_sets, self.tables
        alphabet = automaton.alphabet
        events, locations = alphabet.events, automaton.locations
        successors = automaton.table[automaton.index[q]]
        width = self._out_width
        safe_inputs = sets.safe_inputs[q]
        row = {}
        for x in safe_inputs:
            safe = sets.safe_outputs[(q, x)]
            base = x.code << width
            outs = {}
            for y in safe:
                released = events[base | y.code]
                outs[y] = (released, locations[successors[released.code]])
            if tables is not None:
                pick = outs[tables[safe]]
                for y in alphabet.output_events:
                    outs.setdefault(y, pick)
            row[x] = (x, outs)
        if tables is not None:
            pick = row[tables[safe_inputs]]
            for x in alphabet.input_events:
                row.setdefault(x, pick)
        return row

    def _repair(self, safe: frozenset[BitVector], observed, width: int, role: str) -> BitVector:
        """The ``nearest`` pick from a safe set the observed vector is not in.

        Checks first that the observed vector is a BitVector of the
        interface's width (ValueError naming ``role`` if not).  Under the
        other policies every valid vector has a row entry, so only a bad
        one gets here, and raises.
        """
        _check_vector(observed, width, role)
        return choose_nearest(safe, observed)

    def run(self, env: Iterable[BitVector], program: TickFunction) -> list[TickRecord]:
        """Fold ``tick`` over an input sequence."""
        return [self.tick(x, program) for x in env]


def _shared_edit_sets(automaton: SafetyAutomaton) -> EditSets:
    """The safe sets of a live enforcer of this automaton object, or new ones.

    New sets are built after the enforceability check, and the automaton
    keeps a weak reference to them: they live as long as some enforcer
    holds them, not as long as the automaton (a corpus or a cache holds
    many automata and few enforcers).
    """
    ref = automaton._edit_sets
    sets = None if ref is None else ref()
    if sets is None:
        report = check_enforceability(automaton)
        if not report.enforceable:
            raise NotEnforceableError(str(report), report)
        sets = compute_edit_sets(automaton, project_inputs(automaton))
        object.__setattr__(automaton, "_edit_sets", weakref.ref(sets))
    return sets


def _check_vector(vector, width: int, role: str) -> None:
    if not isinstance(vector, BitVector) or len(vector.bits) != width:
        raise ValueError(
            f"{role} width or type mismatch: expected a {width}-bit BitVector, "
            f"got {vector!r}"
        )


def enforce_word(
    enforcer_or_automaton: Union[Enforcer, SafetyAutomaton],
    observed: Word,
    policy: str = NEAREST,
    seed: Optional[int] = None,
) -> Word:
    """Released word for an observed input/output word.

    The observed outputs play the program: a scripted stand-in returns
    them tick by tick, so the result is the enforcement function applied
    to the word.  Passing an existing :class:`Enforcer` resets it first
    (its policy wins over the arguments, which are still checked: an
    unknown policy or a malformed seed raises ``ValueError`` first).  A
    word that cannot be iterated or holds an event not in the alphabet
    raises ``ValueError`` before the first tick, as in ``oracle_enforce``.
    """
    if isinstance(enforcer_or_automaton, Enforcer):
        canonical_policy(policy)
        check_seed(seed)
        enforcer = enforcer_or_automaton
    else:
        enforcer = Enforcer(enforcer_or_automaton, policy, seed)
    try:
        words = iter(observed)
    except TypeError:
        raise ValueError(f"a word is an iterable of events, got {observed!r}") from None
    observed = tuple(words)  # read three times: an iterator would run dry after the first
    code = enforcer.automaton.alphabet.code
    for event in observed:
        code(event)
    enforcer.reset()
    script = ScriptedProgram([e.output for e in observed])
    return tuple(
        record.released
        for record in enforcer.run((e.input for e in observed), script)
    )
