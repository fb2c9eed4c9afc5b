"""Online bi-directional enforcer wrapping a black-box tick function.

Per tick: read the environment input, replace it if no output could keep
the run safe from the current location, call the program with the (possibly
fixed) input, replace the program's output if the resulting event would
fall into the trap, release the event, and advance the tracked location.
The tracked location always equals the state reached by the released word
in the property automaton (and by its input projection in the input
automaton), and it never becomes the trap.
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
    choose_nearest,
    compute_edit_sets,
)
from .programs import ScriptedProgram, TickFunction


@dataclass(frozen=True)
class TickRecord:
    """What one enforcement step observed and released.

    Slotted, so a record has no ``__dict__``: a run keeps one per tick.
    By hand, as ``slots=True`` makes a non-field assignment raise
    ``TypeError`` on CPython 3.10/3.11; ``__reduce__`` rebuilds copies
    through ``__init__``, as the default would assign to the frozen slots.
    ``__init__`` is written by hand too, so the dataclass keeps it: it
    stores each field through its slot descriptor's ``__set__``, at under
    half the cost of the generated one's ``object.__setattr__`` per field,
    and a run builds one record per tick.
    """

    __slots__ = ("t", "observed", "released", "input_edited", "output_edited", "state_after")

    t: int
    observed: Event
    released: Event
    input_edited: bool
    output_edited: bool
    state_after: str

    def __init__(self, t, observed, released, input_edited, output_edited, state_after):
        _set_t(self, t)
        _set_observed(self, observed)
        _set_released(self, released)
        _set_input_edited(self, input_edited)
        _set_output_edited(self, output_edited)
        _set_state_after(self, state_after)

    def __reduce__(self):
        return (TickRecord, tuple(getattr(self, name) for name in self.__slots__))


_set_t, _set_observed, _set_released, _set_input_edited, _set_output_edited, _set_state_after = (
    getattr(TickRecord, name).__set__ for name in TickRecord.__slots__
)


class Enforcer:
    """Stateful enforcer for one enforceable safety automaton.

    Construction checks the policy name (ValueError before anything is
    built), takes the safe-event sets (through the input projection) and,
    for observed-independent policies, builds the repair table (one pick
    per distinct safe set, keyed by the set); it fails with the
    enforceability report if the automaton has dead locations.  The
    enforcers of one automaton object that are alive at once share one
    ``edit_sets``, built by the first of them, so it is read-only by
    contract; only the table is each enforcer's own.  ``tick`` keeps
    the observed input if it is in the safe inputs at the current
    location, and then the program's output if it is in the safe outputs
    given the released input; only a vector it cannot keep goes to
    ``_repair``, which checks it and asks the policy.  The next location
    is one read of the automaton's ``table``; the program is passed to
    each ``tick`` or ``run`` call.  A single instance is single-owner:
    only ``tick`` mutates it, and only after the program has returned.
    """

    def __init__(
        self,
        automaton: SafetyAutomaton,
        policy: str = NEAREST,
        seed: Optional[int] = None,
    ):
        policy = canonical_policy(policy)
        self.automaton = automaton
        self.edit_sets = _shared_edit_sets(automaton)
        self.tables = (
            None if policy == NEAREST else build_edit_tables(self.edit_sets, policy, seed)
        )
        self.location = automaton.initial
        self.ticks = 0
        self._in_width = len(automaton.alphabet.inputs)
        self._out_width = len(automaton.alphabet.outputs)

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
        """
        if isinstance(snapshot, tuple) and len(snapshot) == 2:
            location, ticks = snapshot
            try:
                accepting = location in self.edit_sets.safe_inputs
            except TypeError:  # unhashable, so no location
                accepting = False
            if accepting and isinstance(ticks, int) and not isinstance(ticks, bool) and ticks >= 0:
                self.location, self.ticks = location, ticks
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

        A vector in its safe set is kept, and one is valid, so a tick with
        no edit releases the observed event: one lookup at the pair's code
        in :attr:`~syncguard.bits.Alphabet.events`.  Only an edited tick
        checks the observed vector it repairs; once both vectors are known
        valid, the observed event is the same lookup at their code.
        """
        q = self.location
        sets = self.edit_sets
        safe = sets.safe_inputs[q]
        try:
            input_kept = inputs in safe
        except TypeError:  # unhashable, so not a BitVector
            input_kept = False
        x = inputs if input_kept else self._repair(safe, inputs, self._in_width, "input")
        outputs = program(x)
        safe = sets.safe_outputs[(q, x)]
        try:
            output_kept = outputs in safe
        except TypeError:
            output_kept = False
        y = outputs if output_kept else self._repair(
            safe, outputs, self._out_width, "program output"
        )

        automaton = self.automaton
        events = automaton.alphabet.events
        out_width = self._out_width
        released = events[(x.code << out_width) | y.code]
        location = automaton.locations[automaton.table[automaton.index[q]][released.code]]
        record = TickRecord(
            self.ticks,
            released
            if input_kept and output_kept
            else events[(inputs.code << out_width) | outputs.code],
            released,
            not input_kept,
            not output_kept,
            location,
        )
        self.location = location
        self.ticks += 1
        return record

    def _repair(self, safe: frozenset[BitVector], observed, width: int, role: str) -> BitVector:
        """The policy's pick from a safe set the observed vector is not in.

        Checks first that the observed vector is a BitVector of the
        interface's width (ValueError naming ``role`` if not).
        """
        _check_vector(observed, width, role)
        if self.tables is None:
            return choose_nearest(safe, observed)
        return self.tables[safe]

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
    if not isinstance(vector, BitVector) or len(vector) != width:
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
    (its policy wins over the arguments).
    """
    if isinstance(enforcer_or_automaton, Enforcer):
        enforcer = enforcer_or_automaton
        enforcer.reset()
    else:
        enforcer = Enforcer(enforcer_or_automaton, policy, seed)
    script = ScriptedProgram([e.output for e in observed])
    return tuple(
        record.released
        for record in enforcer.run((e.input for e in observed), script)
    )
