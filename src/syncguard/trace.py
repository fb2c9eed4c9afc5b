"""Line-delimited trace files: one record per tick.

Fields are tab-separated: tick index, observed event, released event,
input-edited flag, output-edited flag, location after the tick.  Events
render as ``inputs/outputs`` bit strings in declaration order.  The flags
are the events' own: a side's flag is ``1`` exactly when its released
bits differ from its observed bits (see :class:`TickRecord`).  The tick
index is a non-negative decimal integer written as ``str`` writes it (no
leading zero but in ``0`` itself), each flag is ``0`` or ``1``, and the
location is one name as an automaton document declares it: not empty,
with no whitespace (as ``str.split`` reads it) and no ``#`` (which starts
a comment there).  :func:`parse_record` rejects anything else with
``ValueError``, and so a line whose two events differ in shape or whose
flags disagree with its events.  So each record has one text, the one
:func:`format_record` writes.  Lines starting with ``#`` are comments.
All content is deterministic, so two runs with identical configuration
produce byte-identical files.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

from .bits import Event
from .runtime import TickRecord


def format_record(record: TickRecord) -> str:
    return "\t".join(
        (
            str(record.t),
            str(record.observed),
            str(record.released),
            str(int(record.input_edited)),
            str(int(record.output_edited)),
            record.state_after,
        )
    )


def parse_record(line: str) -> TickRecord:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 6:
        raise ValueError(f"expected 6 tab-separated fields, got {len(fields)}: {line!r}")
    t, observed, released, input_edited, output_edited, state = fields
    if not (t.isascii() and t.isdigit()) or (t[0] == "0" and t != "0"):
        raise ValueError(f"tick index must be a non-negative decimal integer, got {t!r}")
    if not state:
        raise ValueError("location field must not be empty")
    if state.split() != [state] or "#" in state:
        raise ValueError(
            f"location field must be one name, without whitespace or '#', got {state!r}"
        )
    for flag in (input_edited, output_edited):
        if flag not in ("0", "1"):
            raise ValueError(f"edit flag must be 0 or 1, got {flag!r}")
    before, after = Event.from_text(observed), Event.from_text(released)
    if len(before.input) != len(after.input) or len(before.output) != len(after.output):
        raise ValueError(
            f"observed event {observed!r} and released event {released!r} differ in shape"
        )
    record = TickRecord(int(t), before, after, state)
    for side, flag, edited in (
        ("input", input_edited, record.input_edited),
        ("output", output_edited, record.output_edited),
    ):
        if flag != str(int(edited)):
            raise ValueError(
                f"{side}-edited flag {flag!r} disagrees with observed event {observed!r} "
                f"and released event {released!r}"
            )
    return record


def write_trace(
    stream: IO[str],
    records: Iterable[TickRecord],
    header: Sequence[str] = (),
) -> None:
    for line in header:
        stream.write(f"# {line}\n")
    for record in records:
        stream.write(format_record(record) + "\n")


def read_trace(text: str) -> list[TickRecord]:
    records = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append(parse_record(line))
    return records
