"""The CLI's contract as one table: every row is an argv, the files it
reads, and its exit code, stdout, stderr and ``--out`` file.

``test_row`` runs each row in-process through ``cli.main`` in its own
directory.  Two kinds of row also run in fresh interpreters, as
``python -m syncguard.cli`` with ``PYTHONPATH`` set to this checkout's
``src``: the golden rows once under each of two hash seeds (vectors and
events hash by identity, so set order depends on memory addresses; a
fresh process per output and per seed shows the output does not), and
the rows with a ``timeout``, which must finish within it.

An expected output is exact text (``""`` for none), a file of
``tests/golden/`` (``Golden``), the SHA-256 of the exact text for an
output too long to inline (``Digest``), or, for ``bench``'s wall-clock
line only, a pattern (``BENCH_LINE``).  The rows named ``readme-*`` are
the README's Quick start commands, read from README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Union

import pytest

from syncguard.cli import main

from .test_readme import block, section

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
HASH_SEEDS = ("0", "4242")


@dataclasses.dataclass(frozen=True)
class Golden:
    name: str


@dataclasses.dataclass(frozen=True)
class Digest:
    sha256: str


Expected = Union[str, Golden, Digest, "re.Pattern[str]"]

BENCH_LINE = re.compile(
    r"plain \d+\.\d{3} us/tick, enforced -?\d+\.\d{3} us/tick, increase -?\d+\.\d{2}%\n"
)


@dataclasses.dataclass(frozen=True)
class Case:
    id: str
    argv: tuple[str, ...]
    files: dict[str, Union[str, Golden]]
    exit: int
    stdout: Expected = ""
    stderr: Expected = ""
    out: Optional[tuple[str, Expected]] = None
    timeout: Optional[float] = None
    hash_seeds: tuple[str, ...] = ()


def _text(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


def _expect(expected: Expected, got: str) -> None:
    if isinstance(expected, Golden):
        assert got == _text(GOLDEN / expected.name)
    elif isinstance(expected, Digest):
        assert hashlib.sha256(got.encode("utf-8")).hexdigest() == expected.sha256, got
    elif isinstance(expected, re.Pattern):
        assert expected.fullmatch(got), got
    else:
        assert got == expected


def _write_files(case: Case, directory: Path) -> None:
    for name, content in case.files.items():
        if isinstance(content, Golden):
            content = _text(GOLDEN / content.name)
        (directory / name).write_bytes(content.encode("utf-8"))


def _check(case: Case, directory: Path, code: int, stdout: str, stderr: str) -> None:
    assert code == case.exit, (stdout, stderr)
    _expect(case.stdout, stdout)
    _expect(case.stderr, stderr)
    if case.out is not None:
        name, expected = case.out
        _expect(expected, _text(directory / name))


# -- the files rows read --------------------------------------------------

README_MUTEX = block("text")  # normalizes to mutual_exclusion(), as test_readme checks
MUTEX = {"mutex.aut": README_MUTEX}
# at_most_one_tick(): q1 is accepting and dead, and no transformation saves it
DOOMED = {
    "doomed.aut": "inputs: A\noutputs: B\nstates: q0 q1 qv\ninitial: q0\nviolating: qv\n"
    "q0 -> q1 : -/-\nq1 -> qv : -/-\n"
}
DEAD_END = {"dead_end.aut": Golden("dead_end.aut")}
# the null interface has one event, so one word per length
NULL = {
    "null.aut": "inputs:\noutputs:\nstates: q0 qv\ninitial: q0\nviolating: qv\nq0 -> q0 : /\n"
}
# exactly 16 variables, 8 inputs and 8 outputs (event codes up to 65535)
WIDE16 = {
    "wide16.aut": "inputs: i0 i1 i2 i3 i4 i5 i6 i7\noutputs: o0 o1 o2 o3 o4 o5 o6 o7\n"
    "states: q0 qv\ninitial: q0\nviolating: qv\nq0 -> q0 : --------/--------\n"
}
# what `simulate mutex.aut const:1 --ticks 3 --seed 4 --out three.trace` writes
THREE = (
    "# syncguard simulate policy=nearest seed=4 ticks=3 env=random\n"
    "0\t11/1\t10/1\t1\t0\tq0\n"
    "1\t00/1\t00/1\t0\t0\tq0\n"
    "2\t11/1\t10/1\t1\t0\tq0\n"
)
THREE_TRACE = {**MUTEX, "three.trace": THREE}
# the same three ticks, as `simulate` writes them when three.trace is its environment
THREE_AS_ENV = "# syncguard simulate policy=nearest seed=0 ticks=3 env=trace:three.trace\n" + (
    THREE.split("\n", 1)[1]
)
# the trace-flag-7 and trace-width-* rows' files, for the out-kept-* rows
FLAG_7 = {**MUTEX, "bad.trace": "0\t00/0\t00/0\t0\t0\tq0\n1\t00/0\t00/0\t7\t0\tq0\n"}
WIDE_OUTPUT = {**MUTEX, "bad.trace": "0\t00/0\t00/0\t0\t0\tq0\n1\t00/10\t00/10\t0\t0\tq0\n"}
WIDE_INPUT = {**MUTEX, "bad.trace": "0\t00/0\t00/0\t0\t0\tq0\n1\t001/1\t001/1\t0\t0\tq0\n"}


def _quick_start() -> dict[str, tuple[str, ...]]:
    """The README's Quick start commands by subcommand, without ``syncguard``."""
    commands = {}
    for line in block("sh", section("Quick start")).splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "syncguard" and argv[0] not in commands, line
        commands[argv[0]] = tuple(argv)
    return commands


QUICK_START = _quick_start()


def _row(id: str, argv: str, files: dict, exit: int = 0, **expected) -> Case:
    return Case(id, tuple(shlex.split(argv)), files, exit, **expected)


def _readme(command: str, **expected) -> Case:
    return Case(f"readme-{command}", QUICK_START[command], MUTEX, 0, **expected)


def _golden_rows() -> list[Case]:
    """The 16 outputs of ``tests/golden/``; see ``test_golden.py``."""
    programs = {"mutex": "const:1", "random19": "synthetic:8:1"}
    edits = {("mutex", "nearest"): (57, 48), ("mutex", "lex"): (57, 48),
             ("mutex", "random"): (57, 48), ("random19", "nearest"): (57, 74),
             ("random19", "lex"): (90, 104), ("random19", "random"): (90, 104)}
    rows = []
    for name, program in programs.items():
        files = {f"{name}.aut": Golden(f"{name}.aut")}
        rows.append(_row(f"golden-project-{name}", f"project {name}.aut", files,
                         stdout=Golden(f"project-{name}.txt")))
        for policy in ("nearest", "lex", "random"):
            rows.append(_row(f"golden-explain-{name}-{policy}",
                             f"explain {name}.aut --policy {policy} --seed 3", files,
                             stdout=Golden(f"explain-{name}-{policy}.txt")))
            rows.append(_row(f"golden-simulate-{name}-{policy}",
                             f"simulate {name}.aut {program} --policy {policy} --seed 3 "
                             "--ticks 200 --out run.trace", files,
                             stdout="ticks=200 input_edits={} output_edits={}\n".format(
                                 *edits[name, policy]),
                             out=("run.trace", Golden(f"simulate-{name}-{policy}.trace"))))
    # the dead end is not enforceable: check exits 1 with its report and witness
    rows.append(_row("golden-check-dead_end", "check dead_end.aut", DEAD_END, 1,
                     stdout=Golden("check-dead_end.txt")))
    rows.append(_row("golden-transform-dead_end", "transform dead_end.aut --out repaired.aut",
                     DEAD_END, out=("repaired.aut", Golden("transform-dead_end.aut"))))
    return [dataclasses.replace(row, hash_seeds=HASH_SEEDS) for row in rows]


def _malformed_trace(id: str, text: str, message: str) -> list[Case]:
    """A malformed trace is refused as a ``scripted:`` program and as an
    ``--env trace:`` environment alike, before any tick."""
    ticks = text.count("\n")
    files = {**MUTEX, "bad.trace": text}
    return [
        _row(f"{id}-program", f"simulate mutex.aut scripted:bad.trace --ticks {ticks}", files, 2,
             stderr=f"error: bad.trace: {message}\n"),
        _row(f"{id}-env", f"simulate mutex.aut const:1 --env trace:bad.trace --ticks {ticks}",
             files, 2, stderr=f"error: bad.trace: {message}\n"),
    ]


PREVIOUS = "# an earlier run's trace\n"


def _keeps_out(id: str, argv: str, files: dict, exit: int = 2, **expected) -> Case:
    """A run refused by an input check opens no ``--out``: a file already
    there keeps its bytes."""
    return _row(f"out-kept-{id}", f"{argv} --out run.trace", {**files, "run.trace": PREVIOUS},
                exit, out=("run.trace", PREVIOUS), **expected)


def _synthetic_spec(name: str, spec: str) -> list[Case]:
    """A synthetic spec takes WIDTH and an optional SEED, nothing more."""
    return [
        _row(f"{command}-synthetic-{name}", f"{command} mutex.aut {spec} --ticks 3", MUTEX, 2,
             stderr=f"error: expected synthetic:WIDTH[:SEED], got {spec!r}\n")
        for command in ("simulate", "bench")
    ]


ALL_PASS = "".join(
    f"{name}: pass\n"
    for name in ("soundness", "monotonicity", "instantaneity", "transparency", "causality",
                 "weak_transparency")
)
DOOMED_SETS = (
    "q0: safe inputs {0 1}\nq0 given 0: safe outputs {0 1}\nq0 given 1: safe outputs {0 1}\n"
    "q1: safe inputs {}\n"
)
NEAREST_NOTE = "(nearest repairs depend on the observed event; no static table)\n"
UNTRANSFORMABLE = "error: property cannot be transformed into an enforceable one\n"

CASES: list[Case] = [
    *_golden_rows(),
    # -- the README's Quick start
    _readme("check", stdout="enforceable\n"),
    _readme("explain", stdout="policy: lexicographic  seed: 0\n"
            "q0: safe inputs {00 01 10}  choose 00\n"
            "q0 given 00: safe outputs {0 1}  choose 0\n"
            "q0 given 01: safe outputs {0}  choose 0\n"
            "q0 given 10: safe outputs {0 1}  choose 0\n"),
    _readme("simulate", stdout="ticks=1000 input_edits=275 output_edits=241\n",
            out=("run.trace", Digest(
                "14210e127656bff198e112a32b248e08942787ce357857e1ce2f4064d30da2c0"))),
    _readme("verify", stdout=f"{ALL_PASS}words checked: 4681\n"),
    _readme("bench", stdout=BENCH_LINE),
    # -- check
    _row("check-dead-location", "check doomed.aut", DOOMED, 1,
         stdout="not enforceable; dead locations: q1\n"
         "witness (shortest accepted word reaching q1): 0/0\n"),
    _row("check-malformed", "check broken.aut", {"broken.aut": "inputs: A\nstates: q0\n"}, 2,
         stderr="error: missing 'outputs:' declaration\n"),
    # a line ends at a newline only: a record separator stays in its line
    _row("check-record-separator", "check rs.aut",
         {"rs.aut": "inputs: A\noutputs: B\nstates: q0 qv\ninitial: q0\nviolating: qv\n"
          "q0 -> q0 : 0/0\x1cq0 -> qv : 1/-\n"}, 2,
         stderr="error: line 6: cannot parse transition 'q0 -> q0 : 0/0\\x1cq0 -> qv : 1/-'\n"),
    _row("check-missing-file", "check missing.aut", {}, 2,
         stderr="error: [Errno 2] No such file or directory: 'missing.aut'\n"),
    # more than 16 interface variables is refused before any event is enumerated
    _row("check-17-inputs", "check wide.aut",
         {"wide.aut": "inputs: " + " ".join(f"i{j}" for j in range(17))
          + "\noutputs:\nstates: q0 qv\ninitial: q0\nviolating: qv\n"}, 2,
         stderr="error: interface declares 17 variables; at most 16 are supported\n"),
    _row("check-9-inputs-8-outputs", "check wide.aut",
         {"wide.aut": "inputs: i0 i1 i2 i3 i4 i5 i6 i7 i8\noutputs: o0 o1 o2 o3 o4 o5 o6 o7\n"
          "states: q0 qv\ninitial: q0\nviolating: qv\nq0 -> q0 : ---------/--------\n"}, 2,
         stderr="error: interface declares 17 variables; at most 16 are supported\n"),
    _row("check-16-variables", "check wide16.aut", WIDE16, stdout="enforceable\n", timeout=60),
    # -- transform: render and parse round-trip, so a second transform changes nothing
    _row("transform-unrepairable", "transform doomed.aut", DOOMED, 1, stdout="NONE\n"),
    _row("transform-enforceable", "transform mutex.aut --out t.aut", MUTEX,
         out=("t.aut", Golden("mutex.aut"))),
    _row("transform-its-own-output", "transform t.aut --out t2.aut",
         {"t.aut": Golden("mutex.aut")}, out=("t2.aut", Golden("mutex.aut"))),
    _row("check-transformed", "check t.aut", {"t.aut": Golden("mutex.aut")},
         stdout="enforceable\n"),
    # -- project
    _row("project-readme-mutex", "project mutex.aut", MUTEX, stdout=Golden("project-mutex.txt")),
    # -- explain
    _row("explain-nearest", "explain mutex.aut", MUTEX,
         stdout="policy: nearest  seed: 0\n" + NEAREST_NOTE
         + "q0: safe inputs {00 01 10}\n"
         "q0 given 00: safe outputs {0 1}\n"
         "q0 given 01: safe outputs {0}\n"
         "q0 given 10: safe outputs {0 1}\n"),
    _row("explain-random-seed-5", "explain mutex.aut --policy random --seed 5", MUTEX,
         stdout="policy: seeded-random  seed: 5\n"
         "q0: safe inputs {00 01 10}  choose 01\n"
         "q0 given 00: safe outputs {0 1}  choose 0\n"
         "q0 given 01: safe outputs {0}  choose 0\n"
         "q0 given 10: safe outputs {0 1}  choose 0\n"),
    _row("explain-zero-width-inputs", "explain no_inputs.aut --policy lex",
         {"no_inputs.aut": "inputs:\noutputs: R\nstates: q0 qv\ninitial: q0\nviolating: qv\n"
          "q0 -> q0 : /0\nq0 -> qv : /1\n"},
         stdout="policy: lexicographic  seed: 0\nq0: safe inputs {<empty>}  choose <empty>\n"
         "q0 given <empty>: safe outputs {0}  choose 0\n"),
    # a dead location has sets but no choice, under every policy
    _row("explain-dead-location-nearest", "explain doomed.aut --policy nearest", DOOMED,
         stdout="policy: nearest  seed: 0\n" + NEAREST_NOTE + DOOMED_SETS),
    _row("explain-dead-location-lex", "explain doomed.aut --policy lex", DOOMED,
         stdout="policy: lexicographic  seed: 0\n" + DOOMED_SETS),
    _row("explain-dead-location-random", "explain doomed.aut --policy random", DOOMED,
         stdout="policy: seeded-random  seed: 0\n" + DOOMED_SETS),
    _row("explain-16-variables", "explain wide16.aut --policy lex --out wide16.explain", WIDE16,
         out=("wide16.explain", Digest(
             "b230428042747d5637c7e55da6e5d1d9d50c38c4f8d638f8e0bcf245bd3e34c2")), timeout=60),
    # -- simulate: each policy's repair path (nearest in the Quick start)
    _row("simulate-lex", "simulate mutex.aut const:1 --ticks 200 --policy lex", MUTEX,
         stdout=Digest("7facdc9fb170007789848bd5faf9ca1fd7513b235c174136af2e935c78987b4e"),
         stderr="ticks=200 input_edits=41 output_edits=49\n"),
    _row("simulate-random", "simulate mutex.aut const:1 --ticks 200 --policy random", MUTEX,
         stdout=Digest("29f4103e97651d204480c829f35373df58d70507efa82155a40c0689ef9a6e6b"),
         stderr="ticks=200 input_edits=41 output_edits=90\n"),
    _row("simulate-not-enforceable", "simulate dead_end.aut const:0 --ticks 10 --out t.trace",
         DEAD_END, 1,
         stderr="error: not enforceable; dead locations: q1 (use --auto-transform to repair)\n"),
    _row("simulate-auto-transform",
         "simulate dead_end.aut const:0 --ticks 10 --out t.trace --auto-transform", DEAD_END,
         stdout="ticks=10 input_edits=0 output_edits=0\n",
         stderr="note: property transformed (3 -> 2 locations)\n",
         out=("t.trace", "# syncguard simulate policy=nearest seed=0 ticks=10 env=random\n"
              + "".join(f"{t}\t{x}/0\t{x}/0\t0\t0\tq0\n" for t, x in enumerate("1000100001")))),
    _row("simulate-untransformable", "simulate doomed.aut const:0 --auto-transform --ticks 3",
         DOOMED, 1, stderr=UNTRANSFORMABLE),
    _row("simulate-mealy-document", "simulate mutex.aut toggle.mealy --ticks 6 --seed 2",
         {**MUTEX, "toggle.mealy": "inputs: A B\noutputs: R\nstates: s t\ninitial: s\n"
          "s -> t : -- / 1\nt -> s : -- / 0\n"},
         stdout="# syncguard simulate policy=nearest seed=2 ticks=6 env=random\n"
         "0\t11/1\t10/1\t1\t0\tq0\n"
         "1\t01/0\t01/0\t0\t0\tq0\n"
         "2\t11/1\t10/1\t1\t0\tq0\n"
         "3\t00/0\t00/0\t0\t0\tq0\n"
         "4\t11/1\t10/1\t1\t0\tq0\n"
         "5\t11/0\t10/0\t1\t0\tq0\n",
         stderr="ticks=6 input_edits=4 output_edits=0\n"),
    _row("simulate-mealy-interface-mismatch", "simulate mutex.aut prog.mealy --ticks 5",
         {**MUTEX, "prog.mealy": "inputs: A\noutputs: B\nstates: s\ninitial: s\ns -> s : - / 0\n"},
         2, stderr="error: program interface (A / B) does not match the automaton's\n"),
    # a synthetic program builds its output from bits every tick: the shared
    # vector, found by code among 65,536 events
    _row("simulate-16-variables", "simulate wide16.aut synthetic:64 --ticks 200", WIDE16,
         stdout=Digest("f03fe783c3be9e93798598d581ca690591c294b3a7110d2f65ee1e2509f21e34"),
         stderr="ticks=200 input_edits=0 output_edits=0\n", timeout=60),
    _row("simulate-unknown-env", "simulate mutex.aut const:0 --env bogus", MUTEX, 2,
         stderr="error: unknown environment spec 'bogus'\n"),
    *_synthetic_spec("8-1-junk", "synthetic:8:1:junk"),
    *_synthetic_spec("8-empty-seed", "synthetic:8:"),
    *_synthetic_spec("empty", "synthetic:"),
    # -- simulate with traces: --env trace: runs the whole trace, or its first --ticks records
    _row("simulate-trace-env-whole", "simulate mutex.aut const:1 --env trace:three.trace",
         THREE_TRACE,
         stdout="# syncguard simulate policy=nearest seed=0 ticks=3 env=trace:three.trace\n"
         + THREE.split("\n", 1)[1],
         stderr="ticks=3 input_edits=2 output_edits=0\n"),
    # the traces are read in full before --out, the same file, is opened
    _row("simulate-trace-env-out-to-itself",
         "simulate mutex.aut const:1 --env trace:three.trace --out three.trace", THREE_TRACE,
         stdout="ticks=3 input_edits=2 output_edits=0\n", out=("three.trace", THREE_AS_ENV)),
    _row("simulate-script-and-env-out-to-itself",
         "simulate mutex.aut scripted:three.trace --env trace:three.trace --out three.trace",
         THREE_TRACE, stdout="ticks=3 input_edits=2 output_edits=0\n",
         out=("three.trace", THREE_AS_ENV)),
    _row("simulate-trace-env-first-ticks",
         "simulate mutex.aut const:1 --env trace:three.trace --ticks 2 --out two.trace",
         THREE_TRACE, stdout="ticks=2 input_edits=1 output_edits=0\n",
         out=("two.trace",
              "# syncguard simulate policy=nearest seed=0 ticks=2 env=trace:three.trace\n"
              "0\t11/1\t10/1\t1\t0\tq0\n1\t00/1\t00/1\t0\t0\tq0\n")),
    _row("simulate-trace-env-shorter-than-ticks",
         "simulate mutex.aut const:1 --env trace:three.trace --ticks 4", THREE_TRACE, 2,
         stderr="error: three.trace: trace has 3 records, --ticks asks for 4\n"),
    # a script shorter than the run is malformed input; one as long as the run is not
    _row("simulate-script-shorter-than-run", "simulate mutex.aut scripted:three.trace --ticks 10",
         THREE_TRACE, 2, stderr="error: three.trace: script has 3 outputs, the run needs 10\n"),
    _row("bench-script-shorter-than-run",
         "bench mutex.aut scripted:three.trace --ticks 10 --runs 1", THREE_TRACE, 2,
         stderr="error: three.trace: script has 3 outputs, the run needs 10\n"),
    _row("simulate-script-as-long-as-run", "simulate mutex.aut scripted:three.trace --ticks 3",
         THREE_TRACE,
         stdout="# syncguard simulate policy=nearest seed=0 ticks=3 env=random\n"
         "0\t01/1\t01/0\t0\t1\tq0\n1\t10/1\t10/1\t0\t0\tq0\n2\t00/1\t00/1\t0\t0\tq0\n",
         stderr="ticks=3 input_edits=0 output_edits=1\n"),
    # the trace's vectors must have the automaton's widths
    _row("trace-width-program", "simulate mutex.aut scripted:bad.trace --ticks 2",
         {**MUTEX, "bad.trace": "0\t00/0\t00/0\t0\t0\tq0\n1\t00/10\t00/10\t0\t0\tq0\n"}, 2,
         stderr="error: bad.trace: tick 1 output 10 has 2 bits, expected 1\n"),
    _row("trace-width-env", "simulate mutex.aut const:1 --env trace:bad.trace --ticks 2",
         {**MUTEX, "bad.trace": "0\t00/0\t00/0\t0\t0\tq0\n1\t001/1\t001/1\t0\t0\tq0\n"}, 2,
         stderr="error: bad.trace: tick 1 input 001 has 3 bits, expected 2\n"),
    # a record has one text, the one simulate writes
    *_malformed_trace("trace-flag-7", "0\t00/0\t00/0\t0\t0\tq0\n1\t00/0\t00/0\t7\t0\tq0\n",
                      "edit flag must be 0 or 1, got '7'"),
    *_malformed_trace("trace-flag-disagrees", "0\t00/0\t10/0\t0\t0\tq0\n",
                      "input-edited flag '0' disagrees with observed event '00/0' "
                      "and released event '10/0'"),
    *_malformed_trace("trace-events-differ-in-shape", "0\t00/0\t0/00\t1\t1\tq0\n",
                      "observed event '00/0' and released event '0/00' differ in shape"),
    *_malformed_trace("trace-tick-leading-zero", "007\t00/0\t00/0\t0\t0\tq0\n",
                      "tick index must be a non-negative decimal integer, got '007'"),
    *_malformed_trace("trace-empty-location", "0\t00/0\t00/0\t0\t0\t\n",
                      "location field must not be empty"),
    *_malformed_trace("trace-location-with-space", "0\t00/0\t00/0\t0\t0\tq0 \n",
                      "location field must be one name, without whitespace or '#', got 'q0 '"),
    # only a newline ends a line: str.splitlines would also split at a form feed
    *_malformed_trace("trace-location-with-form-feed", "0\t00/0\t00/0\t0\t0\tq0\x0c\n",
                      "location field must be one name, without whitespace or '#', "
                      "got 'q0\\x0c'"),
    # each record's tick index is its position: 0, 1, 2, ...
    *_malformed_trace("trace-index-skipped", "0\t00/0\t00/0\t0\t0\tq0\n2\t00/0\t00/0\t0\t0\tq0\n",
                      "record 1 has tick index 2"),
    *_malformed_trace("trace-index-from-1", "1\t00/0\t00/0\t0\t0\tq0\n",
                      "record 0 has tick index 1"),
    *_malformed_trace("trace-17-bit-field", f"0\t{'0' * 17}/0\t00/0\t0\t0\tq0\n",
                      "interface declares 17 variables; at most 16 are supported"),
    # -- --out is opened only once every input check has passed
    _keeps_out("trace-parse-program", "simulate mutex.aut scripted:bad.trace --ticks 2", FLAG_7,
               stderr="error: bad.trace: edit flag must be 0 or 1, got '7'\n"),
    _keeps_out("trace-parse-env", "simulate mutex.aut const:1 --env trace:bad.trace", FLAG_7,
               stderr="error: bad.trace: edit flag must be 0 or 1, got '7'\n"),
    _keeps_out("trace-index-env", "simulate mutex.aut const:1 --env trace:bad.trace",
               {**MUTEX, "bad.trace": "9\t00/0\t00/0\t0\t0\tq0\n"},
               stderr="error: bad.trace: record 0 has tick index 9\n"),
    _keeps_out("trace-width-program", "simulate mutex.aut scripted:bad.trace --ticks 2",
               WIDE_OUTPUT, stderr="error: bad.trace: tick 1 output 10 has 2 bits, expected 1\n"),
    _keeps_out("trace-width-env", "simulate mutex.aut const:1 --env trace:bad.trace", WIDE_INPUT,
               stderr="error: bad.trace: tick 1 input 001 has 3 bits, expected 2\n"),
    _keeps_out("script-shorter-than-run", "simulate mutex.aut scripted:three.trace --ticks 10",
               THREE_TRACE, stderr="error: three.trace: script has 3 outputs, the run needs 10\n"),
    _keeps_out("ticks-past-the-trace", "simulate mutex.aut const:1 --env trace:three.trace "
               "--ticks 4", THREE_TRACE,
               stderr="error: three.trace: trace has 3 records, --ticks asks for 4\n"),
    _keeps_out("not-enforceable", "simulate dead_end.aut const:0 --ticks 10", DEAD_END, 1,
               stderr="error: not enforceable; dead locations: q1 "
               "(use --auto-transform to repair)\n"),
    _keeps_out("negative-ticks", "simulate mutex.aut const:1 --ticks -1", MUTEX,
               stderr="error: ticks must be non-negative\n"),
    _keeps_out("unknown-env", "simulate mutex.aut const:1 --env bogus", MUTEX,
               stderr="error: unknown environment spec 'bogus'\n"),
    _keeps_out("bad-synthetic-spec", "simulate mutex.aut synthetic:8: --ticks 3", MUTEX,
               stderr="error: expected synthetic:WIDTH[:SEED], got 'synthetic:8:'\n"),
    _keeps_out("transform-unrepairable", "transform doomed.aut", DOOMED, 1, stdout="NONE\n"),
    _keeps_out("verify-negative-max-len", "verify mutex.aut --max-len -1", MUTEX,
               stderr="error: max_len must be non-negative, got -1\n"),
    # -- verify: the constraint check's runtime side under each policy
    _row("verify-max-len-3", "verify mutex.aut --max-len 3", MUTEX,
         stdout=f"{ALL_PASS}words checked: 585\n"),
    _row("verify-lex", "verify mutex.aut --max-len 4 --policy lex", MUTEX,
         stdout=f"{ALL_PASS}words checked: 4681\n"),
    _row("verify-random-seed-5", "verify mutex.aut --max-len 4 --policy random --seed 5", MUTEX,
         stdout=f"{ALL_PASS}words checked: 4681\n"),
    _row("verify-not-enforceable", "verify doomed.aut", DOOMED, 1,
         stderr="error: not enforceable; dead locations: q1\n"),
    _row("verify-negative-max-len", "verify mutex.aut --max-len -1", MUTEX, 2,
         stderr="error: max_len must be non-negative, got -1\n"),
    # an over-budget bound is refused before the word count is formed
    _row("verify-over-budget", "verify mutex.aut --max-len 100000", MUTEX, 2,
         stderr="error: enumeration budget exceeded: more than 1000000 words\n", timeout=10),
    # one word per length: a deep walk completes up to the depth bound and is
    # refused past it, before the walk
    _row("verify-null-to-the-depth-bound", "verify null.aut --max-len 1000", NULL,
         stdout=f"{ALL_PASS}words checked: 1001\n", timeout=10),
    _row("verify-null-past-the-depth-bound", "verify null.aut --max-len 100000", NULL, 2,
         stderr="error: max_len must be at most 1000, got 100000\n", timeout=10),
    _row("verify-16-variables", "verify wide16.aut --max-len 1", WIDE16,
         stdout=f"{ALL_PASS}words checked: 65537\n", timeout=60),
    # -- bench
    _row("bench-const", "bench mutex.aut const:1 --ticks 50 --runs 1", MUTEX, stdout=BENCH_LINE),
    _row("bench-untransformable", "bench doomed.aut const:0 --auto-transform --ticks 3", DOOMED, 1,
         stderr=UNTRANSFORMABLE),
]


def _run_row(case: Case, directory: Path, monkeypatch, capsys) -> None:
    _write_files(case, directory)
    monkeypatch.chdir(directory)
    code = main(list(case.argv))
    captured = capsys.readouterr()
    _check(case, directory, code, captured.out, captured.err)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_row(case, tmp_path, monkeypatch, capsys):
    _run_row(case, tmp_path, monkeypatch, capsys)


class _PipelineRead(Exception):
    pass


@pytest.mark.parametrize(
    "case", [case for case in CASES if case.argv[0] == "explain"], ids=lambda case: case.id
)
def test_explain_rows_without_the_edit_set_pipeline(case, tmp_path, monkeypatch, capsys):
    """``explain`` renders from the one reader of a location's sets: each of
    its rows holds with the runtime's construction pipeline made to raise."""

    def forbidden(*args, **kwargs):
        raise _PipelineRead("explain built the edit sets or the repair tables")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("syncguard"):
            for name in ("compute_edit_sets", "build_edit_tables"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    _run_row(case, tmp_path, monkeypatch, capsys)


FRESH = [
    (case, seed)
    for case in CASES
    for seed in case.hash_seeds or ((None,) if case.timeout is not None else ())
]


def _fresh_id(run) -> str:
    case, seed = run
    if seed is None:
        return f"{case.id}-timeout{case.timeout:g}"
    return f"{case.id}-hashseed{seed}"


def _run_fresh(case: Case, seed: Optional[str], directory: Path):
    _write_files(case, directory)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    return subprocess.run(
        [sys.executable, "-m", "syncguard.cli", *case.argv],
        cwd=directory, env=env, capture_output=True, timeout=case.timeout,
    )


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """Every fresh run, started at once on at most ``os.cpu_count()`` workers."""
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        futures = {}
        for run in FRESH:
            directory = tmp_path_factory.mktemp("fresh")
            futures[_fresh_id(run)] = (directory, pool.submit(_run_fresh, *run, directory))
        yield futures


@pytest.mark.parametrize("run", FRESH, ids=_fresh_id)
def test_row_in_a_fresh_process(run, fresh_runs):
    directory, future = fresh_runs[_fresh_id(run)]
    result = future.result()
    _check(run[0], directory, result.returncode, result.stdout.decode(), result.stderr.decode())


def test_every_quick_start_command_is_a_row():
    assert [case.argv for case in CASES if case.id.startswith("readme-")] == list(
        QUICK_START.values()
    )
