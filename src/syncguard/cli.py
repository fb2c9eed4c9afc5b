"""Command-line interface.

Exit codes: 0 success, 1 negative result (not enforceable, not
transformable, or a failed constraint check), 2 malformed input, 141
stdout closed by its reader (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import chain, islice
from typing import Optional, Sequence

from .analysis import (
    check_enforceability,
    non_enforceability_witness,
    transform_non_enforceable,
)
from .automata import (
    EmptyPropertyError,
    ParseError,
    SafetyAutomaton,
    normalize,
    parse_automaton,
    project_inputs,
    render_automaton,
    render_input_automaton,
)
from .bits import BitVector, format_vector, format_word
from .editing import NEAREST, build_edit_tables, canonical_policy, compute_edit_sets
from .harness import check_constraints
from .programs import (
    ConstantProgram,
    ScriptedProgram,
    SyntheticProgram,
    parse_program,
)
from .runtime import Enforcer
from .sim import SimConfig, bench, random_input_chunks
from .trace import read_trace, write_trace


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader stopped reading (``| head``): no input was at fault
        _silence_stdout()
        return 141
    except (ParseError, EmptyPropertyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _silence_stdout() -> None:
    """Point stdout's file descriptor, when it has one, at the null device,
    so the interpreter's final flush of what is buffered stays silent."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncguard",
        description="Synthesize and run bi-directional runtime enforcers "
        "for synchronous reactive programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        if "policy" in flags:
            p.add_argument(
                "--policy",
                choices=("nearest", "lex", "random"),
                default="nearest",
                help="repair tie-break policy (default: nearest)",
            )
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
        if "out" in flags:
            p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("check", help="decide enforceability")
    p.add_argument("automaton")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("transform", help="repair a non-enforceable property")
    p.add_argument("automaton")
    common(p, "out")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("project", help="emit the input automaton")
    p.add_argument("automaton")
    common(p, "out")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("explain", help="dump edit sets and repair tables")
    p.add_argument("automaton")
    common(p, "policy", "seed", "out")
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser("simulate", help="run the enforcer over an environment")
    p.add_argument("automaton")
    p.add_argument("program", help="program file, const:BITS, scripted:TRACE, or synthetic:WIDTH")
    p.add_argument(
        "--ticks", type=int, default=None,
        help="ticks to run (default: 1000, or the whole --env trace)",
    )
    p.add_argument("--env", default="random", help="'random' or 'trace:FILE'")
    p.add_argument("--auto-transform", action="store_true", help="repair the property first if needed")
    common(p, "policy", "seed", "out")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="check the enforcer constraints exhaustively")
    p.add_argument("automaton")
    p.add_argument("--max-len", type=int, default=4, help="observed-word length bound")
    common(p, "policy", "seed", "out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bench", help="measure per-tick enforcement overhead")
    p.add_argument("automaton")
    p.add_argument("program")
    p.add_argument("--ticks", type=int, default=1000)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--auto-transform", action="store_true")
    common(p, "policy", "seed")
    p.set_defaults(handler=_cmd_bench)

    return parser


def _load_automaton(path: str) -> SafetyAutomaton:
    with open(path, encoding="utf-8") as handle:
        return normalize(parse_automaton(handle.read()))


def _open_out(out: Optional[str]):
    """The stream ``--out`` names, or stdout.  Open it after the last input
    check, so a refused run leaves the file as it was; it is opened in
    place, so a symlink is written through and a device stays one."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def _cmd_check(args) -> int:
    automaton = _load_automaton(args.automaton)
    report = check_enforceability(automaton)
    print(report)
    if report.enforceable:
        return 0
    witness = non_enforceability_witness(automaton, report.dead_locations[0])
    print(
        f"witness (shortest accepted word reaching {report.dead_locations[0]}): "
        f"{format_word(witness)}"
    )
    return 1


def _cmd_transform(args) -> int:
    automaton = _load_automaton(args.automaton)
    result = transform_non_enforceable(automaton)
    if result is None:
        print("NONE")
        return 1
    with _open_out(args.out) as stream:
        stream.write(render_automaton(result))
    return 0


def _cmd_project(args) -> int:
    automaton = _load_automaton(args.automaton)
    with _open_out(args.out) as stream:
        stream.write(render_input_automaton(project_inputs(automaton)))
    return 0


def _cmd_explain(args) -> int:
    automaton = _load_automaton(args.automaton)
    policy = canonical_policy(args.policy)
    sets = compute_edit_sets(automaton)
    tables = None
    if policy != NEAREST and check_enforceability(automaton).enforceable:
        tables = build_edit_tables(sets, policy, args.seed)

    def render_set(vectors) -> str:
        return "{" + " ".join(format_vector(v) for v in sorted(vectors)) + "}"

    lines = [f"policy: {policy}  seed: {args.seed}"]
    if policy == NEAREST:
        lines.append("(nearest repairs depend on the observed event; no static table)")
    for q in automaton.accepting_locations:
        inputs = sets.safe_inputs[q]
        choice = f"  choose {format_vector(tables[inputs])}" if tables else ""
        lines.append(f"{q}: safe inputs {render_set(inputs)}{choice}")
        for x in sorted(inputs):
            outputs = sets.safe_outputs[(q, x)]
            choice = f"  choose {format_vector(tables[outputs])}" if tables else ""
            lines.append(
                f"{q} given {format_vector(x)}: safe outputs "
                f"{render_set(outputs)}{choice}"
            )
    with _open_out(args.out) as stream:
        stream.write("\n".join(lines) + "\n")
    return 0


def _resolve_enforceable(automaton: SafetyAutomaton, auto_transform: bool) -> Optional[SafetyAutomaton]:
    report = check_enforceability(automaton)
    if report.enforceable:
        return automaton
    if not auto_transform:
        print(f"error: {report} (use --auto-transform to repair)", file=sys.stderr)
        return None
    repaired = transform_non_enforceable(automaton)
    if repaired is None:
        print("error: property cannot be transformed into an enforceable one", file=sys.stderr)
        return None
    print(f"note: property transformed ({len(automaton.locations)} -> "
          f"{len(repaired.locations)} locations)", file=sys.stderr)
    return repaired


def _read_trace_file(path: str, side: str, width: int) -> list[BitVector]:
    """The observed ``side`` vectors of a trace file, each ``width`` bits
    wide, from records numbered by their position: 0, 1, 2, ..."""
    vectors = []
    try:
        with open(path, encoding="utf-8") as handle:
            for t, record in enumerate(read_trace(handle)):
                if record.t != t:
                    raise ValueError(f"record {t} has tick index {record.t}")
                vector = getattr(record.observed, side)
                if len(vector) != width:
                    raise ValueError(
                        f"tick {t} {side} {vector} has {len(vector)} bits, expected {width}"
                    )
                vectors.append(vector)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return vectors


def _resolve_program(spec: str, automaton: SafetyAutomaton, ticks: int):
    """Load the program for a run of ``ticks`` ticks; a script must cover them."""
    alphabet = automaton.alphabet
    if spec.startswith("const:"):
        return ConstantProgram(alphabet, alphabet.output_vector(spec[len("const:"):]))
    if spec.startswith("scripted:"):
        path = spec[len("scripted:"):]
        outputs = _read_trace_file(path, "output", len(alphabet.outputs))
        if len(outputs) < ticks:
            raise ValueError(f"{path}: script has {len(outputs)} outputs, the run needs {ticks}")
        return ScriptedProgram(outputs)
    if spec.startswith("synthetic:"):
        fields = spec[len("synthetic:"):].split(":")
        if len(fields) > 2 or "" in fields:
            raise ValueError(f"expected synthetic:WIDTH[:SEED], got {spec!r}")
        width = int(fields[0])
        seed = int(fields[1]) if len(fields) > 1 else 0
        return SyntheticProgram(alphabet, width, seed)
    with open(spec, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    if program.alphabet != alphabet:
        raise ParseError(
            f"program interface ({' '.join(program.alphabet.inputs)} / "
            f"{' '.join(program.alphabet.outputs)}) does not match the automaton's"
        )
    return program


def _cmd_simulate(args) -> int:
    automaton = _resolve_enforceable(_load_automaton(args.automaton), args.auto_transform)
    if automaton is None:
        return 1
    ticks = args.ticks
    if args.env == "random":
        if ticks is None:
            ticks = 1000
        env = chain.from_iterable(random_input_chunks(automaton.alphabet, ticks, args.seed))
    elif args.env.startswith("trace:"):
        path = args.env[len("trace:"):]
        env = _read_trace_file(path, "input", len(automaton.alphabet.inputs))
        if ticks is None:
            ticks = len(env)
        elif ticks > len(env):
            raise ValueError(f"{path}: trace has {len(env)} records, --ticks asks for {ticks}")
    else:
        raise ValueError(f"unknown environment spec {args.env!r}")
    config = SimConfig(ticks=ticks, seed=args.seed, policy=args.policy)
    program = _resolve_program(args.program, automaton, config.ticks)
    enforcer = Enforcer(automaton, config.policy, config.seed)
    header = (f"syncguard simulate policy={config.policy} seed={config.seed} "
              f"ticks={config.ticks} env={args.env}")
    # each record is written as it is made; an interrupted run leaves a prefix
    with _open_out(args.out) as stream:
        records = (enforcer.tick(x, program) for x in islice(env, config.ticks))
        counts = write_trace(stream, records, [header])
    summary = "ticks={} input_edits={} output_edits={}".format(*counts)
    print(summary, file=sys.stderr if args.out is None else sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    automaton = _load_automaton(args.automaton)
    report = check_enforceability(automaton)
    if not report.enforceable:
        print(f"error: {report}", file=sys.stderr)
        return 1
    policy = canonical_policy(args.policy)
    result = check_constraints(automaton, policy, args.max_len, args.seed)
    print(result)
    if result.passed:
        return 0
    for name, word in result.counterexamples.items():
        print(f"counterexample ({name}): {format_word(word)}")
    if args.out:
        name = next(iter(result.counterexamples))
        observed = result.counterexamples[name]
        script = ScriptedProgram([e.output for e in observed])
        enforcer = Enforcer(automaton, policy, args.seed)
        with _open_out(args.out) as stream:
            records = (enforcer.tick(e.input, script) for e in observed)
            write_trace(stream, records, [f"counterexample for {name}"])
        print(f"counterexample trace written to {args.out}")
    return 1


def _cmd_bench(args) -> int:
    automaton = _resolve_enforceable(_load_automaton(args.automaton), args.auto_transform)
    if automaton is None:
        return 1
    config = SimConfig(ticks=args.ticks, runs=args.runs, seed=args.seed, policy=args.policy)
    program = _resolve_program(args.program, automaton, config.ticks)
    result = bench(automaton, program, config)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
