"""Byte-level pins of what synthesis produces.

Synthesis (pattern expansion, subset construction, edit sets, repair
tables) may be reimplemented for speed, but its outputs may not move.  The
digests below were recorded from the implementation over interned
``Event``/``BitVector`` keys; a change of any of them is a behaviour change.
"""

import hashlib
import itertools
import random

from syncguard import (
    Alphabet,
    NotEnforceableError,
    build_edit_tables,
    compute_edit_sets,
    normalize,
    parse_automaton,
    render_automaton,
)

# SHA-256 over, per document of ``_raw_documents``: the rendered normalized
# automaton, its sorted edit sets, and the ``lex`` and ``random`` (seed 7)
# picks of every location's safe inputs and of each safe input's safe
# outputs (or the NotEnforceableError message).
SYNTHESIS_DIGEST = "f3015c5518388a786fbf7c61c482fba650fdee23a0ef49bd69c3a616f5c9b34b"
# SHA-256 over the expansion (or the error message) of every {0,1,-}
# pattern, and a set of malformed ones, for every interface of 0-4 variables.
EXPANSION_DIGEST = "bc7fa101ec09b3e23c4e9288a9ae170005efdea9b629797ea92c6bf7959c3f6c"


def _label(rng, width):
    return "".join("-" if rng.random() < 0.5 else rng.choice("01") for _ in range(width))


def _raw_documents(count=500, seed=5):
    """Seeded nondeterministic wildcard documents over 1-3 inputs and 1-2
    outputs.  Labels overlap, so macro-states hold several states and,
    through edges into ``bad``, sometimes the trap; the state ``u`` (when
    present) has no incoming edge from another state, so it is unreachable."""
    rng = random.Random(seed)
    documents = []
    for k in range(count):
        n_in, n_out = 1 + k % 3, 1 + (k // 3) % 2
        states = [f"s{j}" for j in range(rng.randint(1, 4))]
        unreachable = rng.random() < 0.4
        lines = [
            "inputs: " + " ".join(f"i{j}" for j in range(n_in)),
            "outputs: " + " ".join(f"o{j}" for j in range(n_out)),
            "states: " + " ".join(states + ["u"] * unreachable + ["bad"]),
            "initial: s0",
            "violating: bad",
        ]
        for src in states + ["u"] * unreachable:
            for _ in range(rng.randint(1, 4)):
                dst = "bad" if rng.random() < 0.25 else rng.choice(states)
                lines.append(f"{src} -> {dst} : {_label(rng, n_in)}/{_label(rng, n_out)}")
        documents.append("\n".join(lines) + "\n")
    return documents


def _synthesis_text(document):
    a = normalize(parse_automaton(document))
    sets = compute_edit_sets(a)
    parts = [render_automaton(a)]
    for q in sorted(sets.safe_inputs):
        parts.append(f"in {q}: " + " ".join(sorted(map(str, sets.safe_inputs[q]))))
    for (q, x) in sorted(sets.safe_outputs, key=lambda k: (k[0], str(k[1]))):
        outputs = sets.safe_outputs[(q, x)]
        parts.append(f"out {q} {x}: " + " ".join(sorted(map(str, outputs))))
    for policy in ("lex", "random"):
        try:
            tables = build_edit_tables(sets, policy, 7)
        except NotEnforceableError as exc:
            parts.append(f"{policy}: {exc}")
            continue
        for q in sorted(sets.safe_inputs):
            parts.append(f"{policy} {q}: {tables[sets.safe_inputs[q]]}")
        for (q, x) in sorted(sets.safe_outputs, key=lambda k: (k[0], str(k[1]))):
            if x in sets.safe_inputs[q]:
                parts.append(f"{policy} {q} {x}: {tables[sets.safe_outputs[(q, x)]]}")
    return "\n".join(parts) + "\n"


def _expansion_text(alphabet, pattern):
    try:
        return " ".join(map(str, alphabet.expand_event_pattern(pattern)))
    except ValueError as exc:
        return f"error: {exc}"


def _patterns(n_in, n_out):
    for left in itertools.product("01-", repeat=n_in):
        for right in itertools.product("01-", repeat=n_out):
            yield "".join(left) + "/" + "".join(right)
    good_in, good_out = "-" * n_in, "-" * n_out
    yield good_in + good_out  # no separator
    yield good_in + "-/" + good_out
    yield good_in + "/" + good_out + "-"
    yield good_in[:-1] + "/" + good_out
    yield " " + good_in + " / " + good_out + " "
    yield "x" * n_in + "/" + good_out
    yield good_in + "/" + "2" * n_out
    yield "x" * (n_in + 1) + "/" + "2" * n_out
    yield good_in + "/" + good_out + "/"


def test_synthesis_is_pinned():
    digest = hashlib.sha256()
    for document in _raw_documents():
        digest.update(_synthesis_text(document).encode())
    assert digest.hexdigest() == SYNTHESIS_DIGEST


def test_pattern_expansion_is_pinned():
    digest = hashlib.sha256()
    for width in range(5):
        for n_in in range(width + 1):
            alphabet = Alphabet(
                tuple(f"i{j}" for j in range(n_in)),
                tuple(f"o{j}" for j in range(width - n_in)),
            )
            for pattern in _patterns(n_in, width - n_in):
                digest.update(f"{width} {n_in} {pattern!r} {_expansion_text(alphabet, pattern)}\n".encode())
    assert digest.hexdigest() == EXPANSION_DIGEST
