"""syncguard: bi-directional runtime enforcement for synchronous programs.

Given a safety property as an automaton over Boolean input/output events,
this package decides whether the property can be enforced without delaying
or dropping events, repairs properties that cannot, and wraps a black-box
tick function so that every released input/output event keeps the run
safe: erroneous inputs are edited before the program sees them, erroneous
outputs before the environment does.
"""

from .analysis import (
    EnforceabilityReport,
    NotEnforceableError,
    check_enforceability,
    non_enforceability_witness,
    transform_non_enforceable,
)
from .automata import (
    EmptyPropertyError,
    InputAutomaton,
    ParseError,
    RawAutomaton,
    SafetyAutomaton,
    isomorphic,
    normalize,
    parse_automaton,
    project_inputs,
    render_automaton,
    render_input_automaton,
)
from .bits import Alphabet, BitVector, Event, Word, format_word
from .corpus import all_normalized_automata, random_enforceable_automata
from .editing import (
    LEXICOGRAPHIC,
    NEAREST,
    POLICIES,
    SEEDED_RANDOM,
    EditSets,
    build_edit_tables,
    canonical_policy,
    compute_edit_sets,
)
from .harness import ConstraintReport, check_constraints
from .oracle import oracle_enforce, validate_witness
from .programs import (
    ConstantProgram,
    MealyProgram,
    ScriptedProgram,
    SyntheticProgram,
    TickFunction,
    null_program,
    parse_program,
)
from .runtime import Enforcer, TickRecord, enforce_word
from .samples import (
    always_accepting,
    at_most_one_tick,
    dead_end_branch,
    dead_end_branch_repaired,
    mutual_exclusion,
)
from .sim import BenchResult, SimConfig, bench, random_inputs, simulate

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BenchResult",
    "BitVector",
    "ConstantProgram",
    "ConstraintReport",
    "EditSets",
    "EmptyPropertyError",
    "Enforcer",
    "EnforceabilityReport",
    "Event",
    "InputAutomaton",
    "LEXICOGRAPHIC",
    "MealyProgram",
    "NEAREST",
    "NotEnforceableError",
    "POLICIES",
    "ParseError",
    "RawAutomaton",
    "SEEDED_RANDOM",
    "SafetyAutomaton",
    "ScriptedProgram",
    "SimConfig",
    "SyntheticProgram",
    "TickFunction",
    "TickRecord",
    "Word",
    "all_normalized_automata",
    "always_accepting",
    "at_most_one_tick",
    "bench",
    "build_edit_tables",
    "canonical_policy",
    "check_constraints",
    "check_enforceability",
    "compute_edit_sets",
    "dead_end_branch",
    "dead_end_branch_repaired",
    "enforce_word",
    "format_word",
    "isomorphic",
    "mutual_exclusion",
    "non_enforceability_witness",
    "normalize",
    "null_program",
    "oracle_enforce",
    "parse_automaton",
    "parse_program",
    "project_inputs",
    "random_enforceable_automata",
    "random_inputs",
    "render_automaton",
    "render_input_automaton",
    "simulate",
    "transform_non_enforceable",
    "validate_witness",
]
