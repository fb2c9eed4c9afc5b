"""The automata behind the recorded golden files.

``tests/golden/`` holds two enforceable automata (``mutex.aut``: the
mutual-exclusion sample; ``random19.aut``: entry 19 of the seeded random
family, which has two accepting locations and edits both inputs and
outputs), and for each of them the ``project`` output, and the ``explain``
output and a 200-tick ``simulate`` trace under every policy, all with
``--seed 3``.  A third automaton, ``dead_end.aut`` (the dead-end branch
sample, not enforceable), has its ``check`` report with the witness line
(exit 1) and its ``transform`` output.  They are the reference output:
the ``golden-*`` rows of ``test_cli_cases.CASES`` require each to be
reproduced byte for byte, in-process and in fresh processes under two
hash seeds.  A change to what the enforcer decides or prints shows up
there as a byte difference, so regenerate them only together with an
intended change of output.
"""

from pathlib import Path

from syncguard import (
    dead_end_branch,
    dead_end_branch_repaired,
    isomorphic,
    mutual_exclusion,
    normalize,
    parse_automaton,
    render_automaton,
)

GOLDEN = Path(__file__).parent / "golden"


def test_golden_automata_are_the_named_ones(random_family):
    assert (GOLDEN / "mutex.aut").read_text() == render_automaton(mutual_exclusion())
    assert (GOLDEN / "random19.aut").read_text() == render_automaton(random_family[19])
    assert (GOLDEN / "dead_end.aut").read_text() == render_automaton(dead_end_branch())
    repaired = normalize(parse_automaton((GOLDEN / "transform-dead_end.aut").read_text()))
    assert isomorphic(repaired, dead_end_branch_repaired())
