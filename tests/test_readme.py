"""The README's Quick start examples, run as written.

The ```text block must be the property ``mutual_exclusion()`` prebuilds,
and the ```python block must run, with ``my_tick_function`` bound to a
program, and release what its comment says.
"""

import re
from pathlib import Path

from syncguard import ConstantProgram, enforce_word, mutual_exclusion, normalize, parse_automaton
from syncguard.bits import format_word

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language: str) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)
    assert len(blocks) == 1, f"expected one ```{language} block, found {len(blocks)}"
    return blocks[0]


def test_text_block_is_the_prebuilt_mutual_exclusion():
    assert normalize(parse_automaton(_block("text"))) == mutual_exclusion()


def test_python_block_runs_and_releases_what_its_comment_says():
    code = _block("python")
    alphabet = mutual_exclusion().alphabet
    namespace = {"my_tick_function": ConstantProgram(alphabet, alphabet.output_vector("1"))}
    exec(compile(code, "README.md", "exec"), namespace)

    comment = re.search(r"^enforce_word\(prop, observed\)\s+# -> (.+?)  \(", code, re.M)
    assert comment is not None and comment.group(1) == "10/1 10/1 01/0"
    assert format_word(enforce_word(namespace["prop"], namespace["observed"])) == comment.group(1)
    # the live tick repairs the input 11 the same way
    record = namespace["record"]
    assert record.input_edited and not record.output_edited
    assert str(record.released) == "10/1"
