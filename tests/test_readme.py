"""The README's examples, run as written, and its CLI reference.

The ```text block must be the property ``mutual_exclusion()`` prebuilds,
and the ```python block must run, with ``my_tick_function`` bound to a
program, and release what its comment says.  The Quick start's ```sh
commands are rows of ``test_cli_cases.CASES``.  The CLI reference must
list each command with the arguments its parser takes.
"""

import re
from pathlib import Path

import pytest

from syncguard import ConstantProgram, enforce_word, mutual_exclusion, normalize, parse_automaton
from syncguard.bits import format_word
from syncguard.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README's text under ``## title``, up to the next ``##`` heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.S | re.M)
    assert match is not None, f"no '## {title}' section"
    return match.group(1)


def block(language: str, text: str = README) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 1, f"expected one ```{language} block, found {len(blocks)}"
    return blocks[0]


def test_text_block_is_the_prebuilt_mutual_exclusion():
    assert normalize(parse_automaton(block("text"))) == mutual_exclusion()


def test_python_block_runs_and_releases_what_its_comment_says():
    code = block("python")
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


def test_cli_reference_rows_are_the_parser_s_commands(capsys):
    """Each row of the CLI reference names its command's positionals and
    options as the command's ``--help`` usage does, and there is a row per
    command."""
    rows = re.findall(r"^\| `(\w+) ([^`]*)` \|", section("CLI reference"), re.M)
    positionals = {"AUT": "automaton", "PROG": "program"}
    for command, documented in rows:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert [positionals[word] for word in documented.split("[", 1)[0].split()] == (
            re.sub(r"\[[^\]]*\]", "", usage).split()[3:]
        ), command
        option = r"\[(--[a-z-]+)"
        assert sorted(re.findall(option, documented)) == sorted(re.findall(option, usage)), command
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert [command for command, _ in rows] == commands
