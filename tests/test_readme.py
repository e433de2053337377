"""Every `$ mdlgauge ...` example in README.md, run in-process through
cli.main and compared byte for byte with the output the README shows."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from mdlgauge import cli

ROOT = Path(__file__).parent.parent


def readme_examples() -> list[tuple[str, str, dict[str, str]]]:
    """(command line, expected stdout, expected --out files) per example.

    An example is a `$ ` line of a fenced block, with its `\\` continuation
    lines, and the output after it up to the next `$ ` line or the end of
    the block.  A `$ cat FILE` example gives the content of the FILE that
    the example before it wrote.
    """
    examples: list[tuple[str, str, dict[str, str]]] = []
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M):
        for chunk in re.split(r"^\$ ", block.replace("\\\n", " "), flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            output = output.rstrip("\n")
            output = output + "\n" if output else ""
            if command.startswith("cat "):
                examples[-1][2][command[len("cat "):]] = output
            else:
                examples.append((command, output, {}))
    return examples


EXAMPLES = readme_examples()


def test_readme_examples_are_found():
    commands = [text.split()[1] for text, _, _ in EXAMPLES]
    assert commands == ["tokenize", "mdl", "lgg", "match", "ted", "lipschitz", "tradeoff"]
    assert all(text.startswith("mdlgauge ") for text, _, _ in EXAMPLES)
    assert EXAMPLES[-1][2].keys() == {"points.csv"}


@pytest.mark.parametrize("text, expected, files", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_readme_example(text, expected, files, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    words = shlex.split(text)[1:]
    argv = [
        str(tmp_path / word) if before == "--out" else word
        for before, word in zip([None] + words, words)
    ]
    assert cli.main(argv) == 0
    out = capsysbinary.readouterr().out
    assert out == expected.encode()
    for name, content in files.items():
        assert (tmp_path / name).read_bytes() == content.encode()


def synopsis() -> list[str]:
    """The lines of the README's command synopsis, the fenced block under
    "## Command line", each with its continuation lines joined."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", text, re.S | re.M).group(1)
    return re.split(r"\n(?=mdlgauge )", block.replace("\n ", " ").strip())


SYNOPSIS = synopsis()


def test_synopsis_names_every_command():
    assert [line.split()[1] for line in SYNOPSIS] == list(cli._COMMANDS)


@pytest.mark.parametrize("line", SYNOPSIS, ids=[line.split()[1] for line in SYNOPSIS])
def test_synopsis_shows_the_parser_options(line):
    command = line.split()[1]
    parser = cli.build_parser([command])
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        option: action.required
        for action in commands.choices[command]._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    optional = set(re.findall(r"\[(--[\w-]+)", line))
    shown = set(re.findall(r"--[\w-]+", line))
    assert shown == declared.keys()
    assert optional == {option for option, required in declared.items() if not required}
