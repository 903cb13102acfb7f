"""The `$ ffequiv ...` examples of README.md, run through the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from ffequiv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(command line, expected stdout lines) for each `$ ffequiv` line of
    the README's sh blocks: its output is the lines up to the next command
    or the end of the block, blank lines at the end dropped."""
    out = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ ffequiv "):
                command, *lines = chunk.rstrip("\n").split("\n")
                out.append((command[2:], lines))
    return out


EXAMPLES = _examples()


def test_every_subcommand_has_an_example():
    assert {shlex.split(c)[1] for c, _ in EXAMPLES} == {"torsion", "factor", "split-check", "gassmann", "primes"}


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    if expected[:1] == ["..."]:
        # an elided block: the lines after the ellipsis end the output
        tail = expected[1:]
        assert out.splitlines()[-len(tail):] == tail
    else:
        assert out == "".join(line + "\n" for line in expected)
