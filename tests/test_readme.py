"""Run every `$ freeknot ...` example of README's "Command line" section.

Where the README shows output under a command, stdout must match it
exactly; where it shows none, the command must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from freeknot.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SECTION = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
# a command, its backslash-continued lines, then the output lines up to
# a blank line, the next command or the end of the code block
EXAMPLE = re.compile(r"^\$ (freeknot (?:.*\\\n)*.*)\n((?:(?!\$ |```).+\n)*)",
                     re.MULTILINE)
EXAMPLES = [(re.sub(r"\s*\\\n\s*", " ", command), output)
            for command, output in EXAMPLE.findall(SECTION)]


def test_every_example_is_collected():
    assert len(EXAMPLES) == SECTION.count("\n$ freeknot ") > 0


@pytest.mark.parametrize("command, output", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_example(capsys, command, output):
    code = main(shlex.split(command)[1:])
    stdout = capsys.readouterr().out
    if output:
        assert stdout == output
    else:
        assert code == 0
