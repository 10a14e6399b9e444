"""Run every `$ freeknot ...` example of README's "Command line" section,
and the code block of its "Library" section.

Where the README shows output under a command, stdout must match it
exactly; where it shows none, the command must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from freeknot import NormalForm
from freeknot.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    return README.split(f"\n## {title}\n")[1].split("\n## ")[0]


SECTION = section("Command line")
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


def test_library_example():
    code = re.search(r"```python\n(.*?)```", section("Library"), re.DOTALL)
    namespace = {}
    exec(code.group(1), namespace)
    assert namespace["value"] == NormalForm((8,), 0)
    assert namespace["answer"].witness == ()
