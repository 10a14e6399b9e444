"""Replay the pinned CLI regression table byte for byte.

The table (cli_golden.json) holds stdout and exit code of every
subcommand, text and --json, on a fixed set of inputs; see
make_cli_golden.py for the cases and how to regenerate them.
"""

import json

import pytest

from make_cli_golden import TABLE, run

CASES = json.loads(TABLE.read_text())
COMMANDS = sorted({case["argv"][0] for case in CASES})


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_table(command):
    cases = [case for case in CASES if case["argv"][0] == command]
    changed = [case["argv"] for case in cases
               if run(case["argv"], case["stdin"])
               != (case["stdout"], case["exit_code"])]
    assert changed == [], f"{len(changed)}/{len(cases)} outputs changed"
