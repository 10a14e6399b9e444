"""Write the CLI regression table replayed by test_cli_golden.py.

Every case is one `freeknot` invocation (argv plus optional stdin),
stored with the stdout and exit code it produced.  The cases cover
every subcommand in text and --json form on a fixed set of Gauss codes,
free-mode compares of every base-point rotation of those codes at
depths 1..3, and free-mode compares of connected sums of the paper's
five-chord witnesses with filler blocks.  Regenerate only when a change
of output is intended:

    PYTHONPATH=src python tests/make_cli_golden.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from freeknot.cli import main

TABLE = Path(__file__).with_name("cli_golden.json")

WITNESSES = ["1 2 1 3 4 2 5 3 5 4", "1 2 1 3 4 2 4 5 3 5"]
CODES = [
    "1 1", "1 2 1 2", "1 2 2 1", "1 2 3 1 2 3", "1 2 1 3 2 3",
    "1 2 1 3 2 4 3 4", *WITNESSES, "1 2 3 4 1 5 3 5 4 2",
    "1 2 3 4 2 5 3 6 1 4 6 5",
]
M_ALL = ["--m", "1", "--m", "2", "--m", "3"]


def _random_code(n: int, rng: random.Random) -> str:
    seq = [label for label in range(1, n + 1) for _ in (0, 1)]
    rng.shuffle(seq)
    return _canonical(seq)


def _canonical(tokens) -> str:
    names: dict = {}
    return " ".join(str(names.setdefault(t, len(names) + 1)) for t in tokens)


def _rotate(code: str, steps: int) -> str:
    tokens = code.split()
    return _canonical(tokens[steps:] + tokens[:steps])


def _connected_sum(blocks) -> str:
    out: list[int] = []
    for block in blocks:
        offset = len(out) // 2
        out.extend(offset + int(t) for t in _canonical(block.split()).split())
    return _canonical(out)


def cases() -> list[tuple[list[str], str | None]]:
    rng = random.Random(20261017)
    codes = CODES + [_random_code(n, rng) for n in (6, 7, 8, 9)]
    out: list[tuple[list[str], str | None]] = []

    def both(argv, stdin=None):
        out.append((argv, stdin))
        out.append((argv[:1] + ["--json"] + argv[1:], stdin))

    for code in codes:
        both(["invariant", "--gauss", code, *M_ALL])
        both(["scramble", "--gauss", code, "--moves", "25", "--seed", "3"])
        both(["reduce", "--gauss", code, "--max-states", "300"])
    for code in codes[:7]:
        both(["moves", "--gauss", code])
    both(["moves", "--gauss", "1 2 1 2", "--max-chords", "2", "--list"])
    both(["invariant"], "1 1\n" + WITNESSES[0] + "\n")
    both(["invariant", "--gauss", "", "--gauss", "1 2 3 1 2 3"])

    for left, right in zip(codes, codes[1:] + codes[:1]):
        both(["compare", "--gauss", left, "--gauss", right, *M_ALL])
    both(["compare", "--mode", "free"], f"{WITNESSES[0]}\n{WITNESSES[1]}\n")
    for code in codes:
        for steps in range(1, len(code.split())):
            both(["compare", "--mode", "free", "--gauss", code,
                  "--gauss", _rotate(code, steps), *M_ALL])
    for n in (20, 30, 45):
        blocks = [rng.choice(WITNESSES) for _ in range(3 * n // 25)]
        size = 5 * len(blocks)
        while size < n:
            blocks.append(_random_code(rng.randint(3, 8), rng))
            size += len(blocks[-1].split()) // 2
        rng.shuffle(blocks)
        left = _connected_sum(blocks)
        swapped = list(blocks)
        swapped.remove(next(b for b in swapped if b in WITNESSES))
        swapped.append(_random_code(5, rng))
        rng.shuffle(swapped)
        rights = [_rotate(left, rng.randrange(1, 2 * n)),
                  _connected_sum(rng.sample(blocks, len(blocks))),
                  _connected_sum(swapped)]
        for right in rights:
            both(["compare", "--mode", "free", *M_ALL], f"{left}\n{right}\n")

    for max_chords in ("3", "4", "5"):
        both(["search", "--max-chords", max_chords])
    both(["search", "--max-chords", "5", "--m", "1", "--m", "2"])
    both(["search", "--max-chords", "5", "--max-states", "10"])
    for seed in ("11", "12"):
        both(["selfcheck", "--seed", seed, "--samples", "20",
              "--trials", "30"])
        both(["selfcheck", "--seed", seed, "--samples", "20",
              "--trials", "20", "--m", "1"])
    both(["invariant", "--gauss", "1 2 3"])
    both(["compare", "--gauss", "1 1"])
    both(["reduce", "--gauss", "1 2 2"])
    return out


def run(argv: list[str], stdin: str | None) -> tuple[str, int]:
    """One in-process invocation: (stdout, exit code)."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return buffer.getvalue(), code


def write_table() -> None:
    table = []
    for argv, stdin in cases():
        stdout, code = run(argv, stdin)
        table.append({"argv": argv, "stdin": stdin, "stdout": stdout,
                      "exit_code": code})
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} cases written to {TABLE}")


if __name__ == "__main__":
    write_table()
