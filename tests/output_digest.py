"""Print md5 digests of seeded `--json` output, one line per command:

    PYTHONPATH=src python tests/output_digest.py

Each digest covers the stdout of many in-process `freeknot` runs on
seeded random diagrams, each run's text followed by its exit code:

- invariant: `invariant --json --m 1 --m 2 --m 3 --m 4` on one
  diagram of each of 0, 12, ..., 600 chords;
- compare: `compare --mode free --json --m 1 --m 2 --m 3` on each
  diagram of 0..40 chords against a base-point rotation of itself and
  against another diagram of the same size;
- moves: `moves --json` on each diagram of 0..40 chords at three
  insertion caps, n, n + 1 and n + 2;
- scramble: `scramble --json --moves 50` with a seeded `--seed` on
  each diagram of 0..30 chords, insertions capped at n + 4;
- reduce: `reduce --json --max-states 500` on each diagram of 0..12
  chords, at the default chord budget and at n, and on scrambles of
  the empty diagram (0..30 moves, cap 6), which reduce to it, and on
  the two five-chord nontrivial free knots at chord budgets 5 and 6;
- selfcheck: `selfcheck --json --seed 7 --trials 3000`, which
  evaluates the relations and the conjugates letter by letter.

`tests/test_output_digest.py` pins these digests, so a change that
should leave the output byte-identical can be checked in one run.
Standard library only, apart from freeknot itself.
"""

import contextlib
import hashlib
import io
import random
import sys

from freeknot import ChordDiagram, random_diagram, scramble, serialize
from freeknot.cli import main
from freeknot.moves import rotate_basepoint

SEED = 20261020
# The two five-chord nontrivial free knots (`freeknot search`).
WITNESSES = ("1 2 1 3 4 2 4 5 3 5", "1 2 1 3 4 2 5 3 5 4")


def _run(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return f"{buffer.getvalue()}{code}\n".encode()


def _gauss(*diagrams) -> list[str]:
    return [a for d in diagrams for a in ("--gauss", serialize(d))]


def invariant_runs(rng: random.Random):
    depths = [a for m in "1234" for a in ("--m", m)]
    for n in range(0, 601, 12):
        yield ["invariant", "--json", *depths,
               *_gauss(random_diagram(n, rng))]


def compare_runs(rng: random.Random):
    depths = [a for m in "123" for a in ("--m", m)]
    for n in range(41):
        d = random_diagram(n, rng)
        turned = rotate_basepoint(d, rng.randrange(max(2 * n, 1)))
        for other in (turned, random_diagram(n, rng)):
            yield ["compare", "--mode", "free", "--json", *depths,
                   *_gauss(d, other)]


def moves_runs(rng: random.Random):
    for n in range(41):
        d = random_diagram(n, rng)
        for cap in (n, n + 1, n + 2):
            yield ["moves", "--json", "--max-chords", str(cap), *_gauss(d)]


def scramble_runs(rng: random.Random):
    for n in range(31):
        d = random_diagram(n, rng)
        yield ["scramble", "--json", "--moves", "50", "--max-chords",
               str(n + 4), "--seed", str(rng.randrange(2 ** 32)), *_gauss(d)]


def reduce_runs(rng: random.Random):
    for n in range(13):
        d = random_diagram(n, rng)
        for cap in ([], ["--max-chords", str(n)]):
            yield ["reduce", "--json", "--max-states", "500", *cap,
                   *_gauss(d)]
    for moves in range(31):
        d = scramble(ChordDiagram(), moves, rng.randrange(2 ** 32), 6)
        yield ["reduce", "--json", "--max-states", "500", *_gauss(d)]
    for code in WITNESSES:
        for cap in ("5", "6"):
            yield ["reduce", "--json", "--max-states", "500",
                   "--max-chords", cap, "--gauss", code]


def selfcheck_runs(rng: random.Random):
    yield ["selfcheck", "--json", "--seed", "7", "--trials", "3000"]


COMMANDS = {"invariant": invariant_runs, "compare": compare_runs,
            "moves": moves_runs, "scramble": scramble_runs,
            "reduce": reduce_runs, "selfcheck": selfcheck_runs}


def digests() -> dict[str, str]:
    """The md5 of each command's runs, keyed by its name."""
    out = {}
    for name, runs in COMMANDS.items():
        md5 = hashlib.md5()
        for argv in runs(random.Random(SEED)):
            md5.update(_run(argv))
        out[name] = md5.hexdigest()
    return out


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"{digest}  {name}")
    sys.exit(0)
