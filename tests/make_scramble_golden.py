"""Write the seeded scramble regression table replayed by test_explore.py.

Every case is one `scramble(parse_gauss_code(code), moves, seed,
size_cap)` call, stored with the canonical Gauss code of its result.
The inputs range from the empty diagram to 20 chords; the caps range
from the input's own size (no insertion at first), through one chord
more (R1 insertions but no R2 insertion) to n+4 and 2n.  Regenerate only
when a change of result is intended:

    PYTHONPATH=src python tests/make_scramble_golden.py
"""

import json
import random
from pathlib import Path

from freeknot import parse_gauss_code, scramble, serialize

TABLE = Path(__file__).with_name("scramble_golden.json")

CODES = ["", "1 1", "1 2 1 2", "1 2 2 1", "1 2 3 1 2 3", "1 2 1 3 2 3",
         "1 2 1 3 4 2 5 3 5 4", "1 2 3 4 2 5 3 6 1 4 6 5"]


def _random_code(n: int, rng: random.Random) -> str:
    seq = [label for label in range(1, n + 1) for _ in (0, 1)]
    rng.shuffle(seq)
    return " ".join(map(str, seq))


def cases() -> list[tuple[str, int, int, int]]:
    """(code, moves, seed, size_cap) for every case of the table."""
    rng = random.Random(20261018)
    out = []
    for code in CODES:
        n = len(code.split()) // 2
        for extra in (0, 1, 2, 4):
            out.append((code, 30, rng.randrange(2 ** 32), n + extra))
    for n in (8, 12, 20, 20):
        code = _random_code(n, rng)
        for size_cap, moves in ((n, 40), (n + 1, 40), (n + 4, 50)):
            out.append((code, moves, rng.randrange(2 ** 32), size_cap))
    out.append(("", 0, 1, 0))
    out.append(("", 20, 2, 0))
    out.append(("1 2 1 2", 60, 3, 4))
    out.append((_random_code(20, rng), 50, rng.randrange(2 ** 32), 24))
    return out


def run(code: str, moves: int, seed: int, size_cap: int) -> str:
    return serialize(scramble(parse_gauss_code(code), moves, seed, size_cap))


def write_table() -> None:
    table = [{"code": code, "moves": moves, "seed": seed,
              "size_cap": size_cap, "result": run(code, moves, seed, size_cap)}
             for code, moves, seed, size_cap in cases()]
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} cases written to {TABLE}")


if __name__ == "__main__":
    write_table()
