"""Check the witness counts of an exhaustive search at m = 1, 2, 3.

    freeknot search --json --max-chords 8 --m 1 --m 2 --m 3 > census8.json
    python tests/check_census.py 8 census8.json

The search must be complete, must examine every rotation class of at
most N chords, and must find the pinned number of witnesses at each
depth, in all and at exactly N chords.  Standard library only; exit
status 0 when every count matches, 1 otherwise.
"""

import json
import sys


# N -> (rotation classes of 1..N chords, witnesses per m on at most N
# chords, witnesses per m on exactly N chords)
TABLES = {
    8: (137854, {1: 16200, 2: 16721, 3: 16721},
        {1: 15344, 2: 15848, 3: 15848}),
    9: (2053805, {1: 319356, 2: 337985, 3: 338143},
        {1: 303156, 2: 321264, 3: 321422}),
}


def check(n: int, payload: dict) -> list[str]:
    """The reasons the payload of `search --json --max-chords n` differs
    from the pinned table; empty when it matches."""
    (examined, at_most, exactly), per_m = TABLES[n], payload["per_m"]
    wrong = []
    for entry in per_m:
        m, witnesses = entry["m"], entry["witnesses"]
        top = sum(len(code.split()) == 2 * n for code in witnesses)
        print(f"m={m}: {len(witnesses)} witnesses, {top} at {n} chords")
        if entry["complete"] is not True:
            wrong.append(f"m={m}: complete is {entry['complete']!r}")
        if entry["examined"] != examined:
            wrong.append(f"m={m}: examined {entry['examined']}")
        if len(witnesses) != at_most.get(m):
            wrong.append(f"m={m}: {len(witnesses)} witnesses")
        if top != exactly.get(m):
            wrong.append(f"m={m}: {top} witnesses at {n} chords")
    if [entry["m"] for entry in per_m] != [1, 2, 3]:
        wrong.append(f"depths {[entry['m'] for entry in per_m]}")
    return wrong


def main(argv: list[str]) -> int:
    n, path = int(argv[0]), argv[1]
    with open(path) as f:
        wrong = check(n, json.load(f))
    for reason in wrong:
        print(f"error: {reason}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
