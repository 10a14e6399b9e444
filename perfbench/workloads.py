"""Seeded inputs for the four workloads.

A workload is a list of rounds and a round is a short list of
operations; one operation is one call of freeknot.cli.main(argv) with
the given standard input.  Rounds mix the input sizes in fixed
proportions, so a run that executes whole rounds always measures the
same mix.  Inputs are built here, from the seed alone, with the
reference model; the program only ever sees Gauss codes and argv.
"""

import random
from dataclasses import dataclass, field

import reference

M_ALL = ["--m", "1", "--m", "2", "--m", "3"]


@dataclass(frozen=True)
class Op:
    kind: str  # invariant | compare | scramble | reduce | moves | search
    argv: list[str]
    stdin: str = ""
    data: dict = field(default_factory=dict)


def _random_labels(n: int, rng: random.Random) -> list[int]:
    """A uniformly random diagram on n chords, canonically labelled."""
    seq = [label for label in range(1, n + 1) for _ in (0, 1)]
    rng.shuffle(seq)
    return reference.canonical(seq)


def _insertion(labels, rng: random.Random) -> list:
    """One seeded R1 or R2 insertion, which leaves the invariant alone."""
    size = len(labels)
    if rng.random() < 0.5:
        move = {"kind": "r1_add", "gap": rng.randint(0, size)}
    else:
        g1 = rng.randint(0, size)
        move = {"kind": "r2_add", "gap1": g1, "gap2": rng.randint(g1, size),
                "pattern": rng.choice(["crossed", "nested"])}
    return reference.canonical(reference.apply(labels, move))


def invariant_large(rng: random.Random, rounds: int) -> list[list[Op]]:
    """Large random diagrams and their twins, each twin one insertion
    away from its original."""
    out = []
    for _ in range(rounds):
        ops = []
        for n in (150, 300, 600):
            base = _random_labels(n, rng)
            twin = _insertion(base, rng)
            argv = ["invariant", "--json", *M_ALL]
            ops.append(Op("invariant", argv, reference.code(base),
                          {"labels": base, "same_as": base}))
            ops.append(Op("invariant", argv, reference.code(twin),
                          {"labels": twin, "same_as": base}))
        out.append(ops)
    return out


def _deep_block(rng: random.Random) -> str:
    """A random 12-16 chord diagram whose value at m=3 has a nonzero
    second and a zero third coordinate, so that the conjugacy classes of
    the assemblies have the same size in every round."""
    while True:
        labels = _random_labels(rng.randint(12, 16), rng)
        x = reference.value(labels, 3)[0]
        if x[1] and not x[2]:
            return reference.code(labels)


def _witness_block(rng: random.Random) -> str:
    return sorted(reference.WITNESSES_5)[rng.randrange(2)]


def _filler_block(rng: random.Random) -> str:
    return reference.code(_random_labels(rng.randint(3, 8), rng))


def free_compare(rng: random.Random, rounds: int) -> list[list[Op]]:
    """Connected sums of 5-chord witnesses (about 3/5 of the chords),
    one deep block and random filler, compared in free mode with a
    seeded rotation of themselves (same class), with a reshuffle of
    their blocks, and with a reshuffle in which one witness became a
    random 5-chord block.  Every witness adds 8 to the first
    coordinate, so the values have large coordinates."""
    out = []
    argv = ["compare", "--mode", "free", "--json", *M_ALL]
    for _ in range(rounds):
        ops = []
        for n in (60, 100, 150):
            blocks = [_deep_block(rng)]
            blocks += [_witness_block(rng) for _ in range(3 * n // 25)]
            size = sum(len(b.split()) for b in blocks) // 2
            while size < n:
                blocks.append(_filler_block(rng))
                size += len(blocks[-1].split()) // 2
            rng.shuffle(blocks)
            left = reference.concat(blocks)
            s = rng.randrange(1, len(left))
            rights = [(reference.canonical(left[s:] + left[:s]), True)]
            reshuffled = rng.sample(blocks, len(blocks))
            rights.append((reference.concat(reshuffled), False))
            swapped = list(blocks)
            swapped.remove(next(b for b in swapped
                                if b in reference.WITNESSES_5))
            swapped.append(reference.code(_random_labels(5, rng)))
            rng.shuffle(swapped)
            rights.append((reference.concat(swapped), False))
            for right, rotation in rights:
                stdin = f"{reference.code(left)}\n{reference.code(right)}"
                ops.append(Op("compare", argv, stdin,
                              {"left": left, "right": right,
                               "rotation": rotation}))
        out.append(ops)
    return out


def _scrambled_unknot(rng: random.Random) -> list:
    """A 6-chord diagram built from "1 1" by R2, R1 and R2 insertions at
    seeded gaps, so it reduces to the empty diagram."""
    labels = [1, 1]
    for kind in ("r2_add", "r1_add", "r2_add"):
        size = len(labels)
        if kind == "r1_add":
            move = {"kind": kind, "gap": rng.randint(0, size)}
        else:
            g1 = rng.randint(0, size)
            move = {"kind": kind, "gap1": g1, "gap2": rng.randint(g1, size),
                    "pattern": rng.choice(["crossed", "nested"])}
        labels = reference.apply(labels, move)
    return reference.canonical(labels)


def move_walk(rng: random.Random, rounds: int) -> list[list[Op]]:
    """The write side: scrambles, capped reductions and move listings.

    Sizes are fixed per slot so that every round costs about the same.
    The listings are the fastest operations and the two 20-chord
    scrambles the slowest, so the median falls among the reductions
    and the tail among those scrambles.
    """
    out = []
    for _ in range(rounds):
        ops = []
        for n in (14, 20, 20):
            labels = _random_labels(n, rng)
            seed = rng.randrange(2 ** 32)
            argv = ["scramble", "--json", "--moves", "50", "--seed", str(seed),
                    "--max-chords", str(n + 4)]
            ops.append(Op("scramble", argv, reference.code(labels),
                          {"labels": labels, "cap": n + 4}))
        for _ in range(5):
            labels = _scrambled_unknot(rng)
            argv = ["reduce", "--json", "--max-states", "1000"]
            ops.append(Op("reduce", argv, reference.code(labels),
                          {"labels": labels}))
        for _ in range(3):
            labels = _random_labels(26, rng)
            ops.append(Op("moves", ["moves", "--json"], reference.code(labels),
                          {"labels": labels}))
        rng.shuffle(ops)
        out.append(ops)
    return out


# Witness counts measured on the commit that introduced this benchmark;
# a regression table, keyed by (max_chords, m).
CENSUS_COUNTS = {(6, 1): 46, (6, 2): 46, (6, 3): 46, (7, 1): 856}


def _search(c: int, m: int) -> Op:
    return Op("search", ["search", "--json", "--max-chords", str(c),
                         "--m", str(m)], "", {"max_chords": c, "m": m})


def census(rng: random.Random, rounds: int) -> list[list[Op]]:
    """The exhaustive scan up to 6 chords; the seed is not used.

    The m=3 scan, the slowest, runs three times a round, so that it
    holds both the median and more than ten samples beyond the tail
    percentile of a run.
    """
    return [[_search(6, 1), _search(6, 2)] + [_search(6, 3)] * 3
            for _ in range(rounds)]


WORKLOADS = {
    "invariant_large": (invariant_large, 24),
    "free_compare": (free_compare, 24),
    "move_walk": (move_walk, 24),
    "census": (census, 12),
}

# Operations run once after the timed rounds: checked, not timed.  The
# 7-chord scan takes about 10 s in one call, too long for a host whose
# speed drifts on that time scale to be timed steadily.
FINAL = {"census": [_search(7, 1)]}
