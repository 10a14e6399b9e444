"""The invariance theorem checked on every move of every small diagram.

    python tests/exhaustive_invariance.py MAX_CHORDS

For every rotation class of at most MAX_CHORDS chords, listed at base
points 0 and 1, every move of enumerate_moves(base, MAX_CHORDS + 1)
other than a rotation is applied, and the result's value at depth 3
must equal the base's.  A move site wraps past position 2n at most
once, and one step of the base point straightens it, so the two base
points reach every cyclic site.  Every other rotation of the class's
diagram must keep |x|, the absolute values of the coordinates at depth
3, and its reversal (p -> 2n + 1 - p) must have the value -x: a
rotation turns the word cyclically, which conjugates its value, and a
reversed word evaluates to the inverse.  Prints the counts; exit
status 0 when they are the ones pinned in PINNED and TURNS, which says
that no value changed, 1 otherwise.  The test suite runs it through 6
chords, CI through 7.
"""

import argparse
import sys
from typing import NamedTuple

from freeknot import (ChordDiagram, apply_move, enumerate_moves,
                      rotate_basepoint, rotation_classes)
from freeknot.parity import _levels

DEPTH = 3


class Count(NamedTuple):
    classes: int
    moves: int
    at_base_point_0: int
    changed: int  # moves whose result has another value than the base


class Turns(NamedTuple):
    turns: int  # rotations by 1..2n-1 steps and the reversal, per class
    changed: int  # rotations that change |x|, reversals without value -x


PINNED = {6: Count(1_034, 63_770, 32_086, 0),
          7: Count(10_783, 741_181, 373_054, 0)}
TURNS = {6: Turns(12_059, 0), 7: Turns(148_545, 0)}


def count(max_chords: int) -> Count:
    classes = moves = at_base_point_0 = changed = 0
    for n in range(max_chords + 1):
        for d in rotation_classes(n):
            classes += 1
            for steps in (0, 1):
                base = rotate_basepoint(d, steps)
                value = _x(base)
                for move in enumerate_moves(base, max_chords + 1):
                    if move.kind == "rotate":
                        continue
                    moves += 1
                    at_base_point_0 += steps == 0
                    moved = apply_move(base, move)
                    changed += _x(moved) != value
    return Count(classes, moves, at_base_point_0, changed)


def _x(d: ChordDiagram) -> tuple[int, ...]:
    return tuple(_levels(d.chords, DEPTH)[2])


def _abs(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(abs, x))


def turns(max_chords: int) -> Turns:
    turned = changed = 0
    for n in range(max_chords + 1):
        for d in rotation_classes(n):
            size, x = 2 * n, _x(d)
            reversal = ChordDiagram((size + 1 - q, size + 1 - p)
                                    for p, q in d.chords)
            rotated = [_x(rotate_basepoint(d, s)) for s in range(1, size)]
            turned += len(rotated) + 1
            changed += sum(_abs(y) != _abs(x) for y in rotated)
            changed += _x(reversal) != tuple(-v for v in x)
    return Turns(turned, changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("max_chords", type=int, choices=sorted(PINNED))
    max_chords = parser.parse_args(argv).max_chords
    found = count(max_chords), turns(max_chords)
    print(*found, sep="\n")
    return 0 if found == (PINNED[max_chords], TURNS[max_chords]) else 1


if __name__ == "__main__":
    sys.exit(main())
