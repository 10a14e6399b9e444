"""Reidemeister moves on based chord diagrams, plus base-point rotation.

All position arithmetic is literal on 1..2n: adjacency never wraps
across the base point, so rotation is the only move that crosses it.
An R1 or R2 move inserts or removes blocks of two ends, and all four
shift the other ends past each block by one rule, _shift; the triple
move rewires three chords in place and touches no position.  Each kind
is defined once, in the table MOVE_KINDS.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from math import isqrt
from typing import Callable, NamedTuple

from .diagram import Chord, ChordDiagram


class GapOutOfRange(ValueError):
    """An insertion gap lies outside 0..2n."""


class NotAnR1Site(ValueError):
    """The chord is absent or its ends are not consecutive."""


class NotAnR2Site(ValueError):
    """The chord pair is absent or not adjacent."""


class NotAnR3Site(ValueError):
    """The triple is absent or not completely adjoint."""


CROSSED = "crossed"
NESTED = "nested"
PATTERNS = (CROSSED, NESTED)


@dataclass(frozen=True)
class Move:
    """One applicable move: a kind tag plus kind-specific parameters."""

    kind: str  # a key of MOVE_KINDS
    params: tuple  # one value per field of the kind, in order


def _shift(chords, cut1: int, cut2: int, step: int) -> list[Chord]:
    """The chords with each end moved by `step` once for every cut below
    it; a cut at the diagram's size lies below no end."""
    return [(p + step * ((p > cut1) + (p > cut2)),
             q + step * ((q > cut1) + (q > cut2))) for p, q in chords]


def r1_sites(d: ChordDiagram) -> list[Chord]:
    """Chords whose two ends are consecutive positions, in position order."""
    return [c for c in d.chords if c[1] - c[0] == 1]


def r1_remove(d: ChordDiagram, chord) -> ChordDiagram:
    try:
        chord = tuple(sorted(chord))
    except TypeError:
        raise NotAnR1Site(f"{chord!r} is not a chord") from None
    if chord not in d.chords or chord[1] - chord[0] != 1:
        raise NotAnR1Site(f"{chord} is not a removable small chord")
    rest = [c for c in d.chords if c != chord]
    return ChordDiagram(_shift(rest, chord[0], d.size, -2))


def r1_add(d: ChordDiagram, gap: int) -> ChordDiagram:
    """Insert a chord with consecutive ends after position `gap` (0..2n)."""
    if not 0 <= gap <= d.size:
        raise GapOutOfRange(f"gap {gap} outside 0..{d.size}")
    return ChordDiagram(_shift(d.chords, gap, d.size, 2)
                        + [(gap + 1, gap + 2)])


def r2_sites(d: ChordDiagram) -> list[tuple[Chord, Chord]]:
    """Unordered pairs of adjacent chords, crossed and nested alike,
    in order of the first chord.  The partner of (p, q) can only be the
    chord whose first end is p + 1, which is the next chord in order of
    first ends when there is one."""
    return [(c1, c2) for c1, c2 in zip(d.chords, d.chords[1:])
            if c2[0] == c1[0] + 1 and abs(c2[1] - c1[1]) == 1]


def r2_remove(d: ChordDiagram, pair) -> ChordDiagram:
    try:
        pair = ChordDiagram(pair)
    except (TypeError, ValueError):
        raise NotAnR2Site(f"{pair!r} is not a list of chords") from None
    chords = pair.chords
    if r2_sites(pair) != [chords] or not set(chords) <= set(d.chords):
        raise NotAnR2Site(f"{chords} is not an adjacent chord pair")
    (a, x), (_, y) = chords
    rest = [c for c in d.chords if c not in chords]
    return ChordDiagram(_shift(rest, a, min(x, y), -2))


def r2_add(d: ChordDiagram, gap1: int, gap2: int, pattern: str) -> ChordDiagram:
    """Insert an adjacent pair: a block of two ends after `gap1` and
    another after `gap2` (gap1 <= gap2), joined crossed or nested."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if not 0 <= gap1 <= gap2 <= d.size:
        raise GapOutOfRange(f"gaps ({gap1}, {gap2}) outside 0..{d.size}")
    a1, a2, b1, b2 = gap1 + 1, gap1 + 2, gap2 + 3, gap2 + 4
    pair = ([(a1, b1), (a2, b2)] if pattern == CROSSED
            else [(a1, b2), (a2, b1)])
    return ChordDiagram(_shift(d.chords, gap1, gap2, 2) + pair)


class _R2Insertions(Sequence):
    """The r2_add parameters (gap1, gap2, pattern) on a diagram with
    `size` ends, in listing order; the item at an index in range is
    computed from the index."""

    def __init__(self, size: int):
        self.size = size

    def __len__(self) -> int:
        return (self.size + 1) * (self.size + 2)

    def __getitem__(self, i: int) -> tuple[int, int, str]:
        if not 0 <= i < len(self):
            raise IndexError(i)
        # Counted from the last gap pair, pairs k with T(t) <= k < T(t+1),
        # T(t) = t(t+1)/2, are those whose gap1 is size - t.
        k = len(self) // 2 - 1 - i // 2
        t = (isqrt(8 * k + 1) - 1) // 2
        gap1, gap2 = self.size - t, self.size - k + t * (t + 1) // 2
        return gap1, gap2, PATTERNS[i % 2]

    def __iter__(self):
        return ((g1, g2, pattern) for g1 in range(self.size + 1)
                for g2 in range(g1, self.size + 1) for pattern in PATTERNS)


def _adjoint_anchors(chords3) -> tuple[int, int, int] | None:
    """The anchors of a completely adjoint triple; None if not one."""
    if len(chords3) != 3:
        return None
    (a, b), (c, d), (e, f) = chords3
    e0, e1, e2, e3, e4, e5 = sorted((a, b, c, d, e, f))
    if (e1 == e0 + 1 and e3 == e2 + 1 and e5 == e4 + 1
            and (e0, e1) not in chords3 and (e2, e3) not in chords3
            and (e4, e5) not in chords3):
        return e0, e2, e4
    return None


def r3_sites(d: ChordDiagram) -> list[tuple[int, int, int]]:
    """The anchors (r, s, t) of every completely adjoint triple, sorted:
    three chords whose six ends pair into adjacent positions (r, r+1),
    (s, s+1), (t, t+1), each pair spanning two chords.

    A triple is found once, from its lowest end r: its first two chords
    start at r and r + 1, so the second is the next chord in order of
    first ends, and its third chord owns a position next to the far end
    of the chord at r.  The third chord must also own a position next
    to the far end of the second: that end pairs with a neighbour, and
    were the neighbour the first chord's far end, the third chord's two
    ends would pair with each other.  So a candidate with neither end
    next to it is skipped before its six ends are sorted; one that
    passes still goes to _adjoint_anchors, the one test of a triple.
    """
    owner = [None] * (d.size + 2)
    for c in d.chords:
        owner[c[0]] = owner[c[1]] = c
    sites = []
    for first, second in zip(d.chords, d.chords[1:]):
        r, far = first
        if second[0] != r + 1:
            continue
        far2 = second[1]
        below, above = owner[far - 1], owner[far + 1]
        # one chord may own both neighbours of the far end
        for third in (below,) if below == above else (below, above):
            if third is None or (abs(third[0] - far2) != 1
                                 and abs(third[1] - far2) != 1):
                continue
            anchors = _adjoint_anchors((first, second, third))
            if anchors and anchors[0] == r:
                sites.append(anchors)
    sites.sort()
    return sites


def r3_apply(d: ChordDiagram, anchors) -> ChordDiagram:
    """Rewire the completely adjoint triple anchored at (r, s, t), given
    in any order, by swapping each anchor with its neighbour.

    An involution: positions stay put, only the three chords change.
    """
    try:
        anchors = tuple(sorted(anchors))
        swap = {a + i: a + 1 - i for a in anchors for i in (0, 1)}
    except TypeError:
        raise NotAnR3Site(f"{anchors!r} is not a list of positions") from None
    owners = {c for c in d.chords if c[0] in swap or c[1] in swap}
    if _adjoint_anchors(owners) != anchors:
        raise NotAnR3Site(f"no completely adjoint triple at {anchors}")
    return ChordDiagram((swap.get(p, p), swap.get(q, q)) for p, q in d.chords)


def rotate_basepoint(d: ChordDiagram, steps: int) -> ChordDiagram:
    """Move the base point past `steps` ends (negative steps go back).

    Position p maps to ((p - 1 - steps) mod 2n) + 1; linking between
    chords is unchanged, and the word shifts cyclically.
    """
    size = d.size
    if size == 0:
        return d
    return ChordDiagram(
        (((p - 1 - steps) % size) + 1, ((q - 1 - steps) % size) + 1)
        for p, q in d.chords)


class MoveKind(NamedTuple):
    """How one kind of move is listed, applied and written."""

    fields: tuple[str, ...]  # Move.params by name, in JSON and text
    sites: Callable[[ChordDiagram, int], Sequence[tuple]]  # (d, max_chords)
    apply: Callable[..., ChordDiagram]  # (d, *params)


# Every move kind, in the order enumerate_moves lists them: removals
# and triple rewirings first, then the insertions the chord budget
# allows, then one-step rotations (absent on the empty diagram).
MOVE_KINDS = {
    "r1_remove": MoveKind(
        ("chord",),
        lambda d, max_chords: [(c,) for c in r1_sites(d)],
        r1_remove),
    "r2_remove": MoveKind(
        ("chords",),
        lambda d, max_chords: [(pair,) for pair in r2_sites(d)],
        r2_remove),
    "r3": MoveKind(
        ("anchors",),
        lambda d, max_chords: [(anchors,) for anchors in r3_sites(d)],
        r3_apply),
    "r1_add": MoveKind(
        ("gap",),
        lambda d, max_chords: [(gap,) for gap in range(d.size + 1)]
        if d.n + 1 <= max_chords else [],
        r1_add),
    "r2_add": MoveKind(
        ("gap1", "gap2", "pattern"),
        lambda d, max_chords: _R2Insertions(d.size)
        if d.n + 2 <= max_chords else [],
        r2_add),
    "rotate": MoveKind(
        ("steps",),
        lambda d, max_chords: [(1,), (-1,)] if d.n else [],
        rotate_basepoint),
}


def _kind(name) -> MoveKind:
    try:
        return MOVE_KINDS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown move kind {name!r}") from None


class ApplicableMoves(Sequence):
    """The moves enumerate_moves lists, in its order, each built when
    indexed or reached by iteration: drawing one costs the site scans,
    not the O(n^2) list of R2 insertions.  `blocks` holds each kind's
    name and sites (its moves' params), in the order of MOVE_KINDS."""

    def __init__(self, d: ChordDiagram, max_chords: int):
        self.blocks = [(name, kind.sites(d, max_chords))
                       for name, kind in MOVE_KINDS.items()]

    def __len__(self) -> int:
        return sum(len(sites) for _, sites in self.blocks)

    def __getitem__(self, i: int | slice) -> Move | list[Move]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if i < 0:
            i += len(self)
        for name, sites in self.blocks:
            if 0 <= i < len(sites):
                return Move(name, sites[i])
            i -= len(sites)
        raise IndexError(i)

    def __iter__(self):
        return (Move(name, params) for name, sites in self.blocks
                for params in sites)


def enumerate_moves(d: ChordDiagram, max_chords: int) -> ApplicableMoves:
    """Every applicable move, kind by kind in the order of MOVE_KINDS,
    with insertions kept within `max_chords` chords."""
    return ApplicableMoves(d, max_chords)


def apply_move(d: ChordDiagram, move: Move) -> ChordDiagram:
    return _kind(move.kind).apply(d, *move.params)
