"""Reidemeister moves on based chord diagrams, plus base-point rotation.

All position arithmetic is literal on 1..2n: adjacency never wraps
across the base point, so rotation is the only move that crosses it.
Removals and insertions renumber the remaining positions in order; the
triple move rewires three chords in place and touches no position.
Each kind is defined once, in the table MOVE_KINDS.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

from .diagram import Chord, ChordDiagram, renumber


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


@dataclass(frozen=True, order=True)
class Move:
    """One applicable move: a kind tag plus kind-specific parameters."""

    kind: str  # a key of MOVE_KINDS
    params: tuple  # one value per field of the kind, in order


def r1_sites(d: ChordDiagram) -> list[Chord]:
    """Chords whose two ends are consecutive positions, in position order."""
    return [c for c in d.chords if c[1] - c[0] == 1]


def r1_remove(d: ChordDiagram, chord) -> ChordDiagram:
    chord = tuple(sorted(chord))
    if chord not in set(d.chords) or chord[1] - chord[0] != 1:
        raise NotAnR1Site(f"{chord} is not a removable small chord")
    return renumber([c for c in d.chords if c != chord])


def r1_add(d: ChordDiagram, gap: int) -> ChordDiagram:
    """Insert a chord with consecutive ends after position `gap` (0..2n)."""
    if not 0 <= gap <= d.size:
        raise GapOutOfRange(f"gap {gap} outside 0..{d.size}")
    shifted = [tuple(e + 2 if e > gap else e for e in c) for c in d.chords]
    shifted.append((gap + 1, gap + 2))
    return ChordDiagram(shifted)


def _adjacent(c1: Chord, c2: Chord) -> bool:
    return abs(c1[0] - c2[0]) == 1 and abs(c1[1] - c2[1]) == 1


def r2_sites(d: ChordDiagram) -> list[tuple[Chord, Chord]]:
    """Unordered pairs of adjacent chords, crossed and nested alike."""
    return [(c1, c2) for c1, c2 in combinations(d.chords, 2)
            if _adjacent(c1, c2)]


def r2_remove(d: ChordDiagram, pair) -> ChordDiagram:
    c1, c2 = ChordDiagram(pair).chords
    present = set(d.chords)
    if c1 not in present or c2 not in present or not _adjacent(c1, c2):
        raise NotAnR2Site(f"{(c1, c2)} is not an adjacent chord pair")
    return renumber([c for c in d.chords if c not in (c1, c2)])


def r2_add(d: ChordDiagram, gap1: int, gap2: int, pattern: str) -> ChordDiagram:
    """Insert an adjacent pair: a block of two ends after `gap1` and
    another after `gap2` (gap1 <= gap2), joined crossed or nested."""
    pair = _r2_pair(gap1, gap2, pattern)
    if not 0 <= gap1 <= gap2 <= d.size:
        raise GapOutOfRange(f"gaps ({gap1}, {gap2}) outside 0..{d.size}")
    shifted = [tuple(e + 2 * ((e > gap1) + (e > gap2)) for e in c)
               for c in d.chords]
    return ChordDiagram(shifted + list(pair))


def _r2_pair(gap1: int, gap2: int, pattern: str) -> tuple[Chord, Chord]:
    """The two chords r2_add(d, gap1, gap2, pattern) inserts, as
    positions of the result."""
    if pattern not in (CROSSED, NESTED):
        raise ValueError(f"unknown pattern {pattern!r}")
    a1, a2, b1, b2 = gap1 + 1, gap1 + 2, gap2 + 3, gap2 + 4
    return ((a1, b1), (a2, b2)) if pattern == CROSSED else ((a1, b2), (a2, b1))


class AdjointTriple(NamedTuple):
    """Three chords whose six ends pair into adjacent positions
    (r, r+1), (s, s+1), (t, t+1), each pair spanning two chords."""

    chords: tuple[Chord, Chord, Chord]
    anchors: tuple[int, int, int]


def _adjoint_anchors(chords3) -> tuple[int, int, int] | None:
    ends = sorted(e for c in chords3 for e in c)
    if len(set(ends)) != 6:
        return None
    owner = {e: c for c in chords3 for e in c}
    anchors = []
    for i in (0, 2, 4):
        lo, hi = ends[i], ends[i + 1]
        if hi != lo + 1 or owner[lo] == owner[hi]:
            return None
        anchors.append(lo)
    return tuple(anchors)


def r3_sites(d: ChordDiagram) -> list[AdjointTriple]:
    """Every completely adjoint triple, ordered by anchors."""
    sites = []
    for chords3 in combinations(d.chords, 3):
        anchors = _adjoint_anchors(chords3)
        if anchors is not None:
            sites.append(AdjointTriple(chords3, anchors))
    sites.sort(key=lambda t: t.anchors)
    return sites


def adjoint_triple(d: ChordDiagram, anchors) -> AdjointTriple:
    """The diagram's adjoint triple anchored at (r, s, t), if any."""
    anchors = tuple(sorted(anchors))
    owner = d.end_map()
    try:
        chords3 = tuple(sorted(
            {owner[a] for a in anchors} | {owner[a + 1] for a in anchors}))
    except KeyError:
        raise NotAnR3Site(f"no chord ends at anchors {anchors}") from None
    if len(chords3) != 3 or _adjoint_anchors(chords3) != anchors:
        raise NotAnR3Site(f"no completely adjoint triple at {anchors}")
    return AdjointTriple(chords3, anchors)


def r3_apply(d: ChordDiagram, triple: AdjointTriple) -> ChordDiagram:
    """Rewire the triple by swapping each anchor with its neighbour.

    An involution: positions stay put, only the three chords change.
    """
    present = set(d.chords)
    if not all(c in present for c in triple.chords):
        raise NotAnR3Site(f"triple {triple.chords} not in diagram")
    if _adjoint_anchors(triple.chords) != tuple(triple.anchors):
        raise NotAnR3Site(f"{triple.chords} is not completely adjoint")
    swap = {}
    for a in triple.anchors:
        swap[a] = a + 1
        swap[a + 1] = a
    replaced = set(triple.chords)
    new_chords = [c for c in d.chords if c not in replaced]
    new_chords += [(swap[p], swap[q]) for p, q in triple.chords]
    return ChordDiagram(new_chords)


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
    """How one kind of move is listed, applied, undone and written."""

    fields: tuple[str, ...]  # Move.params by name, in JSON and text
    sites: Callable[[ChordDiagram, int], list[tuple]]  # (d, max_chords)
    apply: Callable[..., ChordDiagram]  # (d, *params)
    inverse: Callable[..., Move]  # (*params), applied to the result


def _r2_remove_inverse(pair) -> Move:
    (p1, q1), (p2, q2) = ChordDiagram(pair).chords
    return Move("r2_add", (p1 - 1, min(q1, q2) - 3,
                           CROSSED if q1 < q2 else NESTED))


# Every move kind, in the order enumerate_moves lists them: removals
# and triple rewirings first, then the insertions the chord budget
# allows, then one-step rotations (absent on the empty diagram).
MOVE_KINDS = {
    "r1_remove": MoveKind(
        ("chord",),
        lambda d, max_chords: [(c,) for c in r1_sites(d)],
        r1_remove,
        lambda chord: Move("r1_add", (min(chord) - 1,))),
    "r2_remove": MoveKind(
        ("chords",),
        lambda d, max_chords: [(pair,) for pair in r2_sites(d)],
        r2_remove,
        _r2_remove_inverse),
    "r3": MoveKind(
        ("anchors",),
        lambda d, max_chords: [(t.anchors,) for t in r3_sites(d)],
        lambda d, anchors: r3_apply(d, adjoint_triple(d, anchors)),
        lambda anchors: Move("r3", (anchors,))),
    "r1_add": MoveKind(
        ("gap",),
        lambda d, max_chords: [(gap,) for gap in range(d.size + 1)]
        if d.n + 1 <= max_chords else [],
        r1_add,
        lambda gap: Move("r1_remove", ((gap + 1, gap + 2),))),
    "r2_add": MoveKind(
        ("gap1", "gap2", "pattern"),
        lambda d, max_chords: [
            (g1, g2, pattern) for g1 in range(d.size + 1)
            for g2 in range(g1, d.size + 1) for pattern in (CROSSED, NESTED)]
        if d.n + 2 <= max_chords else [],
        r2_add,
        lambda gap1, gap2, pattern:
        Move("r2_remove", (_r2_pair(gap1, gap2, pattern),))),
    "rotate": MoveKind(
        ("steps",),
        lambda d, max_chords: [(1,), (-1,)] if d.n else [],
        rotate_basepoint,
        lambda steps: Move("rotate", (-steps,))),
}


def _kind(name) -> MoveKind:
    try:
        return MOVE_KINDS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown move kind {name!r}") from None


def enumerate_moves(d: ChordDiagram, max_chords: int) -> list[Move]:
    """Every applicable move, kind by kind in the order of MOVE_KINDS,
    with insertions kept within `max_chords` chords."""
    return [Move(name, params) for name, kind in MOVE_KINDS.items()
            for params in kind.sites(d, max_chords)]


def apply_move(d: ChordDiagram, move: Move) -> ChordDiagram:
    return _kind(move.kind).apply(d, *move.params)


def inverse_move(d: ChordDiagram, move: Move) -> Move:
    """The move undoing `move`, to be applied to apply_move(d, move)."""
    return _kind(move.kind).inverse(*move.params)


def _named_params(move: Move):
    return zip(_kind(move.kind).fields, move.params, strict=True)


def _nested(value, inner: type, outer: type):
    """`value` with every `inner` sequence, at any depth, made `outer`."""
    if isinstance(value, inner):
        return outer([_nested(v, inner, outer) for v in value])
    return value


def _text_value(value) -> str:
    if not isinstance(value, tuple):
        return str(value)
    if isinstance(value[0], tuple):
        return ",".join(map(_text_value, value))
    return f"({','.join(map(str, value))})"


def move_to_json(move: Move) -> dict:
    return {"kind": move.kind, **{
        f: _nested(v, tuple, list) for f, v in _named_params(move)}}


def move_from_json(obj: dict) -> Move:
    kind = obj.get("kind")
    fields = _kind(kind).fields
    missing = [f for f in fields if f not in obj]
    if missing:
        raise ValueError(f"{kind} move lacks field {missing[0]!r}")
    return Move(kind, tuple(_nested(obj[f], list, tuple) for f in fields))


def move_to_text(move: Move) -> str:
    """The kind, then field=value for each parameter.

    >>> move_to_text(Move("r2_remove", (((1, 4), (2, 5)),)))
    'r2_remove chords=(1,4),(2,5)'
    """
    return " ".join([move.kind] + [
        f"{f}={_text_value(v)}" for f, v in _named_params(move)])
