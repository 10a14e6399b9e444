"""Chord diagrams with a base point: Gauss codes and linking.

A diagram on n chords is a partition of the positions 1..2n into n
unordered pairs.  The base point sits just before position 1 and
nothing wraps across it.  Two chords are linked exactly when their
endpoints alternate along the position line, which the sign of a
four-difference product detects.  `linked` and `link_count` state
that pairwise definition; the parity filtration reads the same linking
parity from rank gaps instead, and the tests compare the two.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

Chord = tuple[int, int]


class LabelCountError(ValueError):
    """A Gauss-code label occurs some number of times other than two."""


class SharedEndpointError(ValueError):
    """Two chords handed to a pairwise test share an endpoint."""


class ChordDiagram:
    """An immutable chord diagram.

    Chords are normalised to (smaller end, larger end) and listed in
    increasing order of their smaller end.  Instances hash and compare
    by value, so they can serve directly as search states.

    >>> ChordDiagram([(3, 1), (4, 2)]).chords
    ((1, 3), (2, 4))
    """

    __slots__ = ("chords",)

    def __init__(self, chords: Iterable[tuple[int, int]] = ()):
        self.chords: tuple[Chord, ...] = tuple(
            sorted((p, q) if p <= q else (q, p) for p, q in chords))

    @property
    def n(self) -> int:
        return len(self.chords)

    @property
    def size(self) -> int:
        """Number of chord ends, i.e. 2n."""
        return 2 * len(self.chords)

    def end_map(self) -> dict[int, Chord]:
        """Map every position to the chord it belongs to."""
        return {e: c for c in self.chords for e in c}

    def to_json(self) -> dict:
        return {"n": self.n, "chords": [list(c) for c in self.chords]}

    @classmethod
    def from_json(cls, obj: dict) -> "ChordDiagram":
        chords = json_object(obj, "chord diagram").get("chords")
        if type(chords) is not list or not all(
                type(c) is list and len(c) == 2
                and all(type(e) is int for e in c) for c in chords):
            raise ValueError(
                f"chords must be a list of 2-int pairs, got {chords!r}")
        d = cls(chords)
        n = obj.get("n", d.n)
        if type(n) is not int or n != d.n:
            raise ValueError(f"n must be {d.n}, the chord count, got {n!r}")
        violations = validate(d)
        if violations:
            v = violations[0]
            raise ValueError(f"invalid diagram: {v.kind} at {v.value}")
        return d

    def __eq__(self, other) -> bool:
        return isinstance(other, ChordDiagram) and self.chords == other.chords

    def __hash__(self) -> int:
        return hash(self.chords)

    def __repr__(self) -> str:
        return f"ChordDiagram({list(self.chords)!r})"


def json_object(obj, what: str) -> dict:
    """`obj` if it is a JSON object (a dict), else a ValueError."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def parse_gauss_code(text: str) -> ChordDiagram:
    """Parse a whitespace-separated Gauss code.

    Each label must occur exactly twice; the two positions of a label
    form one chord.  Labels are arbitrary tokens compared only for
    equality, and the empty string parses to the empty diagram.

    >>> parse_gauss_code("1 2 1 2").chords
    ((1, 3), (2, 4))
    """
    ends: dict[str, list[int]] = {}
    for position, label in enumerate(text.split(), start=1):
        ends.setdefault(label, []).append(position)
    chords = []
    for label, positions in ends.items():
        if len(positions) != 2:
            raise LabelCountError(
                f"label {label!r} occurs {len(positions)} times, expected 2")
        chords.append((positions[0], positions[1]))
    return ChordDiagram(chords)


def renumber(chords: list[Chord]) -> ChordDiagram:
    """The diagram of `chords` with their ends renumbered 1..2n in order."""
    rank = {e: i for i, e in
            enumerate(sorted(e for c in chords for e in c), start=1)}
    return ChordDiagram((rank[p], rank[q]) for p, q in chords)


def first_appearance(items: Iterable) -> list[int]:
    """Number the distinct items 1, 2, ... in order of first appearance.

    >>> first_appearance("abacb")
    [1, 2, 1, 3, 2]
    """
    labels: dict = {}
    return [labels.setdefault(item, len(labels) + 1) for item in items]


def serialize(d: ChordDiagram) -> str:
    """Render the canonical Gauss code of a valid diagram.

    Labels are "1", "2", ... in order of first appearance along the
    positions, so the output is a fixed representative of its input:
    parse_gauss_code(serialize(d)) == d.  Chords are listed by their
    first end, so that order is the order of d.chords.

    >>> serialize(ChordDiagram([(1, 6), (2, 3), (4, 5)]))
    '1 2 2 3 3 1'
    """
    labels = [""] * d.size
    for label, (p, q) in enumerate(d.chords, start=1):
        labels[p - 1] = labels[q - 1] = str(label)
    return " ".join(labels)


def linked(c1: Chord, c2: Chord) -> bool:
    """Are two chords of one diagram linked?

    True exactly when the endpoints alternate along the line, i.e. when
    (p1-p2)(p1-q2)(q1-p2)(q1-q2) < 0.  Symmetric, and stable under
    rotating the base point.

    >>> linked((1, 3), (2, 4))
    True
    >>> linked((1, 2), (3, 4))
    False
    """
    p1, q1 = c1
    p2, q2 = c2
    if p1 in (p2, q2) or q1 in (p2, q2):
        raise SharedEndpointError(f"chords {c1} and {c2} share an endpoint")
    return (p1 - p2) * (p1 - q2) * (q1 - p2) * (q1 - q2) < 0


def link_count(p: Chord, b: Iterable[Chord]) -> int:
    """Number of chords in b linked with p; p never counts against itself."""
    return sum(1 for c in b if c != p and linked(p, c))


@dataclass(frozen=True)
class Violation:
    """One broken diagram invariant, reported as data."""

    kind: str  # degenerate_chord | position_reused | position_missing | position_out_of_range
    value: int


def validate(d: ChordDiagram) -> list[Violation]:
    """List every invariant violation; valid diagrams give []."""
    out = [Violation("degenerate_chord", p) for p, q in d.chords if p == q]
    counts = Counter(e for c in d.chords for e in c)
    for position, count in sorted(counts.items()):
        if count > 1:
            out.append(Violation("position_reused", position))
        if not 1 <= position <= d.size:
            out.append(Violation("position_out_of_range", position))
    for position in range(1, d.size + 1):
        if position not in counts:
            out.append(Violation("position_missing", position))
    return out
