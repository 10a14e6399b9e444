"""Chord diagrams with a base point, read from and written as Gauss codes.

A diagram on n chords is a partition of the positions 1..2n into n
unordered pairs.  The base point sits just before position 1 and
nothing wraps across it.  Two chords are linked exactly when their
endpoints alternate along the position line.
"""

from collections import Counter
from typing import Iterable

Chord = tuple[int, int]


class LabelCountError(ValueError):
    """A Gauss-code label occurs some number of times other than two."""


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

    @classmethod
    def _sorted(cls, chords: tuple[Chord, ...]) -> "ChordDiagram":
        """The diagram of chords already normalised and in order."""
        d = object.__new__(cls)
        d.chords = chords
        return d

    @property
    def n(self) -> int:
        return len(self.chords)

    @property
    def size(self) -> int:
        """Number of chord ends, i.e. 2n."""
        return 2 * len(self.chords)

    def __eq__(self, other) -> bool:
        return isinstance(other, ChordDiagram) and self.chords == other.chords

    def __hash__(self) -> int:
        return hash(self.chords)

    def __repr__(self) -> str:
        return f"ChordDiagram({list(self.chords)!r})"


def parse_gauss_code(text: str) -> ChordDiagram:
    """Parse a whitespace-separated Gauss code.

    Each label must occur exactly twice; the two positions of a label
    form one chord.  Labels are arbitrary tokens compared only for
    equality, and the empty string parses to the empty diagram.

    >>> parse_gauss_code("1 2 1 2").chords
    ((1, 3), (2, 4))
    """
    tokens = text.split()
    first, partner = {}, {}  # label -> first end -> second, keys in order
    for q, label in enumerate(tokens, start=1):
        p = first.setdefault(label, q)
        if partner.get(p, p) > p:  # the label's third occurrence
            break
        partner[p] = q
    else:
        if 2 * len(first) == len(tokens):  # and so no label occurs once
            return ChordDiagram._sorted(tuple(partner.items()))
    # the first label, in order of first use, that does not occur twice
    label, count = next(c for c in Counter(tokens).items() if c[1] != 2)
    times = "once" if count == 1 else f"{count} times"
    raise LabelCountError(f"label {label!r} occurs {times}, expected 2")


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
