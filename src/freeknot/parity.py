"""Linking-parity filtration of a diagram and its letter word.

Level a_0 holds the chords linked with an odd number of all chords;
deleting them and repeating gives a_1, a_2, ..., and after m rounds
the survivors form the residue a_m.  Each exhausted level a_k (k < m)
is cut once more by linking parity inside the level into an odd part
and an even part.  Reading the positions 1..2n and writing down each
end's class yields the word of the diagram over the alphabet
P0, D0, ..., P{m-1}, D{m-1}, F, where Pk marks the odd part of level
k, Dk its even part, and F the residue.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .diagram import Chord, ChordDiagram, renumber

FINAL = "F"


class InvalidM(ValueError):
    """Filtration depth must be a positive integer."""


def prime(level: int) -> str:
    """Letter of the odd part of level k."""
    return f"P{level}"


def double_prime(level: int) -> str:
    """Letter of the even part of level k."""
    return f"D{level}"


def alphabet(m: int) -> tuple[str, ...]:
    """All letters available at depth m, in a fixed order."""
    letters = []
    for k in range(m):
        letters.append(prime(k))
        letters.append(double_prime(k))
    letters.append(FINAL)
    return tuple(letters)


def letter_level(letter: str) -> int | None:
    """Level index of a P/D letter, or None for the final letter."""
    if letter == FINAL:
        return None
    return int(letter[1:])


class Word(NamedTuple):
    """A sequence of letters together with the depth it was built for."""

    letters: tuple[str, ...]
    m: int

    def tokens(self) -> str:
        return " ".join(self.letters)


@dataclass(frozen=True)
class Filtration:
    """Partition of a diagram's chords into levels a_0..a_m with splits.

    levels[k] for k < m holds the chords extracted at round k and
    levels[m] the residue.  prime_split[k] is the (odd, even) cut of
    levels[k] by linking inside that level.
    """

    m: int
    levels: tuple[frozenset[Chord], ...]
    prime_split: tuple[tuple[frozenset[Chord], frozenset[Chord]], ...]

    def level_of(self, chord: Chord) -> int:
        for k, level in enumerate(self.levels):
            if chord in level:
                return k
        raise KeyError(chord)

    def letter_of(self, chord: Chord) -> str:
        """The alphabet letter carried by both ends of a chord."""
        k = self.level_of(chord)
        if k == self.m:
            return FINAL
        odd, _ = self.prime_split[k]
        return prime(k) if chord in odd else double_prime(k)


def _neighbour_sets(d: ChordDiagram) -> dict[Chord, set[Chord]]:
    nbr: dict[Chord, set[Chord]] = {c: set() for c in d.chords}
    for c1, c2 in combinations(d.chords, 2):
        p1, q1 = c1
        p2, q2 = c2
        if (p1 - p2) * (p1 - q2) * (q1 - p2) * (q1 - q2) < 0:
            nbr[c1].add(c2)
            nbr[c2].add(c1)
    return nbr


def filtration(d: ChordDiagram, m: int) -> Filtration:
    """Extract the odd chords m times and split every exhausted level.

    Round k removes the chords linked with an odd number of the chords
    still present; what survives all m rounds is the residue.  The
    number of chords in each odd part is always even (a handshake
    count), which is what makes the letter words evaluate consistently.
    """
    if m < 1:
        raise InvalidM(f"depth must be a positive integer, got {m}")
    nbr = _neighbour_sets(d)
    remaining = set(d.chords)
    levels = []
    for _ in range(m):
        level = frozenset(
            c for c in remaining if len(nbr[c] & remaining) % 2 == 1)
        levels.append(level)
        remaining -= level
    levels.append(frozenset(remaining))
    splits = []
    for level in levels[:m]:
        odd = frozenset(c for c in level if len(nbr[c] & level) % 2 == 1)
        splits.append((odd, frozenset(level - odd)))
    return Filtration(m, tuple(levels), tuple(splits))


def delete_odd(d: ChordDiagram) -> ChordDiagram:
    """Drop every chord linked with an odd number of chords, renumbering
    the surviving ends to 1..2n' in order."""
    nbr = _neighbour_sets(d)
    return renumber([c for c in d.chords if len(nbr[c]) % 2 == 0])


def word_of(d: ChordDiagram, m: int) -> Word:
    """The word of a diagram: position j carries the letter of its chord.

    Both ends of a chord carry the same letter, so every letter occurs
    an even number of times and the word has length 2n.

    >>> word_of(ChordDiagram([(1, 3), (2, 5), (4, 6)]), 1).letters
    ('D0', 'F', 'D0', 'D0', 'F', 'D0')
    """
    filt = filtration(d, m)
    owner = d.end_map()
    letters = tuple(
        filt.letter_of(owner[position]) for position in range(1, d.size + 1))
    return Word(letters, m)
