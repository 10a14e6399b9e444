"""Linking-parity filtration of a diagram and its letter word.

Level a_0 holds the chords linked with an odd number of all chords;
deleting them and repeating gives a_1, a_2, ..., and after m rounds
the survivors form the residue a_m.  Each exhausted level a_k (k < m)
is cut once more by linking parity inside the level into an odd part
and an even part.  Reading the positions 1..2n and writing down each
end's class yields the word of the diagram over the alphabet
P0, D0, ..., P{m-1}, D{m-1}, F, where Pk marks the odd part of level
k, Dk its even part, and F the residue.  So the word holds the whole
filtration, and `filtration` builds both off one level walk.  A round
never looks ahead: the word at depth m < M is the word at depth M with
every letter of a level >= m read as F.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import NamedTuple, Sequence

from .diagram import Chord, ChordDiagram

FINAL = "F"


class InvalidM(ValueError):
    """Filtration depth must be a positive integer."""


class LevelOutOfRange(ValueError):
    """A letter's level does not exist at the working depth."""


def prime(level: int) -> str:
    """Letter of the odd part of level k."""
    return f"P{level}"


def double_prime(level: int) -> str:
    """Letter of the even part of level k."""
    return f"D{level}"


@cache
def alphabet(m: int) -> tuple[str, ...]:
    """All letters available at depth m, in a fixed order."""
    letters = [z for k in range(m) for z in (prime(k), double_prime(k))]
    return (*letters, FINAL)


def letter_level(letter: str, m: int) -> int | None:
    """Level index of a P/D letter, or None for the final letter.

    The letter must be one of alphabet(m), spelled as it spells it (ASCII
    digits, no leading zero), so its level lies below m.
    """
    if letter not in alphabet(m):
        raise LevelOutOfRange(f"letter {letter!r} has no level at depth {m}")
    return None if letter == FINAL else int(letter[1:])


class Word(NamedTuple):
    """A sequence of letters together with the depth it was built for."""

    letters: tuple[str, ...]
    m: int


@dataclass(frozen=True)
class Filtration:
    """Partition of a diagram's chords into levels a_0..a_m with splits.

    levels[k] for k < m holds the chords extracted at round k and
    levels[m] the residue.  prime_split[k] is the (odd, even) cut of
    levels[k] by linking inside that level; parts are sorted by first
    end.  word is the diagram's word at depth m: position j carries the
    letter of the chord ending there.  x is the x of the word's value.
    """

    m: int
    levels: tuple[tuple[Chord, ...], ...]
    prime_split: tuple[tuple[tuple[Chord, ...], tuple[Chord, ...]], ...]
    word: Word
    x: tuple[int, ...]


def _levels(chords: Sequence[Chord],
            m: int) -> tuple[list, Sequence[Chord], list[int]]:
    """(parts, residue, x): the (Pk, Dk) chord lists of each level k the
    walk at depth m reaches, in first-end order as `chords` are, the
    chords left over, and the x of the word's value, a term per chord
    as its level is cut (see group._value).  Round k cuts R_k, the
    chords left, into level k (its odd chords) and R_{k+1}, then level
    k into Pk and Dk; a round with no odd chord ends the walk.  rank[j]
    counts R_k's ends at positions <= j.  Inside a chord (p, q) lie two
    ends of each chord nested in it and one of each linked with it, so
    its rank gap rank[q] - rank[p] is even exactly when it is odd
    within R_k.  A round ranks R_{k+1} once, as `after`, the next
    round's rank.  A chord (p, q) of level k has an odd number of R_k's
    ends inside, its level's and after[q] - after[p] of R_{k+1}'s, so
    it is in Pk exactly when after[q] - after[p] is even."""
    size = 2 * len(chords)
    parts, x = [], [0] * m
    remaining, rank = chords, range(size + 1)  # R_0 owns every end
    for k in range(m):
        level, rest = [], []
        for c in remaining:
            (rest if (rank[c[1]] - rank[c[0]]) & 1 else level).append(c)
        if not level:
            break
        present = [0] * (size + 1)
        for p, q in rest:
            present[p] = present[q] = 1
        after, split = list(accumulate(present)), ([], [])
        for c in level:
            p, q = c
            even = (after[q] - after[p]) & 1
            split[even].append(c)
            x[k] += 2 if even ^ rank[p] & 1 else -2
        parts.append(split)
        remaining, rank = rest, after
    return parts, remaining, x


def word_of(d: ChordDiagram, m: int) -> Word:
    """The word of d at depth m: position j carries its chord's letter.

    >>> word_of(ChordDiagram([(1, 3), (2, 5), (4, 6)]), 1).letters
    ('D0', 'F', 'D0', 'D0', 'F', 'D0')
    """
    return filtration(d, m).word


def filtration(d: ChordDiagram, m: int) -> Filtration:
    """The filtration of d at depth m off one _levels walk, whose parts,
    in first-end order as d.chords are, give the splits and the word.

    The number of chords in each odd part is always even (a handshake
    count), which is what makes the letter words evaluate consistently.
    """
    if m < 1:
        raise InvalidM(f"depth must be a positive integer, got {m}")
    parts, residue, x = _levels(d.chords, m)
    splits = tuple((tuple(odd), tuple(even)) for odd, even in parts)
    splits += (((), ()),) * (m - len(splits))
    letters = [FINAL] * (d.size + 1)
    for k, split in enumerate(parts):
        for part, z in zip(split, (prime(k), double_prime(k))):
            for p, q in part:
                letters[p] = letters[q] = z
    levels = (*(tuple(sorted(a + b)) for a, b in splits), tuple(residue))
    return Filtration(m, levels, splits, Word(tuple(letters[1:]), m), tuple(x))
