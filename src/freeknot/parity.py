"""Linking-parity filtration of a diagram and its letter word.

Level a_0 holds the chords linked with an odd number of all chords;
deleting them and repeating gives a_1, a_2, ..., and after m rounds
the survivors form the residue a_m.  Each exhausted level a_k (k < m)
is cut once more by linking parity inside the level into an odd part
and an even part.  Reading the positions 1..2n and writing down each
end's class yields the word of the diagram over the alphabet
P0, D0, ..., P{m-1}, D{m-1}, F, where Pk marks the odd part of level
k, Dk its even part, and F the residue.  So the word holds the whole
filtration, and `filtration` reads the levels back from it.  A round
never looks ahead: the word at depth m < M is the word at depth M with
every letter of a level >= m read as F.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

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


def alphabet(m: int) -> tuple[str, ...]:
    """All letters available at depth m, in a fixed order."""
    letters = [z for k in range(m) for z in (prime(k), double_prime(k))]
    return (*letters, FINAL)


def letter_level(letter: str, m: int) -> int | None:
    """Level index of a P/D letter, or None for the final letter.

    The letter must be spelled as alphabet(m) spells it (ASCII digits,
    no leading zero), and its level must lie below m.
    """
    if letter == FINAL:
        return None
    digits = letter[1:]
    if (letter[:1] in ("P", "D") and digits.isascii() and digits.isdecimal()
            and (digits == "0" or digits[0] != "0")):
        k = int(digits)
        if k < m:
            return k
    raise LevelOutOfRange(f"letter {letter!r} has no level at depth {m}")


class Word(NamedTuple):
    """A sequence of letters together with the depth it was built for."""

    letters: tuple[str, ...]
    m: int


@dataclass(frozen=True)
class Filtration:
    """Partition of a diagram's chords into levels a_0..a_m with splits.

    levels[k] for k < m holds the chords extracted at round k and
    levels[m] the residue.  prime_split[k] is the (odd, even) cut of
    levels[k] by linking inside that level.  word is the diagram's word
    at depth m: position j carries the letter of the chord ending there.
    """

    m: int
    levels: tuple[frozenset[Chord], ...]
    prime_split: tuple[tuple[frozenset[Chord], frozenset[Chord]], ...]
    word: Word


def _split(chords: list[Chord], size: int) -> tuple[list[Chord], list[Chord]]:
    """Cut a chord list into the chords linked with an odd number of
    the others in the list and the rest, both in list order.

    Any other chord of the list has two ends strictly inside a chord
    (p, q) when it is nested in it, one end when it is linked with it,
    and none otherwise.  So the list's ends strictly inside (p, q)
    number the linking count plus twice the nested count, which has the
    linking count's parity.  Ranking the list's ends by one scan of the
    positions 1..size, that number is rank(q) - rank(p) - 1: a chord is
    odd exactly when the rank gap between its ends is even.
    """
    present = [0] * (size + 1)
    for p, q in chords:
        present[p] = present[q] = 1
    rank = list(accumulate(present))
    odd, even = [], []
    for c in chords:
        (even if (rank[c[1]] - rank[c[0]]) % 2 else odd).append(c)
    return odd, even


def word_of(d: ChordDiagram, m: int) -> Word:
    """The word of a diagram at depth m: position j carries the letter
    of its chord.  Round k splits level k off the chords still present
    and splits it again into its Pk and Dk parts; once a round finds no
    odd chord, no later round can.

    >>> word_of(ChordDiagram([(1, 3), (2, 5), (4, 6)]), 1).letters
    ('D0', 'F', 'D0', 'D0', 'F', 'D0')
    """
    if m < 1:
        raise InvalidM(f"depth must be a positive integer, got {m}")
    letters = [FINAL] * d.size
    remaining = list(d.chords)
    for k in range(m):
        level, remaining = _split(remaining, d.size)
        if not level:
            break
        for part, letter in zip(_split(level, d.size),
                                (prime(k), double_prime(k))):
            for p, q in part:
                letters[p - 1] = letters[q - 1] = letter
    return Word(tuple(letters), m)


def filtration(d: ChordDiagram, m: int) -> Filtration:
    """The levels and splits of the word of d at depth m: level k holds
    the chords lettered Pk or Dk, and the residue those lettered F.

    The number of chords in each odd part is always even (a handshake
    count), which is what makes the letter words evaluate consistently.
    """
    word = word_of(d, m)
    parts: dict[str, list[Chord]] = {z: [] for z in alphabet(m)}
    for c in d.chords:
        parts[word.letters[c[0] - 1]].append(c)
    splits = tuple((frozenset(parts[prime(k)]),
                    frozenset(parts[double_prime(k)])) for k in range(m))
    levels = (*(odd | even for odd, even in splits), frozenset(parts[FINAL]))
    return Filtration(m, levels, splits, word)
