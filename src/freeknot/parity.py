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
from itertools import accumulate
from typing import Collection, NamedTuple

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


def _odd(chords: Collection[Chord], size: int) -> frozenset[Chord]:
    """The chords linked with an odd number of the others in the set.

    Any other chord of the set has two ends strictly inside a chord
    (p, q) when it is nested in it, one end when it is linked with it,
    and none otherwise.  So the set's ends strictly inside (p, q) number
    the linking count plus twice the nested count, which has the
    linking count's parity.  Ranking the set's ends by one scan of the
    positions 1..size, that number is rank(q) - rank(p) - 1: a chord is
    odd exactly when the rank gap between its ends is even.
    """
    present = [0] * (size + 1)
    for p, q in chords:
        present[p] = present[q] = 1
    rank = list(accumulate(present))
    return frozenset(c for c in chords if (rank[c[1]] - rank[c[0]]) % 2 == 0)


def filtration(d: ChordDiagram, m: int) -> Filtration:
    """Extract the odd chords m times, split every exhausted level, and
    write down the word.

    Round k removes the chords linked with an odd number of the chords
    still present; what survives all m rounds is the residue.  The
    number of chords in each odd part is always even (a handshake
    count), which is what makes the letter words evaluate consistently.
    """
    if m < 1:
        raise InvalidM(f"depth must be a positive integer, got {m}")
    remaining = frozenset(d.chords)
    letters = [FINAL] * d.size
    levels = []
    splits = []
    for k in range(m):
        level = _odd(remaining, d.size) if remaining else frozenset()
        if not level:
            # remaining stays as it is, so no later round extracts a chord
            levels += [level] * (m - k)
            splits += [(level, level)] * (m - k)
            break
        remaining -= level
        odd = _odd(level, d.size)
        even = level - odd
        levels.append(level)
        splits.append((odd, even))
        for part, letter in ((odd, prime(k)), (even, double_prime(k))):
            for p, q in part:
                letters[p - 1] = letters[q - 1] = letter
    levels.append(remaining)
    return Filtration(m, tuple(levels), tuple(splits),
                      Word(tuple(letters), m))


def word_of(d: ChordDiagram, m: int) -> Word:
    """The word of a diagram: position j carries the letter of its chord.

    Both ends of a chord carry the same letter, so every letter occurs
    an even number of times and the word has length 2n.

    >>> word_of(ChordDiagram([(1, 3), (2, 5), (4, 6)]), 1).letters
    ('D0', 'F', 'D0', 'D0', 'F', 'D0')
    """
    return filtration(d, m).word
