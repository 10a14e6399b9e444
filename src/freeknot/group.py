"""The letter group at depth m and its action on integer points.

Every letter is an involution.  Letters at distinct levels swap past
each other while trading the lower level's P for D or back, and the
final letter makes the same trade with every level letter.  The group
acts on points (x_1, ..., x_m; eps) with integer x_s and eps in
{0, 1}: a level-k letter moves x_{k+1} by one step whose direction is
set by the parity of x_{k+1} + ... + x_m + eps, and the final letter
toggles eps.  Every point is reachable from the origin, and distinct
points are treated as distinct group elements; the round-trip and
relation tests in this package exercise exactly that identification.

The parity sum deliberately includes eps.  Dropping it breaks the swap
rule between level letters and the final letter already at the origin,
which relation_check exposes (see corrupted_apply_letter).

On points the group law has a closed form.  With
s_k(p) = (-1)^(p.x[k] + ... + p.x[m-1] + p.eps), the product is
(a.b).x[k] = a.x[k] + s_k(a) b.x[k] with the flags added mod 2.
Diagram values are even points, eps = 0 and every x[k] even, where
every s_k is +1, so a conjugator can only flip the signs of levels;
conjugate_equal decides conjugacy of such points by that sign pass.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, NamedTuple, Sequence

from .diagram import Chord
from .parity import (Word, _levels, alphabet, double_prime, letter_level,
                     prime)


class MixedM(ValueError):
    """Operands were built for different depths."""


YES = "yes"
NO = "no"


class NormalForm(NamedTuple):
    """A group element, written as the point its words move the origin to."""

    x: tuple[int, ...]
    eps: int

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def is_identity(self) -> bool:
        return self.eps == 0 and not any(self.x)


def identity(m: int) -> NormalForm:
    return NormalForm((0,) * m, 0)


def apply_letter(point: NormalForm, letter: str) -> NormalForm:
    """Right-multiply a point by one letter.

    Pk steps coordinate k+1 up when the parity sum from that coordinate
    onward (eps included) is even and down when it is odd; Dk does the
    opposite; F toggles eps.  Applying any letter twice returns the
    starting point.

    >>> apply_letter(identity(1), "P0")
    NormalForm(x=(1,), eps=0)
    """
    k = letter_level(letter, point.m)
    if k is None:
        return NormalForm(point.x, point.eps ^ 1)
    x, step = [*point.x], 1 if letter[0] == "P" else -1
    x[k] += step if (sum(x[k:]) + point.eps) % 2 == 0 else -step
    return NormalForm(tuple(x), point.eps)


def corrupted_apply_letter(point: NormalForm, letter: str) -> NormalForm:
    """A deliberately wrong action that drops eps from the parity sum.

    Negative control: under it the swap rule between level letters and
    the final letter fails at the origin, so relation_check must come
    back False.  It acts as apply_letter on the point with eps cleared,
    then puts the flag back.
    """
    q = apply_letter(point._replace(eps=0), letter)
    return q._replace(eps=q.eps ^ point.eps)


def evaluate(word: Word) -> NormalForm:
    """Evaluate a word left to right from the identity.

    >>> evaluate(Word(("P0", "F"), 1))
    NormalForm(x=(1,), eps=1)
    """
    return reduce(apply_letter, word.letters, identity(word.m))


def _value(chords: Sequence[Chord], m: int) -> NormalForm:
    """The value at depth m of the diagram with these chords, in closed
    form off parity._levels: x[k] = 2 * sum over the chords (p, q) of
    level k of s * (-1)^r, with s = +1 in Pk and -1 in Dk and r the
    number of ends of levels >= k before p; eps = 0, as every letter
    comes twice.  This is evaluate over the word: every letter of a
    level >= k (F as level m) flips the parity of x[k:] + eps, so the
    parity read at an end is r mod 2, and a chord of level k is odd
    within those ends, so both of its ends read the same parity.  A
    round never looks ahead, so the first k coordinates are the value
    at depth k: a letter of a level >= k acts on the first k
    coordinates as F does."""
    return NormalForm(tuple(_levels(chords, m)[2]), 0)


def relations(m: int) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All defining pair relations at depth m as (left, right) words.

    Every letter is an involution, z z = e, and a level-i letter passes
    any letter y of a higher level, or F, by trading Pi for Di or back:
    Pi y = y Di and Di y = y Pi.
    """
    letters = alphabet(m)
    rels = [((z, z), ()) for z in letters]
    for i in range(m):
        pi, di = prime(i), double_prime(i)
        for y in letters[2 * i + 2:]:  # alphabet runs level by level, F last
            rels.extend([((pi, y), (y, di)), ((di, y), (y, pi))])
    return rels


Action = Callable[[NormalForm, str], NormalForm]


def relation_check(m: int, sample_points: Iterable[NormalForm],
                   action: Action = apply_letter) -> bool:
    """Do both sides of every relation act identically on every sample?"""
    rels = relations(m)
    for point in sample_points:
        if point.m != m:
            raise MixedM(f"sample point has depth {point.m}, expected {m}")
        for lhs, rhs in rels:
            if reduce(action, lhs, point) != reduce(action, rhs, point):
                return False
    return True


@dataclass(frozen=True)
class ConjugacyAnswer:
    """Outcome of a conjugacy test.

    When the verdict is YES, the witness word w conjugates a to b:
    w^-1 a w = b, where w^-1 is the word w reversed.
    """

    verdict: str  # YES | NO
    witness: tuple[str, ...] | None


def conjugate_equal(a: NormalForm, b: NormalForm) -> ConjugacyAnswer:
    """Conjugacy of even points: YES with a shortest conjugating word, or NO.

    Both points must have eps = 0 and even coordinates, else ValueError.
    That covers every diagram value, the only points distinguish passes:
    each level holds an even number of chords (the odd-degree vertices
    of its intersection graph), each adding +-2 to its coordinate.  On
    an even point s_k(a) = +1 at every level, so a.w = w.b reads
    a_k = s_k(w) b_k, and the points are conjugate exactly when
    |a_k| = |b_k| at every k.  s_k(w) differs from s_{k+1}(w) exactly
    when w_k is odd, and s_m(w) = (-1)^eps_w, so a conjugator needs a
    letter for each change of the needed sign, read from +1 at the top
    down over the levels with a_k != 0.  The witness puts each change at
    the lowest level k it can, as Pk: of the shortest conjugators, the
    least in alphabet order (F, as short, sorts after every Pk).

    >>> conjugate_equal(NormalForm((2,), 0), NormalForm((-2,), 0))
    ConjugacyAnswer(verdict='yes', witness=('P0',))
    """
    if a.m != b.m:
        raise MixedM(f"depths differ: {a.m} != {b.m}")
    if a.eps or b.eps or any(t % 2 for t in a.x + b.x):
        raise ValueError(f"not points with eps = 0 and even x: {a}, {b}")
    if list(map(abs, a.x)) != list(map(abs, b.x)):
        return ConjugacyAnswer(NO, None)
    witness, sign = [], 1
    for k in reversed(range(a.m)):
        need = 1 if a.x[k] == b.x[k] else -1
        if a.x[k] and need != sign:
            witness.append(prime(k))
            sign = need
    return ConjugacyAnswer(YES, tuple(witness))
