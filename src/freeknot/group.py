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
(a.b).x[k] = a.x[k] + s_k(a) b.x[k] with the flags added mod 2;
multiply, inverse, conjugate and the exact conjugacy test
conjugate_equal all rest on it.
"""

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .diagram import json_object
from .parity import (FINAL, LevelOutOfRange, Word, alphabet, double_prime,
                     letter_level, prime)


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

    def to_json(self) -> dict:
        return {"m": self.m, "x": list(self.x), "eps": self.eps}

    @classmethod
    def from_json(cls, obj: dict) -> "NormalForm":
        obj = json_object(obj, "normal form")
        x, eps = obj.get("x"), obj.get("eps")
        if type(x) is not list or any(type(v) is not int for v in x):
            raise ValueError(f"x must be a list of ints, got {x!r}")
        if type(eps) is not int or eps not in (0, 1):
            raise ValueError(f"eps must be 0 or 1, got {eps!r}")
        m = obj.get("m", len(x))
        if type(m) is not int or m != len(x):
            raise ValueError(f"m must be {len(x)}, the length of x, got {m!r}")
        return cls(tuple(x), eps)


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
    if letter == FINAL:
        return NormalForm(point.x, 1 - point.eps)
    k = letter_level(letter, point.m)
    step = 1 if (sum(point.x[k:]) + point.eps) % 2 == 0 else -1
    if letter[0] == "D":
        step = -step
    x = point.x
    return NormalForm(x[:k] + (x[k] + step,) + x[k + 1:], point.eps)


def corrupted_apply_letter(point: NormalForm, letter: str) -> NormalForm:
    """A deliberately wrong action that drops eps from the parity sum.

    Negative control: under it the swap rule between level letters and
    the final letter fails at the origin, so relation_check must come
    back False.  It acts as apply_letter on the point with eps cleared,
    then puts the flag back.
    """
    q = apply_letter(point._replace(eps=0), letter)
    return q._replace(eps=q.eps ^ point.eps)


Action = Callable[[NormalForm, str], NormalForm]


def _fold(point: NormalForm, letters: Iterable[str],
          action: Action = apply_letter) -> NormalForm:
    for z in letters:
        point = action(point, z)
    return point


def evaluate(word: Word) -> NormalForm:
    """Evaluate a word left to right starting from the identity.

    >>> evaluate(Word(("P0", "F"), 1))
    NormalForm(x=(1,), eps=1)
    """
    return _fold(identity(word.m), word.letters)


def _signs(p: NormalForm) -> list[int]:
    """s_k(p) = (-1)^(p.x[k] + ... + p.x[m-1] + p.eps) for every level k."""
    signs = [0] * p.m
    s = -1 if p.eps else 1
    for k in range(p.m - 1, -1, -1):
        if p.x[k] % 2:
            s = -s
        signs[k] = s
    return signs


def _walk(k: int, target: int, above: int) -> tuple[str, ...]:
    """The letters that move coordinate k from 0 to target while the
    levels above k read the sign `above`: one per unit step.  The live
    parity flips with every step, so Pk and Dk alternate, and Pk comes
    first when the step direction agrees with the sign."""
    pair = (prime(k), double_prime(k))
    if (target > 0) != (above > 0):
        pair = pair[::-1]
    return tuple(pair[i % 2] for i in range(abs(target)))


def normal_form_to_word(nf: NormalForm) -> Word:
    """A fixed word evaluating to nf.

    The final letter comes first when eps is set; then each coordinate
    is walked to its target one unit at a time from the top level down,
    picking whichever letter moves toward the target under the live
    parity.  evaluate(normal_form_to_word(nf)) == nf for every point.
    """
    above = _signs(nf)[1:] + [-1 if nf.eps else 1]  # s_{k+1}(nf)
    letters = [FINAL] * nf.eps
    for k in range(nf.m - 1, -1, -1):
        letters.extend(_walk(k, nf.x[k], above[k]))
    return Word(tuple(letters), nf.m)


def multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    """Group product: the point b's word reaches starting from a."""
    if a.m != b.m:
        raise MixedM(f"depths differ: {a.m} != {b.m}")
    x = tuple(ak + s * bk for ak, s, bk in zip(a.x, _signs(a), b.x))
    return NormalForm(x, a.eps ^ b.eps)


def inverse(a: NormalForm) -> NormalForm:
    """Solve a.c = e level by level: c_k = -s_k(a) a_k, same flag."""
    return NormalForm(tuple(-s * ak for ak, s in zip(a.x, _signs(a))),
                      a.eps)


def conjugate(a: NormalForm, by: Word | Sequence[str]) -> NormalForm:
    """The conjugate w^-1 a w for a conjugating word w."""
    if isinstance(by, Word):
        if by.m != a.m:
            raise MixedM(f"depths differ: {a.m} != {by.m}")
        letters = by.letters
    else:
        letters = tuple(by)
    w = _fold(identity(a.m), letters)
    return multiply(multiply(inverse(w), a), w)


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


def relation_check(m: int, sample_points: Iterable[NormalForm],
                   action: Action = apply_letter) -> bool:
    """Do both sides of every relation act identically on every sample?"""
    rels = relations(m)
    for point in sample_points:
        if point.m != m:
            raise MixedM(f"sample point has depth {point.m}, expected {m}")
        for lhs, rhs in rels:
            if _fold(point, lhs, action) != _fold(point, rhs, action):
                return False
    return True


@dataclass(frozen=True)
class ConjugacyAnswer:
    """Outcome of a conjugacy test.

    When the verdict is YES, conjugate(a, witness) == b.
    """

    verdict: str  # YES | NO
    witness: tuple[str, ...] | None


def conjugate_equal(a: NormalForm, b: NormalForm) -> ConjugacyAnswer:
    """Exact conjugacy test: YES with a shortest conjugating word, or NO.

    a.w = w.b reads a_k + s_k(a) w_k = w_k + s_k(w) b_k at every level
    k, together with eps_a = eps_b.  Once the signs of w are fixed (one
    of 2^(m+1) parity classes), a level with s_k(a) = -1 pins
    w_k = (a_k - s_k(w) b_k) / 2, which must have the parity turning
    s_{k+1}(w) into s_k(w); a level with s_k(a) = +1 asks
    a_k = s_k(w) b_k and leaves w_k free within that parity, so it
    takes 0 or the unit step whose letter is Pk.  The signs form a
    chain from s_m(w) = (-1)^eps_w down to s_0(w), so one pass from
    level 0 upward keeps, for each sign above the current level, the
    least word for the levels below it, and covers every class in O(m)
    steps.  The witness is normal_form_to_word of a conjugator with the
    fewest letters, ties broken by alphabet order.

    >>> conjugate_equal(NormalForm((2,), 0), NormalForm((-2,), 0))
    ConjugacyAnswer(verdict='yes', witness=('P0',))
    """
    if a.m != b.m:
        raise MixedM(f"depths differ: {a.m} != {b.m}")
    if a.eps != b.eps:
        return ConjugacyAnswer(NO, None)
    order = {z: i for i, z in enumerate(alphabet(a.m))}

    def least(words):
        return min(words, default=None,
                   key=lambda word: (len(word), [order[z] for z in word]))

    signs_a = _signs(a)
    below = {1: (), -1: ()}  # s_k(w) -> least word for the levels under k
    for k in range(a.m):
        options = {1: [], -1: []}  # s_{k+1}(w) -> words for levels k..0
        for above in options:
            for here, rest in below.items():
                if rest is None:
                    continue
                odd = here != above
                if signs_a[k] < 0:
                    twice = a.x[k] - here * b.x[k]
                    if twice % 4 != 2 * odd:
                        continue
                    w_k = twice // 2
                elif a.x[k] != here * b.x[k]:
                    continue
                else:
                    w_k = above if odd else 0
                options[above].append(_walk(k, w_k, above) + rest)
        below = {above: least(words) for above, words in options.items()}
    tops = (((), 1), ((FINAL,), -1))  # eps_w = 0 or 1, and s_m(w)
    witness = least([flag + below[sign] for flag, sign in tops
                     if below[sign] is not None])
    if witness is None:
        return ConjugacyAnswer(NO, None)
    return ConjugacyAnswer(YES, witness)
