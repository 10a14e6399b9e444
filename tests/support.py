"""Shared hypothesis strategies and helpers for the test suite."""

import random

from hypothesis import strategies as st

from freeknot import ChordDiagram, NormalForm, Word, alphabet


@st.composite
def diagrams(draw, min_n=0, max_n=8):
    """Chord diagrams built from a random pairing of 1..2n."""
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(list(range(1, 2 * n + 1))))
    return ChordDiagram(zip(perm[::2], perm[1::2]))


@st.composite
def normal_forms(draw, min_m=1, max_m=4, bound=10):
    m = draw(st.integers(min_m, max_m))
    x = tuple(draw(st.integers(-bound, bound)) for _ in range(m))
    return NormalForm(x, draw(st.integers(0, 1)))


@st.composite
def words(draw, min_m=1, max_m=3, max_len=10):
    m = draw(st.integers(min_m, max_m))
    letters = draw(st.lists(st.sampled_from(alphabet(m)), max_size=max_len))
    return Word(tuple(letters), m)


def random_point(rng: random.Random, m: int, bound: int = 10) -> NormalForm:
    return NormalForm(tuple(rng.randint(-bound, bound) for _ in range(m)),
                      rng.randint(0, 1))


def triple_chords(d: ChordDiagram, anchors) -> set:
    """The three chords of the adjoint triple anchored at (r, s, t)."""
    owner = d.end_map()
    return {owner[p] for a in anchors for p in (a, a + 1)}
