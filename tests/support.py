"""Shared hypothesis strategies and helpers for the test suite."""

import json
import random

from hypothesis import strategies as st

from freeknot import ChordDiagram, Move, NormalForm, Word, alphabet
from freeknot.cli import _json_text
from freeknot.moves import MOVE_KINDS, PATTERNS


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


def end_map(d: ChordDiagram) -> dict:
    """Map every position of d to the chord it belongs to."""
    return {e: c for c in d.chords for e in c}


def triple_chords(d: ChordDiagram, anchors) -> set:
    """The chords owning the positions r3_apply swaps for the anchors
    (r, s, t): the three chords of the adjoint triple anchored there."""
    owner = end_map(d)
    return {owner[p] for a in anchors for p in (a, a + 1)}


def written(record):
    """A --json record as the CLI writes it, read back."""
    return json.loads(_json_text(record))


def move_from_json(obj: dict) -> Move:
    """The move a `moves --json` record describes, read back unchecked."""
    def tupled(value):
        return tuple(map(tupled, value)) if type(value) is list else value
    fields = MOVE_KINDS[obj["kind"]].fields
    return Move(obj["kind"], tuple(tupled(obj[f]) for f in fields))


def _int(value) -> bool:
    return type(value) is int  # True and False are not ints in JSON


def _ints(count: int, item=_int):
    return lambda value: (type(value) is list and len(value) == count
                          and all(map(item, value)))


# The JSON shape of every field named in MOVE_KINDS, as `moves --json`
# writes it.
FIELD_SHAPES = {"chord": _ints(2), "chords": _ints(2, _ints(2)),
                "anchors": _ints(3), "gap": _int, "gap1": _int, "gap2": _int,
                "pattern": lambda value: value in PATTERNS, "steps": _int}
