import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from freeknot import (FINAL, ChordDiagram, InvalidM, LevelOutOfRange,
                      NormalForm, Word, alphabet, apply_letter, double_prime,
                      evaluate, filtration, letter_level, parse_gauss_code,
                      prime, r3_sites, random_diagram, rotate_basepoint,
                      word_of)
from freeknot.parity import _levels
from oracles import (link_count, rank_word, step_evaluate, walked_value,
                     word_filtration)
from support import diagrams, end_map, triple_chords, words


def test_letter_helpers():
    assert prime(0) == "P0" and double_prime(2) == "D2"
    assert alphabet(2) == ("P0", "D0", "P1", "D1", "F")
    assert letter_level("P3", 4) == 3
    assert letter_level(FINAL, 1) is None
    assert [letter_level(z, 3) for z in alphabet(3)] \
        == [0, 0, 1, 1, 2, 2, None]


# Misspelled letters, and two that are not strings at all.
MISSPELLED = ["X7", "P+0", "P00", "Q1", "P", "D-1", 0, ("P", 0)]


@pytest.mark.parametrize("letter", MISSPELLED + ["P3", "D3"])
def test_letter_level_rejects_what_the_action_rejects(letter):
    if letter in MISSPELLED:
        with pytest.raises(LevelOutOfRange):
            letter_level(letter, 100)  # rejected by its spelling at any depth
    with pytest.raises(LevelOutOfRange) as by_action:
        apply_letter(NormalForm((0,) * 3, 0), letter)
    with pytest.raises(LevelOutOfRange) as by_level:
        letter_level(letter, 3)
    assert str(by_level.value) == str(by_action.value)
    for letters in ((letter,), ("P0", "F", letter, "D2")):
        with pytest.raises(LevelOutOfRange) as by_evaluate:
            evaluate(Word(letters, 3))
        assert str(by_evaluate.value) == str(by_level.value)


def test_letter_level_bounded_by_depth():
    assert letter_level("D2", 3) == 2 and letter_level("D7", 8) == 7
    with pytest.raises(LevelOutOfRange, match="depth 2"):
        letter_level("D2", 2)


def test_filtration_two_odd_one_residue():
    f = filtration(parse_gauss_code("1 2 1 3 2 3"), 1)
    assert f.levels == (((1, 3), (4, 6)), ((2, 5),))
    assert f.prime_split == (((), ((1, 3), (4, 6))),)


def test_filtration_all_even_drops_through():
    f = filtration(parse_gauss_code("1 2 3 1 2 3"), 2)
    assert f.levels[0] == () and f.levels[1] == ()
    assert f.levels[2] == ((1, 4), (2, 5), (3, 6))


def test_filtration_chain_second_round():
    f = filtration(parse_gauss_code("1 2 1 3 2 4 3 4"), 2)
    assert f.levels[0] == ((1, 3), (6, 8))
    assert f.levels[1] == ((2, 5), (4, 7))
    assert f.levels[2] == ()
    assert f.prime_split[1] == (((2, 5), (4, 7)), ())


def test_filtration_rejects_bad_depth():
    with pytest.raises(InvalidM):
        filtration(ChordDiagram(), 0)
    with pytest.raises(InvalidM):
        word_of(ChordDiagram(), -1)


@given(diagrams())
def test_filtration_partitions_chords(d):
    for m in (1, 2, 3):
        f = filtration(d, m)
        union = set()
        for level in f.levels:
            assert not (union & set(level))
            union |= set(level)
        assert union == set(d.chords)


@given(diagrams())
def test_filtration_parts_are_sorted_by_first_end(d):
    for m in (1, 2, 3):
        f = filtration(d, m)
        for part in (*f.levels, *chain(*f.prime_split)):
            assert list(part) == sorted(part)


@given(diagrams())
def test_filtration_levels_satisfy_their_defining_parity(d):
    m = 3
    f = filtration(d, m)
    survivors = set(d.chords)
    for k in range(m):
        odd_here = {c for c in survivors if link_count(c, survivors) % 2 == 1}
        assert odd_here == set(f.levels[k])
        survivors -= odd_here
    assert survivors == set(f.levels[m])


@given(diagrams())
def test_prime_split_matches_inner_parity_and_handshake(d):
    f = filtration(d, 2)
    for k, (odd, even) in enumerate(f.prime_split):
        level = f.levels[k]
        assert set(odd) == {c for c in level if link_count(c, level) % 2}
        assert set(even) == set(level) - set(odd)
        assert len(odd) % 2 == 0


@given(diagrams())
def test_deeper_filtrations_refine_the_residue(d):
    shallow = filtration(d, 2)
    deep = filtration(d, 3)
    assert shallow.levels[:2] == deep.levels[:2]
    assert set(shallow.levels[2]) == set(deep.levels[2] + deep.levels[3])
    assert shallow.prime_split == deep.prime_split[:2]


@given(diagrams(), st.integers(1, 3), st.integers(2, 4))
def test_shallower_words_read_deeper_levels_as_final(d, m, deep):
    """A round never looks ahead, so the word at depth m is the deeper
    word with every letter of a level >= m read as F."""
    assume(m < deep)
    relabelled = tuple(z if z == FINAL or letter_level(z, deep) < m
                       else FINAL for z in word_of(d, deep).letters)
    assert word_of(d, m) == (relabelled, m)


@given(diagrams())
def test_diagram_values_have_even_coordinates_and_no_flag(d):
    """A chord writes its letter at both of its ends."""
    for m in range(1, 5):
        value = evaluate(word_of(d, m))
        assert value.eps == 0 and all(x % 2 == 0 for x in value.x)


@given(diagrams(), st.integers(1, 4))
def test_shallower_values_are_prefixes_of_the_deepest(d, deep):
    """search_nontrivial's hit test: the value at depth m is the first
    m coordinates of the deepest value, with the flag 0."""
    x = evaluate(word_of(d, deep)).x
    for m in range(1, deep + 1):
        assert evaluate(word_of(d, m)) == NormalForm(x[:m], 0)


@given(words(max_m=4, max_len=30), st.data())
def test_reading_deep_letters_as_final_truncates_the_value(w, data):
    """Read as F, the letters of levels >= m fold coordinates m and up
    into the flag by their parity."""
    m = data.draw(st.integers(1, w.m))
    x, eps = evaluate(w)
    relabelled = tuple(z if z == FINAL or letter_level(z, w.m) < m
                       else FINAL for z in w.letters)
    assert evaluate(Word(relabelled, m)) \
        == NormalForm(x[:m], (sum(x[m:]) + eps) % 2)


def test_word_examples():
    assert word_of(parse_gauss_code("1 2 1 3 2 3"), 1).letters \
        == ("D0", "F", "D0", "D0", "F", "D0")
    assert word_of(parse_gauss_code("1 2 1 3 2 4 3 4"), 2).letters \
        == ("D0", "P1", "D0", "P1", "P1", "D0", "P1", "D0")
    assert word_of(ChordDiagram(), 3) == ((), 3)


@given(diagrams())
def test_word_shape(d):
    w = word_of(d, 2)
    assert len(w.letters) == d.size
    counts = Counter(w.letters)
    assert all(v % 2 == 0 for v in counts.values())
    # both ends of a chord carry the same letter
    f = filtration(d, 2)
    for p, q in d.chords:
        assert w.letters[p - 1] == w.letters[q - 1] == f.word.letters[p - 1]


@given(diagrams(min_n=1))
def test_letters_follow_chords_under_rotation(d):
    size = d.size
    rot = {p: ((p - 2) % size) + 1 for p in range(1, size + 1)}
    rotated = rotate_basepoint(d, 1)
    f1 = filtration(d, 2)
    f2 = filtration(rotated, 2)
    for p, q in d.chords:
        image = tuple(sorted((rot[p], rot[q])))
        assert f1.word.letters[p - 1] == f2.word.letters[image[0] - 1]
    w1 = word_of(d, 2)
    w2 = word_of(rotated, 2)
    assert w2.letters == w1.letters[1:] + w1.letters[:1]


def _defining_filtration(d, m):
    """Levels, splits and word straight from pairwise link counts."""
    survivors = set(d.chords)
    levels, splits, letter = [], [], {}
    for k in range(m):
        level = {c for c in survivors if link_count(c, survivors) % 2 == 1}
        survivors -= level
        odd = {c for c in level if link_count(c, level) % 2 == 1}
        levels.append(level)
        splits.append((odd, level - odd))
        letter.update(dict.fromkeys(odd, prime(k)))
        letter.update(dict.fromkeys(level - odd, double_prime(k)))
    levels.append(survivors)
    owner = end_map(d)
    word = tuple(letter.get(owner[j], FINAL) for j in range(1, d.size + 1))
    return levels, splits, word


def _sets(f):
    """The levels and splits of a filtration, each part a set."""
    return ([set(level) for level in f.levels],
            [(set(odd), set(even)) for odd, even in f.prime_split])


@given(diagrams(max_n=40), st.integers(1, 4))
def test_filtration_matches_the_word_reference(d, m):
    """Both cuts of the one level walk against the levels read back
    from the rank-scan word, and x against that word's value walked
    letter by letter."""
    f, reference = filtration(d, m), word_filtration(d, m)
    assert _sets(f) == _sets(reference)
    assert (f.m, f.word, f.x) == (reference.m, reference.word, reference.x)


def test_large_diagrams_match_the_pairwise_definition():
    rng = random.Random(20261018)
    for _ in range(60):
        d = random_diagram(rng.randint(20, 80), rng)
        for m in range(1, 6):
            levels, splits, word = _defining_filtration(d, m)
            f = filtration(d, m)
            assert _sets(f) == (levels, splits)
            assert f.word == (word, m) == word_of(d, m)


def _nested(n):
    return " ".join(map(str, [*range(1, n + 1), *range(n, 0, -1)]))


def _linked(n):
    return " ".join(map(str, [*range(1, n + 1)] * 2))


# the two 5-chord witnesses, the second relabelled 6..10
WITNESSES = ("1 2 1 3 4 2 4 5 3 5", "6 7 6 8 9 7 10 8 10 9")
EDGE_SHAPES = {
    "empty": "",
    "one-chord": "1 1",
    **{f"nested-{n}": _nested(n) for n in (2, 3, 8, 21)},
    **{f"linked-{n}": _linked(n) for n in (2, 3, 8, 21)},
    "witness-sum": " ".join(WITNESSES),
    # the second witness inside the first, between its third and fourth ends
    "witness-in-witness": "1 2 1 " + WITNESSES[1] + " 3 4 2 4 5 3 5",
}


@pytest.mark.parametrize("code", EDGE_SHAPES.values(), ids=EDGE_SHAPES)
def test_edge_shapes_match_the_pairwise_definition(code):
    d = parse_gauss_code(code)
    for m in range(1, 5):
        levels, splits, word = _defining_filtration(d, m)
        f = filtration(d, m)
        assert _sets(f) == (levels, splits)
        assert f.word == (word, m)


@pytest.mark.parametrize("code", ["1 2 1 2", _linked(4), "1 2 1 2 3 4 3 4"])
def test_rounds_after_every_chord_left_are_empty(code):
    """Every chord is linked with an odd number of others, so all of
    them leave in round 0 and the four later rounds have nothing left."""
    d = parse_gauss_code(code)
    levels, splits, word = _defining_filtration(d, 5)
    f = filtration(d, 5)
    assert f.levels[0] == d.chords
    assert _sets(f) == (levels, splits)
    assert f.word == (word, 5)
    assert not any(f.levels[1:])


def _check_levels(d, m):
    """_levels' parts and residue against the rank-scan word, its x
    against the step rule walked over that word and over the word its
    parts spell; the levels that hold chords, m for the residue."""
    parts, residue, x = _levels(d.chords, m)
    word = rank_word(d, m)
    lettered = {z: [c for c in d.chords if word.letters[c[0] - 1] == z]
                for z in alphabet(m)}
    reached = len(parts)
    assert reached <= m and all(odd or even for odd, even in parts)
    assert parts == [(lettered[prime(k)], lettered[double_prime(k)])
                     for k in range(reached)]
    assert not any(lettered[z] for z in alphabet(m)[2 * reached:-1])
    assert list(residue) == lettered[FINAL]
    assert step_evaluate(word) == walked_value(d.chords, m) \
        == NormalForm(tuple(x), 0)
    return set(range(reached)) | ({m} if residue else set())


@pytest.mark.parametrize("low, high, count", [
    (12, 16, 40), (31, 35, 40), (60, 300, 12)])
def test_levels_match_the_rank_word_and_the_walked_value(low, high, count):
    """Seeded diagrams of 12-16 chords (24-32 ends), of 31-35 chords
    (about 64 ends) and of 60-300 chords, at every depth 1..5."""
    rng = random.Random(20261020 + low)
    for _ in range(count):
        d = random_diagram(rng.randint(low, high), rng)
        for m in range(1, 6):
            _check_levels(d, m)


def _copies(code, count):
    """count copies of a Gauss code side by side, relabelled apart."""
    labels = code.split()
    return " ".join(f"{j}.{z}" for j in range(count) for z in labels)


@pytest.mark.parametrize("code, kept", [
    (_copies("1 2 1 2", 33), {0}), (_copies("1 2 1 3 2 4 3 4", 9), {0, 1}),
    (_linked(34), {0}), (_linked(33), {5}), (_nested(40), {5})])
def test_levels_walk_above_the_masks_until_no_chord_is_left(code, kept):
    """Above 28 ends, the levels that hold chords at depth 5 (5
    for the residue): 33 crossed pairs all leave in round 0 and 9 chains
    of four in rounds 0 and 1, so every later round finds no chord; 34
    chords linked with 33 others each leave in round 0; and 33 chords
    linked with 32 others, or 40 nested ones, never leave."""
    d = parse_gauss_code(code)
    assert d.size > 28
    for m in range(1, 6):
        held = _check_levels(d, m)
    assert held == kept


def test_adjoint_triples_carry_zero_or_two_odd_chords():
    rng = random.Random(20240817)
    for _ in range(400):
        d = random_diagram(rng.randint(3, 9), rng)
        for anchors in r3_sites(d):
            odd = sum(link_count(c, d.chords) % 2
                      for c in triple_chords(d, anchors))
            assert odd in (0, 2)


def test_level_adjoint_triples_balance_inside_their_level():
    rng = random.Random(20240818)
    for _ in range(400):
        d = random_diagram(rng.randint(3, 9), rng)
        f = filtration(d, 3)
        for anchors in r3_sites(d):
            triple = triple_chords(d, anchors)
            for k in range(3):
                level = f.levels[k]
                if triple <= set(level):
                    inner = sum(link_count(c, level) % 2 for c in triple)
                    assert inner % 2 == 0
