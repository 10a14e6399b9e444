import contextlib
import io
import json
import random
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from freeknot import (CROSSED, NESTED, ChordDiagram, GapOutOfRange, Move,
                      NotAnR1Site, NotAnR2Site, NotAnR3Site, apply_move,
                      enumerate_moves, parse_gauss_code, r1_add, r1_remove, r1_sites, r2_add,
                      r2_remove, r2_sites, r3_apply, r3_sites, random_diagram,
                      rotate_basepoint, serialize)
from freeknot.cli import _move_json, _move_text, main
from freeknot.moves import MOVE_KINDS, _adjoint_anchors
from support import (FIELD_SHAPES, diagrams, move_from_json, triple_chords,
                     written)

TRIPLE = parse_gauss_code("1 2 1 3 2 3")


class TestR1:
    def test_sites(self):
        assert r1_sites(parse_gauss_code("1 1")) == [(1, 2)]
        assert r1_sites(TRIPLE) == []
        assert r1_sites(parse_gauss_code("1 1 2 2")) == [(1, 2), (3, 4)]

    def test_remove(self):
        assert r1_remove(parse_gauss_code("1 1"), (1, 2)) == ChordDiagram()
        assert serialize(r1_remove(parse_gauss_code("1 2 2 1"), (2, 3))) \
            == "1 1"

    def test_remove_rejects_spanning_chord(self):
        with pytest.raises(NotAnR1Site):
            r1_remove(parse_gauss_code("1 2 1 2"), (1, 3))
        with pytest.raises(NotAnR1Site):
            r1_remove(parse_gauss_code("1 1"), (3, 4))

    @pytest.mark.parametrize("given", [5, None, (1, "a")])
    def test_remove_rejects_what_is_no_chord(self, given):
        """A value that is no pair of positions is no site, reported as
        NotAnR1Site and not as a failed sort."""
        with pytest.raises(NotAnR1Site, match="is not a chord"):
            r1_remove(parse_gauss_code("1 1 2 2"), given)

    def test_remove_accepts_exactly_the_sites(self):
        """On every diagram of at most four chords, r1_remove accepts a
        pair of positions, in either order, exactly when r1_sites lists
        it, and removes that chord alone."""
        for n in range(5):
            for chords in oracles.all_matchings(range(1, 2 * n + 1)):
                d = ChordDiagram(chords)
                sites = r1_sites(d)
                for chord in combinations(range(1, 2 * n + 2), 2):
                    for given in (chord, chord[::-1]):
                        if chord not in sites:
                            with pytest.raises(NotAnR1Site):
                                r1_remove(d, given)
                            continue
                        rest = [c for c in d.chords if c != chord]
                        assert r1_remove(d, given) == oracles.renumber(rest)

    def test_add(self):
        assert serialize(r1_add(ChordDiagram(), 0)) == "1 1"
        assert serialize(r1_add(parse_gauss_code("1 1"), 2)) == "1 1 2 2"
        assert serialize(r1_add(parse_gauss_code("1 1"), 1)) == "1 2 2 1"

    def test_add_gap_bounds(self):
        with pytest.raises(GapOutOfRange):
            r1_add(ChordDiagram(), 1)
        with pytest.raises(GapOutOfRange):
            r1_add(parse_gauss_code("1 1"), -1)


class TestR2:
    def test_sites(self):
        assert r2_sites(parse_gauss_code("1 2 1 2")) == [((1, 3), (2, 4))]
        assert r2_sites(parse_gauss_code("1 2 2 1")) == [((1, 4), (2, 3))]
        assert r2_sites(TRIPLE) == []

    def test_remove(self):
        assert r2_remove(parse_gauss_code("1 2 1 2"),
                         ((1, 3), (2, 4))) == ChordDiagram()
        # order of the pair is immaterial
        assert r2_remove(parse_gauss_code("1 2 2 1"),
                         ((2, 3), (1, 4))) == ChordDiagram()

    def test_remove_rejects_distant_pair(self):
        d = parse_gauss_code("1 2 3 1 2 3")
        with pytest.raises(NotAnR2Site):
            r2_remove(d, ((1, 4), (3, 6)))

    @pytest.mark.parametrize("given", [
        [], [(1, 4)], [(1, 4), (2, 5), (3, 6)], [(1, 4), (1, 4)]])
    def test_remove_rejects_other_chord_counts(self, given):
        """Anything but two distinct chords is no site, reported as
        NotAnR2Site and not as a failed unpacking."""
        with pytest.raises(NotAnR2Site):
            r2_remove(parse_gauss_code("1 2 3 1 2 3"), given)

    @pytest.mark.parametrize("given", [
        [(1, 2, 3), (2, 4)], [1, 2], None, [(1, "a"), (2, 4)]])
    def test_remove_rejects_what_is_no_chord_list(self, given):
        """A value that is no list of pairs of positions is no site,
        reported as NotAnR2Site and not as a failed unpacking."""
        with pytest.raises(NotAnR2Site, match="is not a list of chords"):
            r2_remove(parse_gauss_code("1 2 1 2"), given)

    def test_remove_rejections_name_the_normalised_chords(self):
        with pytest.raises(NotAnR2Site) as info:
            r2_remove(parse_gauss_code("1 2 3 1 2 3"), [(4, 1), (6, 3)])
        assert str(info.value) \
            == "((1, 4), (3, 6)) is not an adjacent chord pair"
        with pytest.raises(NotAnR1Site) as info:
            r1_remove(parse_gauss_code("1 2 1 2"), (3, 1))
        assert str(info.value) == "(1, 3) is not a removable small chord"

    def test_remove_accepts_exactly_the_sites(self):
        """On every diagram of at most four chords, r2_remove accepts
        two chords, in either order, exactly when r2_sites lists them,
        and removes those two alone.  Up to three chords the candidates
        include every pair of positions, present as a chord or not."""
        for n in range(5):
            for chords in oracles.all_matchings(range(1, 2 * n + 1)):
                d = ChordDiagram(chords)
                sites = r2_sites(d)
                pool = (list(combinations(range(1, 2 * n + 2), 2)) if n < 4
                        else d.chords)
                for pair in permutations(pool, 2):
                    if tuple(sorted(pair)) not in sites:
                        with pytest.raises(NotAnR2Site):
                            r2_remove(d, pair)
                        continue
                    rest = [c for c in d.chords if c not in pair]
                    assert r2_remove(d, pair) == oracles.renumber(rest)

    def test_add(self):
        assert serialize(r2_add(ChordDiagram(), 0, 0, CROSSED)) == "1 2 1 2"
        assert serialize(r2_add(ChordDiagram(), 0, 0, NESTED)) == "1 2 2 1"
        assert serialize(r2_add(parse_gauss_code("1 1"), 0, 2, NESTED)) \
            == "1 2 3 3 2 1"

    def test_add_validation(self):
        with pytest.raises(GapOutOfRange):
            r2_add(ChordDiagram(), 0, 1, CROSSED)
        with pytest.raises(GapOutOfRange):
            r2_add(parse_gauss_code("1 1"), 2, 1, CROSSED)
        with pytest.raises(ValueError):
            r2_add(ChordDiagram(), 0, 0, "braided")


class TestRoundTrips:
    """Removing what an insertion just made gives the diagram back, on
    every diagram of at most four chords: each R1 gap, and each R2 gap
    pair in both patterns."""

    def test_r1(self):
        for n in range(5):
            for chords in oracles.all_matchings(range(1, 2 * n + 1)):
                d = ChordDiagram(chords)
                for gap in range(d.size + 1):
                    grown = r1_add(d, gap)
                    assert (gap + 1, gap + 2) in grown.chords
                    assert r1_remove(grown, (gap + 1, gap + 2)) == d

    def test_r2(self):
        inserted = {CROSSED: lambda a, b: ((a, b), (a + 1, b + 1)),
                    NESTED: lambda a, b: ((a, b + 1), (a + 1, b))}
        for n in range(5):
            for chords in oracles.all_matchings(range(1, 2 * n + 1)):
                d = ChordDiagram(chords)
                gaps = combinations_with_replacement(range(d.size + 1), 2)
                for (gap1, gap2), pattern in product(gaps, inserted):
                    grown = r2_add(d, gap1, gap2, pattern)
                    pair = inserted[pattern](gap1 + 1, gap2 + 3)
                    assert set(pair) <= set(grown.chords)
                    assert r2_remove(grown, pair) == d


class TestR3:
    def test_sites(self):
        assert r3_sites(TRIPLE) == [(1, 3, 5)]
        assert triple_chords(TRIPLE, (1, 3, 5)) == {(1, 3), (2, 5), (4, 6)}
        three = parse_gauss_code("1 2 3 1 2 3")
        assert r3_sites(three) == [(1, 3, 5)]
        assert triple_chords(three, (1, 3, 5)) == {(1, 4), (2, 5), (3, 6)}
        assert r3_sites(parse_gauss_code("1 1")) == []

    def test_apply(self):
        anchors = r3_sites(TRIPLE)[0]
        assert serialize(r3_apply(TRIPLE, anchors)) == "1 2 3 2 3 1"

    def test_apply_is_an_involution(self):
        before = TRIPLE
        after = r3_apply(before, r3_sites(before)[0])
        assert r3_apply(after, r3_sites(after)[0]) == before

    def test_lookup_by_anchors(self):
        assert r3_apply(TRIPLE, (5, 1, 3)) == r3_apply(TRIPLE, (1, 3, 5))
        with pytest.raises(NotAnR3Site) as info:
            r3_apply(TRIPLE, (2, 3, 1))
        assert str(info.value) == "no completely adjoint triple at (1, 2, 3)"
        with pytest.raises(NotAnR3Site):
            r3_apply(TRIPLE, (1, 3, 99))

    @pytest.mark.parametrize("given", [5, None, (1, "a"), ("a", "b", "c")])
    def test_apply_rejects_what_is_no_anchor_list(self, given):
        """A value that is no list of positions is no site, reported as
        NotAnR3Site and not as a failed sort or sum."""
        with pytest.raises(NotAnR3Site, match="is not a list of positions"):
            r3_apply(TRIPLE, given)

    def test_applies_exactly_at_listed_sites(self):
        """On every diagram of at most five chords, r3_apply accepts
        exactly the anchors r3_sites lists, and undoes itself there."""
        for n in range(6):
            for chords in oracles.all_matchings(range(1, 2 * n + 1)):
                d = ChordDiagram(chords)
                applied = set()
                for anchors in combinations(range(1, 2 * n), 3):
                    try:
                        after = r3_apply(d, anchors)
                    except NotAnR3Site:
                        continue
                    assert r3_apply(after, anchors) == d
                    applied.add(anchors)
                assert applied == set(r3_sites(d))

    def test_anchors_match_the_oracle(self):
        """The test on six sorted ends agrees with the oracle's search
        over matchings on every three chords of every diagram of at
        most five chords, and on the repeated triple (first, second,
        second) that r3_sites passes when the chord at r + 1 borders
        the far end of the first."""
        found = 0
        for n in range(6):
            for chords in oracles.all_matchings(range(1, 2 * n + 1)):
                triples = [*combinations(chords, 3),
                           *((a, b, b) for a, b in permutations(chords, 2))]
                for chords3 in triples:
                    anchors = _adjoint_anchors(chords3)
                    assert anchors == oracles._adjoint_anchors(chords3)
                    found += anchors is not None
        assert found > 100

    STACK = "1 2 3 4 5 6 1 2 3 4 5 6"

    @pytest.mark.parametrize("code, anchors, owners", [
        ("1 1", (1, 1, 1), 1),
        (STACK, (1, 7, 7), 2),
        (STACK, (1, 3, 7), 4),
        (STACK, (1, 3, 6), 5),
        (STACK, (1, 3, 5), 6),
    ])
    def test_other_owner_counts_are_no_site(self, code, anchors, owners):
        """r3_apply tests the owners of the six positions it would swap,
        one to six chords; any count but three is no site, reported as
        NotAnR3Site and not as a failed unpacking."""
        d = parse_gauss_code(code)
        chords = triple_chords(d, anchors)
        assert len(chords) == owners
        assert _adjoint_anchors(chords) is None
        with pytest.raises(NotAnR3Site):
            r3_apply(d, anchors)


def _grown(n: int, rng: random.Random) -> ChordDiagram:
    """A diagram of n or n - 1 chords grown by random R2 insertions,
    which leaves far more R2 and R3 sites than a uniform one."""
    d = ChordDiagram()
    while d.n + 2 <= n:
        gap1 = rng.randint(0, d.size)
        gap2 = rng.randint(gap1, d.size)
        d = r2_add(d, gap1, gap2, rng.choice((CROSSED, NESTED)))
    return d


class TestSitesAgainstOracles:
    """The O(n) site scans list what testing every pair and triple
    lists, in the same order."""

    EDGE_CODES = [
        "", "1 1", "1 1 2 2 3 3", "1 2 3 1 2 3", "1 2 1 2",
        "1 2 3 4 4 3 2 1",  # nested stack: every neighbour pair adjacent
        "1 2 3 4 1 2 3 4",  # crossed stack: every neighbour pair adjacent
        "1 2 3 1 3 2",  # the third chord sits on both sides of a far end
        "1 2 3 1 4 4 2 3",  # two triples from one lowest end: the first
        "1 2 3 2 4 4 1 3",  # listed uses the chord below / above the far end
        "1 2 1 3 4 2 5 3 5 4",
        "1 2 3 2 1 3",  # its triple passes the precheck from end 2 too
    ]

    @pytest.mark.parametrize("code", EDGE_CODES)
    def test_edge_inputs(self, code):
        d = parse_gauss_code(code)
        assert r2_sites(d) == oracles.r2_sites(d)
        assert r3_sites(d) == oracles.r3_sites(d)

    def test_every_small_matching(self):
        for n in range(6):
            for chords in oracles.all_matchings(range(1, 2 * n + 1)):
                d = ChordDiagram(chords)
                assert r2_sites(d) == oracles.r2_sites(d)
                assert r3_sites(d) == oracles.r3_sites(d)

    def test_two_triples_from_one_lowest_end(self):
        for code in ("1 2 3 1 4 4 2 3", "1 2 3 2 4 4 1 3"):
            assert r3_sites(parse_gauss_code(code)) == [(1, 3, 7), (1, 4, 6)]

    def test_random_diagrams(self):
        rng = random.Random(41)
        listed = [0, 0]
        for _ in range(60):
            n = rng.randint(0, 40)
            for d in (random_diagram(n, rng), _grown(n, rng)):
                r2, r3 = r2_sites(d), r3_sites(d)
                assert r2 == oracles.r2_sites(d)
                assert r3 == oracles.r3_sites(d)
                listed[0] += len(r2)
                listed[1] += len(r3)
        assert min(listed) > 50  # the inputs do exercise both scans


class TestApplicableMoves:
    """scramble draws its move by index from the sequence
    enumerate_moves returns; reduce and moves iterate it."""

    def test_every_index_builds_the_listed_move(self):
        rng = random.Random(42)
        for _ in range(150):
            d = random_diagram(rng.randint(0, 6), rng)
            cap = d.n + rng.randint(0, 3)
            options = enumerate_moves(d, cap)
            listed = list(options)
            assert len(options) == len(listed)
            assert [options[i] for i in range(len(options))] == listed
            for outside in (len(options), -len(options) - 1):
                with pytest.raises(IndexError):
                    options[outside]

    def test_negative_indices_count_from_the_end(self):
        """As a list's do: `1 2 1 2` lists 38 moves at cap 4, and
        index -1 is the last of them."""
        options = enumerate_moves(parse_gauss_code("1 2 1 2"), 4)
        assert len(options) == 38 and options[-1] == list(options)[-1]
        rng = random.Random(44)
        for n in range(21):
            d = random_diagram(n, rng)
            options = enumerate_moves(d, n + rng.randint(0, 2))
            listed = list(options)
            for k in range(1, len(listed) + 1):
                assert options[-k] == listed[-k]

    SLICES = [slice(None), slice(1, 3), slice(-3, None), slice(None, -2),
              slice(None, None, -1), slice(1, None, 3), slice(-1, 2, -2),
              slice(-100, 100), slice(50, 10**6), slice(5, 2), slice(0, 0),
              slice(None, None, 7), slice(-5, -1, 2)]

    def test_slices_return_the_list_slice(self):
        """As a list's do: `1 2 1 2` at cap 4 gives its moves 1 and 2."""
        options = enumerate_moves(parse_gauss_code("1 2 1 2"), 4)
        assert options[1:3] == list(options)[1:3]
        rng = random.Random(45)
        for n in range(21):
            d = random_diagram(n, rng)
            options = enumerate_moves(d, n + rng.randint(0, 2))
            listed = list(options)
            for s in self.SLICES:
                assert options[s] == listed[s], (n, s)

    def test_listing_ends_with_the_two_rotations(self):
        """The move trial draws below len - 2 to skip the rotations."""
        rotations = [Move("rotate", (1,)), Move("rotate", (-1,))]
        rng = random.Random(46)
        for n in range(1, 12):
            for _ in range(20):
                d = random_diagram(n, rng)
                for cap in range(14):
                    options = enumerate_moves(d, cap)
                    kinds = [name for name, sites in options.blocks
                             for _ in sites]
                    assert kinds.count("rotate") == 2, (d, cap)
                    assert options[-2:] == rotations, (d, cap)
        assert not any(mv.kind == "rotate" for cap in range(14)
                       for mv in enumerate_moves(ChordDiagram(), cap))

    def test_r2_insertions_index_like_their_iteration(self):
        for n in range(7):
            d = random_diagram(n, random.Random(n))
            insertions = MOVE_KINDS["r2_add"].sites(d, n + 2)
            assert [insertions[i] for i in range(len(insertions))] \
                == list(insertions)
            for outside in (len(insertions), -len(insertions) - 1):
                with pytest.raises(IndexError):
                    insertions[outside]

    def test_r2_insertions_count_negative_indices_from_the_end(self):
        """As a list's do: `1 2 1 2` under cap 10 has 30 insertions, and
        index -1 is the last of them."""
        insertions = MOVE_KINDS["r2_add"].sites(parse_gauss_code("1 2 1 2"),
                                                10)
        assert len(insertions) == 30 and insertions[-1] == (4, 4, NESTED)
        for n in range(5):
            insertions = MOVE_KINDS["r2_add"].sites(
                random_diagram(n, random.Random(n)), n + 2)
            listed = list(insertions)
            for k in range(1, len(listed) + 1):
                assert insertions[-k] == listed[-k]

    def test_r2_insertions_slices_return_the_list_slice(self):
        """As a list's do: `1 2 1 2` under cap 10 gives its insertions
        1 and 2."""
        insertions = MOVE_KINDS["r2_add"].sites(parse_gauss_code("1 2 1 2"),
                                                10)
        assert insertions[1:3] == [(0, 0, NESTED), (0, 1, CROSSED)]
        for n in range(5):
            insertions = MOVE_KINDS["r2_add"].sites(
                random_diagram(n, random.Random(n)), n + 2)
            listed = list(insertions)
            for s in self.SLICES:
                assert insertions[s] == listed[s], (n, s)

    def test_every_index_on_a_large_diagram(self):
        d = _grown(30, random.Random(43))
        options = enumerate_moves(d, d.n + 2)
        listed = list(options)
        assert len(listed) > 3600
        assert [options[i] for i in range(len(options))] == listed


class TestRotate:
    def test_examples(self):
        assert serialize(rotate_basepoint(TRIPLE, 1)) == "1 2 3 1 3 2"
        assert serialize(rotate_basepoint(TRIPLE, -1)) == "1 2 3 2 1 3"
        assert rotate_basepoint(ChordDiagram(), 5) == ChordDiagram()

    @given(diagrams(min_n=1), st.integers(-12, 12))
    def test_full_turn_and_inverse_steps(self, d, steps):
        assert rotate_basepoint(d, d.size) == d
        assert rotate_basepoint(rotate_basepoint(d, steps), -steps) == d
        assert rotate_basepoint(d, steps) \
            == rotate_basepoint(d, steps % d.size)


class TestPositionTypes:
    """A gap, step or anchor that is not an int, a float equal to one
    or a bool included, is rejected with the move's own error, and no
    diagram gets a float end; ints are kept."""

    NOT_INTS = [1.5, 1.0, True, False, "1", None]

    @pytest.mark.parametrize("gap", NOT_INTS)
    def test_r1_add(self, gap):
        with pytest.raises(GapOutOfRange, match="is not an int"):
            r1_add(TRIPLE, gap)

    @pytest.mark.parametrize("bad", NOT_INTS)
    @pytest.mark.parametrize("pattern", [CROSSED, NESTED])
    def test_r2_add(self, bad, pattern):
        for gaps in ((bad, 2), (0, bad)):
            with pytest.raises(GapOutOfRange, match="are not ints"):
                r2_add(TRIPLE, *gaps, pattern)

    @pytest.mark.parametrize("steps", NOT_INTS)
    def test_rotate(self, steps):
        for d in (TRIPLE, ChordDiagram()):
            with pytest.raises(ValueError, match="is not an int"):
                rotate_basepoint(d, steps)

    @pytest.mark.parametrize("anchors", [
        (1.0, 3, 5), (1, 3.0, 5), (1, 3, 5.0), (1.0, 3.0, 5.0), (True, 3, 5)])
    def test_r3_apply(self, anchors):
        """Each list equals (1, 3, 5), a site of TRIPLE."""
        assert r3_apply(TRIPLE, (1, 3, 5))
        with pytest.raises(NotAnR3Site, match="no completely adjoint"):
            r3_apply(TRIPLE, anchors)

    @pytest.mark.parametrize("chord", [(1.0, 2.0), (True, 2), (1, 2.0)])
    def test_r1_remove(self, chord):
        """Each chord equals (1, 2), a site of `1 1 2 2`."""
        d = parse_gauss_code("1 1 2 2")
        assert r1_remove(d, (1, 2)) == parse_gauss_code("1 1")
        with pytest.raises(NotAnR1Site, match="is not an int"):
            r1_remove(d, chord)

    @pytest.mark.parametrize("pair", [
        [(True, 3), (2, 4)], [(1.0, 3.0), (2.0, 4.0)], [(1, 3), (2, 4.0)]])
    def test_r2_remove(self, pair):
        """Each pair equals ((1, 3), (2, 4)), a site of `1 2 1 2 3 3`."""
        d = parse_gauss_code("1 2 1 2 3 3")
        assert r2_remove(d, [(1, 3), (2, 4)]) == parse_gauss_code("1 1")
        with pytest.raises(NotAnR2Site, match="is not an int"):
            r2_remove(d, pair)

    def test_r2_remove_takes_a_pair_anywhere(self):
        """The type check reads the pair's ends alone: a pair that does
        not sit at positions 1..4 is still removed."""
        d = parse_gauss_code("1 1 2 3 2 3")
        assert r2_remove(d, [(3, 5), (4, 6)]).chords == ((1, 2),)

    def test_int_positions_give_int_ends(self):
        """The moves that take positions write only int ends."""
        moved = [r1_add(TRIPLE, 1), r2_add(TRIPLE, 1, 2, CROSSED),
                 rotate_basepoint(TRIPLE, 1), r3_apply(TRIPLE, (1, 3, 5))]
        for d in moved:
            assert {type(e) for c in d.chords for e in c} == {int}


class TestEnumerate:
    def test_empty_diagram(self):
        assert list(enumerate_moves(ChordDiagram(), 1)) \
            == [Move("r1_add", (0,))]
        assert list(enumerate_moves(ChordDiagram(), 0)) == []

    def test_one_chord(self):
        assert list(enumerate_moves(parse_gauss_code("1 1"), 2)) == [
            Move("r1_remove", ((1, 2),)),
            Move("r1_add", (0,)), Move("r1_add", (1,)), Move("r1_add", (2,)),
            Move("rotate", (1,)), Move("rotate", (-1,)),
        ]

    @given(diagrams(max_n=5), st.integers(0, 7))
    def test_budget_respected(self, d, cap):
        for move in enumerate_moves(d, cap):
            assert apply_move(d, move).n <= max(cap, d.n)


class TestApplyAndInvert:
    @given(diagrams(max_n=5))
    def test_every_move_is_undone_by_a_listed_move(self, d):
        """The move graph is symmetric: whatever a move does, some move
        listed on its result, within the chord count it started from,
        undoes."""
        for move in enumerate_moves(d, d.n + 2):
            after = apply_move(d, move)
            assert any(apply_move(after, back) == d
                       for back in enumerate_moves(after, d.n))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_move(ChordDiagram(), Move("slide", ()))


class TestSerialization:
    def test_round_trip_every_kind(self):
        d = parse_gauss_code("1 1 2 3 4 2 3 4")
        first = {}
        for move in enumerate_moves(d, d.n + 2):
            assert move_from_json(written(_move_json(move))) == move
            first.setdefault(move.kind, move)
        assert {kind: (_move_text(mv), written(_move_json(mv)))
                for kind, mv in first.items()} == {
            "r1_remove": ("r1_remove chord=(1,2)",
                          {"kind": "r1_remove", "chord": [1, 2]}),
            "r2_remove": ("r2_remove chords=(3,6),(4,7)",
                          {"kind": "r2_remove", "chords": [[3, 6], [4, 7]]}),
            "r3": ("r3 anchors=(3,5,7)",
                   {"kind": "r3", "anchors": [3, 5, 7]}),
            "r1_add": ("r1_add gap=0", {"kind": "r1_add", "gap": 0}),
            "r2_add": ("r2_add gap1=0 gap2=0 pattern=crossed",
                       {"kind": "r2_add", "gap1": 0, "gap2": 0,
                        "pattern": CROSSED}),
            "rotate": ("rotate steps=1", {"kind": "rotate", "steps": 1}),
        }
        small = parse_gauss_code("1 2 1 2")
        for move in enumerate_moves(small, 2):
            assert move_from_json(written(_move_json(move))) == move

    def test_text_forms(self):
        assert _move_text(Move("r1_add", (3,))) == "r1_add gap=3"
        assert _move_text(Move("r3", ((3, 5, 7),))) == "r3 anchors=(3,5,7)"
        assert written(_move_json(Move("r1_add", (3,)))) \
            == {"kind": "r1_add", "gap": 3}

    def test_written_fields_have_their_shapes(self):
        """Every field of every move record that `moves --json` writes
        has the shape FIELD_SHAPES gives it, and the records read back
        as the listing, on random diagrams where all six kinds turn
        up."""
        rng = random.Random(44)
        kinds = set()
        for _ in range(40):
            n = rng.randint(1, 8)
            for d in (random_diagram(n, rng), _grown(n, rng)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["moves", "--json",
                                 "--gauss", serialize(d)]) == 0
                records = json.loads(out.getvalue())["moves"]
                assert list(map(move_from_json, records)) \
                    == list(enumerate_moves(d, d.n + 2))
                for record in records:
                    move = move_from_json(record)
                    assert sorted(record) \
                        == sorted(["kind", *MOVE_KINDS[move.kind].fields])
                    for f in MOVE_KINDS[move.kind].fields:
                        assert FIELD_SHAPES[f](record[f]), (f, record[f])
                    kinds.add(move.kind)
        assert kinds == set(MOVE_KINDS)

    @pytest.mark.parametrize("obj, field", [
        ({"kind": "r1_add", "gap": "x"}, "gap"),
        ({"kind": "r1_add", "gap": True}, "gap"),
        ({"kind": "r1_remove", "chord": [1, 2, 3]}, "chord"),
        ({"kind": "r1_remove", "chord": [1.0, 2]}, "chord"),
        ({"kind": "r2_remove", "chords": [[1, 3]]}, "chords"),
        ({"kind": "r2_remove", "chords": [[1, 3], [2, "4"]]}, "chords"),
        ({"kind": "r2_remove", "chords": [1, 3]}, "chords"),
        ({"kind": "rotate", "steps": 1.5}, "steps"),
        ({"kind": "r3", "anchors": [1, 2]}, "anchors"),
        ({"kind": "r3", "anchors": "123"}, "anchors"),
        ({"kind": "r2_add", "gap1": 0, "gap2": None,
          "pattern": CROSSED}, "gap2"),
        ({"kind": "r2_add", "gap1": 0, "gap2": 0, "pattern": "x"},
         "pattern"),
    ])
    def test_json_rejects_malformed_fields(self, obj, field):
        """The shapes are not vacuous: each rejects a malformed value."""
        assert not FIELD_SHAPES[field](obj[field])

    def test_every_field_has_a_shape(self):
        assert set(FIELD_SHAPES) \
            == {f for kind in MOVE_KINDS.values() for f in kind.fields}
