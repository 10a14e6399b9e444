import json
import random
from collections.abc import Sized

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import make_scramble_golden
from freeknot import (CERTIFIED_DISTINCT, EXHAUSTED, FREE, MINIMAL_FOUND,
                      REDUCED_TO_EMPTY, SAME_INVARIANT, ChordDiagram,
                      InvalidM, NormalForm, apply_move, conjugate,
                      conjugate_equal, distinguish, evaluate,
                      move_invariance_trial,
                      parse_gauss_code, random_diagram, reduce,
                      rotate_basepoint, rotation_canonical_code,
                      rotation_classes, rotation_conjugacy_trial, scramble,
                      search_nontrivial, serialize, word_of)
from oracles import (all_matchings, breadth_first_reduce,
                     rotation_class_codes, search_by_matchings)
from support import diagrams

WITNESS = "1 2 1 3 4 2 5 3 5 4"
# rotation classes of diagrams on n = 1..8 chords (OEIS A007769)
CLASS_COUNTS = [1, 2, 5, 18, 105, 902, 9749, 127072]


class TestRandomDiagram:
    def test_shape_and_determinism(self):
        rng = random.Random(5)
        d = random_diagram(6, rng)
        assert d.n == 6
        assert random_diagram(6, random.Random(5)) == d
        assert random_diagram(0, rng) == ChordDiagram()


class TestScramble:
    def test_deterministic_per_seed(self):
        d = parse_gauss_code(WITNESS)
        assert scramble(d, 40, seed=7, size_cap=10) \
            == scramble(d, 40, seed=7, size_cap=10)
        assert scramble(d, 40, seed=7, size_cap=10) \
            != scramble(d, 40, seed=8, size_cap=10)

    def test_zero_moves_is_identity(self):
        d = parse_gauss_code(WITNESS)
        assert scramble(d, 0, seed=3, size_cap=10) == d

    def test_cap_below_current_size_rejected(self):
        with pytest.raises(ValueError):
            scramble(parse_gauss_code(WITNESS), 5, seed=1, size_cap=4)

    def test_replays_the_seeded_table(self):
        cases = json.loads(make_scramble_golden.TABLE.read_text())
        changed = [case for case in cases if make_scramble_golden.run(
            case["code"], case["moves"], case["seed"], case["size_cap"])
            != case["result"]]
        assert len(cases) == 48 and changed == []

    def test_respects_cap_and_keeps_value_up_to_sign(self):
        d = parse_gauss_code(WITNESS)
        out = scramble(d, 40, seed=7, size_cap=10)
        assert out.n <= 10
        # rotations may conjugate the value; at depth one that flips sign
        assert evaluate(word_of(out, 1)) in (
            NormalForm((8,), 0), NormalForm((-8,), 0))


def replay(d, path):
    for move in path:
        d = apply_move(d, move)
    return d


class TestReduce:
    def test_empty_input(self):
        rep = reduce(ChordDiagram(), 10, 1)
        assert rep.outcome == REDUCED_TO_EMPTY
        assert rep.path == () and rep.visited == 1
        # not even the start diagram fits under a zero cap
        rep = reduce(ChordDiagram(), 0, 1)
        assert (rep.outcome, rep.visited, rep.shortest) == (EXHAUSTED, 0,
                                                            False)

    def test_unknotted_three_chords(self):
        d = parse_gauss_code("1 2 3 1 2 3")
        rep = reduce(d, 10000, d.n + 1)
        assert rep.outcome == REDUCED_TO_EMPTY
        cur = d
        for mv in rep.path:
            cur = apply_move(cur, mv)
        assert cur == ChordDiagram()
        assert rep.diagram == ChordDiagram()

    def test_nontrivial_witness_is_minimal_in_its_budget(self):
        d = parse_gauss_code(WITNESS)
        rep = reduce(d, 2000, d.n)
        assert rep.outcome == MINIMAL_FOUND
        assert rep.diagram.n == d.n  # nothing smaller in reach
        cur = d
        for mv in rep.path:
            cur = apply_move(cur, mv)
        assert cur == rep.diagram

    def test_state_cap_exhausts(self):
        d = parse_gauss_code(WITNESS)
        rep = reduce(d, 50, d.n + 1)
        assert rep.outcome == EXHAUSTED
        assert rep.path is None and rep.diagram is None

    def test_report_serializes(self):
        rep = reduce(parse_gauss_code("1 1"), 100, 2)
        obj = rep.to_json()
        assert obj["outcome"] == REDUCED_TO_EMPTY
        assert obj["gauss"] == ""
        assert obj["path"] == [{"kind": "r1_remove", "chord": [1, 2]}]
        assert obj["shortest"] is True

    @given(diagrams(max_n=6), st.integers(0, 2), st.integers(0, 400))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_breadth_first_oracle(self, d, extra, cap):
        rep = reduce(d, cap, d.n + extra)
        assert rep.visited <= cap
        assert (rep.path is None) == (rep.outcome == EXHAUSTED)
        if rep.path is not None:
            assert replay(d, rep.path) == rep.diagram
        if rep.outcome == REDUCED_TO_EMPTY:
            assert rep.diagram == ChordDiagram()
        oracle = breadth_first_reduce(d, 1000, d.n + extra)
        if oracle.outcome != EXHAUSTED and rep.shortest:
            assert rep.outcome == oracle.outcome
            assert len(rep.path) == len(oracle.path)
            assert rep.diagram.n == oracle.diagram.n

    @pytest.mark.parametrize("code", [
        WITNESS, "1 2 1 3 2 4 5 4 3 5", "1 1 2 3 2 4 5 3 6 4 6 5",
        "1 2 1 3 4 4 5 2 6 3 6 5", "1 2 3 4 1 5 6 2 7 3 4 5 7 6"])
    def test_least_diagram_as_near_as_the_oracle_finds_it(self, code):
        """Diagrams that no move sequence within their own size empties,
        some with a kink or a removable pair around a witness."""
        d = parse_gauss_code(code)
        rep = reduce(d, 6000, d.n)
        oracle = breadth_first_reduce(d, 6000, d.n)
        assert rep.outcome == oracle.outcome == MINIMAL_FOUND
        assert rep.shortest
        assert len(rep.path) == len(oracle.path)
        assert rep.diagram.n == oracle.diagram.n
        assert replay(d, rep.path) == rep.diagram

    def test_cap_cutting_the_proof_keeps_the_descent_path(self):
        """The descent empties this diagram in 4 moves through 5 states;
        proving that 3 moves suffice needs more states than that."""
        d = parse_gauss_code("1 2 3 4 4 2 5 5 3 1")
        cut = reduce(d, 5, d.n + 1)
        assert (cut.outcome, cut.shortest, cut.visited) == (
            REDUCED_TO_EMPTY, False, 5)
        assert len(cut.path) == 4 and replay(d, cut.path) == ChordDiagram()
        full = reduce(d, 1000, d.n + 1)
        assert (full.outcome, full.shortest) == (REDUCED_TO_EMPTY, True)
        assert len(full.path) == 3 and replay(d, full.path) == ChordDiagram()

    @pytest.mark.parametrize("code, outcome, moves, chords", [
        ("1 2 3 1 4 2 5 3 4 5", REDUCED_TO_EMPTY, 8, 0),
        ("1 2 1 3 2 4 3 5 4 5", REDUCED_TO_EMPTY, 7, 0),
        ("1 2 1 3 2 4 5 4 3 5", MINIMAL_FOUND, 0, 5),
    ])
    def test_hard_small_unknots(self, code, outcome, moves, chords):
        """Five-chord diagrams the removal descent cannot empty: the
        first two need insertions on the way, the third is as small as
        it gets within seven chords."""
        d = parse_gauss_code(code)
        rep = reduce(d, 20000, 7)
        assert (rep.outcome, rep.shortest) == (outcome, True)
        assert len(rep.path) == moves and rep.diagram.n == chords
        assert replay(d, rep.path) == rep.diagram


class TestDistinguish:
    def test_exact_values(self):
        trivial = parse_gauss_code("1 2 3 1 2 3")
        assert distinguish(trivial, parse_gauss_code("1 1"),
                           [1, 2])[0] == SAME_INVARIANT
        assert distinguish(parse_gauss_code(WITNESS), ChordDiagram(),
                           [1])[0] == CERTIFIED_DISTINCT

    def test_free_mode_uses_conjugacy(self):
        d = parse_gauss_code(WITNESS)
        rotated = rotate_basepoint(d, 1)
        if evaluate(word_of(d, 1)) != evaluate(word_of(rotated, 1)):
            assert distinguish(d, rotated, [1])[0] == CERTIFIED_DISTINCT
        assert distinguish(d, rotated, [1], mode=FREE)[0] == SAME_INVARIANT

    def test_free_mode_is_exact_at_every_depth(self):
        assert distinguish(parse_gauss_code("1 1"),
                           parse_gauss_code("1 2 2 3 3 1"), [1],
                           mode=FREE)[0] == SAME_INVARIANT
        d = parse_gauss_code(WITNESS)
        assert distinguish(d, parse_gauss_code("1 1"), [1],
                           mode=FREE)[0] == CERTIFIED_DISTINCT
        rotated = rotate_basepoint(d, 3)
        assert distinguish(d, rotated, [1, 2, 3], mode=FREE)[0] \
            == SAME_INVARIANT
        for m in (1, 2, 3):
            a, b = evaluate(word_of(d, m)), evaluate(word_of(rotated, m))
            assert conjugate(a, conjugate_equal(a, b).witness) == b

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            distinguish(ChordDiagram(), ChordDiagram(), [1], mode="loop")

    def test_unknown_mode_is_rejected_without_depths(self):
        d = parse_gauss_code(WITNESS)
        with pytest.raises(ValueError, match="unknown mode"):
            distinguish(d, d, [], mode="loop")

    def test_one_entry_per_depth(self):
        d = parse_gauss_code(WITNESS)
        assert distinguish(d, d, []) == (SAME_INVARIANT, [])
        verdict, per_m = distinguish(d, ChordDiagram(), [1, 2])
        assert verdict == CERTIFIED_DISTINCT
        assert per_m == [
            {"m": m, "left": evaluate(word_of(d, m)).to_json(),
             "right": {"m": m, "x": [0] * m, "eps": 0},
             "relation": "distinct", "witness": None} for m in (1, 2)]
        verdict, per_m = distinguish(d, rotate_basepoint(d, 1), [1],
                                     mode=FREE)
        assert verdict == SAME_INVARIANT
        assert per_m[0]["relation"] == "conjugate"
        assert per_m[0]["witness"] == ["P0"]


class TestRotationCanonicalCode:
    def test_examples(self):
        assert rotation_canonical_code(parse_gauss_code("1 2 3 1 3 2")) \
            == "1 2 1 3 2 3"
        assert rotation_canonical_code(ChordDiagram()) == ""

    @given(diagrams(min_n=1, max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_constant_on_rotation_classes(self, d):
        code = rotation_canonical_code(d)
        for s in range(d.size):
            assert rotation_canonical_code(rotate_basepoint(d, s)) == code
        # and the code is itself one of the rotations
        assert rotation_canonical_code(parse_gauss_code(code)) == code


class TestAllMatchings:
    def test_counts(self):
        assert sum(1 for _ in all_matchings(range(1, 7))) == 15
        assert list(all_matchings([])) == [()]

    def test_every_matching_is_a_diagram(self):
        seen = set()
        for chords in all_matchings(range(1, 7)):
            d = ChordDiagram(chords)
            assert d.n == 3
            seen.add(d)
        assert len(seen) == 15


def gap_sequence(d: ChordDiagram) -> list[int]:
    """(partner(i) - i) mod 2n for each position i = 1..2n."""
    gaps = [0] * d.size
    for p, q in d.chords:
        gaps[p - 1], gaps[q - 1] = q - p, d.size - q + p
    return gaps


class TestRotationClasses:
    @pytest.mark.parametrize("n", range(7))
    def test_one_diagram_per_class_of_the_oracle(self, n):
        codes = [rotation_canonical_code(d) for d in rotation_classes(n)]
        assert len(set(codes)) == len(codes)
        assert set(codes) == set(rotation_class_codes(n))

    def test_counts_follow_oeis_a007769(self):
        """Through eight chords each diagram's gap sequence is the least
        of its rotations and exceeds the one before, so no class comes
        twice, and the counts say that none is missing."""
        for n, count in enumerate(CLASS_COUNTS, start=1):
            previous, seen = [], 0
            for d in rotation_classes(n):
                gaps = gap_sequence(d)
                assert d.n == n and gaps > previous
                twice = gaps * 2
                assert all(gaps <= twice[s:s + d.size]
                           for s in range(1, d.size))
                previous, seen = gaps, seen + 1
            assert seen == count, n

    def test_is_lazy(self):
        classes = rotation_classes(8)
        assert not isinstance(classes, Sized)
        assert serialize(next(classes)) == "1 1 2 2 3 3 4 4 5 5 6 6 7 7 8 8"


class TestSearchNontrivial:
    def test_nothing_below_five_chords(self):
        assert search_nontrivial(4, [1], 10**6) == ([[]], 26, True)

    def test_five_chord_witnesses(self):
        (found,), _, _ = search_nontrivial(5, [1], 10**6)
        assert [serialize(d) for d in found] \
            == ["1 2 1 3 4 2 4 5 3 5", "1 2 1 3 4 2 5 3 5 4"]
        assert [evaluate(word_of(d, 1)) for d in found] \
            == [NormalForm((8,), 0)] * 2

    def test_state_cap_stops_early(self):
        assert search_nontrivial(5, [1], 10)[0] == [[]]

    @pytest.mark.parametrize("cap", [0, 1, 10, 26, 130, 131, 10**6])
    def test_state_cap_is_reported(self, cap):
        """131 classes on at most five chords; the scan says how many it
        examined and whether that was all of them."""
        (found,), examined, complete = search_nontrivial(5, [1], cap)
        assert examined == min(cap, 131)
        assert complete == (cap >= 131)
        assert {serialize(d) for d in found} <= {
            "1 2 1 3 4 2 4 5 3 5", "1 2 1 3 4 2 5 3 5 4"}

    @pytest.mark.parametrize("max_chords, depths, cap", [
        (0, [0], 10), (3, [0], 0), (3, [0], 10), (3, [], 10), (0, [], 0),
        (3, [2, -1], 10)])
    def test_bad_depths_are_rejected_before_the_scan(self, max_chords,
                                                     depths, cap):
        with pytest.raises(InvalidM):
            search_nontrivial(max_chords, depths, cap)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_same_witnesses_as_the_matching_scan(self, m):
        (found,), _, _ = search_nontrivial(6, [m], 10**6)
        found = [serialize(d) for d in found]
        expected = [serialize(d) for d in search_by_matchings(6, m, 10**6)]
        assert len(found) == len(expected) == 46
        assert set(found) == set(expected)
        tokens = [[int(label) for label in code.split()] for code in found]
        assert tokens == sorted(tokens, key=lambda t: (len(t), t))

    @pytest.mark.parametrize("cap", [0, 10, 131, 1000, 10**6])
    def test_one_pass_matches_a_scan_per_depth(self, cap):
        """Each depth's witnesses are the matching scan's hits among the
        classes the pass examined, and those of a scan at that depth
        alone.  Cap 1000 stops inside six chords, where the two scans
        take the classes in other orders but reach the same hits."""
        depths = [3, 1, 2, 1]
        found, examined, complete = search_nontrivial(6, depths, cap)
        total = sum(CLASS_COUNTS[:6])
        assert examined == min(cap, total)
        assert complete == (cap >= total)
        classes = [rotation_canonical_code(d) for n in range(1, 7)
                   for d in rotation_classes(n)][:cap]
        for m, hits in zip(depths, found):
            codes = [serialize(d) for d in hits]
            assert len(set(codes)) == len(codes)
            every = {serialize(d) for d in search_by_matchings(6, m, 10**6)}
            assert set(codes) == every.intersection(classes)
            assert set(codes) == {
                serialize(d) for d in search_by_matchings(6, m, cap)}
            assert codes == [serialize(d) for d in
                             search_nontrivial(6, [m], cap)[0][0]]


@pytest.fixture(scope="module")
def census_7():
    """One pass over the classes on at most seven chords at m = 1, 2, 3."""
    return search_nontrivial(7, [1, 2, 3], 10**6)


class TestCensus:
    """Witnesses per chord count on at most seven chords: depth 2 adds
    17 at seven chords, and depth 3 adds none over depth 2."""

    @pytest.mark.parametrize("m, per_n", [
        (1, [0, 0, 0, 0, 2, 44, 810]),
        (2, [0, 0, 0, 0, 2, 44, 827]),
        (3, [0, 0, 0, 0, 2, 44, 827]),
    ])
    def test_witnesses_per_chord_count(self, census_7, m, per_n):
        found, examined, complete = census_7
        assert complete and examined == sum(CLASS_COUNTS[:7])
        assert [sum(d.n == n for d in found[m - 1])
                for n in range(1, 8)] == per_n
        codes = [serialize(d) for d in found[m - 1]]
        assert len(set(codes)) == len(codes)
        assert all(rotation_canonical_code(d) == code
                   for d, code in zip(found[m - 1], codes))


class TestTrials:
    def test_move_invariance_batch(self):
        rng = random.Random(2024)
        assert all(move_invariance_trial(rng, [1, 2]) for _ in range(60))

    def test_rotation_conjugacy_batch(self):
        rng = random.Random(2025)
        assert all(rotation_conjugacy_trial(rng, [1, 2]) for _ in range(40))
