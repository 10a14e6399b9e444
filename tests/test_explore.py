import hashlib
import json
import random
from collections.abc import Sized
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exhaustive_invariance
import freeknot.explore
import make_scramble_golden
import oracles
from freeknot import (CERTIFIED_DISTINCT, EXHAUSTED, FREE, LONG,
                      MINIMAL_FOUND, NO, REDUCED_TO_EMPTY, SAME_INVARIANT,
                      YES, ChordDiagram, ConjugacyAnswer, InvalidM,
                      NormalForm, SearchReport, apply_move,
                      conjugate_equal, distinguish, evaluate, filtration,
                      move_invariance_trial,
                      parse_gauss_code, random_diagram, reduce,
                      rotate_basepoint, rotation_canonical_code,
                      rotation_classes, rotation_conjugacy_trial, scramble,
                      search_nontrivial, serialize, word_of)
from freeknot.cli import main
from freeknot.group import _value
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

    def test_report_serializes(self, capsys):
        assert [f.name for f in fields(SearchReport)] \
            == ["outcome", "path", "diagram", "visited", "shortest"]
        assert main(["reduce", "--json", "--gauss", "1 1",
                     "--max-states", "100", "--max-chords", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["outcome"] == REDUCED_TO_EMPTY
        assert obj["gauss"] == ""
        assert obj["diagram"] == {"n": 0, "chords": []}
        assert obj["path"] == [{"kind": "r1_remove", "chord": [1, 2]}]
        assert obj["shortest"] is True
        assert (obj["max_states"], obj["max_chords"]) == (100, 2)

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
            assert oracles.conjugate(a, conjugate_equal(a, b).witness) == b

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            distinguish(ChordDiagram(), ChordDiagram(), [1], mode="loop")

    def test_unknown_mode_is_rejected_without_depths(self):
        d = parse_gauss_code(WITNESS)
        with pytest.raises(ValueError, match="unknown mode"):
            distinguish(d, d, [], mode="loop")

    @pytest.mark.parametrize("m_list", [[0], [-1, 3]])
    def test_unknown_mode_is_rejected_before_bad_depths(self, m_list):
        d = parse_gauss_code(WITNESS)
        with pytest.raises(ValueError, match="unknown mode"):
            distinguish(d, d, m_list, mode="loop")

    @pytest.mark.parametrize("mode", [LONG, FREE])
    @pytest.mark.parametrize("m_list", [[0], [0, 2], [-1, 3]])
    def test_depths_below_one_are_rejected(self, m_list, mode):
        d = parse_gauss_code(WITNESS)
        with pytest.raises(InvalidM):
            distinguish(d, d, m_list, mode)

    @settings(max_examples=80, deadline=None)
    @given(diagrams(max_n=40), diagrams(max_n=40), st.integers(-80, 80),
           st.booleans(), st.lists(st.integers(1, 4), min_size=1, max_size=4),
           st.sampled_from([LONG, FREE]))
    def test_agrees_with_the_per_depth_oracle(self, d1, other, steps,
                                              rotated, m_list, mode):
        """Rotated pairs give conjugate values, so free mode's witnesses
        are compared too; the m-lists may repeat depths and run
        downwards."""
        d2 = rotate_basepoint(d1, steps) if rotated else other
        assert distinguish(d1, d2, m_list, mode) == \
            oracles.distinguish_per_depth(d1, d2, m_list, mode)

    def test_one_entry_per_depth(self):
        d = parse_gauss_code(WITNESS)
        assert distinguish(d, d, []) == (SAME_INVARIANT, [])
        verdict, per_m = distinguish(d, ChordDiagram(), [1, 2])
        assert verdict == CERTIFIED_DISTINCT
        assert per_m == [(m, evaluate(word_of(d, m)), NormalForm((0,) * m, 0),
                          False, None) for m in (1, 2)]
        value = evaluate(word_of(d, 1))
        assert distinguish(d, d, [1]) \
            == (SAME_INVARIANT, [(1, value, value, True, None)])
        verdict, per_m = distinguish(d, rotate_basepoint(d, 1), [1],
                                     mode=FREE)
        assert verdict == SAME_INVARIANT
        [(m, left, right, same, witness)] = per_m
        assert (m, left, same, witness) == (1, value, True, ("P0",))
        assert right == evaluate(word_of(rotate_basepoint(d, 1), 1))


class TestRotationCanonicalCode:
    def test_examples(self):
        assert rotation_canonical_code(parse_gauss_code("1 2 3 1 3 2")) \
            == "1 2 1 3 2 3"
        assert rotation_canonical_code(ChordDiagram()) == ""

    @pytest.mark.parametrize("n", range(8))
    def test_shortest_arcs_agree_with_every_rotation_on_each_class(self, n):
        for d in rotation_classes(n):
            for turned in (d, rotate_basepoint(d, 1), rotate_basepoint(d, n)):
                assert rotation_canonical_code(turned) \
                    == oracles.rotations_code(turned)

    def test_shortest_arcs_agree_with_every_rotation_at_random(self):
        rng = random.Random(40)
        for _ in range(2000):
            d = random_diagram(rng.randint(0, 40), rng)
            assert rotation_canonical_code(d) == oracles.rotations_code(d)

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

    def test_same_diagrams_in_the_same_order(self):
        """The Gauss codes of every class on at most seven chords, one a
        line, hash to the digest of the nested-generator recursion that
        walked each forced position in a frame of its own."""
        text = "\n".join(serialize(d) for n in range(8)
                         for d in rotation_classes(n))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b52dc800414b8865649908fd9c84964a25f76de39797f29d29cacfdc8b601e96")


class TestClassValue:
    """The value of a class, read through the level walk that the census
    shares with word_of, through evaluate, and through `_value`'s closed
    form, which `search_nontrivial` and `distinguish` read, against the
    rank-scan word, the step-by-step evaluation and the step rule walked
    over the word the walk's chord lists spell, which they replaced."""

    @staticmethod
    def check(d, m):
        word = word_of(d, m)
        assert word == oracles.rank_word(d, m)
        value = oracles.step_evaluate(word)
        assert evaluate(word) == value
        assert oracles.walked_value(d.chords, m) == value
        assert _value(d.chords, m) == value

    @pytest.mark.parametrize("n", range(8))
    def test_every_class_through_seven_chords(self, n):
        for d in rotation_classes(n):
            for m in range(1, 5):
                self.check(d, m)

    @given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_diagrams(self, n, m, seed):
        self.check(random_diagram(n, random.Random(seed)), m)

    @pytest.mark.parametrize("size", [26, 28, 30])
    def test_both_sides_of_the_mask_threshold(self, size):
        rng = random.Random(size)
        for _ in range(40):
            d = random_diagram(size // 2, rng)
            for m in range(1, 5):
                self.check(d, m)

    def test_large_diagrams(self):
        rng = random.Random(150300)
        for _ in range(4):
            d = random_diagram(rng.randint(150, 300), rng)
            for m in range(1, 6):
                self.check(d, m)

    def test_coordinates_are_multiples_of_four_to_six_chords(self):
        """Each level holds an even number of chords, the odd-degree
        vertices of a graph, and adds +-2 per chord to its coordinate:
        so x[k] is a multiple of 4 and |x[k]| at most twice |a_k|.  On
        every class of at most six chords at depth 3, and on random
        diagrams of up to 80 chords at depth 5: compare hands
        conjugate_equal only such even points."""
        rng = random.Random(80)
        cases = [(d, 3) for n in range(7) for d in rotation_classes(n)]
        cases += [(random_diagram(rng.randint(1, 80), rng), 5)
                  for _ in range(300)]
        deepest = 0
        for d, m in cases:
            x, levels = _value(d.chords, m).x, filtration(d, m).levels
            for k, (xk, level) in enumerate(zip(x, levels)):
                assert xk % 4 == 0 and abs(xk) <= 2 * len(level)
                deepest = max(deepest, k + 1 if xk else 0)
        assert deepest == 5


def test_every_move_keeps_the_value_through_six_chords():
    """Every move but a rotation, listed at base points 0 and 1 of every
    rotation class of at most six chords with insertions up to seven,
    keeps the value at depth 3 (CI runs the same check through seven)."""
    assert exhaustive_invariance.count(6) == exhaustive_invariance.PINNED[6]


def test_every_rotation_keeps_abs_x_and_reversal_negates_x_to_six_chords():
    """Every other rotation of every rotation class of at most six
    chords keeps |x| at depth 3, and its reversal has the value -x (CI
    runs the same check through seven)."""
    assert exhaustive_invariance.turns(6) == exhaustive_invariance.TURNS[6]


class TestSearchNontrivial:
    def test_nothing_below_five_chords(self):
        assert search_nontrivial(4, [1], 10**6) == ([[]], 26, True)

    def test_five_chord_witnesses(self):
        (found,), _, _ = search_nontrivial(5, [1], 10**6)
        assert found == ["1 2 1 3 4 2 4 5 3 5", "1 2 1 3 4 2 5 3 5 4"]
        assert [evaluate(word_of(parse_gauss_code(code), 1))
                for code in found] == [NormalForm((8,), 0)] * 2

    def test_state_cap_stops_early(self):
        assert search_nontrivial(5, [1], 10)[0] == [[]]

    @pytest.mark.parametrize("cap", [0, 1, 10, 26, 130, 131, 10**6])
    def test_state_cap_is_reported(self, cap):
        """131 classes on at most five chords; the scan says how many it
        examined and whether that was all of them."""
        (found,), examined, complete = search_nontrivial(5, [1], cap)
        assert examined == min(cap, 131)
        assert complete == (cap >= 131)
        assert set(found) <= {"1 2 1 3 4 2 4 5 3 5", "1 2 1 3 4 2 5 3 5 4"}

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
        for m, codes in zip(depths, found):
            assert len(set(codes)) == len(codes)
            every = {serialize(d) for d in search_by_matchings(6, m, 10**6)}
            assert set(codes) == every.intersection(classes)
            assert set(codes) == {
                serialize(d) for d in search_by_matchings(6, m, cap)}
            assert codes == search_nontrivial(6, [m], cap)[0][0]


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
        codes = found[m - 1]
        assert [sum(len(code.split()) == 2 * n for code in codes)
                for n in range(1, 8)] == per_n
        assert len(set(codes)) == len(codes)
        assert all(rotation_canonical_code(parse_gauss_code(code)) == code
                   for code in codes)


class TestTrials:
    def test_move_invariance_batch(self):
        rng = random.Random(2024)
        assert all(move_invariance_trial(rng, [1, 2]) for _ in range(60))

    def test_rotation_conjugacy_batch(self):
        rng = random.Random(2025)
        assert all(rotation_conjugacy_trial(rng, [1, 2]) for _ in range(40))

    def test_move_trial_applies_the_reference_draw(self, monkeypatch):
        """The trial draws by index below the two rotations that end the
        listing; the reference filters them out of the listing first.
        Both apply the same move, with the same rng calls, and agree."""
        def recording(log, apply):
            def wrapped(d, move):
                log.append(move)
                return apply(d, move)
            return wrapped

        drawn, reference = [], []
        monkeypatch.setattr(freeknot.explore, "apply_move",
                            recording(drawn, apply_move))
        monkeypatch.setattr(oracles, "apply_move",
                            recording(reference, apply_move))
        rng, rng_ref = random.Random(2026), random.Random(2026)
        for _ in range(2000):
            assert move_invariance_trial(rng, [1, 2, 3])
            assert oracles.filtered_move_trial(rng_ref, [1, 2, 3])
        assert drawn == reference and len(drawn) == 2000
        assert not any(move.kind == "rotate" for move in drawn)
        assert rng.getstate() == rng_ref.getstate()


class TestTrialsFail:
    """Each trial draws the witness diagram, whose value is not the
    identity, so a wrong value or witness cannot pass by accident."""

    @pytest.fixture(autouse=True)
    def witness_diagram(self, monkeypatch):
        d = parse_gauss_code(WITNESS)
        assert not evaluate(word_of(d, 1)).is_identity
        monkeypatch.setattr(freeknot.explore, "random_diagram",
                            lambda n, rng: d)

    def test_unbroken_trials_pass(self):
        assert move_invariance_trial(random.Random(5), [1, 2])
        assert rotation_conjugacy_trial(random.Random(5), [1, 2])

    def test_move_trial_rejects_a_changed_value(self, monkeypatch):
        monkeypatch.setattr(freeknot.explore, "apply_move",
                            lambda d, move: ChordDiagram())
        assert not move_invariance_trial(random.Random(5), [1, 2])

    def test_rotation_trial_rejects_a_wrong_witness(self, monkeypatch):
        def one_letter_too_many(a, b):
            return ConjugacyAnswer(YES, conjugate_equal(a, b).witness + ("F",))
        monkeypatch.setattr(freeknot.explore, "conjugate_equal",
                            one_letter_too_many)
        assert not rotation_conjugacy_trial(random.Random(5), [1, 2])

    def test_rotation_trial_rejects_no(self, monkeypatch):
        monkeypatch.setattr(freeknot.explore, "conjugate_equal",
                            lambda a, b: ConjugacyAnswer(NO, None))
        assert not rotation_conjugacy_trial(random.Random(5), [1, 2])

    def test_trials_take_the_verdict_of_distinguish(self, monkeypatch):
        """The same per-depth entries, with valid witnesses, but the
        verdict CERTIFIED_DISTINCT: both trials fail."""
        def distinct(*args):
            return CERTIFIED_DISTINCT, distinguish(*args)[1]
        monkeypatch.setattr(freeknot.explore, "distinguish", distinct)
        assert not move_invariance_trial(random.Random(5), [1, 2])
        assert not rotation_conjugacy_trial(random.Random(5), [1, 2])
