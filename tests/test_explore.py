import json
import random

import pytest
from hypothesis import given, settings

import make_scramble_golden
from freeknot import (CERTIFIED_DISTINCT, EXHAUSTED, FREE, MINIMAL_FOUND,
                      REDUCED_TO_EMPTY, SAME_INVARIANT, ChordDiagram,
                      NormalForm, all_matchings, apply_move, conjugate,
                      conjugate_equal, distinguish, evaluate,
                      move_invariance_trial, parse_gauss_code, random_diagram,
                      reduce, rotate_basepoint, rotation_canonical_code,
                      rotation_conjugacy_trial, scramble, search_nontrivial,
                      serialize, word_of)
from support import diagrams

WITNESS = "1 2 1 3 4 2 5 3 5 4"


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


class TestReduce:
    def test_empty_input(self):
        rep = reduce(ChordDiagram(), 10, 1)
        assert rep.outcome == REDUCED_TO_EMPTY
        assert rep.path == () and rep.visited == 1

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


class TestSearchNontrivial:
    def test_nothing_below_five_chords(self):
        assert search_nontrivial(4, 1, 10**6) == []

    def test_five_chord_witnesses(self):
        found = search_nontrivial(5, 1, 10**6)
        assert [serialize(d) for d in found] \
            == ["1 2 1 3 4 2 5 3 5 4", "1 2 1 3 4 2 4 5 3 5"]
        assert [evaluate(word_of(d, 1)) for d in found] \
            == [NormalForm((8,), 0)] * 2

    def test_state_cap_stops_early(self):
        assert search_nontrivial(5, 1, 10) == []


class TestTrials:
    def test_move_invariance_batch(self):
        rng = random.Random(2024)
        assert all(move_invariance_trial(rng, [1, 2]) for _ in range(60))

    def test_rotation_conjugacy_batch(self):
        rng = random.Random(2025)
        assert all(rotation_conjugacy_trial(rng, [1, 2]) for _ in range(40))
