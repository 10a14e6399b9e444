import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from freeknot import (NO, YES, ConjugacyAnswer, LevelOutOfRange, MixedM,
                      NormalForm, Word, alphabet, apply_letter, conjugate,
                      conjugate_equal, corrupted_apply_letter, evaluate,
                      identity, inverse, multiply, normal_form_to_word,
                      parse_gauss_code, relation_check, relations, word_of)
from oracles import EQUAL, UNDETERMINED, rewrite_oracle
from support import normal_forms, random_point, words


def nf(x, eps):
    return NormalForm(tuple(x), eps)


class TestNormalForm:
    def test_identity(self):
        e = identity(3)
        assert e == nf((0, 0, 0), 0)
        assert e.is_identity and e.m == 3
        assert not nf((0,), 1).is_identity

    def test_json_round_trip(self):
        a = nf((-2, 1), 1)
        assert NormalForm.from_json(a.to_json()) == a

    @given(normal_forms())
    def test_json_round_trip_everywhere(self, a):
        assert NormalForm.from_json(a.to_json()) == a

    @pytest.mark.parametrize("obj, field", [
        ({"x": [1.5], "eps": 0}, "x"),
        ({"x": ["a"], "eps": 0}, "x"),
        ({"x": [True], "eps": 0}, "x"),
        ({"x": "12", "eps": 0}, "x"),
        ({"x": [1], "eps": True}, "eps"),
        ({"x": [1], "eps": 1.0}, "eps"),
        ({"x": [1], "eps": 2}, "eps"),
        ({"m": 2, "x": [1], "eps": 0}, "m"),
        ({"m": True, "x": [1], "eps": 0}, "m"),
        ({"eps": 0}, "x"),
        ({"x": [1]}, "eps"),
        ([1], "normal form"),
    ])
    def test_json_rejects_malformed_fields(self, obj, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            NormalForm.from_json(obj)


class TestApply:
    def test_single_letters(self):
        assert apply_letter(nf((0,), 0), "P0") == nf((1,), 0)
        assert apply_letter(nf((0,), 0), "D0") == nf((-1,), 0)
        assert apply_letter(nf((3,), 0), "F") == nf((3,), 1)
        assert apply_letter(nf((1, 2), 1), "P1") == nf((1, 1), 1)

    def test_level_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            apply_letter(nf((0,), 0), "P5")
        with pytest.raises(LevelOutOfRange):
            apply_letter(nf((0, 0), 0), "D2")
        for letter in ("P+0", "P-0", "P 0", "P00"):
            with pytest.raises(LevelOutOfRange):
                apply_letter(nf((0,), 0), letter)

    @given(normal_forms(), st.data())
    def test_every_letter_is_an_involution(self, a, data):
        z = data.draw(st.sampled_from(alphabet(a.m)))
        assert apply_letter(apply_letter(a, z), z) == a

    def test_corrupted_action_still_involutive_but_breaks_relations(self):
        a = nf((2,), 1)
        assert corrupted_apply_letter(corrupted_apply_letter(a, "P0"), "P0") \
            == a
        assert relation_check(1, [nf((0,), 1)], corrupted_apply_letter) \
            is False


class TestEvaluate:
    def test_unknot_like_word_collapses(self):
        w = word_of(parse_gauss_code("1 2 1 3 2 3"), 1)
        assert evaluate(w) == identity(1)

    def test_six_chord_witness(self):
        w = word_of(parse_gauss_code("1 2 3 4 2 5 3 6 1 4 6 5"), 1)
        assert evaluate(w) == nf((-8,), 0)

    def test_empty_word(self):
        assert evaluate(Word((), 2)) == identity(2)


class TestNormalFormWords:
    def test_canonical_letter_order(self):
        assert normal_form_to_word(nf((-2, 1), 1)).letters \
            == ("F", "D1", "D0", "P0")
        assert normal_form_to_word(nf((3, -2), 0)).letters \
            == ("D1", "P1", "P0", "D0", "P0")
        assert normal_form_to_word(nf((0, 0), 1)).letters == ("F",)
        assert normal_form_to_word(identity(2)).letters == ()

    @given(normal_forms())
    def test_round_trip(self, a):
        assert evaluate(normal_form_to_word(a)) == a


class TestGroupOperations:
    def test_multiply_examples(self):
        a, b = nf((2,), 1), nf((3,), 0)
        assert multiply(a, b) == nf((-1,), 1)
        assert multiply(b, a) == nf((1,), 1)

    def test_inverse_examples(self):
        assert inverse(nf((3,), 1)) == nf((-3,), 1)
        assert inverse(nf((2,), 1)) == nf((2,), 1)  # a reflection

    def test_conjugate_accepts_word_or_letters(self):
        a = evaluate(word_of(parse_gauss_code("1 2 1 3 2 3"), 1))
        assert conjugate(a, ("F",)) == conjugate(a, Word(("F",), 1)) == a
        assert conjugate(nf((1,), 0), ("D0", "F")) == nf((3,), 0)

    def test_mixed_depths_rejected(self):
        with pytest.raises(MixedM):
            multiply(nf((1,), 0), nf((1, 0), 0))
        with pytest.raises(MixedM):
            conjugate(nf((1,), 0), Word(("P0",), 2))
        with pytest.raises(MixedM):
            relation_check(1, [nf((0, 0), 0)])

    @given(normal_forms(), normal_forms(), normal_forms())
    def test_associativity(self, a, b, c):
        m = max(a.m, b.m, c.m)
        a, b, c = (nf(p.x + (0,) * (m - p.m), p.eps) for p in (a, b, c))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(normal_forms())
    def test_identity_and_inverse_laws(self, a):
        e = identity(a.m)
        assert multiply(a, e) == multiply(e, a) == a
        assert multiply(a, inverse(a)) == e
        assert multiply(inverse(a), a) == e

    @given(normal_forms(), st.data())
    def test_conjugation_composes(self, a, data):
        w1 = data.draw(st.lists(st.sampled_from(alphabet(a.m)),
                                max_size=4).map(tuple))
        w2 = data.draw(st.lists(st.sampled_from(alphabet(a.m)),
                                max_size=4).map(tuple))
        assert conjugate(conjugate(a, w1), w2) == conjugate(a, w1 + w2)

    @given(normal_forms(), st.data())
    def test_conjugation_matches_multiplication(self, a, data):
        w = data.draw(st.lists(st.sampled_from(alphabet(a.m)),
                               max_size=5).map(tuple))
        by = evaluate(Word(w, a.m))
        assert conjugate(a, w) == multiply(multiply(inverse(by), a), by)


class TestRelations:
    def test_counts(self):
        assert len(relations(1)) == 5
        assert len(relations(2)) == 13

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_explicit_listing(self, m):
        # four swaps per pair of levels i < j, two F swaps per level
        expected = {((z, z), ()) for z in alphabet(m)}
        for i in range(m):
            pi, di = f"P{i}", f"D{i}"
            for j in range(i + 1, m):
                pj, dj = f"P{j}", f"D{j}"
                expected |= {((di, pj), (pj, pi)), ((di, dj), (dj, pi)),
                             ((pi, pj), (pj, di)), ((pi, dj), (dj, di))}
            expected |= {((pi, "F"), ("F", di)), ((di, "F"), ("F", pi))}
        listed = relations(m)
        assert len(listed) == len(set(listed))
        assert set(listed) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_hold_on_random_points(self, m):
        rng = random.Random(100 + m)
        points = [random_point(rng, m) for _ in range(300)]
        assert relation_check(m, points) is True

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_corrupted_action_fails(self, m):
        rng = random.Random(200 + m)
        points = [random_point(rng, m) for _ in range(300)]
        assert relation_check(m, points, corrupted_apply_letter) is False


class TestRewriteOracle:
    def test_involution_squares_cancel(self):
        assert rewrite_oracle(Word(("P0", "P0"), 1), Word((), 1), 6) == EQUAL

    def test_final_letter_swap(self):
        assert rewrite_oracle(Word(("P0", "F"), 1),
                              Word(("F", "D0"), 1), 6) == EQUAL

    def test_short_budget_is_inconclusive(self):
        assert rewrite_oracle(Word(("P0",), 1),
                              Word(("D0",), 1), 6) == UNDETERMINED
        assert rewrite_oracle(Word(("D0", "P0"), 1),
                              Word(("P0", "D0"), 1), 8) == UNDETERMINED

    def test_mixed_depths_rejected(self):
        with pytest.raises(MixedM):
            rewrite_oracle(Word((), 1), Word((), 2), 3)

    @settings(max_examples=40, deadline=None)
    @given(words(max_len=6))
    def test_equal_verdicts_are_sound(self, w):
        other = data_shuffle(w)
        if rewrite_oracle(w, other, 3) == EQUAL:
            assert evaluate(w) == evaluate(other)


def data_shuffle(w):
    """A nearby word: swap one adjacent pair (identity on short words)."""
    letters = list(w.letters)
    if len(letters) >= 2:
        letters[0], letters[1] = letters[1], letters[0]
    return Word(tuple(letters), w.m)


class TestClassClosure:
    """The closure oracle that conjugate_equal's tests lean on."""

    def test_identity_class_is_a_singleton(self):
        out = oracles.class_closure(identity(1), 8)
        assert out.complete and out.elements == frozenset({identity(1)})

    def test_even_translation_has_a_finite_class(self):
        out = oracles.class_closure(nf((2,), 0), 64)
        assert out.complete
        assert out.elements == frozenset({nf((2,), 0), nf((-2,), 0)})

    def test_odd_translation_truncates(self):
        out = oracles.class_closure(nf((1,), 0), 3)
        assert not out.complete
        assert out.elements \
            == frozenset({nf((1,), 0), nf((-1,), 0), nf((-3,), 0)})

    def test_complete_closures_absorb_letter_conjugation(self):
        out = oracles.class_closure(nf((0, 2), 0), 256)
        assert out.complete
        for a in out.elements:
            for z in alphabet(2):
                assert conjugate(a, (z,)) in out.elements


class TestConjugateEqual:
    def test_yes_with_replayable_witness(self):
        ans = conjugate_equal(nf((2,), 0), nf((-2,), 0))
        assert ans.verdict == YES
        assert conjugate(nf((2,), 0), ans.witness) == nf((-2,), 0)

    def test_yes_even_between_truncated_closures(self):
        # closures capped at four elements only meet halfway
        assert oracles.conjugate_equal(nf((1,), 0), nf((3,), 0), 4)[0] == YES
        ans = conjugate_equal(nf((1,), 0), nf((3,), 0))
        assert ans.verdict == YES and ans.witness == ("F", "P0")
        assert conjugate(nf((1,), 0), ans.witness) == nf((3,), 0)

    def test_no_needs_both_closures_complete(self):
        assert oracles.conjugate_equal(nf((2,), 0), nf((4,), 0), 64)[0] == NO
        ans = conjugate_equal(nf((2,), 0), nf((4,), 0))
        assert ans.verdict == NO and ans.witness is None

    def test_far_apart_odd_translations_are_decided_exactly(self):
        # (1,) and (9,) sit in one infinite class: closures capped at two
        # elements cannot tell, the exact test names a shortest witness
        assert oracles.conjugate_equal(nf((1,), 0), nf((9,), 0), 2)[0] \
            == UNDETERMINED
        ans = conjugate_equal(nf((1,), 0), nf((9,), 0))
        assert ans.verdict == YES and ans.witness == ("D0", "P0", "D0", "P0")
        assert conjugate(nf((1,), 0), ans.witness) == nf((9,), 0)
        assert conjugate_equal(nf((3,), 0), nf((5,), 0)).verdict == YES

    def test_classes_separate_by_flag_and_parity(self):
        assert conjugate_equal(nf((1,), 0), nf((1,), 1)).verdict == NO
        assert conjugate_equal(nf((1,), 0), nf((2,), 0)).verdict == NO
        assert conjugate_equal(nf((0, 2), 0), nf((0, 4), 0)).verdict == NO

    def test_equal_values_need_no_letters(self):
        a = nf((-3, 2, 5), 1)
        assert conjugate_equal(a, a) == ConjugacyAnswer(YES, ())

    def test_mixed_depths_rejected(self):
        with pytest.raises(MixedM):
            conjugate_equal(nf((1,), 0), nf((1, 0), 0))

    def test_random_conjugates_are_recognised(self):
        rng = random.Random(41)
        for _ in range(25):
            m = rng.randint(1, 2)
            a = NormalForm(tuple(2 * rng.randint(-3, 3) for _ in range(m)), 0)
            by = tuple(rng.choice(alphabet(m)) for _ in range(rng.randint(0, 5)))
            b = conjugate(a, by)
            ans = conjugate_equal(a, b)
            assert ans.verdict == YES
            assert conjugate(a, ans.witness) == b


def _random_word(rng, m, max_len):
    pool = alphabet(m)
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


class TestAgainstOracles:
    """The closed forms against the letter-walking code they replaced."""

    def test_group_law_matches_the_fold(self):
        rng = random.Random(2026)
        for _ in range(2000):
            m = rng.randint(1, 4)
            a, b = random_point(rng, m), random_point(rng, m)
            assert normal_form_to_word(a).letters \
                == oracles.normal_form_to_word(a)
            assert multiply(a, b) == oracles.multiply(a, b)
            assert inverse(a) == oracles.inverse(a)
            by = _random_word(rng, m, 6)
            assert conjugate(a, by) == oracles.conjugate(a, by)

    @pytest.mark.parametrize("family", ["conjugates", "random_pairs"])
    def test_conjugacy_verdicts_match_the_closures(self, family):
        rng = random.Random(f"conjugacy-{family}")
        conclusive = 0
        for _ in range(300):
            m = rng.randint(1, 4)
            a = random_point(rng, m, bound=4)
            if family == "conjugates":
                b = conjugate(a, _random_word(rng, m, 4))
            else:
                b = random_point(rng, m, bound=4)
            verdict, witness = oracles.conjugate_equal(a, b, 32)
            ans = conjugate_equal(a, b)
            if ans.verdict == YES:
                assert conjugate(a, ans.witness) == b
                assert oracles.conjugate(a, ans.witness) == b
            else:
                assert ans.verdict == NO and ans.witness is None
            if verdict == UNDETERMINED:
                continue
            conclusive += 1
            assert ans.verdict == verdict
            if verdict == YES:
                assert len(ans.witness) <= len(witness)
        assert conclusive >= 100

    def test_witness_is_the_least_shortest_word(self):
        # search every conjugator no longer than the witness
        rng = random.Random(2027)
        for _ in range(300):
            m = rng.randint(1, 3)
            a = random_point(rng, m, bound=3)
            b = conjugate(a, _random_word(rng, m, 4))
            witness = conjugate_equal(a, b).witness
            order = {z: i for i, z in enumerate(alphabet(m))}
            words = []
            for x in product(range(-len(witness), len(witness) + 1), repeat=m):
                for eps in (0, 1):
                    w = NormalForm(x, eps)
                    if eps + sum(map(abs, x)) <= len(witness) and \
                            oracles.multiply(a, w) == oracles.multiply(w, b):
                        words.append(oracles.normal_form_to_word(w))
            assert witness == min(
                words, key=lambda word: (len(word), [order[z] for z in word]))
