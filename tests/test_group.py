import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from freeknot import (NO, YES, ConjugacyAnswer, LevelOutOfRange, MixedM,
                      NormalForm, Word, alphabet, apply_letter,
                      conjugate_equal, corrupted_apply_letter, evaluate,
                      identity, parse_gauss_code, random_diagram,
                      relation_check, relations, rotation_classes, word_of)
from freeknot.cli import _point_json
from oracles import EQUAL, UNDETERMINED, rewrite_oracle
from support import normal_forms, random_point, words, written


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
        obj = written(_point_json(a))
        assert obj == {"m": 2, "x": [-2, 1], "eps": 1}
        assert NormalForm(tuple(obj["x"]), obj["eps"]) == a

    @given(normal_forms())
    def test_json_round_trip_everywhere(self, a):
        obj = written(_point_json(a))
        assert obj["m"] == a.m
        assert NormalForm(tuple(obj["x"]), obj["eps"]) == a


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

    @settings(max_examples=200, deadline=None)
    @given(words(max_m=4, max_len=300))
    def test_matches_the_one_letter_action(self, w):
        assert evaluate(w) == oracles.fold(identity(w.m), w.letters)

    def test_long_word_with_large_coordinates(self):
        target = nf((1500, -2000, 1499), 1)
        w = Word(oracles.normal_form_to_word(target), 3)
        assert len(w.letters) == 5000
        assert evaluate(w) == oracles.fold(identity(3), w.letters) == target
        assert relation_check(3, [target]) is True
        assert relation_check(3, [target], corrupted_apply_letter) is False


class TestNormalFormWords:
    """The oracle's canonical words, which the conjugacy witnesses are
    checked against."""

    def test_canonical_letter_order(self):
        assert oracles.normal_form_to_word(nf((-2, 1), 1)) \
            == ("F", "D1", "D0", "P0")
        assert oracles.normal_form_to_word(nf((3, -2), 0)) \
            == ("D1", "P1", "P0", "D0", "P0")
        assert oracles.normal_form_to_word(nf((0, 0), 1)) == ("F",)
        assert oracles.normal_form_to_word(identity(2)) == ()

    @given(normal_forms())
    def test_round_trip(self, a):
        assert evaluate(Word(oracles.normal_form_to_word(a), a.m)) == a


class TestGroupOperations:
    """The points form a group under the letter action: the oracles'
    product, inverse and conjugation, walked letter by letter, obey the
    group laws."""

    def test_multiply_examples(self):
        a, b = nf((2,), 1), nf((3,), 0)
        assert oracles.multiply(a, b) == nf((-1,), 1)
        assert oracles.multiply(b, a) == nf((1,), 1)

    def test_inverse_examples(self):
        assert oracles.inverse(nf((3,), 1)) == nf((-3,), 1)
        assert oracles.inverse(nf((2,), 1)) == nf((2,), 1)  # a reflection

    def test_conjugate_by_letters(self):
        a = evaluate(word_of(parse_gauss_code("1 2 1 3 2 3"), 1))
        assert oracles.conjugate(a, ("F",)) == a
        assert oracles.conjugate(nf((1,), 0), ("D0", "F")) == nf((3,), 0)
        with pytest.raises(LevelOutOfRange):
            oracles.conjugate(nf((1,), 0), ("P1",))

    def test_mixed_depths_rejected(self):
        with pytest.raises(MixedM):
            oracles.multiply(nf((1,), 0), nf((1, 0), 0))
        with pytest.raises(MixedM):
            relation_check(1, [nf((0, 0), 0)])

    @given(normal_forms(), normal_forms(), normal_forms())
    def test_associativity(self, a, b, c):
        m = max(a.m, b.m, c.m)
        a, b, c = (nf(p.x + (0,) * (m - p.m), p.eps) for p in (a, b, c))
        multiply = oracles.multiply
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(normal_forms())
    def test_identity_and_inverse_laws(self, a):
        e = identity(a.m)
        assert oracles.multiply(a, e) == oracles.multiply(e, a) == a
        assert oracles.multiply(a, oracles.inverse(a)) == e
        assert oracles.multiply(oracles.inverse(a), a) == e

    @given(normal_forms(), st.data())
    def test_conjugation_composes(self, a, data):
        w1 = data.draw(st.lists(st.sampled_from(alphabet(a.m)),
                                max_size=4).map(tuple))
        w2 = data.draw(st.lists(st.sampled_from(alphabet(a.m)),
                                max_size=4).map(tuple))
        conjugate = oracles.conjugate
        assert conjugate(conjugate(a, w1), w2) == conjugate(a, w1 + w2)

    @given(normal_forms(), st.data())
    def test_conjugation_matches_multiplication(self, a, data):
        w = data.draw(st.lists(st.sampled_from(alphabet(a.m)),
                               max_size=5).map(tuple))
        by = evaluate(Word(w, a.m))
        multiply = oracles.multiply
        assert oracles.conjugate(a, w) \
            == multiply(multiply(oracles.inverse(by), a), by)


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
    """The closure oracle that the conjugacy tests lean on."""

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
                assert oracles.conjugate(a, (z,)) in out.elements


class TestConjugateEqual:
    """The library's test on even points, and the oracle's dynamic
    programme on every point, where classes can be infinite."""

    def test_yes_with_replayable_witness(self):
        ans = conjugate_equal(nf((2,), 0), nf((-2,), 0))
        assert ans.verdict == YES
        assert oracles.conjugate(nf((2,), 0), ans.witness) == nf((-2,), 0)

    def test_yes_even_between_truncated_closures(self):
        # closures capped at four elements only meet halfway
        assert oracles.conjugate_equal(nf((1,), 0), nf((3,), 0), 4)[0] == YES
        ans = oracles.conjugate_dp(nf((1,), 0), nf((3,), 0))
        assert ans.verdict == YES and ans.witness == ("F", "P0")
        assert oracles.conjugate(nf((1,), 0), ans.witness) == nf((3,), 0)

    def test_no_needs_both_closures_complete(self):
        assert oracles.conjugate_equal(nf((2,), 0), nf((4,), 0), 64)[0] == NO
        for conjugate_test in (conjugate_equal, oracles.conjugate_dp):
            ans = conjugate_test(nf((2,), 0), nf((4,), 0))
            assert ans.verdict == NO and ans.witness is None

    def test_far_apart_odd_translations_are_decided_exactly(self):
        # (1,) and (9,) sit in one infinite class: closures capped at two
        # elements cannot tell, the exact test names a shortest witness
        assert oracles.conjugate_equal(nf((1,), 0), nf((9,), 0), 2)[0] \
            == UNDETERMINED
        ans = oracles.conjugate_dp(nf((1,), 0), nf((9,), 0))
        assert ans.verdict == YES and ans.witness == ("D0", "P0", "D0", "P0")
        assert oracles.conjugate(nf((1,), 0), ans.witness) == nf((9,), 0)
        assert oracles.conjugate_dp(nf((3,), 0), nf((5,), 0)).verdict == YES

    def test_classes_separate_by_flag_and_parity(self):
        assert oracles.conjugate_dp(nf((1,), 0), nf((1,), 1)).verdict == NO
        assert oracles.conjugate_dp(nf((1,), 0), nf((2,), 0)).verdict == NO
        assert conjugate_equal(nf((0, 2), 0), nf((0, 4), 0)).verdict == NO

    def test_equal_values_need_no_letters(self):
        a = nf((-3, 2, 5), 1)
        assert oracles.conjugate_dp(a, a) == ConjugacyAnswer(YES, ())
        a = nf((-4, 2, 8), 0)
        assert conjugate_equal(a, a) == ConjugacyAnswer(YES, ())

    def test_mixed_depths_rejected(self):
        with pytest.raises(MixedM):
            oracles.conjugate_dp(nf((1,), 0), nf((1, 0), 0))
        # before the points' domain is checked
        for a in (nf((2,), 0), nf((1,), 1)):
            with pytest.raises(MixedM):
                conjugate_equal(a, nf((2, 0), 0))

    @pytest.mark.parametrize("odd", [nf((0, 0), 1), nf((4, 1), 0),
                                     nf((-3, 0), 0), nf((1, 1), 1)])
    def test_points_off_the_even_domain_rejected(self, odd):
        for a, b in [(odd, nf((4, 0), 0)), (nf((4, 0), 0), odd)]:
            with pytest.raises(ValueError) as info:
                conjugate_equal(a, b)
            assert type(info.value) is ValueError

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_diagram_values_are_conjugate_when_magnitudes_agree(self, m):
        """Diagram values have even coordinates and eps = 0, so every
        s_k(a) is +1 and a conjugator only flips signs: two values at
        one depth are conjugate exactly when |x_k| agree at every k."""
        rng = random.Random(m)
        values = {evaluate(word_of(d, m)) for n in range(1, 7)
                  for d in rotation_classes(n)}
        values |= {evaluate(word_of(random_diagram(rng.randint(5, 12), rng),
                                    m)) for _ in range(300)}
        flipped = 0
        for a, b in product(values, repeat=2):
            same = [abs(t) for t in a.x] == [abs(t) for t in b.x]
            ans = conjugate_equal(a, b)
            assert ans == oracles.conjugate_dp(a, b), (a, b)
            assert (ans.verdict == YES) == same, (a, b)
            if same:
                assert oracles.conjugate(a, ans.witness) == b
            flipped += same and a != b
        assert flipped > 0

    def test_random_conjugates_are_recognised(self):
        rng = random.Random(41)
        for _ in range(25):
            m = rng.randint(1, 2)
            a = NormalForm(tuple(2 * rng.randint(-3, 3) for _ in range(m)), 0)
            by = tuple(rng.choice(alphabet(m)) for _ in range(rng.randint(0, 5)))
            b = oracles.conjugate(a, by)
            ans = conjugate_equal(a, b)
            assert ans.verdict == YES
            assert oracles.conjugate(a, ans.witness) == b


def _random_word(rng, m, max_len):
    pool = alphabet(m)
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def _least_shortest_conjugator(a, b, length):
    """Search every conjugator w, a.w = w.b, of at most `length` letters
    for the shortest, least in alphabet order, written as its word."""
    order = {z: i for i, z in enumerate(alphabet(a.m))}
    words = []
    for x in product(range(-length, length + 1), repeat=a.m):
        for eps in (0, 1):
            w = NormalForm(x, eps)
            if eps + sum(map(abs, x)) <= length and \
                    oracles.multiply(a, w) == oracles.multiply(w, b):
                words.append(oracles.normal_form_to_word(w))
    return min(words, key=lambda word: (len(word), [order[z] for z in word]))


def _letter_point(z: str, m: int) -> NormalForm:
    """The point a letter moves the origin to, read off its spelling:
    +1 at level k for Pk, -1 for Dk, and eps = 1 for F."""
    if z == "F":
        return nf((0,) * m, 1)
    x = [0] * m
    x[int(z[1:])] = 1 if z[0] == "P" else -1
    return nf(x, 0)


def _closed_product(a: NormalForm, b: NormalForm) -> NormalForm:
    """a.b in closed form: (a.b).x[k] = a.x[k] + s_k(a) b.x[k] with
    s_k(a) = (-1)^(a.x[k] + ... + a.x[m-1] + a.eps), flags added mod 2."""
    x = [ak + (-1) ** (sum(a.x[k:]) + a.eps) * bk
         for k, (ak, bk) in enumerate(zip(a.x, b.x))]
    return nf(x, a.eps ^ b.eps)


class TestAgainstOracles:
    """The action against the step rule and the closed-form product,
    the value's closed form against the letter-walking code it
    replaced, and the sign pass of conjugate_equal against the
    dynamic programme it replaced, itself checked against the closures
    and a search of every short conjugator."""

    @pytest.mark.parametrize("eps", [0, 1])
    def test_parity_bits_are_the_step_sums(self, eps):
        rng = random.Random(f"parity-{eps}")
        for _ in range(500):
            m = rng.randint(1, 5)
            a = random_point(rng, m)._replace(eps=eps)
            bits = oracles._parity(a)
            assert [bits >> k & 1 for k in range(m + 1)] \
                == [(sum(a.x[k:]) + eps) % 2 for k in range(m + 1)]

    @pytest.mark.parametrize("eps", [0, 1])
    def test_apply_letter_matches_the_step_reference(self, eps):
        rng = random.Random(f"apply-{eps}")
        for _ in range(500):
            m = rng.randint(1, 4)
            a = random_point(rng, m)._replace(eps=eps)
            for z in alphabet(m):
                assert apply_letter(a, z) == oracles.step_apply_letter(a, z) \
                    == _closed_product(a, _letter_point(z, m))

    def test_evaluate_matches_the_step_reference(self):
        rng = random.Random(2610)
        for _ in range(300):
            m = rng.randint(1, 4)
            letters = [rng.choice(alphabet(m))
                       for _ in range(rng.randint(0, 60))]
            letters.insert(rng.randint(0, len(letters)), "F")
            w = Word(tuple(letters), m)
            closed = identity(m)
            for z in letters:
                closed = _closed_product(closed, _letter_point(z, m))
            assert evaluate(w) == oracles.step_evaluate(w) == closed

    def test_group_law_matches_the_fold(self):
        # the closed form the conjugacy tests rest on: the product moves
        # a.x[k] by s_k(a) b.x[k], and the dynamic programme's witnesses
        # walk each level as the oracle
        rng = random.Random(2026)
        for _ in range(2000):
            m = rng.randint(1, 4)
            a, b = random_point(rng, m), random_point(rng, m)
            bits = oracles._parity(a)
            signs = [-1 if bits >> k & 1 else 1 for k in range(m + 1)]
            assert oracles.multiply(a, b) == _closed_product(a, b)
            above = signs[1:]  # s_{k+1}(a), and s_m(a) = (-1)^eps
            walks = [oracles.walk(k, a.x[k], above[k])
                     for k in reversed(range(m))]
            assert ("F",) * a.eps + sum(walks, ()) \
                == oracles.normal_form_to_word(a)

    @pytest.mark.parametrize("family", ["conjugates", "random_pairs"])
    def test_conjugacy_verdicts_match_the_closures(self, family):
        rng = random.Random(f"conjugacy-{family}")
        conclusive = 0
        for _ in range(300):
            m = rng.randint(1, 4)
            a = random_point(rng, m, bound=4)
            if family == "conjugates":
                b = oracles.conjugate(a, _random_word(rng, m, 4))
            else:
                b = random_point(rng, m, bound=4)
            verdict, witness = oracles.conjugate_equal(a, b, 32)
            ans = oracles.conjugate_dp(a, b)
            if ans.verdict == YES:
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
        # the dynamic programme's witness on every point
        rng = random.Random(2027)
        for _ in range(300):
            m = rng.randint(1, 3)
            a = random_point(rng, m, bound=3)
            b = oracles.conjugate(a, _random_word(rng, m, 4))
            witness = oracles.conjugate_dp(a, b).witness
            assert witness == _least_shortest_conjugator(a, b, len(witness))

    def test_even_witness_is_the_least_shortest_word(self):
        # the sign pass's witness on even points
        rng = random.Random(2028)
        for _ in range(300):
            m = rng.randint(1, 3)
            a = NormalForm(tuple(2 * rng.randint(-3, 3) for _ in range(m)), 0)
            b = oracles.conjugate(a, _random_word(rng, m, 4))
            witness = conjugate_equal(a, b).witness
            assert witness == _least_shortest_conjugator(a, b, len(witness))

    @pytest.mark.parametrize("m", [1, 2])
    def test_sign_pass_matches_the_dp_on_every_small_even_pair(self, m):
        points = [NormalForm(x, 0)
                  for x in product(range(-12, 13, 2), repeat=m)]
        for a, b in product(points, repeat=2):
            assert conjugate_equal(a, b) == oracles.conjugate_dp(a, b), (a, b)

    @pytest.mark.parametrize("m", [3, 4])
    def test_sign_pass_matches_the_dp_on_random_even_pairs(self, m):
        # half the pairs conjugate: b negates random levels of a
        rng = random.Random(f"even-{m}")
        def even_point():
            return NormalForm(tuple(2 * rng.randint(-20, 20)
                                    for _ in range(m)), 0)

        conjugate = 0
        for i in range(3000):
            a = even_point()
            if i % 2:
                b = a._replace(x=tuple(rng.choice((1, -1)) * t for t in a.x))
            else:
                b = even_point()
            ans = conjugate_equal(a, b)
            assert ans == oracles.conjugate_dp(a, b), (a, b)
            conjugate += ans.verdict == YES
        assert conjugate >= 1500
