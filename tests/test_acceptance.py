"""End-to-end acceptance suite.

Each test states its claim, prints an ACCEPTANCE line for the release
log, and then asserts.  These run the full randomized volumes and take
a couple of minutes together; the per-module suites cover the same
ground at smaller volume.
"""

import random

from freeknot import (REDUCED_TO_EMPTY, YES, ChordDiagram, NormalForm, Word,
                      alphabet, apply_move, conjugate, conjugate_equal,
                      corrupted_apply_letter, evaluate, filtration, identity,
                      move_invariance_trial, normal_form_to_word,
                      parse_gauss_code, r3_sites, random_diagram, reduce,
                      relation_check, rotation_conjugacy_trial, scramble,
                      search_nontrivial, serialize, word_of)
from oracles import link_count, pair_rules, rewrite_oracle
from support import triple_chords


def report(label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_move_invariance_10k():
    """Applying any R1/R2/R3 move never changes the normal form, at
    every depth m in {1, 2, 3}; ten thousand randomized trials on
    diagrams of up to eight chords."""
    rng = random.Random(20260818)
    passed = sum(move_invariance_trial(rng, [1, 2, 3])
                 for _ in range(10_000))
    assert report("move invariance 10000 trials m=1,2,3",
                  passed == 10_000), f"only {passed}/10000 trials held"


def test_rotation_conjugacy_1k():
    """A one-step base-point rotation conjugates the value by the
    word's first letter, and the conjugacy test certifies the pair
    with a replayable witness; one thousand randomized trials."""
    rng = random.Random(20260819)
    passed = sum(rotation_conjugacy_trial(rng, [1, 2, 3])
                 for _ in range(1_000))
    assert report("rotation conjugacy 1000 trials",
                  passed == 1_000), f"only {passed}/1000 trials held"


def test_relations_hold_and_corrupted_action_fails():
    """Every defining relation acts identically on 1000 random points
    for each depth in {1, 2, 3, 4}; the deliberately corrupted action
    (parity read without the final flag) must be rejected."""
    rng = random.Random(20260820)
    ok = True
    for m in (1, 2, 3, 4):
        points = [identity(m)] + [
            NormalForm(tuple(rng.randint(-10, 10) for _ in range(m)),
                       rng.randint(0, 1))
            for _ in range(999)]
        ok &= relation_check(m, points) is True
        ok &= relation_check(m, points, corrupted_apply_letter) is False
    assert report("relations m=1..4 with negative control", ok)


def test_adjoint_triples_balance_10k():
    """In ten thousand random diagrams of up to ten chords, every
    completely adjoint triple contains exactly 0 or 2 odd chords, both
    against the whole diagram and within each filtration level that
    contains the triple."""
    rng = random.Random(20260821)
    failures = 0
    for _ in range(10_000):
        d = random_diagram(rng.randint(3, 10), rng)
        filt = filtration(d, 3)
        for anchors in r3_sites(d):
            triple = triple_chords(d, anchors)
            if sum(link_count(c, d.chords) % 2 for c in triple) not in (0, 2):
                failures += 1
            for level in filt.levels:
                if triple <= level:
                    inner = sum(link_count(c, level) % 2 for c in triple)
                    if inner % 2:
                        failures += 1
    assert report("adjoint triple parity 10000 diagrams",
                  failures == 0), f"{failures} unbalanced triples"


def test_nontrivial_witnesses_survive_scrambling():
    """The exhaustive hunt up to six chords certifies nontrivial free
    knots at depth one, and a 100-move scramble of every witness keeps
    its value in the same conjugacy class, with a replayable witness."""
    (found,), _, _ = search_nontrivial(6, [1], 10**6)
    ok = len(found) > 0
    for i, d in enumerate(found):
        value = evaluate(word_of(d, 1))
        ok &= value != identity(1)
        moved = scramble(d, 100, seed=1000 + i, size_cap=2 * d.n)
        other = evaluate(word_of(moved, 1))
        answer = conjugate_equal(value, other)
        ok &= answer.verdict == YES
        ok &= conjugate(value, answer.witness) == other
    assert report(f"nontriviality: {len(found)} witnesses at n<=6 "
                  "scrambled 100 moves", ok)


def test_reducible_family_regressions():
    """Five small unknotted diagrams all carry the identity value at
    depths one and two, and the first three reduce to the empty
    diagram within ten thousand search states."""
    codes = ["1 2 1 2", "1 2 2 1", "1 2 3 1 2 3",
             "1 2 1 3 2 3", "1 2 1 3 2 4 3 4"]
    ok = True
    for code in codes:
        d = parse_gauss_code(code)
        for m in (1, 2):
            ok &= evaluate(word_of(d, m)) == identity(m)
    for code in codes[:3]:
        d = parse_gauss_code(code)
        rep = reduce(d, 10**4, d.n + 1)
        ok &= rep.outcome == REDUCED_TO_EMPTY
        cur = d
        for mv in rep.path:
            cur = apply_move(cur, mv)
        ok &= cur == ChordDiagram()
    assert report("reducibility regressions on 5 diagrams", ok)


def _random_word(rng, m, max_len):
    pool = alphabet(m)
    return Word(tuple(rng.choice(pool)
                      for _ in range(rng.randint(0, max_len))), m)


def _rewrite_randomly(rng, w, steps):
    """Apply `steps` random sound rewrites (cancellations, pair swaps,
    involution insertions) to a word."""
    rules = pair_rules(w.m)
    pool = alphabet(w.m)
    letters = w.letters
    for _ in range(steps):
        choices = []
        for i in range(len(letters) - 1):
            pair = letters[i:i + 2]
            if pair[0] == pair[1]:
                choices.append(letters[:i] + letters[i + 2:])
            if pair in rules:
                choices.append(letters[:i] + rules[pair] + letters[i + 2:])
        if len(letters) + 2 <= 10:
            z = rng.choice(pool)
            spot = rng.randint(0, len(letters))
            choices.append(letters[:spot] + (z, z) + letters[spot:])
        if not choices:
            break
        letters = rng.choice(choices)
    return Word(letters, w.m)


def test_rewrite_oracle_cross_validation():
    """On 500 random word pairs an EQUAL verdict always agrees with the
    normal forms; on 500 pairs built by random sound rewrites of a
    common word, the oracle and the normal forms both certify
    equality."""
    rng = random.Random(20260822)
    contradictions = 0
    for _ in range(500):
        m = rng.randint(1, 2)
        w1, w2 = _random_word(rng, m, 8), _random_word(rng, m, 8)
        if rewrite_oracle(w1, w2, 2) == "equal" \
                and evaluate(w1) != evaluate(w2):
            contradictions += 1
    agreed = 0
    for _ in range(500):
        m = rng.randint(1, 2)
        w = _random_word(rng, m, 6)
        other = _rewrite_randomly(rng, w, rng.randint(1, 2))
        if rewrite_oracle(w, other, 3) == "equal" \
                and evaluate(w) == evaluate(other):
            agreed += 1
    ok = contradictions == 0 and agreed == 500
    assert report("rewrite oracle vs normal forms 2x500 pairs", ok), \
        f"{contradictions} contradictions, {agreed}/500 agreements"


def test_round_trips_1k():
    """Words rebuilt from 1000 random normal forms evaluate back to
    them at depths up to four; serialization round-trips 1000 random
    diagrams of up to ten chords."""
    rng = random.Random(20260823)
    ok = True
    for _ in range(1_000):
        m = rng.randint(1, 4)
        nf = NormalForm(tuple(rng.randint(-10, 10) for _ in range(m)),
                        rng.randint(0, 1))
        ok &= evaluate(normal_form_to_word(nf)) == nf
    for _ in range(1_000):
        d = random_diagram(rng.randint(0, 10), rng)
        ok &= parse_gauss_code(serialize(d)) == d
    assert report("round trips 1000 normal forms + 1000 diagrams", ok)
