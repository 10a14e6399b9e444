"""Slow reference implementations that the library's fast paths replaced.

Words are cut by a fresh rank scan per cut and evaluated one
coordinate step at a time, and a diagram's value is the letter action
walked over its word rather than its closed form.
Normal-form words are built and the group operations applied one
letter at a time through the action, and conjugacy is explored by
breadth-first closure under single-letter conjugation and decided for
every point, not only the even points of diagram values, by a dynamic
programme over the parity classes of a conjugator.  Word equality
is tested by rewriting alone, never through the action.  Linking is
tested chord pair by chord pair, move sites are found by testing
every pair and triple of chords, and the chords a removal leaves are
renumbered by sorting their ends rather than shifted.  A Gauss code
is parsed into a list of positions per label, whose chords the
diagram's constructor then normalises and sorts.  The exhaustive
search lists every perfect matching and keeps the first of each
rotation class, keyed by its least code over every base point, and
reduction is a breadth-first search over every move.  `compare` and
`invariant` build and evaluate a word per depth, `invariant` reading
the levels back from the word's letters, and so does the move trial,
which draws from the listing with its rotations filtered out.  The
CLI's --json text is json's own indented encoder.
Tests compare the library code against them.
"""

import json
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from typing import Iterable

import freeknot
from freeknot import (CERTIFIED_DISTINCT, EXHAUSTED, FINAL, LONG,
                      MINIMAL_FOUND, NO, REDUCED_TO_EMPTY, SAME_INVARIANT,
                      YES, Chord, ChordDiagram, ConjugacyAnswer, Filtration,
                      LabelCountError, MixedM, NormalForm, SearchReport, Word,
                      alphabet, apply_letter, apply_move, double_prime,
                      enumerate_moves, evaluate, identity, letter_level,
                      parse_gauss_code, prime, random_diagram, relations,
                      word_of)
from freeknot.diagram import first_appearance
from freeknot.explore import TRIAL_MAX_CHORDS, TRIAL_SIZE_CAP
from freeknot.parity import _levels
from support import end_map

EQUAL = "equal"
UNDETERMINED = "undetermined"


class SharedEndpointError(ValueError):
    """Two chords handed to a pairwise test share an endpoint."""


def linked(c1: Chord, c2: Chord) -> bool:
    """Are two chords of one diagram linked?

    True exactly when the endpoints alternate along the line, i.e. when
    (p1-p2)(p1-q2)(q1-p2)(q1-q2) < 0.  Symmetric, and stable under
    rotating the base point.
    """
    p1, q1 = c1
    p2, q2 = c2
    if p1 in (p2, q2) or q1 in (p2, q2):
        raise SharedEndpointError(f"chords {c1} and {c2} share an endpoint")
    return (p1 - p2) * (p1 - q2) * (q1 - p2) * (q1 - q2) < 0


def link_count(p: Chord, b: Iterable[Chord]) -> int:
    """Number of chords in b linked with p; p never counts against itself."""
    return sum(1 for c in b if c != p and linked(p, c))


def _rank_split(chords, size):
    """The chords linked with an odd number of the others in the list,
    and the rest: a chord is odd exactly when the rank gap between its
    ends, ranking the list's ends along 1..size, is even."""
    rank = [0] * (size + 1)
    for p, q in chords:
        rank[p] = rank[q] = 1
    rank = list(accumulate(rank))
    odd = [c for c in chords if (rank[c[1]] - rank[c[0]]) % 2 == 0]
    return odd, [c for c in chords if (rank[c[1]] - rank[c[0]]) % 2]


def rank_word(d: ChordDiagram, m: int) -> Word:
    """The word at depth m, every level and part cut by a rank scan."""
    letters = [FINAL] * d.size
    remaining = list(d.chords)
    for k in range(m):
        level, remaining = _rank_split(remaining, d.size)
        if not level:
            break
        for part, letter in zip(_rank_split(level, d.size),
                                (prime(k), double_prime(k))):
            for p, q in part:
                letters[p - 1] = letters[q - 1] = letter
    return Word(tuple(letters), m)


def walked_value(chords, m: int) -> NormalForm:
    """group._value as step_evaluate walking, one end at a time, the
    word that the level walk's parts spell."""
    letters = [FINAL] * (2 * len(chords))
    for k, split in enumerate(_levels(chords, m)[0]):
        for part, z in zip(split, (prime(k), double_prime(k))):
            for p, q in part:
                letters[p - 1] = letters[q - 1] = z
    return step_evaluate(Word(tuple(letters), m))


def _step(x: list[int], eps: int, k: int, letter: str) -> None:
    """Move x[k] for the level-k letter: Pk up and Dk down when
    x[k] + ... + x[m-1] + eps is even, the other way when it is odd."""
    step = 1 if letter[0] == "P" else -1
    x[k] += step if (sum(x[k:]) + eps) % 2 == 0 else -step


def step_apply_letter(point: NormalForm, letter: str) -> NormalForm:
    """apply_letter with the parity sum added up afresh."""
    if letter == FINAL:
        return NormalForm(point.x, 1 - point.eps)
    x = list(point.x)
    _step(x, point.eps, letter_level(letter, point.m), letter)
    return NormalForm(tuple(x), point.eps)


def step_evaluate(word: Word) -> NormalForm:
    """evaluate with the parity sum added up afresh at every letter."""
    x, eps = [0] * word.m, 0
    for z in word.letters:
        k = letter_level(z, word.m)
        if k is None:
            eps ^= 1
        else:
            _step(x, eps, k, z)
    return NormalForm(tuple(x), eps)


def word_filtration(d: ChordDiagram, m: int) -> Filtration:
    """filtration read back from rank_word: level k holds the chords
    lettered Pk or Dk and the residue those lettered F, each part a
    frozenset, and x is step_evaluate's value of the word."""
    word = rank_word(d, m)
    parts: dict[str, list[Chord]] = {z: [] for z in alphabet(m)}
    for c in d.chords:
        parts[word.letters[c[0] - 1]].append(c)
    splits = tuple((frozenset(parts[prime(k)]),
                    frozenset(parts[double_prime(k)])) for k in range(m))
    levels = (*(odd | even for odd, even in splits), frozenset(parts[FINAL]))
    return Filtration(m, levels, splits, word, step_evaluate(word).x)


def _parity(point: NormalForm) -> int:
    """The parity bits of a point: bit k holds x[k] + ... + x[m-1] + eps
    mod 2 for every level k, and bit m holds eps."""
    bits = s = point.eps
    for xk in reversed(point.x):
        s ^= xk & 1
        bits = bits << 1 | s
    return bits


def fold(point: NormalForm, letters) -> NormalForm:
    for z in letters:
        point = apply_letter(point, z)
    return point


def normal_form_to_word(nf: NormalForm) -> tuple[str, ...]:
    """The final letter first when eps is set, then each coordinate
    walked to its target from the top level down, one letter at a time
    under the live parity."""
    point = identity(nf.m)
    letters = []
    if nf.eps:
        letters.append(FINAL)
        point = apply_letter(point, FINAL)
    for k in range(nf.m - 1, -1, -1):
        while point.x[k] != nf.x[k]:
            up = nf.x[k] > point.x[k]
            even = (sum(point.x[k:]) + point.eps) % 2 == 0
            z = prime(k) if up == even else double_prime(k)
            letters.append(z)
            point = apply_letter(point, z)
    return tuple(letters)


def multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    """Group product: apply b's word starting from the point a."""
    if a.m != b.m:
        raise MixedM(f"depths differ: {a.m} != {b.m}")
    return fold(a, normal_form_to_word(b))


def inverse(a: NormalForm) -> NormalForm:
    """Every letter is an involution, so the reversed word inverts."""
    return fold(identity(a.m), reversed(normal_form_to_word(a)))


def conjugate(a: NormalForm, by) -> NormalForm:
    """The conjugate w^-1 a w, walked letter by letter."""
    letters = tuple(by)
    point = fold(identity(a.m), reversed(letters))
    point = fold(point, normal_form_to_word(a))
    return fold(point, letters)


@dataclass(frozen=True)
class Closure:
    """Conjugacy-closure result; complete=True certifies a whole class."""

    complete: bool
    elements: frozenset


def _closure_with_witnesses(a: NormalForm, state_cap: int):
    witnesses: dict[NormalForm, tuple[str, ...]] = {a: ()}
    queue = deque([a])
    while queue:
        point = queue.popleft()
        for z in alphabet(a.m):
            conj = conjugate(point, (z,))
            if conj in witnesses:
                continue
            if len(witnesses) >= state_cap:
                return False, witnesses
            witnesses[conj] = witnesses[point] + (z,)
            queue.append(conj)
    return True, witnesses


def class_closure(a: NormalForm, state_cap: int) -> Closure:
    """Breadth-first closure of {a} under conjugation by single letters.

    Stops with an incomplete set as soon as it would grow past
    state_cap; a complete closure is the entire conjugacy class.
    """
    complete, witnesses = _closure_with_witnesses(a, state_cap)
    return Closure(complete, frozenset(witnesses))


def conjugate_equal(a: NormalForm, b: NormalForm, state_cap: int):
    """Bounded conjugacy test by closure search: (verdict, witness).

    YES comes with letters conjugating a to b; NO only when one side's
    whole class was enumerated without meeting the other element;
    UNDETERMINED when both closures were truncated without touching.
    """
    if a.m != b.m:
        raise MixedM(f"depths differ: {a.m} != {b.m}")
    complete_a, wit_a = _closure_with_witnesses(a, state_cap)
    if b in wit_a:
        return YES, wit_a[b]
    if complete_a:
        return NO, None
    complete_b, wit_b = _closure_with_witnesses(b, state_cap)
    if a in wit_b:
        return YES, tuple(reversed(wit_b[a]))
    if complete_b:
        return NO, None
    common = set(wit_a) & set(wit_b)
    if common:
        x = min(common)
        return YES, wit_a[x] + tuple(reversed(wit_b[x]))
    return UNDETERMINED, None


def walk(k: int, target: int, above: int) -> tuple[str, ...]:
    """The letters that move coordinate k from 0 to target while the
    levels above k read the sign `above`: one per unit step.  The live
    parity flips with every step, so Pk and Dk alternate, and Pk comes
    first when the step direction agrees with the sign."""
    pair = (prime(k), double_prime(k))
    if (target > 0) != (above > 0):
        pair = pair[::-1]
    return tuple(pair[i % 2] for i in range(abs(target)))


def conjugate_dp(a: NormalForm, b: NormalForm) -> ConjugacyAnswer:
    """Exact conjugacy test on every point: YES with a shortest
    conjugating word, or NO.

    a.w = w.b reads a_k + s_k(a) w_k = w_k + s_k(w) b_k at every level
    k, together with eps_a = eps_b.  Once the signs of w are fixed (one
    of 2^(m+1) parity classes), a level with s_k(a) = -1 pins
    w_k = (a_k - s_k(w) b_k) / 2, which must have the parity turning
    s_{k+1}(w) into s_k(w); a level with s_k(a) = +1 asks
    a_k = s_k(w) b_k and leaves w_k free within that parity, so it
    takes 0 or the unit step whose letter is Pk.  The signs form a
    chain from s_m(w) = (-1)^eps_w down to s_0(w), so one pass from
    level 0 upward keeps, for each sign above the current level, the
    least word for the levels below it, and covers every class in O(m)
    steps.  The witness writes a conjugator with the fewest letters as
    F when eps_w is set, then each level walked from the top down as
    walk does it; ties are broken by alphabet order.
    """
    if a.m != b.m:
        raise MixedM(f"depths differ: {a.m} != {b.m}")
    if a.eps != b.eps:
        return ConjugacyAnswer(NO, None)
    order = {z: i for i, z in enumerate(alphabet(a.m))}

    def least(words):
        return min(words, default=None,
                   key=lambda word: (len(word), [order[z] for z in word]))

    parity_a = _parity(a)  # bit k set exactly when s_k(a) = -1
    below = {1: (), -1: ()}  # s_k(w) -> least word for the levels under k
    for k in range(a.m):
        options = {1: [], -1: []}  # s_{k+1}(w) -> words for levels k..0
        for above in options:
            for here, rest in below.items():
                if rest is None:
                    continue
                odd = here != above
                if parity_a >> k & 1:
                    twice = a.x[k] - here * b.x[k]
                    if twice % 4 != 2 * odd:
                        continue
                    w_k = twice // 2
                elif a.x[k] != here * b.x[k]:
                    continue
                else:
                    w_k = above if odd else 0
                options[above].append(walk(k, w_k, above) + rest)
        below = {above: least(words) for above, words in options.items()}
    tops = (((), 1), ((FINAL,), -1))  # eps_w = 0 or 1, and s_m(w)
    witness = least([flag + below[sign] for flag, sign in tops
                     if below[sign] is not None])
    if witness is None:
        return ConjugacyAnswer(NO, None)
    return ConjugacyAnswer(YES, witness)


def pair_rules(m: int) -> dict[tuple[str, str], tuple[str, str]]:
    """Both directions of every two-letter pair swap in relations(m)."""
    rules = {}
    for lhs, rhs in relations(m):
        if len(lhs) == 2 and len(rhs) == 2:
            rules[lhs] = rhs
            rules[rhs] = lhs
    return rules


def _word_neighbours(letters, rules, pool, max_len):
    for i in range(len(letters) - 1):
        pair = letters[i:i + 2]
        if pair[0] == pair[1]:
            yield letters[:i] + letters[i + 2:]
        swap = rules.get(pair)
        if swap is not None:
            yield letters[:i] + swap + letters[i + 2:]
    if len(letters) + 2 <= max_len:
        for i in range(len(letters) + 1):
            for z in pool:
                yield letters[:i] + (z, z) + letters[i:]


def rewrite_oracle(w1: Word, w2: Word, depth: int) -> str:
    """Decide word equality by rewriting alone, never via the action.

    Bidirectional breadth-first search from both words under involution
    insertion/deletion and the pair swaps of relations(); EQUAL when
    the searches meet within `depth` levels on each side, UNDETERMINED
    otherwise.  Word length is capped two letters above the longer
    input, so EQUAL is always sound while UNDETERMINED is inconclusive.
    """
    if w1.m != w2.m:
        raise MixedM(f"depths differ: {w1.m} != {w2.m}")
    rules = pair_rules(w1.m)
    pool = alphabet(w1.m)
    max_len = max(len(w1.letters), len(w2.letters)) + 2
    seen = ({w1.letters}, {w2.letters})
    frontier = [{w1.letters}, {w2.letters}]
    if seen[0] & seen[1]:
        return EQUAL
    for _ in range(max(depth, 0)):
        for side in (0, 1):
            grown = set()
            for w in frontier[side]:
                for nb in _word_neighbours(w, rules, pool, max_len):
                    if nb not in seen[side]:
                        grown.add(nb)
            seen[side].update(grown)
            frontier[side] = grown
            if seen[0] & seen[1]:
                return EQUAL
    return UNDETERMINED


def r2_sites(d):
    """Every pair of chords whose first ends and whose second ends are
    both one position apart, in combinations order."""
    return [(c1, c2) for c1, c2 in combinations(d.chords, 2)
            if abs(c1[0] - c2[0]) == 1 and abs(c1[1] - c2[1]) == 1]


def _adjoint_anchors(chords3):
    """The lower ends (r, s, t) of a matching of the six ends into
    adjacent positions, each pair joining two different chords; None
    when no such matching exists."""
    owner = {e: c for c in chords3 for e in c}
    if len(owner) != 6 or any(e - 1 not in owner and e + 1 not in owner
                              for e in owner):
        return None
    for pairs in all_matchings(sorted(owner)):
        if all(q == p + 1 and owner[p] != owner[q] for p, q in pairs):
            return tuple(sorted(p for p, _ in pairs))
    return None


def r3_sites(d):
    """The anchors of every completely adjoint triple of chords, sorted."""
    return sorted(anchors for chords3 in combinations(d.chords, 3)
                  if (anchors := _adjoint_anchors(chords3)) is not None)


def renumber(chords: list[Chord]) -> ChordDiagram:
    """The diagram of `chords` with their ends renumbered 1..2n in order."""
    rank = {e: i for i, e in
            enumerate(sorted(e for c in chords for e in c), start=1)}
    return ChordDiagram((rank[p], rank[q]) for p, q in chords)


def list_parse(text: str) -> ChordDiagram:
    """parse_gauss_code through one list of positions per label."""
    ends: dict[str, list[int]] = {}
    for position, label in enumerate(text.split(), start=1):
        ends.setdefault(label, []).append(position)
    chords = []
    for label, positions in ends.items():
        if len(positions) != 2:
            count = len(positions)
            times = "once" if count == 1 else f"{count} times"
            raise LabelCountError(
                f"label {label!r} occurs {times}, expected 2")
        chords.append((positions[0], positions[1]))
    return ChordDiagram(chords)


def all_matchings(positions):
    """Every perfect matching of the given positions, as chord tuples."""
    positions = list(positions)
    if not positions:
        yield ()
        return
    first = positions[0]
    rest = positions[1:]
    for i, q in enumerate(rest):
        for tail in all_matchings(rest[:i] + rest[i + 1:]):
            yield ((first, q),) + tail


def rotations_code(d: ChordDiagram) -> str:
    """rotation_canonical_code with every base point tried."""
    owner, size = end_map(d), d.size
    twice = [owner[p] for p in range(1, size + 1)] * 2
    best = min((first_appearance(twice[s:s + size]) for s in range(size)),
               default=[])
    return " ".join(map(str, best))


@cache
def rotation_class_codes(n: int) -> tuple[str, ...]:
    """The rotation-canonical code of every class on n chords, in the
    order in which all_matchings first reaches the class."""
    codes = {}
    for chords in all_matchings(range(1, 2 * n + 1)):
        codes.setdefault(rotations_code(ChordDiagram(chords)))
    return tuple(codes)


def search_by_matchings(max_chords: int, m: int, state_cap: int):
    """The scan over every matching, keyed by rotation class: the
    representatives whose word evaluates away from the identity, in
    the order in which all_matchings first reaches their class, among
    the first state_cap classes."""
    e = identity(m)
    found = []
    examined = 0
    for n in range(1, max_chords + 1):
        for key in rotation_class_codes(n):
            examined += 1
            if examined > state_cap:
                return found
            representative = parse_gauss_code(key)
            if evaluate(word_of(representative, m)) != e:
                found.append(representative)
    return found


def breadth_first_reduce(d: ChordDiagram, max_states: int,
                         max_chords: int) -> SearchReport:
    """Breadth-first search over diagrams under all moves.

    Returns REDUCED_TO_EMPTY with a shortest path when the empty
    diagram is reachable within the caps, MINIMAL_FOUND with a
    least-chord-count diagram when the bounded space is exhausted, and
    EXHAUSTED when the state cap is hit first.
    """
    visited = {d}
    queue = deque([(d, ())])
    best_d, best_path = d, ()
    while queue:
        current, path = queue.popleft()
        if current.n == 0:
            return SearchReport(REDUCED_TO_EMPTY, path, current,
                                len(visited), True)
        for move in enumerate_moves(current, max_chords):
            nxt = apply_move(current, move)
            if nxt in visited:
                continue
            if len(visited) >= max_states:
                return SearchReport(EXHAUSTED, None, None, len(visited),
                                    False)
            visited.add(nxt)
            nxt_path = path + (move,)
            if nxt.n == 0:
                return SearchReport(REDUCED_TO_EMPTY, nxt_path, nxt,
                                    len(visited), True)
            if nxt.n < best_d.n:
                best_d, best_path = nxt, nxt_path
            queue.append((nxt, nxt_path))
    return SearchReport(MINIMAL_FOUND, best_path, best_d, len(visited),
                        True)


def distinguish_per_depth(d1: ChordDiagram, d2: ChordDiagram, m_list,
                          mode: str = LONG):
    """distinguish with a word and a value per diagram at every depth."""
    per_m = []
    for m in m_list:
        a, b = evaluate(word_of(d1, m)), evaluate(word_of(d2, m))
        if mode == LONG:
            same, witness = a == b, None
        else:
            answer = freeknot.conjugate_equal(a, b)
            same, witness = answer.verdict == YES, answer.witness
        per_m.append((m, a, b, same, witness))
    distinct = not all(entry[3] for entry in per_m)
    return (CERTIFIED_DISTINCT if distinct else SAME_INVARIANT), per_m


def filtered_move_trial(rng, m_values) -> bool:
    """move_invariance_trial drawing from the listing with its rotations
    filtered out, and comparing a word's value per diagram and depth."""
    d = random_diagram(rng.randint(1, TRIAL_MAX_CHORDS), rng)
    options = [mv for mv in enumerate_moves(d, TRIAL_SIZE_CAP)
               if mv.kind != "rotate"]
    moved = apply_move(d, options[rng.randrange(len(options))])
    return all(evaluate(word_of(d, m)) == evaluate(word_of(moved, m))
               for m in m_values)


def describe_per_depth(d: ChordDiagram, m: int) -> dict:
    """One entry of `invariant --json` results: the filtration at depth m
    and the value of its word."""
    def chord_list(chords):
        return [list(c) for c in sorted(chords)]

    filt = word_filtration(d, m)
    nf = step_evaluate(filt.word)
    return {
        "m": m,
        "filtration": {
            "levels": [chord_list(level) for level in filt.levels],
            "splits": [{"odd": chord_list(odd), "even": chord_list(even)}
                       for odd, even in filt.prime_split],
        },
        "word": list(filt.word.letters),
        "normal_form": {"m": nf.m, "x": list(nf.x), "eps": nf.eps},
        "is_identity": nf.is_identity,
    }


def indented_json(value) -> str:
    """The --json layout: json's pure-Python indented encoder."""
    return json.dumps(value, indent=2, sort_keys=True)
