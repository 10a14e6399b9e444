"""Slow reference implementations that the library's fast paths replaced.

Normal-form words are built and the group operations applied one
letter at a time through the action, and conjugacy is explored by
breadth-first closure under single-letter conjugation.  Word equality
is tested by rewriting alone, never through the action.  Linking is
tested chord pair by chord pair, and move sites are found by testing
every pair and triple of chords.  The exhaustive search lists every
perfect matching and keeps the first of each rotation class, and
reduction is a breadth-first search over every move.  The CLI's
--json text is json's own indented encoder.  Tests compare the library
code against them.
"""

import json
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable

from freeknot import (EXHAUSTED, FINAL, MINIMAL_FOUND, NO, REDUCED_TO_EMPTY,
                      YES, Chord, ChordDiagram, MixedM, NormalForm,
                      SearchReport, Word, alphabet, apply_letter, apply_move,
                      double_prime, enumerate_moves, evaluate, identity,
                      parse_gauss_code, prime, relations,
                      rotation_canonical_code, word_of)

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


@cache
def rotation_class_codes(n: int) -> tuple[str, ...]:
    """The rotation-canonical code of every class on n chords, in the
    order in which all_matchings first reaches the class."""
    codes = {}
    for chords in all_matchings(range(1, 2 * n + 1)):
        codes.setdefault(rotation_canonical_code(ChordDiagram(chords)))
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
                                len(visited), max_states, max_chords, True)
        for move in enumerate_moves(current, max_chords):
            nxt = apply_move(current, move)
            if nxt in visited:
                continue
            if len(visited) >= max_states:
                return SearchReport(EXHAUSTED, None, None,
                                    len(visited), max_states, max_chords,
                                    False)
            visited.add(nxt)
            nxt_path = path + (move,)
            if nxt.n == 0:
                return SearchReport(REDUCED_TO_EMPTY, nxt_path, nxt,
                                    len(visited), max_states, max_chords,
                                    True)
            if nxt.n < best_d.n:
                best_d, best_path = nxt, nxt_path
            queue.append((nxt, nxt_path))
    return SearchReport(MINIMAL_FOUND, best_path, best_d,
                        len(visited), max_states, max_chords, True)


def indented_json(value) -> str:
    """The --json layout: json's pure-Python indented encoder."""
    return json.dumps(value, indent=2, sort_keys=True)
