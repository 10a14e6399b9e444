"""Randomised and exhaustive exploration of the move graph.

Scrambling applies random moves; the invariance trials of `selfcheck`
draw one move or rotation and take their verdicts from `distinguish`,
the comparison `compare` makes; reduction looks for a shortest path to
the empty diagram within explicit caps, by a descent through removals
and then an A* search that proves the path shortest; the exhaustive
search hunts for diagrams whose word evaluates away from the identity,
which certifies them as nontrivial free knots.
"""

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, count, islice
from math import inf
from typing import Iterator, Sequence

from .diagram import Chord, ChordDiagram, first_appearance
from .group import YES, NormalForm, _value, conjugate_equal, evaluate
from .moves import (MOVE_KINDS, Move, apply_move, enumerate_moves,
                    rotate_basepoint)
from .parity import InvalidM, Word, word_of

SAME_INVARIANT = "same_invariant"
CERTIFIED_DISTINCT = "certified_distinct"

LONG = "long"
FREE = "free"

REDUCED_TO_EMPTY = "reduced_to_empty"
MINIMAL_FOUND = "minimal_found"
EXHAUSTED = "exhausted"

TRIAL_MAX_CHORDS = 8  # the randomised trials draw diagrams of 1 to 8 chords
TRIAL_SIZE_CAP = 10  # and list the moves that keep them within 10 chords


def random_diagram(n: int, rng: random.Random) -> ChordDiagram:
    """A uniformly random diagram on n chords: repeatedly pair the
    lowest free position with a uniformly chosen other free position."""
    free = list(range(1, 2 * n + 1))
    chords = []
    while free:
        p = free.pop(0)
        q = free.pop(rng.randrange(len(free)))
        chords.append((p, q))
    return ChordDiagram(chords)


def scramble(d: ChordDiagram, move_count: int, seed: int,
             size_cap: int) -> ChordDiagram:
    """Apply `move_count` uniformly chosen applicable moves, insertions
    capped at size_cap chords, or none to the empty diagram under cap 0,
    the one diagram without a move (any other has a rotation or an R1
    insertion).  Deterministic for a given seed, and the result stays
    equivalent to d as a free knot."""
    if size_cap < d.n:
        raise ValueError(
            f"size_cap {size_cap} below current chord count {d.n}")
    rng = random.Random(seed)
    for _ in range(move_count):
        options = enumerate_moves(d, size_cap)
        listed = len(options)
        if not listed:
            break
        d = apply_move(d, options[rng.randrange(listed)])
    return d


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a bounded reduction.

    path replays from the start diagram to `diagram` when the outcome
    carries one; visited counts distinct diagrams seen; shortest says
    that no shorter path to `diagram` exists within the chord budget.
    """

    outcome: str  # reduced_to_empty | minimal_found | exhausted
    path: tuple[Move, ...] | None
    diagram: ChordDiagram | None
    visited: int
    shortest: bool


# The moves the descent tries, in this order: removals, then the
# triple move, which keeps the size.
DESCENT_ORDER = ("r2_remove", "r1_remove", "r3")


def _lower_bound(d: ChordDiagram) -> int:
    """ceil(n/2): one move changes the chord count by at most two."""
    return (d.n + 1) // 2


def _descend(d: ChordDiagram, seen: set, max_states: int):
    """The first path to the empty diagram that a depth-first search
    through DESCENT_ORDER finds, or None.  Every diagram it reaches
    joins `seen`, which never grows past max_states."""
    def branch(current):
        return (Move(name, params) for name in DESCENT_ORDER
                for params in MOVE_KINDS[name].sites(current, current.n))

    stack, path = [(d, branch(d))], []
    while stack:
        current, moves = stack[-1]
        move = next(moves, None)
        if move is None:
            stack.pop()
            if path:
                path.pop()
            continue
        nxt = apply_move(current, move)
        if nxt in seen:
            continue
        if len(seen) >= max_states:
            return None
        seen.add(nxt)
        path.append(move)
        if nxt.n == 0:
            return tuple(path)
        stack.append((nxt, branch(nxt)))
    return None


def _path(parent: dict, state: ChordDiagram) -> tuple[Move, ...]:
    moves = []
    while parent[state] is not None:
        state, move = parent[state]
        moves.append(move)
    return tuple(reversed(moves))


def _a_star(d: ChordDiagram, max_chords: int, seen: set, max_states: int,
            incumbent):
    """A* from d under all moves, pruned by the incumbent path.

    Returns (incumbent, least, finished): the shortest path to the
    empty diagram found so far; (path, diagram) for the first expanded
    diagram of least chord count and a shortest path to it, or None
    when cut; and whether the search ran out of states below the bound
    before `seen` reached max_states.
    """
    g_of, parent, closed = {d: 0}, {d: None}, set()
    tie = count()
    frontier = [(_lower_bound(d), next(tie), d)]
    least = d
    while frontier:
        f, _, current = heappop(frontier)
        limit = inf if incumbent is None else len(incumbent)
        if f >= limit:
            break
        if current in closed:
            continue
        closed.add(current)
        if current.n < least.n:
            least = current
        g = g_of[current] + 1
        # a child above 2(limit - g - 1) chords has g + h >= limit
        budget = min(max_chords, 2 * (limit - g - 1))
        for move in enumerate_moves(current, budget):
            nxt = apply_move(current, move)
            if (g + _lower_bound(nxt) >= limit or nxt in closed
                    or g_of.get(nxt, inf) <= g):
                continue
            if nxt not in seen:
                if len(seen) >= max_states:
                    return incumbent, None, False
                seen.add(nxt)
            g_of[nxt], parent[nxt] = g, (current, move)
            if nxt.n == 0:
                incumbent, limit = _path(parent, nxt), g
            else:
                heappush(frontier, (g + _lower_bound(nxt), next(tie), nxt))
    return incumbent, (_path(parent, least), least), True


def reduce(d: ChordDiagram, max_states: int, max_chords: int) -> SearchReport:
    """Look for a shortest path to the empty diagram within the caps.

    Stage 1 is a depth-first descent through R2 removals, then R1
    removals, then R3 moves; the first path that empties the diagram
    becomes the incumbent.  Stage 2 is an A* search (Hart, Nilsson and
    Raphael, 1968) over all moves, insertions kept within max_chords
    chords, ordered by g + ceil(n/2) with ties broken by insertion
    order.  One move changes the chord count by at most two, so
    ceil(n/2) is a consistent lower bound on the moves left: a state is
    closed when it is expanded, and one with g + ceil(n/2) at least
    the incumbent's length is pruned.  Both stages draw on one cap of
    max_states distinct diagrams, so visited never exceeds it.

    REDUCED_TO_EMPTY carries the incumbent; MINIMAL_FOUND, when the
    empty diagram is out of reach, a shortest path to a least-chord
    diagram of the bounded space; EXHAUSTED says that the cap was hit
    before either was found.  `shortest` is true exactly when A*
    finished under the cap, so that the path is a shortest one within
    the chord budget.
    """
    if max_states < 1:
        return SearchReport(EXHAUSTED, None, None, 0, False)
    seen = {d}
    incumbent = () if d.n == 0 else _descend(d, seen, max_states)
    incumbent, least, finished = _a_star(d, max_chords, seen, max_states,
                                         incumbent)
    if incumbent is not None:
        outcome, path, diagram = REDUCED_TO_EMPTY, incumbent, ChordDiagram()
    elif finished:
        outcome, (path, diagram) = MINIMAL_FOUND, least
    else:
        outcome, path, diagram = EXHAUSTED, None, None
    return SearchReport(outcome, path, diagram, len(seen), finished)


def distinguish(d1: ChordDiagram, d2: ChordDiagram, m_list: Sequence[int],
                mode: str = LONG) -> tuple[str, list[tuple]]:
    """Compare two diagrams through their invariants at the depths of m_list.

    Each diagram gets one value, at the deepest depth, read at depth m
    as NormalForm(x[:m], 0) (see `group._value`).  Long mode compares
    values exactly, free mode conjugacy classes, with a shortest
    conjugating word as witness.  Returns the verdict, CERTIFIED_DISTINCT
    when some depth separates the diagrams, else SAME_INVARIANT (never
    a claim of equivalence), and per depth a tuple (m, left, right,
    same, witness): the two values, whether they match, and the witness,
    None in long mode or when they do not.
    """
    if mode not in (LONG, FREE):
        raise ValueError(f"unknown mode {mode!r}")
    if any(m < 1 for m in m_list):
        raise InvalidM(f"depths must be positive integers, got {m_list}")
    deep = max(m_list, default=1)
    x1, x2 = (_value(d.chords, deep).x for d in (d1, d2))
    per_m = []
    for m in m_list:
        a, b = NormalForm(x1[:m], 0), NormalForm(x2[:m], 0)
        if mode == LONG:
            same, witness = a == b, None
        else:
            answer = conjugate_equal(a, b)
            same, witness = answer.verdict == YES, answer.witness
        per_m.append((m, a, b, same, witness))
    distinct = not all(same for _, _, _, same, _ in per_m)
    return (CERTIFIED_DISTINCT if distinct else SAME_INVARIANT), per_m


def rotation_canonical_code(d: ChordDiagram) -> str:
    """Lexicographically least Gauss code over all base-point rotations.

    A key for rotation classes (token-wise on the label numbers), and
    the representative `search_nontrivial` reports for each hit.  Only
    the starts whose forward arc (partner(s) - s) mod 2n is the least,
    g, can win: read from s, labels are new up to offset min over u of
    u + arc(s + u), which is g exactly when arc(s) = g, and the label
    there is then 1 where every other start writes g + 1.
    """
    size = d.size
    owner, arc = [0] * size, [0] * size
    for label, (p, q) in enumerate(d.chords):
        owner[p - 1] = owner[q - 1] = label
        arc[p - 1], arc[q - 1] = q - p, size - q + p
    least, twice = min(arc, default=0), owner * 2
    best = min((first_appearance(twice[s:s + size]) for s in range(size)
                if arc[s] == least), default=[])
    return " ".join(map(str, best))


def _class_chords(n: int) -> Iterator[tuple[Chord, ...]]:
    """The sorted chords of one diagram on n chords per rotation class.

    Moving the base point shifts the gap sequence, (partner(i) - i) mod
    2n over the positions i, cyclically, so the classes are necklaces of
    gap sequences (J. Sawada, SIAM J. Discrete Math. 15(4), 2002).  An
    FKM prenecklace recursion yields each class once, as its least gap
    sequence, in increasing order: a position that an earlier chord ends
    at takes that chord's gap back, any other starts a chord forward.
    Each frame walks the forced positions in place, then starts a chord.
    """
    size = 2 * n
    gaps = [0] * (size + 1)  # gaps[t] at position t; gaps[0] is a floor
    back = [0] * (size + 1)  # the gap an earlier chord forces at t, or 0
    chords = []

    def extend(t, p):
        while t <= size and back[t]:
            g = gaps[t] = back[t]
            if g < gaps[t - p]:
                return
            if g > gaps[t - p]:
                p = t
            t += 1
        if t > size:
            if size % p == 0:
                yield tuple(chords)
            return
        least = gaps[t - p]
        for g in range(max(least, 1), size - t + 1):
            if not back[t + g]:
                gaps[t], back[t + g] = g, size - g
                chords.append((t, t + g))
                yield from extend(t + 1, p if g == least else t)
                chords.pop()
                back[t + g] = 0

    return extend(1, 1)


def rotation_classes(n: int) -> Iterator[ChordDiagram]:
    """One diagram on n chords per rotation class (OEIS A007769), lazily."""
    return map(ChordDiagram, _class_chords(n))


def search_nontrivial(max_chords: int, depths: Sequence[int],
                      state_cap: int) -> tuple[list[list[str]], int, bool]:
    """Scan diagrams on up to max_chords chords, the sorted chords of
    one per rotation class from `_class_chords`, for words that evaluate
    away from the identity; such a hit is a certified nontrivial free
    knot, since the identity's conjugacy class is itself alone.

    One `_value` per class, at the deepest depth, serves every depth:
    by the prefix rule of its docstring, a class is a hit at depth m
    exactly when any(value.x[:m]).  Only a hit becomes a diagram.
    Returns (witnesses, examined, complete): witnesses[i] lists the
    `rotation_canonical_code` of each hit at depths[i], by chord count
    and then token by token as integers; the scan stops after state_cap
    classes, and complete says whether that was all of them.
    """
    if not depths or min(depths) < 1:
        raise InvalidM(f"depths must be positive integers, got {depths}")
    deep = max(depths)
    hits: dict[int, list[str]] = {m: [] for m in depths}
    classes = chain.from_iterable(map(_class_chords,
                                      range(1, max_chords + 1)))
    examined = 0
    for chords in islice(classes, state_cap):
        examined += 1
        value, code = _value(chords, deep), None
        for m, found in hits.items():
            if any(value.x[:m]):
                code = code or rotation_canonical_code(ChordDiagram(chords))
                found.append(code)
    complete = next(classes, None) is None
    order = lambda code: (code.count(" "), [int(t) for t in code.split()])
    return [sorted(hits[m], key=order) for m in depths], examined, complete


def move_invariance_trial(rng: random.Random,
                          m_values: Sequence[int]) -> bool:
    """One random trial: does a uniformly chosen applicable move
    (rotations excluded) keep `distinguish`'s verdict at SAME_INVARIANT?
    The listing ends with the two rotations, so the draw skips them."""
    d = random_diagram(rng.randint(1, TRIAL_MAX_CHORDS), rng)
    options = enumerate_moves(d, TRIAL_SIZE_CAP)
    moved = apply_move(d, options[rng.randrange(len(options) - 2)])
    return distinguish(d, moved, m_values)[0] == SAME_INVARIANT


def rotation_conjugacy_trial(rng: random.Random,
                             m_values: Sequence[int]) -> bool:
    """One random trial: after a one-step rotation `distinguish` in free
    mode must find the values conjugate at every depth, and the rotated
    value must be the conjugate by the word's first letter and by the
    witness w.  Every letter is an involution, so w^-1 a w evaluates the
    word w reversed, then a's word, then w."""
    d = random_diagram(rng.randint(1, TRIAL_MAX_CHORDS), rng)
    verdict, per_m = distinguish(d, rotate_basepoint(d, 1), m_values, FREE)
    if verdict != SAME_INVARIANT:
        return False
    for m, _, right, _, witness in per_m:
        letters = word_of(d, m).letters
        if any(evaluate(Word((*w[::-1], *letters, *w), m)) != right
               for w in (letters[:1], witness)):
            return False
    return True
