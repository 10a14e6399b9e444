"""Randomised and exhaustive exploration of the move graph.

Scrambling drives the invariance checks; reduction asks whether a
diagram reaches the empty one within explicit caps; the exhaustive
search hunts for diagrams whose word evaluates away from the identity,
which certifies them as nontrivial free knots.
"""

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .diagram import (ChordDiagram, first_appearance, parse_gauss_code,
                      serialize)
from .group import YES, conjugate, conjugate_equal, evaluate, identity
from .moves import (ApplicableMoves, Move, apply_move, enumerate_moves,
                    move_to_json, rotate_basepoint)
from .parity import word_of

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
    capped at size_cap chords.  Deterministic for a given seed, and the
    result stays equivalent to d as a free knot."""
    if size_cap < d.n:
        raise ValueError(
            f"size_cap {size_cap} below current chord count {d.n}")
    rng = random.Random(seed)
    for _ in range(move_count):
        options = ApplicableMoves(d, size_cap)
        if not options:
            break
        d = apply_move(d, options[rng.randrange(len(options))])
    return d


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a bounded breadth-first reduction.

    path replays from the start diagram to `diagram` when the outcome
    carries one; visited counts distinct diagrams seen.
    """

    outcome: str  # reduced_to_empty | minimal_found | exhausted
    path: tuple[Move, ...] | None
    diagram: ChordDiagram | None
    visited: int
    max_states: int
    max_chords: int

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "path": None if self.path is None else
                    [move_to_json(mv) for mv in self.path],
            "diagram": None if self.diagram is None else
                       self.diagram.to_json(),
            "gauss": None if self.diagram is None else
                     serialize(self.diagram),
            "visited": self.visited,
            "max_states": self.max_states,
            "max_chords": self.max_chords,
        }


def reduce(d: ChordDiagram, max_states: int, max_chords: int) -> SearchReport:
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
                                len(visited), max_states, max_chords)
        for move in enumerate_moves(current, max_chords):
            nxt = apply_move(current, move)
            if nxt in visited:
                continue
            if len(visited) >= max_states:
                return SearchReport(EXHAUSTED, None, None,
                                    len(visited), max_states, max_chords)
            visited.add(nxt)
            nxt_path = path + (move,)
            if nxt.n == 0:
                return SearchReport(REDUCED_TO_EMPTY, nxt_path, nxt,
                                    len(visited), max_states, max_chords)
            if nxt.n < best_d.n:
                best_d, best_path = nxt, nxt_path
            queue.append((nxt, nxt_path))
    return SearchReport(MINIMAL_FOUND, best_path, best_d,
                        len(visited), max_states, max_chords)


def distinguish(d1: ChordDiagram, d2: ChordDiagram, m_list: Sequence[int],
                mode: str = LONG) -> tuple[str, list[dict]]:
    """Compare two diagrams through their invariants, depth by depth.

    Long mode compares the values exactly ("equal" or "distinct"); free
    mode compares conjugacy classes ("conjugate", with a shortest
    conjugating word as witness, or "distinct").  Returns the verdict,
    CERTIFIED_DISTINCT when some depth separates the diagrams and
    SAME_INVARIANT when every depth agrees, with the per-depth entries
    of `compare --json`.  Agreement never claims the knots themselves
    are equivalent.
    """
    if mode not in (LONG, FREE):
        raise ValueError(f"unknown mode {mode!r}")
    per_m = []
    for m in m_list:
        a, b = evaluate(word_of(d1, m)), evaluate(word_of(d2, m))
        if mode == LONG:
            relation, witness = ("equal" if a == b else "distinct"), None
        else:
            answer = conjugate_equal(a, b)
            relation = "conjugate" if answer.verdict == YES else "distinct"
            witness = None if answer.witness is None else list(answer.witness)
        per_m.append({"m": m, "left": a.to_json(), "right": b.to_json(),
                      "relation": relation, "witness": witness})
    distinct = any(entry["relation"] == "distinct" for entry in per_m)
    return (CERTIFIED_DISTINCT if distinct else SAME_INVARIANT), per_m


def rotation_canonical_code(d: ChordDiagram) -> str:
    """Lexicographically least Gauss code over all base-point rotations.

    A key for rotation classes (token-wise on the label numbers), and
    the representative `search_nontrivial` reports for each hit.
    """
    owner, size = d.end_map(), d.size
    twice = [owner[p] for p in range(1, size + 1)] * 2
    best = min((first_appearance(twice[s:s + size]) for s in range(size)),
               default=[])
    return " ".join(map(str, best))


def rotation_classes(n: int) -> Iterator[ChordDiagram]:
    """One diagram on n chords per rotation class (OEIS A007769), lazily.

    Moving the base point shifts the gap sequence, (partner(i) - i) mod
    2n over the positions i, cyclically, so the classes are necklaces of
    gap sequences (J. Sawada, SIAM J. Discrete Math. 15(4), 2002).  An
    FKM prenecklace recursion yields each class once, as its least gap
    sequence, in increasing order: a position that an earlier chord ends
    at takes that chord's gap back, any other starts a chord forward.
    """
    size = 2 * n
    gaps = [0] * (size + 1)  # gaps[t] at position t; gaps[0] is a floor
    back = [0] * (size + 1)  # the gap an earlier chord forces at t, or 0
    chords = []

    def extend(t, p):
        if t > size:
            if size % p == 0:
                yield ChordDiagram(chords)
            return
        least = gaps[t - p]
        if back[t]:
            g = gaps[t] = back[t]
            if g >= least:
                yield from extend(t + 1, p if g == least else t)
            return
        for g in range(max(least, 1), size - t + 1):
            if not back[t + g]:
                gaps[t], back[t + g] = g, size - g
                chords.append((t, t + g))
                yield from extend(t + 1, p if g == least else t)
                chords.pop()
                back[t + g] = 0

    return extend(1, 1)


class Witnesses(list):
    """The diagrams `search_nontrivial` certified, with the number of
    rotation classes it examined and whether those were all of them."""

    __slots__ = ("examined", "complete")

    def __init__(self, found, examined: int, complete: bool):
        super().__init__(found)
        self.examined, self.complete = examined, complete


def search_nontrivial(max_chords: int, m: int, state_cap: int) -> Witnesses:
    """Exhaustively scan diagrams with up to max_chords chords, one per
    rotation class from `rotation_classes`, and return (as canonical
    representatives) those whose word evaluates away from the identity.

    Every hit is a certified nontrivial free knot: the identity's
    conjugacy class is itself alone, so no sequence of moves and
    rotations can bring a hit back to the empty diagram.  Hits are
    listed by chord count, then by `rotation_canonical_code` compared
    token by token as integers.  The scan stops once state_cap rotation
    classes were examined, and the result says so (`complete` false).
    """
    e = identity(m)
    found, examined, complete = [], 0, True
    for n in range(1, max_chords + 1):
        hits = []
        for d in rotation_classes(n):
            if examined == state_cap:
                complete = False
                break
            examined += 1
            if evaluate(word_of(d, m)) != e:
                hits.append(rotation_canonical_code(d))
        hits.sort(key=lambda code: [int(label) for label in code.split()])
        found += map(parse_gauss_code, hits)
        if not complete:
            break
    return Witnesses(found, examined, complete)


def move_invariance_trial(rng: random.Random,
                          m_values: Sequence[int]) -> bool:
    """One random trial: does a uniformly chosen applicable move
    (rotations excluded) preserve the value at every given depth?"""
    d = random_diagram(rng.randint(1, TRIAL_MAX_CHORDS), rng)
    options = [mv for mv in enumerate_moves(d, TRIAL_SIZE_CAP)
               if mv.kind != "rotate"]
    moved = apply_move(d, options[rng.randrange(len(options))])
    return all(
        evaluate(word_of(d, m)) == evaluate(word_of(moved, m))
        for m in m_values)


def rotation_conjugacy_trial(rng: random.Random,
                             m_values: Sequence[int]) -> bool:
    """One random trial: after a one-step rotation the value must be
    the conjugate by the word's first letter, and the conjugacy test
    must certify the two values conjugate with a valid witness."""
    d = random_diagram(rng.randint(1, TRIAL_MAX_CHORDS), rng)
    rotated = rotate_basepoint(d, 1)
    for m in m_values:
        w = word_of(d, m)
        a = evaluate(w)
        b = evaluate(word_of(rotated, m))
        if b != conjugate(a, (w.letters[0],)):
            return False
        answer = conjugate_equal(a, b)
        if answer.verdict != YES or conjugate(a, answer.witness) != b:
            return False
    return True
