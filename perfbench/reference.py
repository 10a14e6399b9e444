"""An independent model of freeknot's outputs, used only to check them.

Nothing here imports freeknot.  Diagrams are label sequences (one label
per position 1..2n).  The filtration uses the parity fact that a chord
(p, q) is linked with an odd number of the chords of a set S exactly
when an odd number of S-ends lie strictly between p and q, so every
round is one prefix sum.  The group action follows its documented
rule: a level-k letter steps x_k up (P) or down (D) when
x_k + ... + x_{m-1} + eps is even, the other way when it is odd, and
F toggles eps.
"""

from itertools import combinations

WITNESSES_5 = frozenset({"1 2 1 3 4 2 5 3 5 4", "1 2 1 3 4 2 4 5 3 5"})


def canonical(labels) -> list[int]:
    """Relabel 1, 2, ... in order of first appearance."""
    names: dict = {}
    return [names.setdefault(t, len(names) + 1) for t in labels]


def code(labels) -> str:
    return " ".join(str(t) for t in canonical(labels))


def chords(labels) -> list[tuple[int, int]]:
    """Chords as (p, q) position pairs, p < q, ordered by p."""
    first: dict = {}
    out = []
    for position, label in enumerate(labels, start=1):
        if label in first:
            out.append((first.pop(label), position))
        else:
            first[label] = position
    if first:
        raise ValueError(f"unpaired labels {sorted(first)}")
    return sorted(out)


def concat(codes) -> list[int]:
    """Connected sum of long diagrams: the blocks side by side."""
    out: list[int] = []
    for block in codes:
        offset = len(out) // 2
        out.extend(offset + t for t in canonical(block.split()))
    return out


def _odd_inside(members, size: int) -> set:
    """Members with an odd number of member ends strictly inside."""
    mark = [0] * (size + 2)
    for p, q in members:
        mark[p] = mark[q] = 1
    prefix = [0] * (size + 2)
    for i in range(1, size + 2):
        prefix[i] = prefix[i - 1] + mark[i]
    return {(p, q) for p, q in members if (prefix[q - 1] - prefix[p]) % 2}


def word(labels, m: int) -> list[str]:
    cs = chords(labels)
    size = 2 * len(cs)
    letter = {}
    remaining = set(cs)
    for k in range(m):
        level = _odd_inside(remaining, size)
        remaining -= level
        odd = _odd_inside(level, size)
        for c in level:
            letter[c] = f"P{k}" if c in odd else f"D{k}"
    for c in remaining:
        letter[c] = "F"
    out = [""] * size
    for c in cs:
        out[c[0] - 1] = out[c[1] - 1] = letter[c]
    return out


def act(point, letters):
    """Right action of a letter sequence on a point (x, eps)."""
    x, eps = list(point[0]), point[1]
    for z in letters:
        if z == "F":
            eps = 1 - eps
            continue
        k = int(z[1:])
        step = 1 if (sum(x[k:]) + eps) % 2 == 0 else -1
        x[k] += step if z[0] == "P" else -step
    return tuple(x), eps


def value(labels, m: int) -> tuple[tuple[int, ...], int]:
    return act(((0,) * m, 0), word(labels, m))


def conjugate_by(labels, m: int, witness) -> tuple[tuple[int, ...], int]:
    """Value of w^-1 a w, where a is the value of the diagram `labels`."""
    point = act(((0,) * m, 0), reversed(witness))
    point = act(point, word(labels, m))
    return act(point, witness)


def rotation_canonical(labels) -> str:
    """Least canonical code, token-wise, over all base-point rotations."""
    labels = list(labels)
    if not labels:
        return ""
    best = min(canonical(labels[s:] + labels[:s]) for s in range(len(labels)))
    return " ".join(map(str, best))


def _pair(labels, p: int, q: int) -> bool:
    return 1 <= p < q <= len(labels) and labels[p - 1] == labels[q - 1]


def _adjoint(labels, anchors) -> bool:
    r, s, t = anchors
    ends = [r, r + 1, s, s + 1, t, t + 1]
    if not (1 <= r and r + 1 < s and s + 1 < t and t + 1 <= len(labels)):
        return False
    names = [labels[e - 1] for e in ends]
    if any(names.count(a) != 2 for a in names):
        return False
    return all(labels[a - 1] != labels[a] for a in anchors)


def apply(labels, move: dict) -> list:
    """Apply one move given in freeknot's JSON form; ValueError if it
    does not apply."""
    labels = list(labels)
    kind = move["kind"]
    fresh = max(labels, default=0) + 1
    if kind == "r1_remove":
        p, q = move["chord"]
        if q != p + 1 or not _pair(labels, p, q):
            raise ValueError(f"no small chord at {move['chord']}")
        return labels[:p - 1] + labels[q:]
    if kind == "r1_add":
        gap = move["gap"]
        if not 0 <= gap <= len(labels):
            raise ValueError(f"gap {gap} out of range")
        return labels[:gap] + [fresh, fresh] + labels[gap:]
    if kind == "r2_remove":
        (p1, q1), (p2, q2) = move["chords"]
        if not (_pair(labels, p1, q1) and _pair(labels, p2, q2)
                and abs(p1 - p2) == 1 and abs(q1 - q2) == 1):
            raise ValueError(f"no adjacent pair at {move['chords']}")
        gone = {p1, q1, p2, q2}
        return [t for i, t in enumerate(labels, start=1) if i not in gone]
    if kind == "r2_add":
        g1, g2 = move["gap1"], move["gap2"]
        if not 0 <= g1 <= g2 <= len(labels):
            raise ValueError(f"gaps {g1}, {g2} out of range")
        a, b = fresh, fresh + 1
        second = [a, b] if move["pattern"] == "crossed" else [b, a]
        if move["pattern"] not in ("crossed", "nested"):
            raise ValueError(f"unknown pattern {move['pattern']!r}")
        return (labels[:g1] + [a, b] + labels[g1:g2] + second
                + labels[g2:])
    if kind == "r3":
        anchors = tuple(move["anchors"])
        if not _adjoint(labels, anchors):
            raise ValueError(f"no adjoint triple at {anchors}")
        for a in anchors:
            labels[a - 1], labels[a] = labels[a], labels[a - 1]
        return labels
    if kind == "rotate":
        if not labels:
            raise ValueError("cannot rotate the empty diagram")
        s = move["steps"] % len(labels)
        return labels[s:] + labels[:s]
    raise ValueError(f"unknown move kind {kind!r}")


def move_count(labels, max_chords: int) -> int:
    """How many moves freeknot's enumeration should list."""
    cs = chords(labels)
    n, size = len(cs), len(labels)
    total = sum(1 for p, q in cs if q == p + 1)
    total += sum(1 for (p1, q1), (p2, q2) in combinations(cs, 2)
                 if abs(p1 - p2) == 1 and abs(q1 - q2) == 1)
    seams = [a for a in range(1, size) if labels[a - 1] != labels[a]]
    total += sum(1 for triple in combinations(seams, 3)
                 if _adjoint(labels, triple))
    if n + 1 <= max_chords:
        total += size + 1
    if n + 2 <= max_chords:
        total += (size + 1) * (size + 2)
    if n:
        total += 2
    return total
