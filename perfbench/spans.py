"""Spans around the calls into each freeknot module.

The tracer wraps public functions of the six modules and rebinds every
name that refers to them, in the defining module and in each module
that imported it (freeknot.cli.word_of, freeknot.explore.enumerate_moves
and so on), so calls across and within modules pass through a wrapper.
No library source changes.  A span records its name, start, end,
parent span and operation; spans live in column arrays in memory and
are written out once the run ends.
"""

import gzip
import math
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

TRACED = {
    "diagram": ("parse_gauss_code", "serialize"),
    "parity": ("filtration", "word_of"),
    "group": ("evaluate", "conjugate_equal"),
    "moves": ("enumerate_moves", "apply_move"),
    "explore": ("scramble", "reduce", "distinguish", "search_nontrivial",
                "rotation_canonical_code"),
    "cli": ("main",),
}
MODULES = tuple(TRACED)


def _size(args, result):
    return args[0].n, 0


def _listed(args, result):
    return args[0].n, len(result)


def _conjugacy(args, result):
    a, b = args[0], args[1]
    return (sum(map(abs, a.x)) + sum(map(abs, b.x)),
            result.verdict in ("yes", "no"))


def _reduce(args, result):
    return result.visited, result.outcome == "reduced_to_empty"


# Two numbers recorded with each span, per traced function.
ATTRS = {
    "parity.filtration": _size,
    "parity.word_of": _size,
    "group.conjugate_equal": _conjugacy,
    "moves.enumerate_moves": _listed,
    "explore.reduce": _reduce,
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items()
                      for fn in fns]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.a1 = array("d")
        self.a2 = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, code: int, fn, attr):
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)
        a1, a2, stack = self.a1, self.a2, self._stack

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(code)
            op.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            a1.append(0.0)
            a2.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if attr is not None:
                a1[sid], a2[sid] = attr(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference to a traced function in freeknot."""
        loaded = [mod for key, mod in list(sys.modules.items())
                  if key == "freeknot" or key.startswith("freeknot.")]
        for code, qualname in enumerate(self.names):
            modname, fname = qualname.split(".")
            original = getattr(sys.modules[f"freeknot.{modname}"], fname)
            wrapper = self._wrap(code, original, ATTRS.get(qualname))
            for mod in loaded:
                if getattr(mod, fname, None) is original:
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def write(self, path) -> None:
        """All spans as tab-separated text, one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\top\tparent\tname\tstart\tend\ta1\ta2\n")
            for sid in range(len(self.start)):
                name = self.names[self.name[sid]]
                out.write(f"{sid}\t{self.op[sid]}\t{self.parent[sid]}\t"
                          f"{name}\t{self.start[sid]!r}\t{self.end[sid]!r}\t"
                          f"{self.a1[sid]!r}\t{self.a2[sid]!r}\n")

    def per_layer(self) -> dict:
        """Per-operation counts and self times, module shares, slopes
        and useful-work ratios, computed from the spans."""
        spans = range(len(self.start))
        duration = [self.end[s] - self.start[s] for s in spans]
        child = [0.0] * len(duration)
        for s in spans:
            if self.parent[s] >= 0:
                child[self.parent[s]] += duration[s]
        by_name: dict[str, list[int]] = defaultdict(list)
        for s in spans:
            by_name[self.names[self.name[s]]].append(s)

        ops = len(by_name["cli.main"])
        total = sum(duration[s] for s in by_name["cli.main"])
        out = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for qualname in self.names:
            ids = by_name[qualname]
            self_s = sum(duration[s] - child[s] for s in ids)
            module_self[qualname.split(".")[0]] += self_s
            out[f"{qualname}.calls"] = (len(ids) / ops, "count/op")
            out[f"{qualname}.self_ms"] = (1000 * self_s / ops, "ms/op")
        for mod in MODULES:
            out[f"{mod}.self_share"] = (100 * module_self[mod] / total, "%")

        def slope(qualname, size_of):
            ids = by_name[qualname]
            return _loglog_slope([size_of(s) for s in ids],
                                 [duration[s] for s in ids])

        out["parity.word_of.slope"] = (
            slope("parity.word_of", lambda s: self.a1[s]), "1")
        out["moves.enumerate_moves.slope"] = (
            slope("moves.enumerate_moves", lambda s: self.a1[s]), "1")
        out["group.conjugate_equal.slope_vs_x"] = (
            slope("group.conjugate_equal", lambda s: 1 + self.a1[s]), "1")

        def mean(qualname, column):
            ids = by_name[qualname]
            return sum(column[s] for s in ids) / len(ids) if ids else 0.0

        out["moves.enumerate_moves.listed"] = (
            mean("moves.enumerate_moves", self.a2), "moves/call")
        out["group.conjugate_equal.decided_fraction"] = (
            mean("group.conjugate_equal", self.a2), "fraction")
        out["explore.reduce.visited"] = (
            mean("explore.reduce", self.a1), "states/call")
        out["explore.reduce.solved_fraction"] = (
            mean("explore.reduce", self.a2), "fraction")

        code = {qualname: i for i, qualname in enumerate(self.names)}

        def under(parent_name, child_name, column=None):
            hits = 0.0
            for s in by_name[child_name]:
                p = self.parent[s]
                if p >= 0 and self.name[p] == code[parent_name]:
                    hits += 1 if column is None else column[s]
            return hits

        listed = under("explore.scramble", "moves.enumerate_moves", self.a2)
        applied = under("explore.scramble", "moves.apply_move")
        out["explore.scramble.applied_per_listed"] = (
            applied / listed if listed else 0.0, "fraction")
        attempts = under("explore.search_nontrivial",
                         "explore.rotation_canonical_code")
        classes = under("explore.search_nontrivial",
                        "diagram.parse_gauss_code")
        out["explore.census.classes_per_matching"] = (
            classes / attempts if attempts else 0.0, "fraction")
        out["trace.spans"] = (len(duration) / ops, "count/op")
        return out


def _loglog_slope(sizes, seconds) -> float:
    """Least-squares slope of log(median time) against log(size), over
    the distinct sizes seen; 0 when fewer than two sizes were seen."""
    groups: dict[float, list[float]] = defaultdict(list)
    for size, t in zip(sizes, seconds):
        if size > 0 and t > 0:
            groups[size].append(t)
    if len(groups) < 2:
        return 0.0
    xs = [math.log(size) for size in groups]
    ys = [math.log(statistics.median(ts)) for ts in groups.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
