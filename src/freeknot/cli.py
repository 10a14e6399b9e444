"""Command line front end.

Subcommands: invariant, compare, scramble, reduce, search, selfcheck,
moves.  Gauss codes come from repeatable --gauss flags or else from
standard input, where every line is one code and a blank line is the
empty diagram; compare takes exactly two, scramble, reduce and moves
one.  Each subcommand computes its whole result and returns its exit
code, its --json payload and its text lines; main alone writes to
stdout, so an error leaves stdout empty, and --json (sorted keys,
fixed layout) carries the same result the text shows.
Every randomised command prints its seed so runs can be replayed.
Exit status: 0 success, 1 compare found the diagrams distinct or
selfcheck failed, 2 bad input, 141 stdout's reader closed the pipe.
"""

import argparse
import functools
import json
import os
import random
import signal
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .diagram import ChordDiagram, parse_gauss_code, serialize
from .explore import (CERTIFIED_DISTINCT, FREE, LONG, distinguish,
                      move_invariance_trial, reduce, rotation_conjugacy_trial,
                      scramble, search_nontrivial)
from .group import (NormalForm, corrupted_apply_letter, identity,
                    relation_check)
from .moves import (MOVE_KINDS, PATTERNS, ApplicableMoves, Move,
                    enumerate_moves)
from .parity import FINAL, alphabet, filtration


def _read_stdin_lines() -> list[str]:
    # stdin may be a tty, detached, or (under a test runner) closed
    try:
        if sys.stdin is None or sys.stdin.isatty():
            return []
        return sys.stdin.read().splitlines()
    except (OSError, ValueError):
        return []


def _diagrams(args, needed: int | None) -> list[ChordDiagram]:
    """The parsed --gauss codes, or else stdin's; exactly `needed` of
    them when that is given, at least one otherwise."""
    codes = args.gauss if args.gauss is not None else _read_stdin_lines()
    if not codes:
        raise ValueError("no gauss codes given (use --gauss or stdin)")
    if needed is not None and len(codes) != needed:
        raise ValueError(f"expected {needed} gauss codes, got {len(codes)}")
    return [parse_gauss_code(code) for code in codes]


def _seed(args) -> int:
    return args.seed if args.seed is not None else random.randrange(2 ** 32)


def _diagram_json(d: ChordDiagram) -> dict:
    return {"n": d.n, "chords": d.chords}


def _point_json(point: NormalForm) -> dict:
    return {"m": point.m, "x": point.x, "eps": point.eps}


def _move_json(move: Move) -> dict:
    """The kind, then each parameter under its field's name."""
    return {"kind": move.kind,
            **dict(zip(MOVE_KINDS[move.kind].fields, move.params))}


def _move_text(move: Move) -> str:
    """The kind, then field=value for each parameter, a chord as (p,q).

    >>> _move_text(Move("r2_remove", (((1, 4), (2, 5)),)))
    'r2_remove chords=(1,4),(2,5)'
    """
    words = [move.kind]
    for field, value in zip(MOVE_KINDS[move.kind].fields, move.params):
        if type(value) is tuple:
            rows = value if type(value[0]) is tuple else (value,)
            value = ",".join(f"({','.join(map(str, row))})" for row in rows)
        words.append(f"{field}={value}")
    return " ".join(words)


def _describe(d: ChordDiagram, m_values: list[int]):
    """d's entries at each depth off one filtration at the deepest, whose
    parts every depth shares: depth m reads the letters of levels >= m
    as F and the first m coordinates of x (see parity._levels)."""
    deep = max(m_values)
    f = filtration(d, deep)
    splits = [{"odd": odd, "even": even} for odd, even in f.prime_split]
    for m in m_values:
        kept = chain(alphabet(m)[:-1], repeat(FINAL))
        spell = dict(zip(alphabet(deep), kept))
        x = f.x[:m]
        yield {
            "m": m,
            "filtration": {
                "levels": [*f.levels[:m], sorted(chain(*f.levels[m:]))],
                "splits": splits[:m],
            },
            "word": [*map(spell.__getitem__, f.word.letters)],
            "normal_form": _point_json(NormalForm(x, 0)),
            "is_identity": not any(x),
        }


def cmd_invariant(args):
    m_values = args.m or [1]
    diagrams = [{"gauss": serialize(d), "diagram": _diagram_json(d),
                 "results": list(_describe(d, m_values))}
                for d in _diagrams(args, None)]

    def text():
        for index, entry in enumerate(diagrams):
            if index:
                yield ""
            yield f"gauss: {entry['gauss'] or '(empty)'}"
            for info in entry["results"]:
                m, nf = info["m"], info["normal_form"]
                yield f"m={m} levels: " + " ".join(
                    f"|a{k}|={len(level)}"
                    for k, level in enumerate(info["filtration"]["levels"]))
                yield f"m={m} splits: " + " ".join(
                    f"P{k}={len(s['odd'])} D{k}={len(s['even'])}"
                    for k, s in enumerate(info["filtration"]["splits"]))
                yield f"m={m} word: {' '.join(info['word']) or '(empty)'}"
                tag = " (identity)" if info["is_identity"] else ""
                yield f"m={m} normal form: x={[*nf['x']]} eps={nf['eps']}{tag}"
    return 0, {"diagrams": diagrams}, text()


def cmd_compare(args):
    m_values = args.m or [1]
    verdict, per_m = distinguish(*_diagrams(args, 2), m_values, args.mode)
    code = 1 if verdict == CERTIFIED_DISTINCT else 0
    match = "conjugate" if args.mode == FREE else "equal"
    per_m = [{"m": m, "left": _point_json(a), "right": _point_json(b),
              "relation": match if same else "distinct", "witness": witness}
             for m, a, b, same, witness in per_m]

    def text():
        yield f"mode: {args.mode}"
        for entry in per_m:
            line = f"m={entry['m']}: {entry['relation']}"
            if entry["witness"] is not None:
                line += f" witness={' '.join(entry['witness']) or '(empty)'}"
            yield line
        yield f"verdict: {verdict}"
    return code, {"mode": args.mode, "m": m_values, "per_m": per_m,
                  "verdict": verdict, "exit_code": code}, text()


def cmd_scramble(args):
    [d] = _diagrams(args, 1)
    seed = _seed(args)
    size_cap = args.max_chords if args.max_chords is not None else \
        max(2 * d.n, 4)
    result = scramble(d, args.moves, seed, size_cap)
    gauss = serialize(result)
    applied = args.moves if d.n or size_cap else 0  # see scramble

    def text():
        yield f"seed: {seed}"
        yield f"applied: {applied} moves (size cap {size_cap})"
        yield f"result: {gauss or '(empty)'}"
    return 0, {"seed": seed, "moves": args.moves, "size_cap": size_cap,
               "gauss": gauss, "diagram": _diagram_json(result)}, text()


def cmd_reduce(args):
    [d] = _diagrams(args, 1)
    max_chords = args.max_chords if args.max_chords is not None else d.n + 1
    report = reduce(d, args.max_states, max_chords)
    path, result = report.path, report.diagram
    gauss = None if result is None else serialize(result)

    def text():
        yield f"outcome: {report.outcome}"
        yield f"visited: {report.visited}"
        yield f"shortest: {'yes' if report.shortest else 'no'}"
        if path is not None:
            yield f"path ({len(path)} moves):"
            yield from (f"  {_move_text(move)}" for move in path)
        if result is not None:
            yield f"result: {gauss or '(empty)'}"
    return 0, {"outcome": report.outcome, "path": path,
               "diagram": None if result is None else _diagram_json(result),
               "gauss": gauss, "visited": report.visited,
               "max_states": args.max_states, "max_chords": max_chords,
               "shortest": report.shortest}, text()


def cmd_search(args):
    depths = args.m or [1]
    found, examined, complete = search_nontrivial(args.max_chords, depths,
                                                  args.max_states)
    per_m = [{"m": m, "witnesses": hits,
              "examined": examined, "complete": complete}
             for m, hits in zip(depths, found)]

    def text():
        for entry in per_m:
            count = len(entry["witnesses"])
            plural = "" if count == 1 else "es"
            cut = ("" if entry["complete"] else
                   f" (truncated after {entry['examined']} classes)")
            yield f"m={entry['m']}: {count} witness{plural}{cut}"
            yield from (f"  {code}" for code in entry["witnesses"])
    return 0, {"max_chords": args.max_chords, "max_states": args.max_states,
               "per_m": per_m}, text()


def cmd_selfcheck(args):
    m_values = args.m or [1, 2, 3]
    seed = _seed(args)
    rng = random.Random(seed)
    relation_failures = []
    for m in m_values:
        points = [identity(m)] + [
            NormalForm(tuple(rng.randint(-10, 10) for _ in range(m)),
                       rng.randint(0, 1)) for _ in range(args.samples - 1)]
        if not relation_check(m, points):
            relation_failures.append(f"relations fail at m={m}")
        if relation_check(m, points, corrupted_apply_letter):
            relation_failures.append(
                f"corrupted action not rejected at m={m}")
    passed = sum((rotation_conjugacy_trial if i % 10 == 9 else
                  move_invariance_trial)(rng, m_values)
                 for i in range(args.trials))
    relations_ok = not relation_failures
    trials_ok = passed == args.trials
    code = 0 if relations_ok and trials_ok else 1

    def text():
        yield f"seed: {seed}"
        yield (f"relations {'OK' if relations_ok else 'FAIL'}; "
               f"invariance trials {passed}/{args.trials} "
               f"{'OK' if trials_ok else 'FAIL'}")
        yield from (f"  {failure}" for failure in relation_failures)
    return code, {"seed": seed, "m": m_values, "samples": args.samples,
                  "trials": args.trials, "relations_ok": relations_ok,
                  "relation_failures": relation_failures,
                  "trials_passed": passed}, text()


def cmd_moves(args):
    [d] = _diagrams(args, 1)
    max_chords = args.max_chords if args.max_chords is not None else d.n + 2
    moves = enumerate_moves(d, max_chords)
    return 0, {"gauss": serialize(d), "max_chords": max_chords,
               "moves": moves}, map(_move_text, moves)


def _at_least(low: int, name: str):
    """An argparse type: an int of at least `low`, called `name`."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise ValueError(text)
        return int(text)
    parse.__name__ = name
    return parse


POSITIVE = _at_least(1, "positive int")
COUNT = _at_least(0, "non-negative int")
SHARED_FLAGS = {  # the flags that mean the same in every subcommand
    "--json": dict(action="store_true", help="emit deterministic JSON"),
    "--gauss": dict(action="append", help="gauss code (repeatable; "
                    "without it, one code per line of stdin)"),
    "--m": dict(action="append", type=POSITIVE, help="filtration depth "
                "(repeatable; default 1, for selfcheck 1 2 3)"),
    "--seed": dict(type=int, help="seed (default: fresh, printed)"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeknot",
        description="Parity-filtration word invariants of free knots.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *shared):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        for flag in ("--json", *shared):
            p.add_argument(flag, **SHARED_FLAGS[flag])
        return p

    add("invariant", cmd_invariant,
        "filtration, word and normal form of diagrams", "--gauss", "--m")

    p = add("compare", cmd_compare, "compare two diagrams (exit 0 same, "
            "1 distinct, 2 bad input)", "--gauss", "--m")
    p.add_argument("--mode", choices=[LONG, FREE], default=LONG,
                   help="long compares values, free compares up to rotation")

    p = add("scramble", cmd_scramble, "apply random moves to a diagram",
            "--gauss", "--seed")
    p.add_argument("--moves", type=COUNT, default=100,
                   help="number of random moves")
    p.add_argument("--max-chords", type=COUNT,
                   help="size cap for insertions (default max(2n, 4))")

    p = add("reduce", cmd_reduce, "reduce a diagram by a removal descent, "
            "then an A* search for a shortest path", "--gauss")
    p.add_argument("--max-states", type=COUNT, default=10000,
                   help="visited-state cap")
    p.add_argument("--max-chords", type=COUNT,
                   help="chord budget while searching (default n+1)")

    p = add("search", cmd_search,
            "exhaustive hunt for nontrivial free knots", "--m")
    p.add_argument("--max-chords", type=COUNT, default=4,
                   help="largest chord count to enumerate")
    p.add_argument("--max-states", type=COUNT, default=10 ** 6,
                   help="rotation-class cap")

    p = add("selfcheck", cmd_selfcheck,
            "relation checks plus randomized invariance trials",
            "--m", "--seed")
    p.add_argument("--samples", type=POSITIVE, default=1000,
                   help="sample points per relation check")
    p.add_argument("--trials", type=COUNT, default=10000,
                   help="randomized invariance trials")

    p = add("moves", cmd_moves, "list applicable moves", "--gauss")
    p.add_argument("--max-chords", type=COUNT,
                   help="chord budget for insertions (default n+2)")

    return parser


# The item types whose lists are encoded in one join, and their encoders.
_FLAT = {int: int.__repr__, str: encode_basestring_ascii}


def _slots(value):
    """`value` with each int leaf "%d" and each str leaf "%s"."""
    if type(value) is tuple:
        return tuple(map(_slots, value))
    return "%s" if type(value) is str else "%d"


def _leaves(items) -> tuple:
    """The leaves of `items`, in order: tuples all nested as the first
    is, such as one move's params or one kind's sites."""
    item = items[0]
    while type(item) is tuple:
        items, item = chain.from_iterable(items), item[0]
    return tuple(items)


@functools.cache
def _template(kind: str, slots: tuple, indent: str) -> str:
    """_move_json of a `kind` move as _put_json writes it at `indent`,
    a %-template over `slots` (see _slots), %s kept quoted.  A Move and
    each listed kind but r2_add fill it with _leaves in field order, the
    text's while fields sort like JSON keys (pinned by
    test_template_of_each_kind); _r2_insertions cuts r2_add's at its
    two %d slots.  A str goes in unescaped; the only one, a pattern,
    needs none."""
    chunks = []
    _put_json(_move_json(Move(kind, slots)), indent, chunks.append, {})
    return "".join(chunks).replace('"%d"', "%d")


def _r2_insertions(size: int, indent: str) -> str:
    """The r2_add block of a listing on `size` ends, its records at
    `indent`, as the _template fill over its _leaves writes it: gap1
    ascending, then gap2 from gap1 to size, crossed before nested.

    The template splits at its two %d slots into head, mid and tail.
    One unit per (gap2, pattern) closes its record and opens the next
    one's head, so the row of gap1 is str(gap1) before each unit from
    gap2 = gap1 on: one join per row, and no site is built.
    """
    head, mid, tail = _template("r2_add", ("%d", "%d", "%s"),
                                indent).split("%d")
    sep = "," + indent + head
    units = [mid + str(gap2) + tail % pattern + sep
             for gap2 in range(size + 1) for pattern in PATTERNS]
    rows = [str(gap1) + str(gap1).join(units[2 * gap1:])
            for gap1 in range(size + 1)]
    rows[-1] = rows[-1][:-len(sep)]
    return head + "".join(rows)


def _json_text(value) -> str:
    """`value` as json.dumps(value, indent=2, sort_keys=True) writes it.

    That call takes json's pure-Python path, one generator per nesting
    level for every token; here finished chunks go into one list that is
    joined once.
    """
    chunks = []
    _put_json(value, "\n", chunks.append, {})
    return "".join(chunks)


def _put_json(value, indent: str, append, rows: dict) -> None:
    """Append the chunks of `value`; `indent` is a newline and the
    spaces that start its line.

    Four paths write without recursing: exact strs and ints directly, a
    flat list of only ints or only strs in one join, rows (lists or
    tuples of one length holding only ints, such as chords) in one
    %-format over the list's flattened ints, a Move (as in reduce's
    path) in one %-format over its _template and the _leaves of its
    params, and a move listing in one such %-format per kind over its
    sites, but for the R2 insertions, which _r2_insertions writes in one
    join per gap1 from the listing's size alone.  Exact type tests keep
    bools, an int subclass, off them.  Other lists, tuples and dicts
    (str keys only) recurse; other scalars go to json.dumps.  `rows`,
    new for each _json_text call, maps the id and indent of each rows
    list written to the list, held so that no other object takes its
    id, and its text, reused where the list recurs.
    Not a closure: a nested function that calls itself is a reference
    cycle, which would keep every chunk alive until the collector's
    next full pass.
    """
    if type(value) is str:
        append(encode_basestring_ascii(value))
    elif type(value) is int:
        append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        key = id(value), indent
        if rows and key in rows:
            append(rows[key][1])
            return
        inner = indent + "  "
        kinds = set(map(type, value))
        lens = set(map(len, value)) if kinds <= {list, tuple} else ()
        flat = tuple(chain(*value)) if len(lens) == 1 else ()
        if set(map(type, flat)) == {int}:
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["%d"] * lens.pop())
            rows[key] = value, "[" + inner + ("," + inner).join(
                [row + inner + "]"] * len(value)) % flat + indent + "]"
            append(rows[key][1])
            return
        encode = _FLAT.get(kinds.pop()) if len(kinds) == 1 else None
        if encode:
            append("[" + inner + ("," + inner).join(map(encode, value))
                   + indent + "]")
            return
        head = "[" + inner
        for item in value:
            append(head)
            _put_json(item, inner, append, rows)
            head = "," + inner
        append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = indent + "  "
        head = "{" + inner
        for key in sorted(value):
            append(head + encode_basestring_ascii(key) + ": ")
            _put_json(value[key], inner, append, rows)
            head = "," + inner
        append(indent + "}")
    elif isinstance(value, Move):
        append(_template(value.kind, _slots(value.params), indent)
               % _leaves(value.params))
    elif isinstance(value, ApplicableMoves):
        inner = indent + "  "
        texts = [_r2_insertions(sites.size, inner) if kind == "r2_add"
                 else ("," + inner).join([_template(
                     kind, _slots(sites[0]), inner)] * len(sites))
                 % _leaves(sites) for kind, sites in value.blocks if sites]
        append("[" + inner + ("," + inner).join(texts) + indent + "]"
               if texts else "[]")
    else:
        append(json.dumps(value))


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code, payload, lines = args.func(args)
        if args.json:
            lines = [_json_text({"command": args.command, **payload})]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        # argparse has printed the help (status 0) or a usage error (2)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`freeknot ... | head`).  Point
        # stdout at devnull so the flush at exit cannot fail again, and
        # exit as a shell reports a writer stopped by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
