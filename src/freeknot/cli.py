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
import re
import signal
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .diagram import ChordDiagram, parse_gauss_code, serialize
from .explore import (CERTIFIED_DISTINCT, FREE, LONG, distinguish,
                      move_invariance_trial, reduce, rotation_conjugacy_trial,
                      scramble, search_nontrivial)
from .group import (NormalForm, corrupted_apply_letter, identity,
                    relation_check)
from .moves import (ApplicableMoves, Move, enumerate_moves, move_to_json,
                    move_to_text)
from .parity import FINAL, _code, _levels, alphabet


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


def _describe(d: ChordDiagram, m_values: list[int]):
    """d's entries at each depth off one parity._levels walk: its codes
    file d's sorted chords into sorted splits, its x is the value (see
    group._value), and all depths share the level and split lists."""
    deep = max(m_values)
    code, x = _levels(d.chords, d.size, deep)
    letter = {_code(z, deep): z for z in alphabet(deep)}
    parts = {c: [] for c in letter}
    for c in d.chords:
        parts[code[c[0]]].append(c)
    del code[0]  # position 0 is unused
    splits = [{"odd": parts[k, 1], "even": parts[k, -1]} for k in range(deep)]
    levels = [*(sorted(s["odd"] + s["even"]) for s in splits), parts[deep, 0]]
    for m in m_values:
        spell = {c: z if c[0] < m else FINAL for c, z in letter.items()}
        yield {
            "m": m,
            "filtration": {
                "levels": [*levels[:m], sorted(chain(*levels[m:]))],
                "splits": splits[:m],
            },
            "word": [*map(spell.__getitem__, code)],
            "normal_form": NormalForm(tuple(x[:m]), 0).to_json(),
            "is_identity": not any(x[:m]),
        }


def cmd_invariant(args):
    m_values = args.m or [1]
    diagrams = [{"gauss": serialize(d), "diagram": d.to_json(),
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
                yield f"m={m} normal form: x={nf['x']} eps={nf['eps']}{tag}"
    return 0, {"diagrams": diagrams}, text()


def cmd_compare(args):
    m_values = args.m or [1]
    verdict, per_m = distinguish(*_diagrams(args, 2), m_values, args.mode)
    code = 1 if verdict == CERTIFIED_DISTINCT else 0

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
               "gauss": gauss, "diagram": result.to_json()}, text()


def cmd_reduce(args):
    [d] = _diagrams(args, 1)
    max_chords = args.max_chords if args.max_chords is not None else d.n + 1
    report = reduce(d, args.max_states, max_chords)

    def text():
        yield f"outcome: {report.outcome}"
        yield f"visited: {report.visited}"
        yield f"shortest: {'yes' if report.shortest else 'no'}"
        if report.path is not None:
            yield f"path ({len(report.path)} moves):"
            yield from (f"  {move_to_text(move)}" for move in report.path)
        if report.diagram is not None:
            yield f"result: {serialize(report.diagram) or '(empty)'}"
    return 0, report.to_json(), text()


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
               "moves": moves}, (move_to_text(mv) for mv in moves)


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
# A leaf marker of _marked as _put_json writes it: "<name>" or (name).
_MARKER = re.compile(r'"<[^>]*>"|\([^)]*\)')


def _marked(value, name: str):
    """`value` with each leaf a marker of its path name: <name> for an
    int, (name) for a str (kept quoted); outer item i is named i."""
    if isinstance(value, tuple):
        return tuple(_marked(v, f"{name}[{i}]" if name else str(i))
                     for i, v in enumerate(value))
    return f"({name})" if type(value) is str else f"<{name}>"


def _leaves(items) -> tuple:
    """The leaves of `items`, in order: tuples all nested as the first
    is, such as one kind's sites."""
    item = items[0]
    while type(item) is tuple:
        items, item = chain.from_iterable(items), item[0]
    return tuple(items)


@functools.cache
def _template(kind: str, marked: tuple, indent: str) -> str:
    """move_to_json of a `kind` move as _put_json writes it at `indent`,
    made a %-template: literal % doubled, each marker %d, or %s (kept
    quoted) for a str.  A site's _leaves fill it, so the markers must
    occur in their leaf order in `marked`, as they do while each kind's
    fields are sorted like JSON keys.  A str goes in unescaped; the
    only one, a pattern, needs no escape."""
    chunks = []
    _put_json(move_to_json(Move(kind, marked)), indent, chunks.append, {})
    text = "".join(chunks).replace("%", "%%")
    found = [marker.strip('"') for marker in _MARKER.findall(text)]
    if found != list(_leaves((marked,))):
        raise RuntimeError(f"{kind}: fields {found} out of leaf order")
    return _MARKER.sub(lambda m: "%s" if m[0][0] == "(" else "%d", text)


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
    %-format over the list's flattened ints, and a move listing in one
    %-format per kind over its _template and its sites' _leaves.  Exact
    type tests keep bools, an int subclass, off them.  Other lists,
    tuples and dicts (str keys only) recurse; other scalars go to
    json.dumps.  `rows`, new for each _json_text call, maps the id and
    indent of each rows list written to the list, held so that no other
    object takes its id, and its text, reused where the list recurs.
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
    elif isinstance(value, ApplicableMoves):
        inner = indent + "  "
        texts = [("," + inner).join([_template(
            kind, _marked(sites[0], ""), inner)] * len(sites)) % _leaves(sites)
            for kind, sites in value.blocks if sites]
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
