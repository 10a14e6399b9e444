"""One-line mutants of the library, each of which some test must catch.

    python tests/mutants.py

Every entry of MUTANTS names a file of src/freeknot, an exact text that
occurs there once, its replacement, and the test modules that must fail
once the replacement is in.  The script copies src/, tests/ and
pyproject.toml into a temporary directory and runs every named module
there on the unchanged copy, which must pass; if it fails, the tail of
pytest's output names the failing test.  Then, one mutant at a
time, it writes the mutant into the copy and runs that mutant's modules
with `python -m pytest -x -q -p no:cacheprovider` under
PYTHONDONTWRITEBYTECODE=1; pytest must report failed tests (status 1).
A mutant that survives means a test is missing: add the test, never
weaken the mutant or widen its list of modules.  Standard library only;
exit status 0 when every mutant is caught, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/freeknot
    old: str
    new: str
    modules: tuple[str, ...]  # under tests/, each of which must fail


MOVES = ("test_moves.py",)
DIAGRAM = ("test_diagram.py",)
PARITY = ("test_parity.py",)
GROUP = ("test_group.py",)
EXPLORE = ("test_explore.py",)
JSON_TEXT = ("test_json_text.py",)
CLI = ("test_cli.py",)

MUTANTS = [
    Mutant("r1_add lists no last gap", "moves.py",
           "for gap in range(d.size + 1)", "for gap in range(d.size)", MOVES),
    Mutant("rank path swaps odd and even", "parity.py",
           "(rest if (rank[c[1]] - rank[c[0]]) & 1 else level)",
           "(level if (rank[c[1]] - rank[c[0]]) & 1 else rest)", PARITY),
    Mutant("rank path splits the level by R_k's rank", "parity.py",
           "even = (after[q] - after[p]) & 1",
           "even = (rank[q] - rank[p]) & 1", PARITY),
    Mutant("parse accepts a third occurrence", "diagram.py",
           "if partner.get(p, p) > p:", "if False:", DIAGRAM),
    Mutant("parse accepts a label seen once", "diagram.py",
           "if 2 * len(first) == len(tokens):", "if True:", DIAGRAM),
    Mutant("apply_letter drops eps from the parity sum", "group.py",
           "sum(x[k:]) + point.eps", "sum(x[k:])", GROUP),
    Mutant("apply_letter's F sets the flag instead of toggling it",
           "group.py", "point.eps ^ 1", "1", GROUP),
    Mutant("letter_level accepts level m", "parity.py",
           "not in alphabet(m):", "not in alphabet(m + 1):", PARITY),
    Mutant("r2_sites misses nested pairs", "moves.py",
           "abs(c2[1] - c1[1]) == 1", "c2[1] - c1[1] == 1", MOVES),
    Mutant("r3_sites keeps a triple from every end", "moves.py",
           "if anchors and anchors[0] == r:", "if anchors:", MOVES),
    Mutant("r3_sites precheck wants the third chord two ends away",
           "moves.py", "abs(third[1] - far2) != 1",
           "abs(third[1] - far2) != 2", MOVES),
    Mutant("r1_remove takes any chord of the diagram", "moves.py",
           "chord not in d.chords or chord[1] - chord[0] != 1",
           "chord not in d.chords", MOVES),
    Mutant("r2_remove takes any two chords of the diagram", "moves.py",
           "r2_sites(pair) != [chords] or ", "", MOVES),
    Mutant("r2_remove takes chords the diagram lacks", "moves.py",
           " or not set(chords) <= set(d.chords)", "", MOVES),
    Mutant("r2_remove takes more than two chords", "moves.py",
           "r2_sites(pair) != [chords]", "not r2_sites(pair)", MOVES),
    Mutant("r1_remove lets a failed sort out", "moves.py",
           "except TypeError:\n        raise NotAnR1Site",
           "except ValueError:\n        raise NotAnR1Site", MOVES),
    Mutant("r3_apply lets a failed sort out", "moves.py",
           "except TypeError:\n        raise NotAnR3Site",
           "except ValueError:\n        raise NotAnR3Site", MOVES),
    Mutant("r2_remove lets a failed unpacking out", "moves.py",
           "except (TypeError, ValueError):", "except TypeError:", MOVES),
    Mutant("_shift moves the end at the first cut", "moves.py",
           "(p > cut1)", "(p >= cut1)", MOVES),
    Mutant("_shift moves second ends past the first cut twice", "moves.py",
           "(q > cut2)", "(q > cut1)", MOVES),
    Mutant("r2_remove cuts twice at the pair's first ends", "moves.py",
           "_shift(rest, a, min(x, y), -2)", "_shift(rest, a, a, -2)",
           MOVES),
    Mutant("_adjoint_anchors unpacks any number of chords", "moves.py",
           "if len(chords3) != 3:", "if not chords3:", MOVES),
    Mutant("_adjoint_anchors skips the first adjacency", "moves.py",
           "e1 == e0 + 1", "True", MOVES),
    Mutant("_adjoint_anchors skips the second adjacency", "moves.py",
           "e3 == e2 + 1", "True", MOVES),
    Mutant("_adjoint_anchors skips the third adjacency", "moves.py",
           "e5 == e4 + 1", "True", MOVES),
    Mutant("_adjoint_anchors lets the first pair be one chord", "moves.py",
           "(e0, e1) not in chords3", "True", MOVES),
    Mutant("_adjoint_anchors lets the second pair be one chord", "moves.py",
           "(e2, e3) not in chords3", "True", MOVES),
    Mutant("_adjoint_anchors lets the third pair be one chord", "moves.py",
           "(e4, e5) not in chords3", "True", MOVES),
    Mutant("rotate_basepoint turns the other way", "moves.py",
           "(((p - 1 - steps) % size) + 1, ((q - 1 - steps) % size) + 1)",
           "(((p - 1 + steps) % size) + 1, ((q - 1 + steps) % size) + 1)",
           MOVES),
    Mutant("ApplicableMoves rejects negative indices", "moves.py",
           "i += len(self)", "i += 0", MOVES),
    Mutant("ApplicableMoves slices ignore the step", "moves.py",
           "range(len(self))[i]", "range(len(self))[i.start:i.stop]", MOVES),
    Mutant("_R2Insertions.__getitem__ off by one", "moves.py",
           "k = len(self) // 2 - 1 - i // 2", "k = len(self) // 2 - i // 2",
           MOVES),
    Mutant("conjugate_equal's evenness guard tests mod 4", "group.py",
           "any(t % 2 for t in a.x + b.x)", "any(t % 4 for t in a.x + b.x)",
           GROUP),
    Mutant("conjugate_equal's guard ignores eps", "group.py",
           "if a.eps or b.eps or any(", "if any(", GROUP),
    Mutant("conjugate_equal inverts the needed sign", "group.py",
           "need = 1 if a.x[k] == b.x[k] else -1",
           "need = -1 if a.x[k] == b.x[k] else 1", GROUP),
    Mutant("conjugate_equal flips at the level above", "group.py",
           "witness.append(prime(k))", "witness.append(prime(k + 1))",
           GROUP),
    Mutant("conjugate_equal drops the zero-level skip", "group.py",
           "if a.x[k] and need != sign:", "if need != sign:", GROUP),
    Mutant("_lower_bound is inadmissible", "explore.py",
           "return (d.n + 1) // 2", "return d.n", EXPLORE),
    Mutant("rotation_canonical_code tries the longest arcs", "explore.py",
           "min(arc, default=0)", "max(arc, default=0)", EXPLORE),
    Mutant("rotation_classes keeps every prenecklace", "explore.py",
           "if size % p == 0:", "if True:", EXPLORE),
    Mutant("_class_chords keeps the period over forced gaps", "explore.py",
           "if g > gaps[t - p]:", "if False:", EXPLORE),
    Mutant("_levels keeps a removed level's ends", "parity.py",
           "remaining, rank = rest, after", "remaining, rank = rest, rank",
           PARITY),
    Mutant("_levels reads the rank after the level is removed",
           "parity.py", "even ^ rank[p] & 1", "even ^ after[p] & 1", EXPLORE),
    Mutant("_levels drops the odd/even sign on the rank path",
           "parity.py", "x[k] += 2 if even ^ rank[p] & 1 else -2",
           "x[k] += 2 if rank[p] & 1 else -2", EXPLORE),
    Mutant("apply_letter's parity sum starts above level k", "group.py",
           "sum(x[k:])", "sum(x[k + 1:])", GROUP),
    Mutant("apply_letter's F keeps the flag", "group.py",
           "NormalForm(point.x, point.eps ^ 1)", "point", GROUP),
    Mutant("search_nontrivial reads one level too many", "explore.py",
           "if any(value.x[:m]):", "if any(value.x[:m + 1]):", EXPLORE),
    Mutant("distinguish reads one level too many", "explore.py",
           "NormalForm(x1[:m], 0)", "NormalForm(x1[:m + 1], 0)", EXPLORE),
    Mutant("distinguish lets depths below one through", "explore.py",
           "if any(m < 1 for m in m_list):", "if False:", EXPLORE),
    Mutant("move trial draws rotations too", "explore.py",
           "rng.randrange(len(options) - 2)", "rng.randrange(len(options))",
           EXPLORE),
    Mutant("move trial passes any verdict", "explore.py",
           "[0] == SAME_INVARIANT",
           "[0] in (SAME_INVARIANT, CERTIFIED_DISTINCT)", EXPLORE),
    Mutant("rotation trial ignores the verdict", "explore.py",
           "if verdict != SAME_INVARIANT:", "if False:", EXPLORE),
    Mutant("_describe keeps the letters of one level too many", "cli.py",
           "alphabet(m)[:-1]", "alphabet(m + 1)[:-1]", CLI),
    Mutant("_describe swaps the odd and even parts", "cli.py",
           '{"odd": odd, "even": even}', '{"odd": even, "even": odd}', CLI),
    Mutant("_describe reads x at the shallowest depth", "cli.py",
           "x = f.x[:m]", "x = filtration(d, min(m_values)).x[:m]", CLI),
    Mutant("_put_json puts bools on the int path", "cli.py",
           "elif type(value) is int:", "elif isinstance(value, int):",
           JSON_TEXT),
    Mutant("_put_json leaves keys unsorted", "cli.py",
           "for key in sorted(value):", "for key in value:", JSON_TEXT),
    Mutant("rows path lets bools in", "cli.py",
           "set(map(type, flat)) == {int}",
           "set(map(type, flat)) <= {int, bool}", JSON_TEXT),
    Mutant("rows path accepts ragged rows", "cli.py",
           "if len(lens) == 1 else ()", "if len(lens) >= 1 else ()",
           JSON_TEXT),
    Mutant("move records write kind first", "cli.py",
           "for key in sorted(value):",
           'for key in sorted(value, key=lambda k: (k != "kind", k)):',
           JSON_TEXT),
    Mutant("_template swaps r2_add's gaps", "cli.py",
           "Move(kind, marked)", "Move(kind, marked[1::-1] + marked[2:])",
           JSON_TEXT),
    Mutant("move fill flattens nested params one level too few", "cli.py",
           "item = items[0]", "item = items[0][0]", JSON_TEXT),
    Mutant("rows memo keyed by id alone", "cli.py",
           "key = id(value), indent", "key = id(value)", JSON_TEXT),
    Mutant("rows memo kept across calls", "cli.py",
           '_put_json(value, "\\n", chunks.append, {})',
           '_put_json(value, "\\n", chunks.append, '
           '_put_json.__dict__.setdefault("rows", {}))', JSON_TEXT),
    Mutant("compare calls a free-mode match equal", "cli.py",
           'match = "conjugate" if args.mode == FREE else "equal"',
           'match = "equal"', CLI),
    Mutant("compare names every depth by the match", "cli.py",
           '"relation": match if same else "distinct"', '"relation": match',
           CLI),
    Mutant("the move text line drops a chord's parentheses", "cli.py",
           "f\"({','.join(map(str, row))})\"", "','.join(map(str, row))",
           CLI),
    Mutant("reduce echoes n as the chord budget", "cli.py",
           '"max_states": args.max_states, "max_chords": max_chords',
           '"max_states": args.max_states, "max_chords": d.n', CLI),
    Mutant("reduce echoes the states visited as the cap", "cli.py",
           '"max_states": args.max_states, "max_chords"',
           '"max_states": report.visited, "max_chords"', CLI),
    Mutant("the invariant text writes x as a tuple", "cli.py",
           "x={[*nf['x']]}", "x={nf['x']}", CLI),
    Mutant("the diagram record counts ends as n", "cli.py",
           '{"n": d.n, "chords": d.chords}',
           '{"n": d.size, "chords": d.chords}', DIAGRAM),
    Mutant("the point record reads eps as 0", "cli.py",
           '"eps": point.eps}', '"eps": 0}', GROUP),
    Mutant("the move record pairs fields with params reversed", "cli.py",
           "**dict(zip(MOVE_KINDS[move.kind].fields, move.params))",
           "**dict(zip(MOVE_KINDS[move.kind].fields, move.params[::-1]))",
           MOVES),
]


def pytest(copy: Path, modules, quiet=(0, 1)) -> int:
    """Run test modules of the copy; pytest's exit status.  The tail of
    its output is printed for any status not in `quiet`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(copy / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(f"tests/{module}" for module in modules)],
        cwd=copy, env=env, capture_output=True, text=True)
    # no example database carries over from one run to the next
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    if result.returncode not in quiet:
        print(result.stdout[-2000:] + result.stderr[-2000:])
    return result.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        modules = sorted({module for m in MUTANTS for module in m.modules})
        if pytest(copy, modules, quiet=(0,)) != 0:
            print(f"the unchanged copy fails {modules}")
            return 1
        survivors = []
        for m in MUTANTS:
            path = copy / "src" / "freeknot" / m.file
            source = path.read_text()
            if source.count(m.old) != 1:
                print(f"{m.name}: {m.old!r} does not occur once in {m.file}")
                survivors.append(m.name)
                continue
            path.write_text(source.replace(m.old, m.new))
            status = pytest(copy, m.modules)
            path.write_text(source)
            caught = status == 1
            print(f"{'caught' if caught else 'SURVIVED'} (pytest {status}): "
                  f"{m.name}")
            if not caught:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
