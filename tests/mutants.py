"""One-line mutants of the library, each of which some test must catch.

    python tests/mutants.py

Every entry of MUTANTS names a file of src/freeknot, an exact text that
occurs there once, its replacement, and the test modules that must fail
once the replacement is in.  The script copies src/, tests/ and
pyproject.toml into a temporary directory and runs every named module
there on the unchanged copy, which must pass.  Then, one mutant at a
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
PARITY = ("test_parity.py",)
GROUP = ("test_group.py",)
EXPLORE = ("test_explore.py",)
JSON_TEXT = ("test_json_text.py",)
CLI = ("test_cli.py",)

MUTANTS = [
    Mutant("r1_add lists no last gap", "moves.py",
           "for gap in range(d.size + 1)", "for gap in range(d.size)", MOVES),
    Mutant("_split swaps odd and even", "parity.py",
           "(even if (rank[c[1]] - rank[c[0]]) % 2 else odd)",
           "(odd if (rank[c[1]] - rank[c[0]]) % 2 else even)", PARITY),
    Mutant("_parity drops eps from the parity sum", "group.py",
           "bits = s = point.eps", "bits, s = point.eps, 0", GROUP),
    Mutant("_parity ignores the flag", "group.py",
           "bits = s = point.eps", "bits = s = 0", GROUP),
    Mutant("r2_sites misses nested pairs", "moves.py",
           "abs(c2[1] - c1[1]) == 1", "c2[1] - c1[1] == 1", MOVES),
    Mutant("r3_sites keeps a triple from every end", "moves.py",
           "if anchors and anchors[0] == r:", "if anchors:", MOVES),
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
    Mutant("_R2Insertions.__getitem__ off by one", "moves.py",
           "k = len(self) // 2 - 1 - i // 2", "k = len(self) // 2 - i // 2",
           MOVES),
    Mutant("conjugate_equal tests twice mod 8", "group.py",
           "twice % 4 != 2 * odd", "twice % 8 != 2 * odd", GROUP),
    Mutant("conjugate_equal reads a's parity without the flag", "group.py",
           "parity_a = _parity(a)", "parity_a = _parity(a._replace(eps=0))",
           GROUP),
    Mutant("_walk never swaps the pair", "group.py",
           "if (target > 0) != (above > 0):",
           "if (target > 0) == (above > 0):", GROUP),
    Mutant("_lower_bound is inadmissible", "explore.py",
           "return (d.n + 1) // 2", "return d.n", EXPLORE),
    Mutant("rotation_canonical_code tries the longest arcs", "explore.py",
           "min(arc, default=0)", "max(arc, default=0)", EXPLORE),
    Mutant("rotation_classes keeps every prenecklace", "explore.py",
           "if size % p == 0:", "if True:", EXPLORE),
    Mutant("_class_chords keeps the period over forced gaps", "explore.py",
           "if g > gaps[t - p]:", "if False:", EXPLORE),
    Mutant("_levels inverts the odd bit test", "parity.py",
           "if (c[2] & ends).bit_count() & 1:",
           "if not (c[2] & ends).bit_count() & 1:", PARITY),
    Mutant("_levels keeps a removed level's ends", "parity.py",
           "ends ^ level_ends", "ends", PARITY),
    Mutant("_levels reads the rank after the level is removed",
           "parity.py", "(ends & ((1 << p) - 1))",
           "(ends & ~level_ends & ((1 << p) - 1))", EXPLORE),
    Mutant("_levels drops the odd/even sign", "parity.py",
           "2 if odd ^ (ends", "2 if 1 ^ (ends", EXPLORE),
    Mutant("_levels drops the odd/even sign on the rank path",
           "parity.py", "x[k] += s if rank[p] & 1 else -s",
           "x[k] += 2 if rank[p] & 1 else -2", EXPLORE),
    Mutant("_act steps flip one bit too few", "group.py",
           "parity ^= (2 << k) - 1", "parity ^= (1 << k) - 1", GROUP),
    Mutant("_act lets F keep the parity mask", "group.py",
           "parity ^= (2 << k) - 1",
           "parity ^= (2 << k) - 1 if k < m else 1 << m", GROUP),
    Mutant("search_nontrivial reads one level too many", "explore.py",
           "if any(value.x[:m]):", "if any(value.x[:m + 1]):", EXPLORE),
    Mutant("distinguish reads one level too many", "explore.py",
           "NormalForm(x1[:m], 0)", "NormalForm(x1[:m + 1], 0)", EXPLORE),
    Mutant("distinguish lets depths below one through", "explore.py",
           "if any(m < 1 for m in m_list):", "if False:", EXPLORE),
    Mutant("_describe keeps the letters of one level too many", "cli.py",
           "z if c[0] < m else FINAL", "z if c[0] < m + 1 else FINAL", CLI),
    Mutant("_describe swaps the odd and even parts", "cli.py",
           '{"odd": parts[k, 1], "even": parts[k, -1]}',
           '{"odd": parts[k, -1], "even": parts[k, 1]}', CLI),
    Mutant("_describe reads x at the shallowest depth", "cli.py",
           "code, x = _levels(d.chords, d.size, deep)",
           "code, x = _levels(d.chords, d.size, deep)[0], "
           "_levels(d.chords, d.size, min(m_values))[1]", CLI),
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
]


def pytest(copy: Path, modules) -> int:
    """Run test modules of the copy; pytest's exit status."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(copy / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(f"tests/{module}" for module in modules)],
        cwd=copy, env=env, capture_output=True, text=True)
    # no example database carries over from one run to the next
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    if result.returncode not in (0, 1):
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
        if pytest(copy, modules) != 0:
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
