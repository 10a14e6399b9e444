"""The --json text: `cli._json_text` writes exactly what the reference,
json.dumps(value, indent=2, sort_keys=True), writes, on JSON-like
values of every shape and on the CLI's payloads at benchmark sizes;
`moves --json`, written over one template per kind, is the text of the
list of move_to_json records."""

import ast
import gc
import json
import math
import random
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from freeknot import (enumerate_moves, move_to_json, parse_gauss_code,
                      random_diagram, scramble, serialize)
from freeknot.cli import (_describe, _json_text, _leaves, _marked, _template,
                          main)
from freeknot.moves import MOVE_KINDS, PATTERNS, Move
from oracles import indented_json

SRC = Path(__file__).resolve().parent.parent / "src" / "freeknot"

# quotes, backslashes, control characters, DEL, non-ASCII, the JSON
# line separators, both halves of a surrogate pair alone, and an astral
# character
SPECIAL = ['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028",
           "\u2029", "\ud800", "\udfff", "\U0001f600"]
texts = st.text(st.sampled_from(SPECIAL)
                | st.characters(exclude_categories=()), max_size=8)
ints = st.integers() | st.integers(-10 ** 100, 10 ** 100)
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
scalars = st.none() | st.booleans() | ints | floats | texts
flat_lists = (st.lists(st.booleans() | ints) | st.lists(st.booleans())
              | st.lists(ints) | st.lists(texts))


def _rows(k: int):
    """Lists of int lists and tuples, all of length k."""
    row = st.lists(ints, min_size=k, max_size=k)
    return st.lists(row | row.map(tuple), min_size=1, max_size=6)


# equal-length int rows take the one-template path; ragged rows, rows
# holding a bool and empty rows must not
rows = (st.integers(0, 3).flatmap(_rows)
        | st.lists(st.lists(st.booleans() | ints, max_size=3), max_size=6)
        | st.integers(1, 3).flatmap(lambda k: st.lists(st.lists(
            st.booleans() | ints, min_size=k, max_size=k), min_size=1)))
json_like = st.recursive(
    scalars | flat_lists | rows,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(texts, children, max_size=4)),
    max_leaves=25)


@given(json_like)
@example({})
@example([])
@example({"b": [[], {}, ()], "a": {}, "c": [[[]]]})
@example([True, 1, False, 0])
@example([True, False])
@example([10 ** 100, -10 ** 100, -1])
@example([math.nan, math.inf, -math.inf, -0.0, 1e-300])
@example(['"\\\x00\x1f\x7f\xe9\ud800', "\udfff"])
@example((1, (2, "x"), [None, 1.5], {"k": (True,)}))
@example([[1], [2, 3]])
@example([[1, True]])
@example([[], []])
@example([(1, 2), [3, 4]])
@example({"a": [[10 ** 100, -1]]})
def test_matches_the_reference(value):
    assert _json_text(value) == indented_json(value)


# Long row lists whose one misfit is the last row: the exact-type and
# length checks must read every row, not only the first.
LAST_ROW = {"bool": [1, True], "float": [1, 2.0], "short": [1],
            "long": [1, 2, 3], "str": [1, "2"], "empty": []}


@pytest.mark.parametrize("last", LAST_ROW.values(), ids=LAST_ROW)
def test_rows_path_checks_every_row(last):
    value = [[i, -i] for i in range(700)] + [last]
    assert _json_text(value) == indented_json(value)
    assert _json_text({"a": value}) == indented_json({"a": value})


def test_rows_mix_lists_and_tuples():
    value = [(i, i + 1) if i % 3 else [i, i + 1] for i in range(700)]
    assert _json_text(value) == indented_json(value)
    assert _json_text([value, value[:5]]) == indented_json([value, value[:5]])


@pytest.mark.parametrize("value", [
    set(), {1}, [frozenset()],
    # repr(object()) holds a memory address; a fixed id keeps the name stable
    pytest.param({"a": object()}, id="{'a': object()}"),
    b"bytes", [1, 2j]], ids=repr)
def test_unsupported_objects_raise_type_error(value):
    with pytest.raises(TypeError):
        indented_json(value)
    with pytest.raises(TypeError):
        _json_text(value)


def test_a_rows_list_met_again_is_written_at_its_indent():
    rows = [[i, -i] for i in range(5)]
    value = {"a": rows, "b": {"c": rows, "d": [rows, (rows,)]}, "e": rows}
    assert _json_text(value) == indented_json(value)


def test_rows_are_written_afresh_by_each_call():
    rows = [[1, 2], [3, 4]]
    value = {"a": rows, "b": rows}
    assert _json_text(value) == indented_json(value)
    rows[0][1] = 5
    rows.append([6, 7])
    assert _json_text(value) == indented_json(value)
    assert _json_text([rows]) == indented_json([rows])


def test_invariant_payload_shares_its_rows_lists():
    """Every depth holds the same level and split lists, and the text
    is still json's."""
    d = parse_gauss_code("1 2 3 4 3 5 6 5 4 1 2 6")
    results = list(_describe(d, [3, 1, 2, 3]))
    levels = [r["filtration"]["levels"] for r in results]
    assert levels[1][0] is levels[2][0] is levels[0][0] is levels[3][0]
    assert levels[0][1] is levels[2][1] is levels[3][1]
    assert results[0]["filtration"]["splits"][1]["odd"] is \
        results[2]["filtration"]["splits"][1]["odd"]
    assert _json_text(results) == indented_json(results)


def test_leaves_no_garbage_cycle():
    # a cycle would keep every chunk of the text alive until the
    # collector's next full pass, and peak memory grew with the op count
    d = parse_gauss_code("1 2 1 3 2 3")
    invariant = {"results": list(_describe(d, [1, 2, 3]))}
    gc.collect()
    gc.disable()
    try:
        # rows of one length, ragged rows, and a recursive list
        _json_text({"b": [[1, 2], (3, 4)], "c": [[1], [2, 3]],
                    "a": [True, None, "x"]})
        assert gc.collect() == 0
        # a moves listing, its templates built afresh
        _template.cache_clear()
        _json_text({"moves": enumerate_moves(d, d.n + 2)})
        assert gc.collect() == 0
        # an invariant payload, whose depths share rows lists
        _json_text(invariant)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_keys_must_be_strings():
    # json.dumps would write the key as "1"; no payload has such a key
    with pytest.raises(TypeError):
        _json_text({1: "a"})


def _moves_cases():
    """(gauss code, --max-chords or None) on seeded diagrams of 0-40
    chords, every other one scrambled so that R1, R2 and R3 sites
    appear, at the default cap, at n (no R2 insertions) and below n (no
    insertions); then the empty diagram under cap 0, whose listing is
    empty, and two diagrams with one R1 or one R3 site."""
    rng = random.Random(40)
    cases = []
    for i in range(16):
        d = random_diagram(rng.randint(0, 40), rng)
        if i % 2:
            d = scramble(d, 40, rng.randrange(2 ** 32), d.n + 4)
        cases += [(serialize(d), cap) for cap in (None, d.n, d.n - 1)]
    return cases + [("", 0), ("1 1", 1), ("1 2 1 3 2 3", 3)]


MOVES_CASES = [(code, cap) for code, cap in _moves_cases()
               if cap is None or cap >= 0]


def _old_payload(code: str, cap) -> dict:
    """The payload `moves --json` wrote as a list of move_to_json dicts."""
    d = parse_gauss_code(code)
    cap = d.n + 2 if cap is None else cap
    return {"command": "moves", "gauss": code, "max_chords": cap,
            "moves": [move_to_json(mv) for mv in enumerate_moves(d, cap)]}


def test_moves_cases_reach_every_kind():
    counts = [Counter(mv["kind"] for mv in _old_payload(*case)["moves"])
              for case in MOVES_CASES]
    assert set().union(*counts) == set(MOVE_KINDS)
    assert {} in counts
    for kind in ("r1_remove", "r3"):
        assert any(count[kind] == 1 for count in counts), kind


@pytest.mark.parametrize("code, cap", MOVES_CASES, ids=[
    f"case{i}-{len(code.split()) // 2}-chords-cap-{cap}"
    for i, (code, cap) in enumerate(MOVES_CASES)])
def test_moves_json_is_the_list_of_move_to_json(capsys, code, cap):
    """`moves --json` writes each kind over one template; the text is
    the one _json_text, and json.dumps, write for the list of records
    move_to_json builds."""
    payload = _old_payload(code, cap)
    argv = ["moves", "--json", "--gauss", code]
    if cap is not None:
        argv += ["--max-chords", str(cap)]
    assert main(argv) == 0
    # compared by lines: a diff of two long strings takes minutes
    lines = capsys.readouterr().out.splitlines()
    assert lines == _json_text(payload).splitlines()
    assert lines == indented_json(payload).splitlines()


def _first_sites():
    """Each kind's first site in MOVES_CASES."""
    sites = {}
    for code, cap in MOVES_CASES:
        d = parse_gauss_code(code)
        for kind, kind_sites in enumerate_moves(d, d.n + 2 if cap is None
                                                else cap).blocks:
            if kind_sites:
                sites.setdefault(kind, kind_sites[0])
    return sites


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_template_of_each_kind(kind):
    # _template fills its fields in leaf order, which is the text's order
    # because the fields are sorted, as JSON keys are
    fields = MOVE_KINDS[kind].fields
    assert list(fields) == sorted(fields)
    site = _first_sites()[kind]
    template = _template(kind, _marked(site, ""), "\n")
    assert (template % _leaves([site])
            == _json_text(move_to_json(Move(kind, site))))


def test_template_strings_need_no_escape():
    # a template writes a str leaf between quotes, unescaped, and marks
    # leaves by <>() around their field while it is built
    for pattern in PATTERNS:
        assert encode_basestring_ascii(pattern) == f'"{pattern}"'
    for name, kind in MOVE_KINDS.items():
        assert all(word.isidentifier() for word in (name, *kind.fields))


def _random_code(n: int, seed: int) -> str:
    return serialize(random_diagram(n, random.Random(seed)))


@pytest.mark.parametrize("argv", [
    ["invariant", "--json", "--m", "1", "--m", "2", "--m", "3", "--gauss",
     _random_code(600, 7)],
    ["moves", "--json", "--gauss", _random_code(26, 7)],
], ids=["invariant-600", "moves-26"])
def test_cli_payloads_at_benchmark_sizes(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out) > 50_000
    assert out.endswith("\n")
    # The same equality, failing on the first differing line alone:
    # pytest's diff of texts this long, as strings or (under CI) as line
    # lists, takes minutes.
    lines = out.splitlines()
    expected = indented_json(json.loads(out)).splitlines()
    i = next((i for i, pair in enumerate(zip(lines, expected))
              if pair[0] != pair[1]), min(len(lines), len(expected)))
    assert (i, lines[i:i + 1]) == (i, expected[i:i + 1])


def test_library_passes_no_indent():
    # the indented layout has one writer, _json_text
    for path in SRC.glob("*.py"):
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)]
        assert not [kw for call in calls for kw in call.keywords
                    if kw.arg == "indent"], path.name
