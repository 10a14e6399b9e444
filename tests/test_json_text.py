"""The --json text: `cli._json_text` writes exactly what the reference,
json.dumps(value, indent=2, sort_keys=True), writes, on JSON-like
values of every shape and on the CLI's payloads at benchmark sizes."""

import ast
import gc
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from freeknot import random_diagram, serialize
from freeknot.cli import _json_text, main
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
json_like = st.recursive(
    scalars | flat_lists,
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
def test_matches_the_reference(value):
    assert _json_text(value) == indented_json(value)


@pytest.mark.parametrize("value", [set(), {1}, [frozenset()],
                                   {"a": object()}, b"bytes", [1, 2j]],
                         ids=repr)
def test_unsupported_objects_raise_type_error(value):
    with pytest.raises(TypeError):
        indented_json(value)
    with pytest.raises(TypeError):
        _json_text(value)


def test_leaves_no_garbage_cycle():
    # a cycle would keep every chunk of the text alive until the
    # collector's next full pass, and peak memory grew with the op count
    gc.collect()
    gc.disable()
    try:
        _json_text({"b": [[1, 2], [3, 4]], "a": [True, None, "x"]})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_keys_must_be_strings():
    # json.dumps would write the key as "1"; no payload has such a key
    with pytest.raises(TypeError):
        _json_text({1: "a"})


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
    assert out == indented_json(json.loads(out)) + "\n"


def test_library_passes_no_indent():
    # the indented layout has one writer, _json_text
    for path in SRC.glob("*.py"):
        calls = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)]
        assert not [kw for call in calls for kw in call.keywords
                    if kw.arg == "indent"], path.name
