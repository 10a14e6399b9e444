import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given

from freeknot import (ChordDiagram, LabelCountError, parse_gauss_code,
                      random_diagram, rotate_basepoint, serialize)
from freeknot.cli import _diagram_json, main
from oracles import SharedEndpointError, link_count, linked, list_parse
from support import diagrams, written


def test_parse_simple():
    assert parse_gauss_code("1 2 1 2").chords == ((1, 3), (2, 4))


def test_parse_empty():
    assert parse_gauss_code("").n == 0


def test_parse_three_chords():
    assert parse_gauss_code("1 2 1 3 2 3").chords == ((1, 3), (2, 5), (4, 6))


def test_parse_arbitrary_labels():
    assert parse_gauss_code("a b a b").chords == ((1, 3), (2, 4))


def test_parse_rejects_bad_counts():
    with pytest.raises(LabelCountError):
        parse_gauss_code("1 2 1")
    with pytest.raises(LabelCountError):
        parse_gauss_code("1 1 1 1")


@pytest.mark.parametrize("code, message", [
    ("1 2 1", "label '2' occurs once, expected 2"),
    ("1 1 1", "label '1' occurs 3 times, expected 2"),
    ("1 1 1 2", "label '1' occurs 3 times, expected 2"),
    ("1 2 2 2", "label '1' occurs once, expected 2"),
    ("1 2 1 2 2 3 3 3", "label '2' occurs 3 times, expected 2"),
    ("a b a a b a", "label 'a' occurs 4 times, expected 2"),
])
def test_bad_count_message(code, message):
    with pytest.raises(LabelCountError) as info:
        parse_gauss_code(code)
    assert str(info.value) == message


def test_parse_whitespace_runs_make_no_label():
    assert parse_gauss_code(" 1  2\t1\n 2 ") == parse_gauss_code("1 2 1 2")


TOKENS = ("1", "2", "3", "a", "b", "x9", "10", "é", "-")
SPACES = (" ", " ", " ", "  ", "\t", "\n", " \r\n ")


def _seeded_code(rng: random.Random) -> str:
    """A valid code with arbitrary labels, the same with one label
    dropped or repeated (so it occurs once, three or four times), or a
    run of tokens from a small pool; the tokens are joined by runs of
    whitespace, with some before and after."""
    kind = rng.randrange(3)
    if kind == 2:
        tokens = [rng.choice(TOKENS) for _ in range(rng.randint(0, 10))]
    else:
        names = [f"k{i}" for i in rng.sample(range(1000), 30)] + list(TOKENS)
        rng.shuffle(names)
        d = random_diagram(rng.randint(0, 30), rng)
        tokens = [names[int(z) - 1] for z in serialize(d).split()]
        if kind == 1 and tokens:
            label = rng.choice(tokens)
            if rng.randrange(3) == 0:
                tokens.remove(label)
            for _ in range(rng.randint(1, 2)):
                tokens.insert(rng.randint(0, len(tokens)), label)
    gaps = [rng.choice(SPACES) for _ in range(len(tokens) + 1)]
    gaps[0], gaps[-1] = rng.choice(("", *SPACES)), rng.choice(("", *SPACES))
    return "".join(g + z for g, z in zip(gaps, tokens)) + gaps[-1]


def _outcome(parse, text):
    try:
        return parse(text)
    except LabelCountError as error:
        return str(error)


def test_parse_matches_the_list_reference():
    """The one-scan parse against one list of positions per label, on
    20,000 seeded strings: the same chords, or the same error text."""
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(20_000):
        text = _seeded_code(rng)
        d, reference = _outcome(parse_gauss_code, text), _outcome(
            list_parse, text)
        if isinstance(reference, str):
            assert d == reference
            seen[reference.split(" occurs ")[1]] += 1
            continue
        assert d.chords == reference.chords
        assert ChordDiagram(d.chords) == d == reference
        assert hash(ChordDiagram(d.chords)) == hash(d)
        seen["valid"] += 1
    assert min(seen[key] for key in ("valid", "once, expected 2",
                                     "3 times, expected 2",
                                     "4 times, expected 2")) > 1000


def test_chords_are_normalised():
    assert ChordDiagram([(4, 2), (3, 1)]).chords == ((1, 3), (2, 4))


def test_serialize_examples():
    assert serialize(ChordDiagram([(1, 3), (2, 4)])) == "1 2 1 2"
    assert serialize(ChordDiagram()) == ""
    assert serialize(ChordDiagram([(1, 6), (2, 3), (4, 5)])) == "1 2 2 3 3 1"


def test_serialize_is_canonical_relabelling():
    code = serialize(parse_gauss_code("7 3 7 9 3 9"))
    assert code == "1 2 1 3 2 3"
    assert serialize(parse_gauss_code(code)) == code


@given(diagrams())
def test_parse_serialize_round_trip(d):
    assert parse_gauss_code(serialize(d)) == d


def test_linked_examples():
    assert linked((1, 3), (2, 4)) is True
    assert linked((1, 2), (3, 4)) is False
    assert linked((2, 8), (4, 6)) is False  # nested


def test_linked_rejects_shared_endpoint():
    with pytest.raises(SharedEndpointError):
        linked((1, 3), (3, 5))


@given(diagrams(min_n=2))
def test_linked_is_symmetric(d):
    for c1, c2 in combinations(d.chords, 2):
        assert linked(c1, c2) == linked(c2, c1)


@given(diagrams(min_n=2))
def test_linked_stable_under_rotation(d):
    size = d.size
    rot = {p: ((p - 2) % size) + 1 for p in range(1, size + 1)}
    rotated = rotate_basepoint(d, 1)
    assert {tuple(sorted((rot[p], rot[q]))) for p, q in d.chords} \
        == set(rotated.chords)
    for c1, c2 in combinations(d.chords, 2):
        r1 = tuple(sorted((rot[c1[0]], rot[c1[1]])))
        r2 = tuple(sorted((rot[c2[0]], rot[c2[1]])))
        assert linked(c1, c2) == linked(r1, r2)


def test_link_count_examples():
    d = parse_gauss_code("1 2 1 3 2 3")
    assert link_count((1, 3), d.chords) == 1
    t = parse_gauss_code("1 2 3 1 2 3")
    assert link_count((1, 4), t.chords) == 2
    assert link_count((1, 4), []) == 0


@given(diagrams())
def test_link_count_handshake(d):
    total = sum(link_count(c, d.chords) for c in d.chords)
    pairs = sum(1 for c1, c2 in combinations(d.chords, 2) if linked(c1, c2))
    assert total == 2 * pairs
    assert total % 2 == 0


def test_json_round_trip(capsys):
    d = parse_gauss_code("1 2 1 3 2 3")
    assert main(["invariant", "--json", "--gauss", "1 2 1 3 2 3"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["diagrams"]
    obj = entry["diagram"]
    assert obj == {"n": 3, "chords": [[1, 3], [2, 5], [4, 6]]}
    assert ChordDiagram(obj["chords"]) == d


@given(diagrams())
def test_json_round_trips_every_valid_diagram(d):
    obj = written(_diagram_json(d))
    assert obj["n"] == d.n
    assert ChordDiagram(obj["chords"]) == d


def test_value_semantics():
    a = ChordDiagram([(1, 3), (2, 4)])
    b = parse_gauss_code("1 2 1 2")
    assert a == b and hash(a) == hash(b)
    assert a != ChordDiagram([(1, 2), (3, 4)])
    assert "ChordDiagram" in repr(a)
