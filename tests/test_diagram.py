from itertools import combinations

import pytest
from hypothesis import given

from freeknot import (ChordDiagram, LabelCountError, parse_gauss_code,
                      rotate_basepoint, serialize)
from oracles import SharedEndpointError, link_count, linked
from support import diagrams


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
])
def test_bad_count_message(code, message):
    with pytest.raises(LabelCountError) as info:
        parse_gauss_code(code)
    assert str(info.value) == message


def test_parse_whitespace_runs_make_no_label():
    assert parse_gauss_code(" 1  2\t1\n 2 ") == parse_gauss_code("1 2 1 2")


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


def test_json_round_trip():
    d = parse_gauss_code("1 2 1 3 2 3")
    obj = d.to_json()
    assert obj == {"n": 3, "chords": [[1, 3], [2, 5], [4, 6]]}
    assert ChordDiagram(obj["chords"]) == d


@given(diagrams())
def test_json_round_trips_every_valid_diagram(d):
    obj = d.to_json()
    assert obj["n"] == d.n
    assert ChordDiagram(obj["chords"]) == d


def test_value_semantics():
    a = ChordDiagram([(1, 3), (2, 4)])
    b = parse_gauss_code("1 2 1 2")
    assert a == b and hash(a) == hash(b)
    assert a != ChordDiagram([(1, 2), (3, 4)])
    assert "ChordDiagram" in repr(a)
