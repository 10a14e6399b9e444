"""tests/check_census.py, which CI's census jobs run on the search's
output, accepts the counts it pins and names each one that differs."""

import json

import pytest

from check_census import TABLES, check, main


def payload(n: int) -> dict:
    """A search payload with exactly the pinned counts for n chords."""
    examined, at_most, exactly = TABLES[n]
    top, below = " ".join(["1"] * 2 * n), "1 1"
    return {"per_m": [
        {"m": m, "complete": True, "examined": examined,
         "witnesses": [top] * exactly[m] + [below] * (at_most[m] - exactly[m])}
        for m in (1, 2, 3)]}


@pytest.mark.parametrize("n", sorted(TABLES))
def test_pinned_counts_pass(n, tmp_path, capsys):
    path = tmp_path / "census.json"
    path.write_text(json.dumps(payload(n)))
    assert main([str(n), str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", sorted(TABLES))
def test_every_count_is_checked(n):
    def changed(edit):
        p = payload(n)
        edit(p["per_m"])
        return check(n, p)

    assert changed(lambda per_m: per_m[1].update(complete=False)) \
        == ["m=2: complete is False"]
    assert changed(lambda per_m: per_m[2].update(examined=1)) \
        == ["m=3: examined 1"]
    assert changed(lambda per_m: per_m[0]["witnesses"].pop()) \
        == [f"m=1: {TABLES[n][1][1] - 1} witnesses"]
    assert changed(lambda per_m: per_m[0]["witnesses"].pop(0)) == [
        f"m=1: {TABLES[n][1][1] - 1} witnesses",
        f"m=1: {TABLES[n][2][1] - 1} witnesses at {n} chords"]
    assert changed(lambda per_m: per_m.pop()) == ["depths [1, 2]"]
