"""The mutant table of tests/mutants.py still fits the sources: each
mutant's text occurs once in its file, and its test modules exist.
The table itself runs as `python tests/mutants.py`."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies(mutant):
    source = (ROOT / "src" / "freeknot" / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.modules
    for module in mutant.modules:
        assert (ROOT / "tests" / module).is_file(), module


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
