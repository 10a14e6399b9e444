import doctest

import pytest

import freeknot.cli
import freeknot.diagram
import freeknot.explore
import freeknot.group
import freeknot.moves
import freeknot.parity

MODULES = [freeknot.diagram, freeknot.parity, freeknot.group,
           freeknot.moves, freeknot.explore, freeknot.cli]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda mod: mod.__name__.split(".")[-1])
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
