"""The package surface: `__all__` lists exactly the public names the
package binds, so `from freeknot import *` never names a removed or
missing object."""

import types

import freeknot


def test_every_exported_name_resolves_once():
    assert len(freeknot.__all__) == len(set(freeknot.__all__))
    for name in freeknot.__all__:
        assert hasattr(freeknot, name), name


def test_all_lists_every_public_binding():
    public = {name for name, value in vars(freeknot).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(freeknot.__all__) == public

