"""The package surface: `__all__` lists exactly the public names the
package binds, so `from freeknot import *` never names a removed or
missing object; the names the library dropped stay dropped; and the
runtime needs nothing beyond the standard library."""

import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import freeknot

SRC = Path(__file__).resolve().parent.parent / "src"

# Readers, checks and inverses that no library or CLI code called, the
# pairwise linking test, the closed-form group operations and the
# conjugacy programme's level walk and the parity bits of a point, which
# live on in tests/oracles.py, the list subclass the census once
# returned its counts on, the numeric letter codes and their walk, the
# move writers, which the CLI's output layout replaced, the value
# wrapper around the level walk's x, and the leaf markers that slot
# templates replaced.
DROPPED = ("Violation", "validate", "linked", "link_count",
           "SharedEndpointError", "delete_odd", "AdjointTriple",
           "json_object", "inverse_move", "move_from_json", "FIELD_SHAPES",
           "Witnesses", "normal_form_to_word", "multiply", "inverse",
           "conjugate", "_walk", "_parity", "_act", "_code", "move_to_json",
           "move_to_text", "_listed", "_text_value", "_named_params",
           "_value", "_marked", "_MARKER")


def test_every_exported_name_resolves_once():
    assert len(freeknot.__all__) == len(set(freeknot.__all__))
    for name in freeknot.__all__:
        assert hasattr(freeknot, name), name


def test_all_lists_every_public_binding():
    public = {name for name, value in vars(freeknot).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(freeknot.__all__) == public


def test_dropped_names_stay_dropped():
    modules = [freeknot] + [
        importlib.import_module(f"freeknot.{info.name}")
        for info in pkgutil.iter_modules(freeknot.__path__)]
    assert len(modules) == 7
    for module in modules:
        for name in DROPPED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls in (freeknot.ChordDiagram, freeknot.NormalForm):
        assert not hasattr(cls, "from_json"), cls.__name__
    # the --json layout is the CLI's alone
    for cls in (freeknot.ChordDiagram, freeknot.NormalForm,
                freeknot.SearchReport):
        assert not hasattr(cls, "to_json"), cls.__name__


def test_runtime_needs_only_the_standard_library():
    # -S skips site-packages, -I ignores PYTHONPATH and the user site,
    # and -B writes no bytecode (-I also ignores PYTHONDONTWRITEBYTECODE)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import freeknot.cli; "
            "assert freeknot.__file__.startswith(sys.argv[1]); "
            "sys.exit(freeknot.cli.main(['invariant', '--gauss', '1 1']))")
    result = subprocess.run([sys.executable, "-S", "-I", "-B", "-c", code,
                             str(SRC)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("gauss: 1 1\n")
