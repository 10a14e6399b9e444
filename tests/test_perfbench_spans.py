"""The benchmark tracer (perfbench/spans.py) wraps freeknot functions
by module and name; every name it lists must still resolve, or
`perfbench/run.py --trace 1` stops working."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
QUALNAMES = [f"{mod}.{fn}" for mod, fns in spans.TRACED.items()
             for fn in fns]


@pytest.mark.parametrize("qualname", QUALNAMES)
def test_traced_function_resolves(qualname):
    modname, fname = qualname.split(".")
    module = importlib.import_module(f"freeknot.{modname}")
    assert callable(getattr(module, fname, None))


def test_span_attributes_name_traced_functions():
    assert set(spans.ATTRS) <= set(QUALNAMES)
