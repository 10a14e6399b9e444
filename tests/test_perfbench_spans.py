"""The benchmark tracer (perfbench/spans.py) wraps freeknot functions
by module and name; every name it lists must still resolve, or
`perfbench/run.py --trace 1` stops working."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

import freeknot.cli

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


def test_invariant_traces_one_filtration_per_diagram():
    """`invariant` at several depths builds one filtration per diagram,
    through the name the tracer wraps, so the benchmark's parity layer
    sees the level walk."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = freeknot.cli.main(
                ["invariant", "--json", "--m", "1", "--m", "3",
                 "--gauss", "1 2 1 3 2 3", "--gauss", "1 2 1 3 4 2 5 3 5 4"])
    finally:
        tracer.uninstall()
    assert code == 0
    named = [tracer.names[i] for i in tracer.name]
    assert named.count("parity.filtration") == 2
    assert named.count("cli.main") == 1
