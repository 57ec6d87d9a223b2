"""The benchmark's tracer binds library functions by module and name
(``perfbench/spans.py``, ``BINDINGS``); a rename or a removal in ``src/``
would drop that span's per-layer metrics without failing any run."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BINDINGS


@pytest.mark.parametrize("module,attr,span", _bindings())
def test_every_binding_resolves_to_a_library_callable(module, attr, span):
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"{module}.{attr} (span {span}) is gone"
    assert fn.__module__.startswith("viewgraph."), f"{module}.{attr} is {fn.__module__}"
