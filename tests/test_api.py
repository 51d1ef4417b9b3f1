"""Public names the package exports and the benchmark tracer wraps."""

import importlib
import importlib.util
import os

import lutfit

TRACED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "traced.py")


def test_all_names_resolve():
    missing = [name for name in lutfit.__all__ if not hasattr(lutfit, name)]
    assert not missing, missing


def test_traced_layers_resolve():
    # The tracer skips a layer function it cannot find, which would show as
    # zero calls instead of an error, so a rename must fail here.
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [
        f"{module}.{fn}"
        for module, fns in traced.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"lutfit.{module}"), fn, None))
    ]
    assert not missing, missing
