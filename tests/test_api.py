"""Public names the package exports and the benchmark tracer wraps, the
arguments the API does not take, and what a fresh interpreter loads to run
each command."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import lutfit
from lutfit.artifacts import Provenance, render_c_header, render_memh, write_fit_artifact
from lutfit.cli import build_parser, cmd_export, main
from lutfit.config import config_from_dict
from lutfit.nonlin import Kind, NonLinSpec, default_spec
from lutfit.pwl import BreakpointSet, FitnessScorer, derive_table, fitness_mse, fxp_round_table

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACED = os.path.join(PERFBENCH, "traced.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")
SRC = os.path.dirname(os.path.dirname(lutfit.__file__))


def test_all_names_resolve():
    missing = [name for name in lutfit.__all__ if not hasattr(lutfit, name)]
    assert not missing, missing


def test_table_functions_take_the_format_from_the_datapath():
    # lambda and the field widths have one home, DatapathConfig; a loose
    # width argument next to it could disagree with it.
    loose = {"bits", "frac_bits", "input_bits", "param_bits", "breakpoint_bits"}
    functions = (lutfit.quantize_table, lutfit.fxp_quantize_table, render_c_header, render_memh,
                 lutfit.int_pwl, lutfit.quant_aware_mse, lutfit.sweep_scales,
                 lutfit.wide_range_mse)
    found = {fn.__name__: sorted(loose & set(inspect.signature(fn).parameters))
             for fn in functions}
    assert not any(found.values()), found


def test_no_argument_restates_what_its_owner_holds():
    # scale_carrying follows from the kind, the fitness step is FITNESS_STEP,
    # a table carries its spec and a header is named after its artifact
    assert [f.name for f in fields(NonLinSpec)] == ["kind", "search_range"]
    assert list(inspect.signature(fitness_mse).parameters) == ["table", "ref"]
    assert list(inspect.signature(FitnessScorer).parameters) == ["spec", "ref"]
    assert "name" not in inspect.signature(cmd_export).parameters
    export = ["export", "--table", "t.fit.json", "--format", "header"]
    build_parser().parse_args(export)
    with pytest.raises(SystemExit):
        build_parser().parse_args([*export, "--name", "lut"])


def test_benchmark_workload_configs_load():
    # The reader rejects keys the schema does not know; the benchmark's
    # run configs must still load.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [c for name in workloads.WORKLOADS for c in workloads.build(name, 0).configs.values()]
    assert configs
    for data in configs:
        config_from_dict(data)


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


# Runs each command of a JSON list through lutfit.cli.main and prints, after
# each, the loaded modules the start-up test watches.
CHILD = """
import json, sys
from lutfit.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
    loaded.append(sorted(m for m in sys.modules
                         if m.startswith("numpy.") or m.split(".")[0] == "multiprocessing"))
print(json.dumps(loaded))
"""

FIT_POINTS = {
    Kind.GELU: (-2.5, -1.5, -0.75, 0.0, 0.75, 1.5, 2.5),
    Kind.DIV: (0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5),
}


def _tree(directory) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


def test_fresh_interpreter_loads_numpy_only_for_numeric_commands(tmp_path, monkeypatch):
    """Exports load no numpy, eval no numpy.random, and a fresh process
    writes the bytes an in-process run writes."""
    exports = [
        ["export", "--table", f"{kind.value}.fit.json", "--format", fmt, "--out", "out",
         *(["--scale-exp", "-5"] if kind is Kind.GELU else [])]
        for fmt in ("memh", "header", "data")
        for kind in FIT_POINTS
    ]
    commands = [
        *exports,
        ["eval", "--table", "gelu.fit.json", "--out", "out"],
        ["fit", "--function", "gelu", "--iterations", "3", "--out", "fit"],
        ["eval", "--table", "fit/gelu_8e_best.fit.json", "--out", "fit"],
        ["export", "--table", "fit/gelu_8e_best.fit.json", "--format", "memh",
         "--scale-exp", "-5", "--out", "fit"],
    ]
    runs = {}
    for side in ("fresh", "in_process"):
        directory = tmp_path / side
        directory.mkdir()
        for kind, points in FIT_POINTS.items():
            spec = default_spec(kind)
            table = derive_table(spec, BreakpointSet(points, spec.search_range))
            write_fit_artifact(str(directory / f"{kind.value}.fit.json"),
                               fxp_round_table(table, 5), Provenance("abc", 0))
        runs[side] = directory

    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)], cwd=runs["fresh"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded[len(exports) - 1] == []
    after_eval = loaded[len(exports)]
    assert "numpy._core" in after_eval and "numpy.random" not in after_eval
    assert not any(m.startswith("multiprocessing") for m in after_eval)

    monkeypatch.chdir(runs["in_process"])
    for argv in commands:
        assert main(argv) == 0
    fresh, in_process = _tree(runs["fresh"]), _tree(runs["in_process"])
    assert sorted(fresh) == sorted(in_process)
    assert [p for p in fresh if fresh[p] != in_process[p]] == []
