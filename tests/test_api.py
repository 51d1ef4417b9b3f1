"""Public names the package exports and the benchmark tracer wraps, the
arguments the API does not take, and what a fresh interpreter loads to run
each command."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import pickle
import subprocess
import sys

import pytest

import lutfit
from lutfit._fields import fields, replace
from lutfit.artifacts import (
    Provenance,
    read_artifact,
    render_c_header,
    render_memh,
    write_fit_artifact,
)
from lutfit.cli import build_parser, cmd_export, main
from lutfit.config import config_from_dict
from lutfit.evalbench import ScaleSweepReport, quant_aware_mse
from lutfit.evolve import GaConfig, crossover, make_rng, rounding_mutate
from lutfit.fxp import DatapathConfig
from lutfit.nonlin import Kind, NonLinSpec, default_spec
from lutfit.pwl import (
    BreakpointSet,
    FitnessScorer,
    PwlTable,
    derive_table,
    fitness_grid,
    fitness_mse,
    fxp_round_table,
    repaired_breakpoints,
)
from lutfit.quant import PowTwoScale, RangeScalingPlan, SubRange, quantize_table

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
    # the target is the spec's operator, crossover draws its span, a table
    # carries its spec and a header is named after its artifact
    assert fields(NonLinSpec) == ("kind", "search_range")
    for fn, params in (
        (derive_table, ["spec", "bps"]),
        (FitnessScorer, ["spec"]),
        (fitness_mse, ["table"]),
        (quant_aware_mse, ["table", "scale", "datapath"]),
        (crossover, ["a", "b", "search_range", "rng"]),
        (fitness_grid, ["search_range"]),
    ):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    assert "name" not in inspect.signature(cmd_export).parameters
    export = ["export", "--table", "t.fit.json", "--format", "header"]
    build_parser().parse_args(export)
    with pytest.raises(SystemExit):
        build_parser().parse_args([*export, "--name", "lut"])


def _gelu_table():
    return derive_table(default_spec(Kind.GELU), BreakpointSet((-1.0, 0.5, 2.0)))


# Each value type: a maker of equal fresh instances, its fields in order, and
# a change its checks reject with a message matching the pattern, or None
# for a type without checks.
VALUE_TYPES = {
    "Provenance": (lambda: Provenance("abc", 0), ("config_hash", "seed", "tool_version"), None),
    "RunConfig": (lambda: config_from_dict({"function": "div"}),
                  ("function", "search_range", "ga", "scale_exponents", "plan", "datapath",
                   "seeds", "out_dir"),
                  ({"seeds": ()}, "seeds")),
    "ScaleSweepReport": (lambda: ScaleSweepReport(((-5, 1e-4), (-4, 2e-4))), ("per_scale",),
                         None),
    "GaConfig": (GaConfig, ("n_breakpoints", "population_size", "cross_prob", "mutate_prob",
                            "rm_prob", "rm_range", "iterations", "mutation_kind",
                            "gaussian_sigma"),
                 ({"population_size": 0}, "population_size")),
    "DatapathConfig": (DatapathConfig, ("input_bits", "param_bits", "frac_bits", "acc_bits"),
                       ({"input_bits": 0}, "input_bits")),
    "NonLinSpec": (lambda: default_spec(Kind.GELU), ("kind", "search_range"),
                   ({"search_range": (1.0, -1.0)}, "search_range")),
    "BreakpointSet": (lambda: BreakpointSet((-1.0, 0.5, 2.0)), ("points",), None),
    "PwlTable": (_gelu_table, ("slopes", "intercepts", "breakpoints", "spec"),
                 ({"breakpoints": ()}, "breakpoint")),
    "PowTwoScale": (lambda: PowTwoScale(-5), ("exponent",), ({"exponent": 5000}, "exponent")),
    "QPwlTable": (lambda: quantize_table(fxp_round_table(_gelu_table(), 5), PowTwoScale(-5)),
                  ("slopes_fxp", "intercepts_fxp", "breakpoints_q", "frac_bits", "spec", "scale",
                   "source_segments", "saturated"),
                  ({"scale": None}, "needs a scale")),
    "SubRange": (lambda: SubRange(4.0, 32.0, PowTwoScale(-3)), ("lo", "hi", "scale"), None),
    "RangeScalingPlan": (
        lambda: RangeScalingPlan((0.5, 4.0), (SubRange(4.0, 32.0, PowTwoScale(-3)),
                                              SubRange(32.0, math.inf, PowTwoScale(-6))), Kind.DIV),
        ("inner_range", "sub_ranges", "op_kind"), ({"op_kind": Kind.GELU}, "div/rsqrt")),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_are_frozen_values(name):
    """Equal instances compare and hash equal, a field cannot be assigned,
    replace builds through the constructor, so its checks run again, and an
    instance survives a pickle round trip, as a pooled fit needs."""
    make, names, rejected = VALUE_TYPES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and fields(type(a)) == names
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == f"{name}({', '.join(f'{n}={getattr(a, n)!r}' for n in names)})"
    with pytest.raises(AttributeError):
        setattr(a, names[0], getattr(b, names[0]))
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    assert a == b
    again = pickle.loads(pickle.dumps(a))
    assert type(again) is type(a) and again == a and hash(again) == hash(a)
    assert replace(a) == a and replace(a) is not a
    with pytest.raises(TypeError):
        replace(a, no_such_field=1)
    if rejected is not None:
        changes, message = rejected
        with pytest.raises(ValueError, match=message):
            replace(a, **changes)


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


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["export-int8", "eval-int16"])
def test_benchmark_generated_tables_load(name, tmp_path):
    # geninputs.py hands repaired_breakpoints(...) straight to derive_table
    # and writes the result; each table it writes must read back.
    workloads, geninputs = _perfbench_module("workloads"), _perfbench_module("geninputs")
    workload = workloads.build(name, 0)
    plan = {"tables": workload.tables, "configs": workload.configs,
            "frac_bits": workloads.FRAC_BITS, "label": f"perfbench-{name}", "seed": 0}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    assert geninputs.main(str(plan_path), str(tmp_path / "inputs")) == 0
    assert workload.tables
    for file_name in workload.tables:
        table, _ = read_artifact(str(tmp_path / "inputs" / file_name))
        assert isinstance(table, PwlTable), file_name


def test_traced_rounding_mutate_counter_counts():
    # The tracer drops a count whose counter raises, so a counter that no
    # longer reads rounding_mutate's values would report a silent zero.
    traced = _perfbench_module("traced")
    tracer = traced.Tracer(0)
    wrapped = tracer.wrap(0, rounding_mutate, traced.COUNTERS["evolve.rounding_mutate"])
    spec = default_spec(Kind.GELU)
    parent = repaired_breakpoints((-2.3, 0.6, 1.37), spec.search_range)
    # every draw selects the 2^0 or the 2^-1 grid, and none of the points is on either
    cfg = GaConfig(n_breakpoints=3, rm_prob=0.5, rm_range=(0, 1))
    child = wrapped(parent, cfg, spec.search_range, make_rng(0))
    assert child.points != parent.points
    assert tracer.counters["evolve.rounding_mutate.changed"] == 1


# Imports lutfit.cli, runs each command of a JSON list through its main and
# prints, after the import and after each command, the loaded modules the
# start-up test watches: numpy's submodules, multiprocessing, the
# standard-library modules only some commands use, and dataclasses and
# inspect, which no lutfit module needs.
CHILD = """
import json, sys
from lutfit.cli import main
watched = {"multiprocessing", "hashlib", "_hashlib", "logging", "csv", "dataclasses", "inspect"}
def watched_loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy.") or m.split(".")[0] in watched)
loaded = [watched_loaded()]
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
    loaded.append(watched_loaded())
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
    """The import and every export load no numpy, hashlib, logging, csv,
    dataclasses or inspect; an eval that collapses no breakpoint loads no
    numpy.random, hashlib or logging; a fit loads hashlib; and a fresh
    process writes the bytes an in-process run writes."""
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
            table = derive_table(spec, BreakpointSet(points))
            write_fit_artifact(str(directory / f"{kind.value}.fit.json"),
                               fxp_round_table(table, 5), Provenance("abc", 0))
        runs[side] = directory

    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)], cwd=runs["fresh"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, *loaded = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    assert loaded[:len(exports)] == [[]] * len(exports)
    after_eval = loaded[len(exports)]
    assert "numpy._core" in after_eval and "csv" in after_eval
    assert "numpy.random" not in after_eval
    unused = {"hashlib", "_hashlib", "logging", "multiprocessing"}
    assert unused.isdisjoint(m.split(".")[0] for m in after_eval), after_eval
    assert "hashlib" in loaded[len(exports) + 1]

    monkeypatch.chdir(runs["in_process"])
    for argv in commands:
        assert main(argv) == 0
    fresh, in_process = _tree(runs["fresh"]), _tree(runs["in_process"])
    assert sorted(fresh) == sorted(in_process)
    assert [p for p in fresh if fresh[p] != in_process[p]] == []
