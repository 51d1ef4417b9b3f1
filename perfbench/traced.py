"""Run one lutfit CLI command with timing wrappers on its public layer functions.

Usage: python traced.py SPANS_FILE COMMAND_ID CLI_ARG...

Installs a wrapper on every function in LAYERS, in every lutfit module that
bound the name (evolve's own `repaired_breakpoints`, evalbench's `int_pwl`,
...), then calls lutfit.cli.main(CLI_ARGS) exactly as `python -m lutfit.cli`
would. Each call becomes a span (name, start, end, parent, command id) held
in flat arrays; the spans and the counters are written to SPANS_FILE (.npz)
when the command ends. A name missing from the package is skipped, so the
report shows it with zero calls.
"""

import functools
import json
import sys
import time
from array import array

# module -> public functions timed as that module's layer.
LAYERS = {
    "cli": ("cmd_fit", "cmd_eval", "cmd_export"),
    "config": ("load_config",),
    "evolve": ("evolve", "init_population", "crossover", "rounding_mutate", "gaussian_mutate"),
    "pwl": ("repaired_breakpoints", "derive_table", "fxp_round_table", "fitness_mse"),
    "nonlin": ("eval_ref",),
    "quant": ("quantize_table", "fxp_quantize_table", "select_subrange", "eval_qpwl_real"),
    "intsim": ("int_pwl",),
    "evalbench": ("sweep_scales", "quant_aware_mse", "wide_range_mse"),
    "artifacts": ("read_artifact", "atomic_write", "render_memh", "render_c_header"),
}

NAMES = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def _count_eval_ref(counters, args, kwargs, result):
    counters["nonlin.eval_ref.points"] += int(getattr(result, "size", 1))


def _count_rounding_mutate(counters, args, kwargs, result):
    parent = args[0] if args else kwargs["p"]
    counters["evolve.rounding_mutate.changed"] += result.points != parent.points


def _count_quantize_table(counters, args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    counters["quant.quantize_table.entries_in"] += len(table.slopes)
    counters["quant.quantize_table.entries_kept"] += result.entries


def _count_atomic_write(counters, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counters["artifacts.atomic_write.bytes"] += len(text.encode("utf-8"))


# Counts taken at the same boundaries as the spans, after the span closes.
COUNTERS = {
    "nonlin.eval_ref": _count_eval_ref,
    "evolve.rounding_mutate": _count_rounding_mutate,
    "quant.quantize_table": _count_quantize_table,
    "artifacts.atomic_write": _count_atomic_write,
}


class Tracer:
    """Spans in flat arrays; a stack gives each span its parent."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counters = {
            "nonlin.eval_ref.points": 0,
            "evolve.rounding_mutate.changed": 0,
            "quant.quantize_table.entries_in": 0,
            "quant.quantize_table.entries_kept": 0,
            "artifacts.atomic_write.bytes": 0,
        }

    def wrap(self, name_id: int, fn, counter=None):
        clock = time.perf_counter
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)
        counters = self.counters

        def traced(*args, **kwargs):
            k = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the count, not the command
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> list:
        """Patch every binding of each layer function; returns the names found."""
        import lutfit.cli  # noqa: F401  (loads every lutfit module)

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lutfit" or name.startswith("lutfit."))]
        found = []
        for name_id, qualified in enumerate(NAMES):
            module_name, fn_name = qualified.split(".")
            # lutfit/__init__ rebinds some submodule names (lutfit.evolve is
            # the function), so the module comes from sys.modules.
            module = sys.modules.get(f"lutfit.{module_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            wrapper = self.wrap(name_id, original, COUNTERS.get(qualified))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
            found.append(qualified)
        return found

    def save(self, path: str, found: list):
        import numpy as np

        np.savez(
            path,
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            command_id=np.int64(self.command_id),
            meta=np.array(json.dumps({"names": NAMES, "found": found,
                                      "counters": self.counters})),
        )


def main(argv) -> int:
    spans_path, command_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(command_id)
    found = tracer.install()
    import lutfit.cli

    try:
        return lutfit.cli.main(cli_args)
    finally:
        tracer.save(spans_path, found)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
