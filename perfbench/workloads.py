"""The three benchmark workloads: seed -> generated inputs plus one pass of CLI commands.

Every workload is a fixed list of `lutfit` CLI commands (one "pass") over
inputs drawn from the workload seed. The seed picks breakpoint jitter,
export scales and the order of the fits; it never changes the shape of the
work, so passes of different seeds cost about the same.

- fit-stock: stock 500-generation fits. The GA core (evolve, pwl, nonlin)
  does most of the work; the integer datapath is never called.
- eval-int16: int16 evals over 2^-12..2^-1 plus two wide-range evals of
  seed-generated tables. The datapath (intsim, evalbench, quant) dominates
  and the GA is never called.
- export-int8: many short eval/export commands, so interpreter start-up and
  artifact I/O dominate.

Which end-to-end metric each traced layer metric should move, written down
before any measurement:

  evolve.*, pwl.repaired_breakpoints.*,  wall_s on fit-stock; no move on
    nonlin.eval_ref.calls                eval-int16 or export-int8
  intsim.int_pwl.*,                      wall_s on eval-int16; no move on
    evalbench.quant_aware_mse.self_s,    fit-stock
    nonlin.eval_ref.points_per_call
  quant.select_subrange.*,               wall_s and wide_mse on eval-int16;
    evalbench.wide_range_mse.*           no move on fit-stock
  quant.quantize_table.kept_entry_ratio  qa_mse on eval-int16
  cli.import_s, nonlin.import_s          startup_s, cmd_p50_s and wall_s on
                                         export-int8 (and ~20% of fit-stock)
  artifacts.*                            wall_s and peak_rss_mb on export-int8
"""

import random
from dataclasses import dataclass

WORKLOADS = ("fit-stock", "eval-int16", "export-int8")

# Placeholder in a command's argv for the directory the pass writes into.
OUT = "{out}"

FRAC_BITS = 5
INT16_SCALES = tuple(range(-12, 0))
STOCK_SCALES = tuple(range(-6, 0))

GA_SEED = 0
STOCK_POPULATION = 50
# (function, entries, mutation): operators, entry counts and mutation kinds
# are mixed so a gain that helps only one of them shows as such.
FIT_OPS = (("gelu", 8, "rm"), ("exp", 16, "rm"), ("div", 8, "gaussian"), ("rsqrt", 16, "gaussian"))
EVAL16_TABLES = (("gelu", 8), ("hswish", 16), ("exp", 16))
WIDE_TABLES = (("div", 16), ("rsqrt", 8))
EXPORT_TABLES = (("gelu", 8), ("exp", 16), ("hswish", 8), ("rsqrt", 16))
EXPORT_FORMATS = ("memh", "header", "data")
SCALE_CARRYING = ("gelu", "hswish", "exp")

# Breakpoints of generated tables sit on a grid suited to the operator's
# curvature (see geninputs.place), each moved by up to JITTER of the grid
# spacing. exp's grid is dense toward 0, so its breakpoints collide at the
# coarse int16 scales and collapse shows in eval-int16. The moves change the
# quantized breakpoints at fine scales but rarely flip a fixed-point rounding:
# over 40 seeds the quartiles of fit_mse, qa_mse and wide_mse lie within 0.5%
# of their medians, against 5-8% at JITTER = 0.02 and 26-38% at 0.3.
JITTER = 0.002
SPACING = {"gelu": "linear", "hswish": "linear", "exp": "square", "div": "log", "rsqrt": "log"}


@dataclass
class Command:
    """One CLI invocation of a pass plus what its output check needs."""

    kind: str  # "fit", "eval" or "export"
    argv: list
    meta: dict


@dataclass
class Workload:
    name: str
    # Input file name -> generated fit table (see _table).
    tables: dict
    # Input file name -> run-config JSON object.
    configs: dict
    commands: list
    warmup: list


def _table(rng: random.Random, function: str, entries: int) -> dict:
    """A generated table: breakpoint positions as jittered fractions of the
    search range, placed by geninputs.place."""
    return {
        "function": function,
        "entries": entries,
        "spacing": SPACING[function],
        "fractions": [(i + 1 + rng.uniform(-JITTER, JITTER)) / entries
                      for i in range(entries - 1)],
    }


def _stem(function: str, entries: int) -> str:
    return f"{function}_{entries}e"


def _warmup(argv: list) -> list:
    return ["warmup" if a == OUT else a for a in argv]


def build(name: str, seed: int, iterations: int = 500) -> Workload:
    """The inputs and commands of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "fit-stock":
        return _fit_stock(rng, iterations)
    if name == "eval-int16":
        return _eval_int16(rng)
    if name == "export-int8":
        return _export_int8(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _fit_stock(rng, iterations) -> Workload:
    # Every fit uses the stock GA seed 0 and the workload seed only orders
    # the commands. With GA seeds drawn from the workload seed, the fitted
    # tables' qa_mse spread by 32% between quartiles over ten seeds, more
    # than any bound could absorb.
    ops = list(FIT_OPS)
    rng.shuffle(ops)
    configs, commands = {}, []
    for function, entries, mutation in ops:
        cfg_name = f"fit_{_stem(function, entries)}.json"
        configs[cfg_name] = {
            "function": function,
            "entries": entries,
            "ga": {"mutation_kind": mutation, "iterations": iterations},
            "seeds": [GA_SEED],
        }
        argv = ["fit", "--config", f"inputs/{cfg_name}", "--jobs", "1", "--out", OUT]
        commands.append(Command("fit", argv, {
            "function": function, "entries": entries, "seed": GA_SEED,
            "iterations": iterations, "population": STOCK_POPULATION,
        }))
    warmup = _warmup(commands[0].argv) + ["--iterations", "10"]
    return Workload("fit-stock", {}, configs, commands, warmup)


def _eval_int16(rng) -> Workload:
    tables, configs, commands = {}, {}, []
    scales = ",".join(str(e) for e in INT16_SCALES)
    for function, entries in EVAL16_TABLES:
        stem = _stem(function, entries)
        table = f"inputs/{stem}.fit.json"
        tables[f"{stem}.fit.json"] = _table(rng, function, entries)
        configs[f"eval16_{stem}.json"] = {
            "function": function,
            "entries": entries,
            "quant": {"bits": 16},
            "datapath": {"input_bits": 16},
        }
        argv = ["eval", "--table", table, "--config", f"inputs/eval16_{stem}.json",
                f"--scales={scales}", "--out", OUT]
        commands.append(Command("eval", argv, {
            "stem": stem, "table": table, "scales": list(INT16_SCALES), "bits": 16,
            "input_bits": 16,
        }))
    for function, entries in WIDE_TABLES:
        stem = _stem(function, entries)
        table = f"inputs/{stem}.fit.json"
        tables[f"{stem}.fit.json"] = _table(rng, function, entries)
        argv = ["eval", "--table", table, "--out", OUT]
        commands.append(Command("eval", argv, {"stem": stem, "table": table}))
    return Workload("eval-int16", tables, configs, commands, _warmup(commands[-1].argv))


def _export_int8(rng) -> Workload:
    tables, commands = {}, []
    for function, entries in EXPORT_TABLES:
        stem = _stem(function, entries)
        table = f"inputs/{stem}.fit.json"
        tables[f"{stem}.fit.json"] = _table(rng, function, entries)
        scale_exp = rng.choice((-6, -5, -4, -3)) if function in SCALE_CARRYING else None
        commands.append(Command("eval", ["eval", "--table", table, "--out", OUT], {
            "stem": stem, "table": table, "scales": list(STOCK_SCALES), "bits": 8,
            "input_bits": 8,
        }))
        for fmt in EXPORT_FORMATS:
            argv = ["export", "--table", table, "--format", fmt, "--out", OUT]
            if scale_exp is not None:
                argv += ["--scale-exp", str(scale_exp)]
            commands.append(Command("export", argv, {
                "stem": stem, "table": table, "format": fmt, "scale_exp": scale_exp,
            }))
    return Workload("export-int8", tables, {}, commands, _warmup(commands[1].argv))
