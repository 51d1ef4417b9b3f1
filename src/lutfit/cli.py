"""Command-line entry point: fit, eval and export subcommands."""

import argparse
import csv
import io
import json
import os
import sys
from functools import partial

from .artifacts import (
    EXPORT_FORMATS,
    Provenance,
    atomic_write,
    read_artifact,
    render_c_header,
    render_memh,
    write_fit_artifact,
    write_qtable_artifact,
)
from .config import ConfigError, RunConfig, config_hash, config_to_dict, load_config
from .evalbench import sweep_scales, wide_range_mse
from .evolve import evolve
from .intsim import AccumulatorOverflow
from .nonlin import Kind
from .pwl import PwlTable, fitness_mse, fitness_scorer, fxp_round_table
from .quant import PowTwoScale, QPwlTable, check_format, fxp_quantize_table, quantize_table


def _fit_one(spec, frac_bits, ga_cfg, seed):
    log: list = []
    table = fxp_round_table(evolve(spec, ga_cfg, seed, log=log), frac_bits)
    return seed, table, log


def cmd_fit(cfg: RunConfig, jobs: int = 1) -> list[str]:
    """Fit one table per seed, its slopes and intercepts rounded to lambda
    (datapath.frac_bits); writes per-seed artifacts, a best-of-seeds artifact
    and a generation-by-generation fitness log. Returns the paths."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    spec = cfg.spec()
    chash = config_hash(cfg)
    fit_one = partial(_fit_one, spec, cfg.datapath.frac_bits, cfg.ga)
    if jobs > 1 and len(cfg.seeds) > 1:
        # Only a pooled fit pays for importing multiprocessing. Building the
        # scorer loads numpy and the fitness grid in the parent, so the
        # workers the pool forks at the first submit inherit both instead of
        # each importing numpy again.
        from concurrent.futures import ProcessPoolExecutor

        fitness_scorer(spec)
        with ProcessPoolExecutor(max_workers=min(jobs, len(cfg.seeds))) as pool:
            results = list(pool.map(fit_one, cfg.seeds))
    else:
        results = [fit_one(seed) for seed in cfg.seeds]

    stem = f"{cfg.function.value}_{cfg.entries}e"
    written = []
    best_seed, best_table, best_mse = None, None, None
    log_rows = []
    for seed, table, log in results:
        path = os.path.join(cfg.out_dir, f"{stem}_seed{seed}.fit.json")
        write_fit_artifact(path, table, Provenance(chash, seed))
        written.append(path)
        mse = fitness_mse(table)
        if best_mse is None or mse < best_mse:
            best_seed, best_table, best_mse = seed, table, mse
        log_rows.extend((seed, gen, value) for gen, value in log)

    best_path = os.path.join(cfg.out_dir, f"{stem}_best.fit.json")
    write_fit_artifact(best_path, best_table, Provenance(chash, best_seed))
    written.append(best_path)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed", "generation", "best_mse"])
    writer.writerows(log_rows)
    log_path = os.path.join(cfg.out_dir, f"{stem}_fitlog.csv")
    atomic_write(log_path, buf.getvalue())
    written.append(log_path)
    return written


def _read_table(cfg: RunConfig, table_path: str, artifact=None):
    """read_artifact (unless the artifact is given), checked against the
    config's function."""
    table, provenance = artifact or read_artifact(table_path)
    if table.spec.kind != cfg.function:
        raise ConfigError(
            f"artifact function {table.spec.kind.value} does not match config "
            f"function {cfg.function.value}"
        )
    return table, provenance


def cmd_eval(cfg: RunConfig, table_path: str, artifact=None) -> list[str]:
    """Evaluate a fitted table artifact; writes a per-scale CSV and a JSON
    summary for scale-carrying operators, a JSON summary for wide-range ones.
    artifact is read_artifact(table_path) when the caller has read it."""
    table, provenance = _read_table(cfg, table_path, artifact)
    if not isinstance(table, PwlTable):
        raise ConfigError(f"{table_path} is not a fitted-table artifact")
    stem, _ = os.path.splitext(os.path.basename(table_path))
    stem = stem.removesuffix(".fit")
    written = []
    summary = {
        "function": table.spec.kind.value,
        "entries": table.entries,
        "source": os.path.basename(table_path),
        "provenance": provenance.to_dict(),
    }
    if table.spec.scale_carrying:
        report = sweep_scales(table, cfg.scale_exponents, cfg.datapath)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["scale_exp", "mse"])
        for e, mse in report.per_scale:
            writer.writerow([e, repr(mse)])
        csv_path = os.path.join(cfg.out_dir, f"{stem}_scales.csv")
        atomic_write(csv_path, buf.getvalue())
        written.append(csv_path)
        summary["per_scale"] = {str(e): mse for e, mse in report.per_scale}
        summary["average_mse"] = report.average_mse
    else:
        plan = cfg.scaling_plan()
        summary["plan"] = cfg.plan if isinstance(cfg.plan, str) else "inline"
        summary["mse"] = wide_range_mse(table, plan, cfg.datapath)
    report_path = os.path.join(cfg.out_dir, f"{stem}_report.json")
    atomic_write(report_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(report_path)
    return written


def cmd_export(
    cfg: RunConfig,
    table_path: str,
    fmt: str,
    scale_exp: int | None = None,
    artifact=None,
) -> str:
    """Export a table artifact in one of the hardware formats; returns the path.

    The format is the config's datapath: datapath.frac_bits fractional bits,
    a signed datapath.input_bits input, slope and intercept fields at
    datapath.param_bits and breakpoint fields at datapath.input_bits. Every
    format checks the table against it (check_format); a quantized-table
    artifact is exported as stored. scale_exp quantizes a scale-carrying
    fit; a quantized table takes only its stored exponent, a div or rsqrt
    table none. The header's identifier prefix is the artifact's stem.
    artifact is read_artifact(table_path) when the caller has read it.
    """
    if fmt not in EXPORT_FORMATS:
        raise ConfigError(
            f"unsupported format {fmt!r}; supported formats: {', '.join(EXPORT_FORMATS)}"
        )
    table, provenance = _read_table(cfg, table_path, artifact)
    kind = table.spec.kind.value
    if scale_exp is not None and not table.spec.scale_carrying:
        raise ConfigError(f"invalid --scale-exp: a {kind} table is exported at "
                          f"datapath.frac_bits and takes no scale, got {scale_exp}")
    dp = cfg.datapath
    if isinstance(table, QPwlTable):
        if scale_exp not in (None, table.scale.exponent):
            raise ConfigError(f"invalid --scale-exp: the quantized table is stored at "
                              f"2^{table.scale.exponent}, got {scale_exp}")
        qtable = table
    elif table.spec.scale_carrying:
        if scale_exp is None:
            raise ConfigError(f"{kind} export requires --scale-exp (power-of-two exponent)")
        try:
            scale = PowTwoScale(scale_exp)
        except ValueError as exc:
            raise ConfigError(f"invalid --scale-exp: {exc}") from None
        qtable = quantize_table(table, scale, dp)
    else:
        qtable = fxp_quantize_table(table, dp)
    check_format(qtable, dp)

    stem, _ = os.path.splitext(os.path.basename(table_path))
    stem = stem.removesuffix(".fit").removesuffix(".qtable")
    if fmt == "data":
        path = os.path.join(cfg.out_dir, f"{stem}.qtable.json")
        write_qtable_artifact(path, qtable, provenance)
    elif fmt == "header":
        path = os.path.join(cfg.out_dir, f"{stem}.h")
        atomic_write(path, render_c_header(qtable, provenance, stem, dp))
    else:
        path = os.path.join(cfg.out_dir, f"{stem}.memh")
        atomic_write(path, render_memh(qtable, provenance, dp))
    return path


# The config field each flag sets; --seeds and --scales take comma-separated integers.
FLAG_FIELDS = {
    "function": "function", "entries": "entries", "seeds": "seeds", "scales": "scale_exponents",
    "iterations": "ga.iterations", "mutation": "ga.mutation_kind", "out": "output.dir",
}


def _build_config(args, artifact_function: str | None = None) -> RunConfig:
    """The run config of a command, from one load_config call: the --config
    file, or the flags alone, with each given flag written into the field it
    sets. Without --config and --function, the function is artifact_function,
    that of the table artifact eval and export read."""
    fields = {}
    for flag, name in FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag in ("seeds", "scales"):
            try:
                value = [int(s) for s in value.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(f"invalid field {name}: {value!r}") from None
        fields[name] = value
    # with a file, --function and --entries may only restate its values
    restated = {n: fields.pop(n) for n in ("function", "entries") if args.config and n in fields}
    if not args.config and artifact_function:
        fields.setdefault("function", artifact_function)
    cfg = load_config(args.config or None, fields)
    for name, value in restated.items():
        stored = config_to_dict(cfg)[name]
        if value != stored:
            raise ConfigError(f"--{name} {value} conflicts with config {name} {stored}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lutfit",
        description="Fit, evaluate and export piecewise-linear LUT approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    functions = [k.value for k in Kind]

    p_fit = sub.add_parser("fit", help="run the genetic search and write table artifacts")
    p_fit.add_argument("--function", choices=functions)
    p_fit.add_argument("--entries", type=int, choices=(8, 16))
    p_fit.add_argument("--seeds", help="comma-separated RNG seeds (default: 0)")
    p_fit.add_argument("--mutation", choices=("gaussian", "rm"))
    p_fit.add_argument("--iterations", type=int)
    p_fit.add_argument("--config", help="JSON run-config file")
    p_fit.add_argument("--out", help="output directory (default: out)")
    p_fit.add_argument("--jobs", type=int, default=1, help="parallel seed fits")

    p_eval = sub.add_parser("eval", help="quantization-aware accuracy report for a table")
    p_eval.add_argument("--table", required=True, help="fitted-table artifact")
    p_eval.add_argument("--scales", help="comma-separated scale exponents")
    p_eval.add_argument("--config", help="JSON run-config file")
    p_eval.add_argument("--out", help="output directory (default: out)")

    p_export = sub.add_parser("export", help="write a hardware export of a table")
    p_export.add_argument("--table", required=True, help="table artifact to export")
    p_export.add_argument("--format", required=True, help="data, header or memh")
    p_export.add_argument("--scale-exp", type=int, default=None)
    p_export.add_argument("--config", help="JSON run-config file")
    p_export.add_argument("--out", help="output directory (default: out)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            written = cmd_fit(_build_config(args), jobs=args.jobs)
        else:
            artifact = read_artifact(args.table)
            cfg = _build_config(args, artifact[0].spec.kind.value)
            if args.command == "eval":
                written = cmd_eval(cfg, args.table, artifact)
            else:
                written = [cmd_export(cfg, args.table, args.format, args.scale_exp, artifact)]
    except (ConfigError, ValueError, OSError, AccumulatorOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
