"""lutfit benchmark: drives the real CLI over one workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-stock --seed 1 --seconds 30 --trace 0

Closed loop, one client: every `lutfit` command runs as a fresh
`python -m lutfit.cli` subprocess and the next starts when it has exited,
with `fit --jobs 1`. A run first sets up (inputs generated from --seed plus
one warm-up command) SETUP_REPEATS times, then repeats passes over the
workload's commands for about --seconds. Outputs are checked after each pass,
off the timed path; a failed check counts like a non-zero exit and nothing is
retried.

--trace 0 prints the end-to-end metrics (lower is better unless noted):

  setup_s      median of SETUP_REPEATS set-ups
  wall_s       median wall time of one pass
  cmd_p50_s    median over the pass's commands of each one's median wall time
  startup_s    median wall time of `python -c "import lutfit.cli"`
  peak_rss_mb  largest max-RSS of any command
  ok_ratio     share of commands that exited 0 and passed their check, higher
               is better (the printed fail_ratio is 1 - ok_ratio)
  fit_mse      geometric mean fitness-grid MSE of the tables a pass fits
               (fit-stock) or reads (eval-int16, export-int8)
  qa_mse       mean quantization-aware MSE of the scale-carrying tables, from
               the eval reports or, for fitted tables, the int8 sweep 2^-6..2^-1
  wide_mse     mean wide-range MSE of the div/rsqrt tables, likewise

--trace 1 alternates untraced passes with passes under traced.py and prints
the per-layer metrics: calls, self time and time per call of every traced
function, normalised per pass, each layer's share of the traced self time,
and a few derived ratios.

The last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}. A full record (environment, per-command times, artifact sha256s,
work sizes) goes to .perfbench/records/. Exits 2 without a result when the
lutfit sources (src/lutfit) are not next to this directory.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import checks
import workloads
from traced import LAYERS, NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
# Bare-import probes, half before and half after the passes, so that the
# median spans the run's drift in machine load.
STARTUP_PROBES = 16
IMPORTTIME_PROBES = 3
# Every run ends well inside the 180 s a run may take, hung child or not.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "startup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "fit_mse": "mse",
    "qa_mse": "mse",
    "wide_mse": "mse",
}


class SetupError(Exception):
    """Inputs could not be generated or the warm-up command failed."""


class Runner:
    """Starts lutfit subprocesses one at a time and waits for each."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        # Bytecode caching stays on, as for an installed tool; the first
        # setup's warm-up writes src/lutfit/__pycache__.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def run(self, argv, cwd, log_prefix) -> dict:
        """Run argv to completion; returns wall seconds, exit code and max RSS."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _tree_digests(directory: str) -> dict:
    out = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            path = os.path.join(base, name)
            out[os.path.relpath(path, directory)] = _sha256(path)
    return dict(sorted(out.items()))


def _tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:]).strip()
    except OSError:
        return ""


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), **versions,
            "loadavg_start": os.getloadavg()}


def setup(runner: Runner, workload, seed: int, directory: str) -> float:
    """Generate the inputs and run the warm-up command; returns wall seconds."""
    os.makedirs(directory)
    plan = {"tables": workload.tables, "configs": workload.configs,
            "frac_bits": workloads.FRAC_BITS, "label": f"perfbench-{workload.name}",
            "seed": seed}
    plan_path = os.path.join(directory, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    start = time.perf_counter()
    for label, argv in (
        ("geninputs", [sys.executable, os.path.join(HERE, "geninputs.py"), plan_path, "inputs"]),
        ("warmup", [sys.executable, "-m", "lutfit.cli", *workload.warmup]),
    ):
        prefix = os.path.join(directory, label)
        if runner.run(argv, directory, prefix)["rc"] != 0:
            raise SetupError(f"{label} failed: {_tail(prefix + '.err')}")
    return time.perf_counter() - start


def probe_startup(runner: Runner, directory: str, count: int) -> list:
    """Wall seconds of count fresh interpreters that only import lutfit.cli."""
    argv = [sys.executable, "-c", "import lutfit.cli"]
    prefix = os.path.join(directory, "startup")
    times = []
    for _ in range(count):
        result = runner.run(argv, directory, prefix)
        if result["rc"] != 0:
            raise SetupError(f"import lutfit.cli failed: {_tail(prefix + '.err')}")
        times.append(result["wall_s"])
    return times


def probe_importtime(runner: Runner, directory: str, count: int) -> dict:
    """Median cumulative import seconds of lutfit.cli and lutfit.nonlin."""
    argv = [sys.executable, "-X", "importtime", "-c", "import lutfit.cli"]
    samples = {"cli.import_s": [], "nonlin.import_s": []}
    for k in range(count):
        prefix = os.path.join(directory, f"importtime{k}")
        if runner.run(argv, directory, prefix)["rc"] != 0:
            raise SetupError(f"import lutfit.cli failed: {_tail(prefix + '.err')}")
        cumulative = {}
        with open(prefix + ".err", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3:
                    try:
                        cumulative[parts[2].strip()] = int(parts[1]) / 1e6
                    except ValueError:
                        continue
        samples["cli.import_s"].append(cumulative.get("lutfit.cli", 0.0))
        samples["nonlin.import_s"].append(cumulative.get("lutfit.nonlin", 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def run_pass(runner: Runner, workload, cwd: str, index: int, traced: bool) -> dict:
    """One sequential pass over the workload's commands, then its checks."""
    out_dir = f"pass{index}"
    os.makedirs(os.path.join(cwd, out_dir))
    log_dir = os.path.join(cwd, f"logs{index}")
    os.makedirs(log_dir)
    commands = []
    start = time.perf_counter()
    for i, cmd in enumerate(workload.commands):
        args = [out_dir if a == workloads.OUT else a for a in cmd.argv]
        if traced:
            spans = os.path.join(log_dir, f"spans{i}.npz")
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spans, str(i), *args]
        else:
            argv = [sys.executable, "-m", "lutfit.cli", *args]
        result = runner.run(argv, cwd, os.path.join(log_dir, f"cmd{i}"))
        commands.append(result)
    wall = time.perf_counter() - start

    values = []
    read_artifact = None
    for i, (cmd, result) in enumerate(zip(workload.commands, commands)):
        if result["rc"] != 0:
            result["error"] = f"exit {result['rc']}: {_tail(os.path.join(log_dir, f'cmd{i}.err'))}"
            continue
        pass_dir = os.path.join(cwd, out_dir)
        try:
            if cmd.kind == "fit":
                values.append(checks.check_fit(cmd.meta, pass_dir))
            elif cmd.kind == "eval":
                table = os.path.join(cwd, cmd.meta["table"])
                values.append(checks.check_eval(cmd.meta, table, pass_dir))
            else:
                if read_artifact is None:
                    read_artifact = _lutfit_read_artifact()
                checks.check_export(cmd.meta, pass_dir, cwd, read_artifact)
        except (checks.CheckError, ValueError, TypeError, KeyError, IndexError) as exc:
            result["error"] = f"check failed: {exc!r}"
    digests = _tree_digests(os.path.join(cwd, out_dir))
    return {"index": index, "traced": traced, "wall_s": wall, "commands": commands,
            "values": values, "digests": digests,
            "bytes": sum(os.path.getsize(os.path.join(cwd, out_dir, f)) for f in digests),
            "spans_dir": log_dir if traced else None}


def _lutfit_read_artifact():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from lutfit.artifacts import read_artifact

    return read_artifact


def measure_passes(runner: Runner, workload, cwd: str, deadline: float, trace: bool) -> list:
    """Passes until the next one would end past the deadline (at least one
    of each kind); with tracing, untraced and traced passes alternate."""
    passes = []
    last = {}
    while True:
        traced = trace and len(passes) % 2 == 1
        p = run_pass(runner, workload, cwd, len(passes), traced)
        passes.append(p)
        last[traced] = p["wall_s"]
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        if time.monotonic() + last.get(next_traced, p["wall_s"]) > deadline:
            return passes


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(setup_times, startup_times, passes) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, plus sample counts."""
    cmds = [c for p in passes for c in p["commands"]]
    failed = sum(1 for c in cmds if "error" in c)
    values = passes[0]["values"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        # Median over the workload's commands of each command's median across
        # passes: the plain median of all command times falls between clusters
        # of fast and slow commands and jumps with every noisy sample.
        "cmd_p50_s": statistics.median(
            statistics.median(p["commands"][i]["wall_s"] for p in passes)
            for i in range(len(passes[0]["commands"]))),
        "startup_s": statistics.median(startup_times),
        "peak_rss_mb": max(c["maxrss_kb"] for c in cmds) / 1024.0,
        "ok_ratio": (len(cmds) - failed) / len(cmds),
        "fit_mse": geomean([v["fit_mse"] for v in values if "fit_mse" in v]),
        "qa_mse": mean([v["qa_mse"] for v in values if "qa_mse" in v]),
        "wide_mse": mean([v["wide_mse"] for v in values if "wide_mse" in v]),
    }
    counts = {"setup_s": len(setup_times), "wall_s": len(passes), "cmd_p50_s": len(cmds),
              "startup_s": len(startup_times), "peak_rss_mb": len(cmds), "ok_ratio": len(cmds)}
    return metrics, counts


def per_layer(untraced, traced_passes, importtime, work) -> dict:
    """Per-layer metrics from the traced passes' spans, normalised per pass."""
    import numpy as np

    n_names = len(NAMES)
    calls = np.zeros(n_names)
    self_s = np.zeros(n_names)
    counters = {}
    root_s = 0.0
    for p in traced_passes:
        for i in range(len(p["commands"])):
            path = os.path.join(p["spans_dir"], f"spans{i}.npz")
            if not os.path.isfile(path):
                continue
            with np.load(path) as data:
                name_id, parent = data["name_id"], data["parent"]
                duration = data["end"] - data["start"]
                meta = json.loads(str(data["meta"]))
            children = np.zeros_like(duration)
            has_parent = parent >= 0
            np.add.at(children, parent[has_parent], duration[has_parent])
            own = duration - children
            calls += np.bincount(name_id, minlength=n_names)[:n_names]
            self_s += np.bincount(name_id, weights=own, minlength=n_names)[:n_names]
            root_s += float(duration[~has_parent].sum())
            for key, value in meta["counters"].items():
                counters[key] = counters.get(key, 0) + value
    n = max(len(traced_passes), 1)
    metrics = {}
    index = {name: k for k, name in enumerate(NAMES)}
    for name, k in index.items():
        metrics[f"{name}.calls"] = calls[k] / n
        metrics[f"{name}.self_s"] = self_s[k] / n
        metrics[f"{name}.us_per_call"] = self_s[k] / calls[k] * 1e6 if calls[k] else 0.0
    total_self = float(self_s.sum())
    for module, fns in LAYERS.items():
        share = sum(self_s[index[f"{module}.{fn}"]] for fn in fns)
        metrics[f"layer.{module}.share"] = share / total_self if total_self else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    ind_gens = work.get("ind_gens", 0)
    metrics["evolve.evolve.self_us_per_ind_gen"] = ratio(
        self_s[index["evolve.evolve"]] / n * 1e6, ind_gens)
    metrics["nonlin.eval_ref.points_per_call"] = ratio(
        counters.get("nonlin.eval_ref.points", 0), calls[index["nonlin.eval_ref"]])
    metrics["evolve.rounding_mutate.changed_ratio"] = ratio(
        counters.get("evolve.rounding_mutate.changed", 0), calls[index["evolve.rounding_mutate"]])
    metrics["quant.quantize_table.kept_entry_ratio"] = ratio(
        counters.get("quant.quantize_table.entries_kept", 0),
        counters.get("quant.quantize_table.entries_in", 0))
    metrics["artifacts.atomic_write.bytes"] = counters.get("artifacts.atomic_write.bytes", 0) / n
    metrics.update(importtime)
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(
        p["wall_s"] for p in untraced)
    metrics["trace.span_cover_ratio"] = ratio(root_s / n, traced_wall)
    return {k: float(v) for k, v in metrics.items()}


def tail_percentile(samples) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    samples = sorted(samples)
    text = f"p50 {statistics.median(samples):.4f} s"
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            text += f"  p{q} {samples[math.ceil(len(samples) * q / 100) - 1]:.4f} s"
            break
    return text + f"  (n={len(samples)})"


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "self_s": "s", "us_per_call": "us", "self_us_per_ind_gen": "us",
            "points_per_call": "count", "bytes": "B", "import_s": "s"}.get(suffix, "ratio")


def work_size(workload, p) -> dict:
    values = p["values"]
    return {
        "commands": len(workload.commands),
        "ind_gens": sum(v.get("ind_gens", 0) for v in values),
        "datapath_inputs": sum(v.get("datapath_inputs", 0) for v in values),
        "files_written": len(p["digests"]),
        "bytes_written": p["bytes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=500,
                        help="GA generations of fit-stock (500 is stock; smaller for smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lutfit", "cli.py")):
        print(f"error: lutfit sources not found under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + HARD_LIMIT_S)
    env = environment()
    workload = workloads.build(args.workload, args.seed, args.iterations)
    trace = bool(args.trace)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(STATE, "work", f"{run_id}-{os.getpid()}")
    try:
        setup_times, startup_times, input_digests = [], [], []
        for k in range(1 if trace else SETUP_REPEATS):
            directory = os.path.join(workdir, f"setup{k}")
            setup_times.append(setup(runner, workload, args.seed, directory))
            input_digests.append(_tree_digests(os.path.join(directory, "inputs")))
        cwd = os.path.join(workdir, "setup0")
        if trace:
            importtime = probe_importtime(runner, cwd, IMPORTTIME_PROBES)
        else:
            startup_times += probe_startup(runner, cwd, STARTUP_PROBES // 2)
        passes = measure_passes(runner, workload, cwd, time.monotonic() + args.seconds, trace)
        if not trace:
            startup_times += probe_startup(runner, cwd, STARTUP_PROBES - STARTUP_PROBES // 2)
        untraced = [p for p in passes if not p["traced"]]
        traced_passes = [p for p in passes if p["traced"]]
        work = work_size(workload, passes[0])
        if trace:
            metrics = per_layer(untraced, traced_passes, importtime, work)
            counts = {"traced_passes": len(traced_passes), "untraced_passes": len(untraced)}
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, counts = end_to_end(setup_times, startup_times, passes)
            units = END_TO_END_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cmds = [c for p in passes for c in p["commands"]]
    errors = [c["error"] for c in cmds if "error" in c]
    first = passes[0]["digests"]
    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": args.iterations, "env": env,
        "metrics": metrics, "samples": counts, "work_per_pass": work,
        "setup_s": setup_times, "startup_s": startup_times,
        "inputs_identical": all(d == input_digests[0] for d in input_digests),
        "pass_wall_s": [(p["traced"], p["wall_s"]) for p in passes],
        "command_wall_s": [[c["wall_s"] for c in p["commands"]] for p in passes],
        "artifact_sha256": first,
        "artifact_digest": hashlib.sha256(json.dumps(first).encode()).hexdigest(),
        "passes_identical": all(p["digests"] == first for p in passes),
        "errors": errors,
    }
    os.makedirs(os.path.join(STATE, "records"), exist_ok=True)
    record_path = os.path.join(STATE, "records", f"{run_id}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  commands {len(cmds)}")
    print(f"env      nproc {env['nproc']}  cpu {env['cpu']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    print("work/pass " + "  ".join(f"{k} {v}" for k, v in work.items()))
    print(f"artifacts {len(first)} files  sha256-of-list {record['artifact_digest'][:16]}  "
          f"identical across passes {record['passes_identical']}")
    if not trace:
        print(f"fail_ratio {len(errors) / len(cmds):.4f} ({len(errors)} of {len(cmds)} commands)")
        print("command  " + tail_percentile([c["wall_s"] for c in cmds]))
    for name, value in metrics.items():
        extra = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<44} {value:.6g} {units[name]}{extra}")
    for error in errors[:10]:
        print(f"FAILED: {error}")
    print(f"record   {os.path.relpath(record_path, ROOT)}")
    result = {
        "correct": not errors,
        "attempted": len(cmds),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
