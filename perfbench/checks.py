"""Output checks and accuracy figures, computed independently of lutfit.

Everything here is the benchmark's own arithmetic: the reference operators,
the fitness grid, breakpoint quantization, a vectorized int64 datapath
y = k*q + (b >> e) with round-half-up shifts and the wide-range folding.
Only the round trip of a `data` export goes through lutfit's read_artifact,
because the check is about that reader. A failed check raises CheckError;
an output too malformed to parse raises ValueError, TypeError, KeyError or
IndexError, which the caller counts as a failed check too.
"""

import csv
import json
import math
import os
import re

import numpy as np


class CheckError(Exception):
    """A command's output is missing or disagrees with the recomputation."""


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_erf = np.frompyfunc(math.erf, 1, 1)


def ref(kind: str, x: np.ndarray) -> np.ndarray:
    """Exact operator values at x."""
    x = np.asarray(x, dtype=float)
    if kind == "gelu":
        return x * 0.5 * (1.0 + _erf(x * _INV_SQRT2).astype(float))
    if kind == "hswish":
        return x * np.clip(x + 3.0, 0.0, 6.0) / 6.0
    if kind == "exp":
        return np.exp(x)
    if kind == "div":
        return 1.0 / x
    if kind == "rsqrt":
        return 1.0 / np.sqrt(x)
    raise CheckError(f"unknown operator {kind!r}")


def _require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def load_json(path: str) -> dict:
    _require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckError(f"{os.path.basename(path)} does not parse: {exc}") from None


def load_fit(path: str, frac_bits: int = 5) -> dict:
    """A fit artifact, validated: ascending in-range breakpoints and
    slopes/intercepts on the 2^-frac_bits grid."""
    data = load_json(path)
    name = os.path.basename(path)
    try:
        kind = data["function"]["kind"]
        lo, hi = (float(v) for v in data["function"]["search_range"])
        slopes = np.asarray(data["slopes"], dtype=float)
        intercepts = np.asarray(data["intercepts"], dtype=float)
        points = np.asarray(data["breakpoints"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{name}: malformed fit artifact ({exc})") from None
    _require(data.get("artifact_kind") == "fit", f"{name}: not a fit artifact")
    n = slopes.size
    _require(intercepts.size == n and points.size == n - 1, f"{name}: inconsistent sizes")
    _require(bool(np.all(np.diff(points) > 0)), f"{name}: breakpoints not ascending")
    _require(bool(lo < points[0] and points[-1] < hi), f"{name}: breakpoints outside range")
    grid = float(1 << frac_bits)
    for label, values in (("slopes", slopes), ("intercepts", intercepts)):
        _require(bool(np.all(values * grid == np.round(values * grid))),
                 f"{name}: {label} off the 2^-{frac_bits} grid")
    return {"kind": kind, "range": (lo, hi), "slopes": slopes, "intercepts": intercepts,
            "points": points}


def fitness_mse(fit: dict, step: float = 0.01) -> float:
    """MSE on the step-spaced grid over the search range (sum / interval count)."""
    lo, hi = fit["range"]
    count = int(math.floor((hi - lo) / step + 1e-9))
    xs = np.linspace(lo, hi, count + 1)
    idx = np.searchsorted(fit["points"], xs, side="right")
    err = fit["slopes"][idx] * xs + fit["intercepts"][idx] - ref(fit["kind"], xs)
    return float(err @ err) / count


def _round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)


def _collapse(bps_q, slopes, intercepts):
    """Keep the first of equal quantized breakpoints; a run of duplicates
    hands its region to the segment right of the whole run."""
    kept = []
    for b in bps_q:
        if not kept or b > kept[-1]:
            kept.append(b)
    segments = [0] + [int(np.searchsorted(bps_q, b, side="right")) for b in kept]
    return (np.asarray(kept, dtype=np.int64), slopes[segments], intercepts[segments])


def quantize(fit: dict, scale_exp, bits: int = 8, frac_bits: int = 5):
    """(breakpoints, slopes, intercepts) as int64 arrays after quantization.

    With a scale exponent, breakpoints become clip(round(p / 2^e)) integers;
    without one (wide-range operators) every field is a saturated bits-wide
    fixed-point mantissa.
    """
    lo_q, hi_q = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    grid = float(1 << frac_bits)
    slopes = _round_half_up(fit["slopes"] * grid)
    intercepts = _round_half_up(fit["intercepts"] * grid)
    if scale_exp is None:
        slopes = np.clip(slopes, lo_q, hi_q)
        intercepts = np.clip(intercepts, lo_q, hi_q)
        bps = np.clip(_round_half_up(fit["points"] * grid), lo_q, hi_q)
    else:
        bps = np.clip(_round_half_up(fit["points"] / math.ldexp(1.0, scale_exp)), lo_q, hi_q)
    return _collapse(bps, slopes, intercepts)


def quant_aware_mse(fit: dict, scale_exp: int, bits: int, input_bits: int,
                    frac_bits: int = 5, param_bits: int = 16) -> tuple[float, int]:
    """Integer-datapath MSE over every q whose S*q lies in the fitted range.

    Returns (mse, number of datapath inputs).
    """
    bps, slopes, intercepts = quantize(fit, scale_exp, bits, frac_bits)
    s = math.ldexp(1.0, scale_exp)
    lo, hi = fit["range"]
    q_min = max(-(1 << (bits - 1)), int(math.ceil(lo / s - 1e-9)))
    q_max = min((1 << (bits - 1)) - 1, int(math.floor(hi / s + 1e-9)))
    _require(q_min <= q_max, f"no inputs at scale 2^{scale_exp}")
    q = np.arange(q_min, q_max + 1, dtype=np.int64)
    idx = np.searchsorted(bps, q, side="right")
    if scale_exp <= 0:
        shifted = intercepts[idx] << -scale_exp
    else:
        shifted = (intercepts[idx] + (1 << (scale_exp - 1))) >> scale_exp
    acc = slopes[idx] * q + shifted
    limit = 1 << (input_bits + param_bits + 8 - 1)
    _require(bool(np.all((acc >= -limit) & (acc < limit))),
             f"accumulator overflow at scale 2^{scale_exp}")
    err = s * (acc / float(1 << frac_bits)) - ref(fit["kind"], s * q.astype(float))
    return float(err @ err) / q.size, int(q.size)


# Multi-range scaling presets of the wide-range operators: the inner range
# and (lo, hi, fold-in exponent) sub-ranges. The output rescale is S' for div
# and sqrt(S') for rsqrt.
PLANS = {
    "div": ((0.5, 4.0), ((4.0, 32.0, -3), (32.0, 256.0, -6), (256.0, math.inf, -6))),
    "rsqrt": ((0.25, 4.0), ((4.0, 64.0, -4), (64.0, 1024.0, -8), (1024.0, math.inf, -12))),
}


def wide_range_mse(fit: dict, bits: int = 8, frac_bits: int = 5,
                   sample_count: int = 1024) -> tuple[float, int]:
    """Pooled MSE through the fixed-point table over the inner range (0.01
    grid) and sample_count points of each finite sub-range, every input
    folded in by its sub-range scale. Returns (mse, number of inputs)."""
    kind = fit["kind"]
    (lo, hi), sub_ranges = PLANS[kind]
    count = int(math.floor((hi - lo) / 0.01 + 1e-9))
    xs = [np.linspace(lo, hi, count + 1)]
    for a, b, _ in sub_ranges:
        if math.isfinite(b):
            xs.append(a + (b - a) * np.arange(sample_count) / sample_count)
    x = np.concatenate(xs)
    scale = np.ones_like(x)
    for a, b, e in sub_ranges:
        scale[(x > hi) & (x >= a) & (x < b)] = math.ldexp(1.0, e)
    rescale = scale if kind == "div" else np.sqrt(scale)
    bps, slopes, intercepts = quantize(fit, None, bits, frac_bits)
    g = math.ldexp(1.0, -frac_bits)
    folded = x * scale
    idx = np.searchsorted(bps * g, folded, side="right")
    err = rescale * (slopes[idx] * g * folded + intercepts[idx] * g) - ref(kind, x)
    return float(err @ err) / x.size, int(x.size)


def stock_accuracy(fit: dict) -> dict:
    """qa_mse (int8 sweep over 2^-6..2^-1) or wide_mse of a table."""
    if fit["kind"] in PLANS:
        return {"wide_mse": wide_range_mse(fit)[0]}
    mses = [quant_aware_mse(fit, e, 8, 8)[0] for e in range(-6, 0)]
    return {"qa_mse": sum(mses) / len(mses)}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)


def check_fit(meta: dict, out_dir: str) -> dict:
    """Per-seed and best artifacts validate; the fitness log has every
    generation. Returns the best table's accuracy and the work done."""
    stem = f"{meta['function']}_{meta['entries']}e"
    seed_fit = load_fit(os.path.join(out_dir, f"{stem}_seed{meta['seed']}.fit.json"))
    best = load_fit(os.path.join(out_dir, f"{stem}_best.fit.json"))
    for fit in (seed_fit, best):
        _require(fit["kind"] == meta["function"], f"{stem}: wrong function {fit['kind']}")
        _require(fit["slopes"].size == meta["entries"], f"{stem}: wrong entry count")
    log_path = os.path.join(out_dir, f"{stem}_fitlog.csv")
    _require(os.path.isfile(log_path), f"missing output {stem}_fitlog.csv")
    with open(log_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) == meta["iterations"] + 2, f"{stem}_fitlog.csv: {len(rows)} rows")
    return {"fit_mse": fitness_mse(best), **stock_accuracy(best),
            "ind_gens": meta["population"] * meta["iterations"]}


def check_eval(meta: dict, table_path: str, out_dir: str) -> dict:
    """The report's MSEs match the benchmark's own datapath: every per-scale
    MSE of a scale-carrying table, or the pooled wide-range MSE."""
    stem = meta["stem"]
    report = load_json(os.path.join(out_dir, f"{stem}_report.json"))
    fit = load_fit(table_path)
    _require(report.get("function") == fit["kind"], f"{stem}: report names another function")
    if fit["kind"] in PLANS:
        got = report.get("mse")
        mse, inputs = wide_range_mse(fit)
        _require(isinstance(got, float) and _close(got, mse),
                 f"{stem}: wide-range mse {got!r}, recomputed {mse!r}")
        return {"fit_mse": fitness_mse(fit), "wide_mse": got, "datapath_inputs": inputs}
    per_scale = report.get("per_scale", {})
    _require(sorted(per_scale, key=int) == [str(e) for e in meta["scales"]],
             f"{stem}: report scales {sorted(per_scale)}")
    csv_path = os.path.join(out_dir, f"{stem}_scales.csv")
    _require(os.path.isfile(csv_path), f"missing output {stem}_scales.csv")
    with open(csv_path, encoding="utf-8", newline="") as fh:
        csv_rows = {row[0]: float(row[1]) for row in list(csv.reader(fh))[1:]}
    inputs = 0
    for e in meta["scales"]:
        mse, n = quant_aware_mse(fit, e, meta["bits"], meta["input_bits"])
        inputs += n
        for source, value in (("report", per_scale[str(e)]), ("csv", csv_rows.get(str(e)))):
            _require(value is not None and _close(value, mse),
                     f"{stem} @2^{e}: {source} mse {value!r}, recomputed {mse!r}")
    average = report.get("average_mse")
    expected = sum(per_scale.values()) / len(per_scale)
    _require(isinstance(average, float) and _close(average, expected),
             f"{stem}: average_mse {average!r} is not the per-scale mean")
    return {"fit_mse": fitness_mse(fit), "qa_mse": average, "datapath_inputs": inputs}


_HEADER_ARRAY = re.compile(r"_(SLOPES|INTERCEPTS|BREAKPOINTS)\[\d+\] = \{([^}]*)\};")


def _signed(value: int, bits: int) -> int:
    return value - (1 << bits) if value >= 1 << (bits - 1) else value


def check_export(meta: dict, out_dir: str, workdir: str, read_artifact):
    """Every export format carries the integer fields the benchmark computes
    from the source table; `data` also round-trips through read_artifact."""
    fit = load_fit(os.path.join(workdir, meta["table"]))
    bps, slopes, intercepts = quantize(fit, meta["scale_exp"])
    want = {"slopes": slopes.tolist(), "intercepts": intercepts.tolist(),
            "breakpoints": bps.tolist()}
    stem, fmt = meta["stem"], meta["format"]
    if fmt == "data":
        path = os.path.join(out_dir, f"{stem}.qtable.json")
        raw = load_json(path)
        try:
            qtable, _ = read_artifact(path)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"{stem}.qtable.json: read_artifact failed ({exc})") from None
        got = {"slopes": list(qtable.slopes_fxp), "intercepts": list(qtable.intercepts_fxp),
               "breakpoints": list(qtable.breakpoints_q)}
        _require(got == {"slopes": raw.get("slopes_fxp"), "intercepts": raw.get("intercepts_fxp"),
                         "breakpoints": raw.get("breakpoints_q")},
                 f"{stem}.qtable.json: read_artifact fields differ from the file")
        _require(qtable.scale is None if meta["scale_exp"] is None
                 else qtable.scale.exponent == meta["scale_exp"],
                 f"{stem}.qtable.json: wrong scale")
    elif fmt == "memh":
        path = os.path.join(out_dir, f"{stem}.memh")
        _require(os.path.isfile(path), f"missing output {stem}.memh")
        with open(path, encoding="utf-8") as fh:
            words = [int(line, 16) for line in fh.read().split("\n")
                     if line and not line.startswith("//")]
        got = {"slopes": [_signed(w >> 24, 16) for w in words],
               "intercepts": [_signed((w >> 8) & 0xFFFF, 16) for w in words],
               "breakpoints": [_signed(w & 0xFF, 8) for w in words][:-1]}
        _require(all(w >> 40 == 0 for w in words), f"{stem}.memh: word wider than 40 bits")
        _require(not words or words[-1] & 0xFF == 0, f"{stem}.memh: last breakpoint not zero")
    else:
        path = os.path.join(out_dir, f"{stem}.h")
        _require(os.path.isfile(path), f"missing output {stem}.h")
        with open(path, encoding="utf-8") as fh:
            arrays = {m.group(1).lower(): [int(v) for v in m.group(2).split(",") if v.strip()]
                      for m in _HEADER_ARRAY.finditer(fh.read())}
        got = {k: arrays.get(k) for k in want}
    _require(got == want, f"{os.path.basename(path)}: fields {got} != expected {want}")
