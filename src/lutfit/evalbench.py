"""Accuracy evaluation of fitted tables under quantization.

Scale-carrying operators are scored on the dequantized input grid: for a
scale S the inputs are x = S*q for every representable q whose dequantized
value lies in the operator's fitted range, and the integer-datapath output
S * int_pwl(q) is compared against the exact function. Wide-range operators
are scored across the inner range and every finite sub-range of their
multi-range scaling plan, through the fixed-point table.
"""

import math
from dataclasses import dataclass

from ._lazy import lazy_import
from .fxp import DatapathConfig, int_bounds
from .intsim import int_pwl
from .nonlin import NonLinSpec, eval_ref
from .pwl import PwlTable, fitness_grid
from .quant import (
    PowTwoScale,
    RangeScalingPlan,
    dequantize,
    eval_qpwl_real,
    fxp_quantize_table,
    quantize_table,
    select_subrange,
)

np = lazy_import("numpy")


@dataclass(frozen=True)
class ScaleSweepReport:
    """Per-scale and averaged quantization-aware MSE of one table."""

    per_scale: tuple[tuple[int, float], ...]

    @property
    def average_mse(self) -> float:
        return sum(m for _, m in self.per_scale) / len(self.per_scale)


# Default evaluation sweep. Scales coarser than 2^-1 quantize breakpoints
# onto grids no rounding-mutation setting trains against (and a 16-entry
# table cannot even hold 15 distinct integer breakpoints), so the sweep
# tops out at 2^-1; pass explicit exponents to go beyond.
DEFAULT_SCALE_EXPONENTS = tuple(range(-6, 0))


def eval_range_q(spec: NonLinSpec, scale: PowTwoScale, bits: int) -> tuple[int, int]:
    """Inclusive bounds of the signed bits-wide q whose dequantized values
    fall in the fitted range."""
    lo, hi = spec.search_range
    s = scale.value
    q_lo, q_hi = int_bounds(bits)
    # clamped before rounding, so an end past the float range clamps too
    q_min = math.ceil(max(lo / s - 1e-9, q_lo))
    q_max = math.floor(min(hi / s + 1e-9, q_hi))
    if q_min > q_max:
        raise ValueError(
            f"no representable inputs in range {spec.search_range} at scale 2^{scale.exponent}"
        )
    return q_min, q_max


def quant_aware_mse(table: PwlTable, scale: PowTwoScale, datapath: DatapathConfig) -> float:
    """MSE of the integer datapath on the dequantized grid at one scale.

    Inputs are x = S*q for every datapath.input_bits-wide q whose
    dequantized value lies in the fitted range, run through the datapath in
    one call; the error is S * int_pwl(q) - f(x), with the range and f of
    table.spec.
    """
    spec = table.spec
    if not spec.scale_carrying:
        raise ValueError(f"{spec.kind.value} is wide-range; use wide_range_mse")
    qtable = quantize_table(table, scale, datapath)
    q_min, q_max = eval_range_q(spec, scale, datapath.input_bits)
    q = np.arange(q_min, q_max + 1)
    err = scale.value * int_pwl(q, qtable, datapath) - eval_ref(spec, dequantize(q, scale))
    return float(err @ err) / q.size


def sweep_scales(
    table: PwlTable,
    exponents=DEFAULT_SCALE_EXPONENTS,
    datapath: DatapathConfig = DatapathConfig(),
) -> ScaleSweepReport:
    """quant_aware_mse across a list of scale exponents plus their average."""
    exponents = tuple(exponents)
    if not exponents:
        raise ValueError("at least one exponent required")
    return ScaleSweepReport(
        tuple((e, quant_aware_mse(table, PowTwoScale(e), datapath)) for e in exponents)
    )


def wide_range_mse(
    table: PwlTable,
    plan: RangeScalingPlan,
    datapath: DatapathConfig = DatapathConfig(),
) -> float:
    """Pooled MSE of a wide-range operator through its fixed-point table.

    Every input is folded into the plan's inner range, which must lie
    inside the search range the table was fitted on.

    The table is rounded to datapath.frac_bits fixed point by
    fxp_quantize_table. Samples the inner range at the fitness-grid step
    and each finite sub-range at 1024 uniform points; every sample
    is folded in by select_subrange, evaluated on the fixed-point table,
    rescaled and compared with the reference of table.spec.
    """
    spec = table.spec
    if spec.scale_carrying:
        raise ValueError(f"{spec.kind.value} is scale-carrying; use sweep_scales")
    (lo, hi), (inner_lo, inner_hi) = spec.search_range, plan.inner_range
    if inner_lo < lo or inner_hi > hi:
        raise ValueError(f"invalid field plan: inner range {list(plan.inner_range)} is not "
                         f"inside the table's search_range {list(spec.search_range)}")
    qtable = fxp_quantize_table(table, datapath)
    xs = [fitness_grid(plan.inner_range)[0]]
    for sr in plan.sub_ranges:
        if math.isfinite(sr.hi):
            xs.append(sr.lo + (sr.hi - sr.lo) * np.arange(1024) / 1024)
    samples = np.concatenate(xs)
    exponents, rescales = select_subrange(samples, plan)
    folded = samples * np.ldexp(1.0, exponents)
    err = rescales * eval_qpwl_real(qtable, folded) - eval_ref(spec, samples)
    return float(err @ err) / samples.size
