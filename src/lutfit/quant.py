"""Quantization of fitted tables for integer-only LUT datapaths.

Scale-carrying operators (gelu/hswish/exp) receive inputs as S*q with a
power-of-two S: their breakpoints are quantized to integers against S while
slopes and intercepts keep their fixed-point form (the intercept shift by
the scale exponent happens at runtime in the datapath).

Wide-range operators (div/rsqrt) receive fixed-point intermediates instead,
so all table fields are rounded to a fixed-point format, and inputs beyond
the fitted range are folded back into it by per-sub-range power-of-two
scales with an output rescale of S' (div) or sqrt(S') (rsqrt).
"""

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass

from ._fields import FieldError
from ._lazy import lazy_import
from .fxp import DatapathConfig, fits, int_bounds, round_half_up, saturate, to_mantissa
from .nonlin import DomainError, Kind, NonLinSpec
from .pwl import PwlTable, eval_segments

np = lazy_import("numpy")

logger = logging.getLogger(__name__)

# Scale exponents for which 2^e is an exact normal double.
MIN_SCALE_EXP, MAX_SCALE_EXP = -1022, 1023


@dataclass(frozen=True)
class PowTwoScale:
    """Scaling factor S = 2^exponent."""

    exponent: int

    def __post_init__(self):
        if not MIN_SCALE_EXP <= self.exponent <= MAX_SCALE_EXP:
            raise ValueError(
                f"scale exponent {self.exponent} outside {MIN_SCALE_EXP}..{MAX_SCALE_EXP}, "
                f"where 2^e is a normal double"
            )

    @property
    def value(self) -> float:
        return math.ldexp(1.0, self.exponent)


def quantize(x: float, scale: PowTwoScale, bits: int) -> int:
    """x -> round(x / S), rounding half up, saturated to a signed bits-wide integer."""
    lo, hi = int_bounds(bits)
    # clamped before rounding, so a quotient past the float range saturates too
    return round_half_up(min(max(x / scale.value, lo), hi))


def dequantize(q, scale: PowTwoScale):
    """q -> q * S, exact (both factors dyadic)."""
    if isinstance(q, (int, float)):
        return math.ldexp(q, scale.exponent)
    return np.asarray(q, dtype=float) * scale.value


@dataclass(frozen=True)
class QPwlTable:
    """Quantized table ready for the integer datapath or export.

    slopes_fxp / intercepts_fxp are integer mantissas at frac_bits
    fractional bits. breakpoints_q are plain integers compared against q for
    scale-carrying operators, or frac_bits mantissas for wide-range ones;
    scale is None exactly when the operator is wide-range. source_segments maps each stored entry
    back to its segment index in the originating real-valued table; entries
    whose quantized breakpoints collided are dropped (keep-first).
    """

    slopes_fxp: tuple[int, ...]
    intercepts_fxp: tuple[int, ...]
    breakpoints_q: tuple[int, ...]
    frac_bits: int
    spec: NonLinSpec
    scale: PowTwoScale | None = None
    source_segments: tuple[int, ...] = ()
    saturated: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.slopes_fxp)
        if len(self.intercepts_fxp) != n or len(self.breakpoints_q) != n - 1:
            raise FieldError(
                "intercepts_fxp" if len(self.intercepts_fxp) != n else "breakpoints_q",
                f"inconsistent table: {n} slopes, {len(self.intercepts_fxp)} intercepts, "
                f"{len(self.breakpoints_q)} breakpoints",
            )
        if any(b <= a for a, b in zip(self.breakpoints_q, self.breakpoints_q[1:])):
            raise FieldError(
                "breakpoints_q",
                f"quantized breakpoints not strictly ascending: {self.breakpoints_q}",
            )
        if self.source_segments and len(self.source_segments) != n:
            raise FieldError("source_segments", "source_segments must map every stored entry")
        if (self.scale is None) == self.spec.scale_carrying:
            need = "needs a scale" if self.spec.scale_carrying else "takes no scale"
            raise FieldError("scale_exponent", f"a {self.spec.kind.value} table {need}")

    @property
    def entries(self) -> int:
        return len(self.slopes_fxp)

    @property
    def dropped_segments(self) -> tuple[int, ...]:
        if not self.source_segments:
            return ()
        kept = set(self.source_segments)
        total = max(self.source_segments) + 1
        return tuple(i for i in range(total) if i not in kept)

    @property
    def slopes_real(self) -> tuple[float, ...]:
        s = math.ldexp(1.0, -self.frac_bits)
        return tuple(v * s for v in self.slopes_fxp)

    @property
    def intercepts_real(self) -> tuple[float, ...]:
        s = math.ldexp(1.0, -self.frac_bits)
        return tuple(v * s for v in self.intercepts_fxp)

    @property
    def breakpoints_real(self) -> tuple[float, ...]:
        """Breakpoint positions in the input domain of the original function."""
        if self.scale is not None:
            return tuple(dequantize(p, self.scale) for p in self.breakpoints_q)
        s = math.ldexp(1.0, -self.frac_bits)
        return tuple(v * s for v in self.breakpoints_q)


def _collapse(bps_q, slopes, intercepts, context: str):
    """Drop segments whose quantized breakpoints collide (keep first value).

    A run of m equal breakpoints leaves the m-1 segments between them
    unreachable: the region at or above the shared value belongs to the
    segment right of the whole run, so the kept entry list maps each region
    past every duplicate.
    """
    kept_b = []
    for b in bps_q:
        if not kept_b or b > kept_b[-1]:
            kept_b.append(b)
    kept_segments = [0] + [bisect_right(bps_q, b) for b in kept_b]
    dropped = sorted(set(range(len(slopes))) - set(kept_segments))
    if dropped:
        logger.warning("%s: collapsed %d duplicate quantized breakpoints (segments %s dropped)",
                       context, len(dropped), dropped)
    return (
        tuple(kept_b),
        tuple(slopes[i] for i in kept_segments),
        tuple(intercepts[i] for i in kept_segments),
        tuple(kept_segments),
    )


def _mantissas(values, frac_bits: int, field: str) -> list[int]:
    """to_mantissa of each value; one past the float range at frac_bits
    fractional bits is a ValueError naming field[i]."""
    scale = math.ldexp(1.0, frac_bits)
    for i, v in enumerate(values):
        if not math.isfinite(v * scale):
            raise ValueError(
                f"table field {field}[{i}] = {v!r} overflows at {frac_bits} fractional bits"
            )
    return [to_mantissa(v, frac_bits) for v in values]


def quantize_table(
    table: PwlTable, scale: PowTwoScale, datapath: DatapathConfig = DatapathConfig()
) -> QPwlTable:
    """Quantize a scale-carrying table's breakpoints against S.

    Breakpoints become quantize(p, S, datapath.input_bits) integers; slopes
    and intercepts are stored as datapath.frac_bits mantissas unchanged (the
    runtime shifter applies the intercept's division by S). Colliding
    breakpoints are collapsed with a warning, shrinking the effective entry
    count.
    """
    if not table.spec.scale_carrying:
        raise ValueError(f"{table.spec.kind.value} is wide-range; use fxp_quantize_table")
    frac_bits = datapath.frac_bits
    bps_q = [quantize(p, scale, datapath.input_bits) for p in table.breakpoints.points]
    slopes = _mantissas(table.slopes, frac_bits, "slopes")
    intercepts = _mantissas(table.intercepts, frac_bits, "intercepts")
    bps_kept, slopes_kept, intercepts_kept, segments = _collapse(
        bps_q, slopes, intercepts, f"{table.spec.kind.value}@2^{scale.exponent}"
    )
    return QPwlTable(
        slopes_fxp=slopes_kept,
        intercepts_fxp=intercepts_kept,
        breakpoints_q=bps_kept,
        frac_bits=frac_bits,
        spec=table.spec,
        scale=scale,
        source_segments=segments,
    )


def fxp_quantize_table(table: PwlTable, datapath: DatapathConfig = DatapathConfig()) -> QPwlTable:
    """Round a wide-range table's fields to datapath.frac_bits fixed point:
    slopes and intercepts datapath.param_bits wide, breakpoints
    datapath.input_bits.

    Values outside the representable range saturate; every saturation is
    recorded in the result.
    """
    if table.spec.scale_carrying:
        raise ValueError(f"{table.spec.kind.value} is scale-carrying; use quantize_table")
    frac_bits, bits = datapath.frac_bits, datapath.input_bits
    saturated = []

    def convert(values, label, width):
        out = []
        for i, m in enumerate(_mantissas(values, frac_bits, f"{label}s")):
            clamped = saturate(m, width)
            if clamped != m:
                saturated.append(f"{label}[{i}]")
            out.append(clamped)
        return out

    slopes = convert(table.slopes, "slope", datapath.param_bits)
    intercepts = convert(table.intercepts, "intercept", datapath.param_bits)
    bps = convert(table.breakpoints.points, "breakpoint", bits)
    if saturated:
        logger.warning("%s: saturated fields %s at %d-bit parameters, %d-bit breakpoints",
                       table.spec.kind.value, saturated, datapath.param_bits, bits)
    bps_kept, slopes_kept, intercepts_kept, segments = _collapse(
        bps, slopes, intercepts, f"{table.spec.kind.value}@fxp{bits}.{frac_bits}"
    )
    return QPwlTable(
        slopes_fxp=slopes_kept,
        intercepts_fxp=intercepts_kept,
        breakpoints_q=bps_kept,
        frac_bits=frac_bits,
        spec=table.spec,
        scale=None,
        source_segments=segments,
        saturated=tuple(saturated),
    )


def check_format(qtable: QPwlTable, datapath: DatapathConfig):
    """Reject a table the datapath cannot hold: its lambda must be
    datapath.frac_bits, its slopes and intercepts must fit
    datapath.param_bits and its breakpoints datapath.input_bits."""
    if qtable.frac_bits != datapath.frac_bits:
        raise ValueError(
            f"table frac_bits {qtable.frac_bits} does not match datapath.frac_bits "
            f"{datapath.frac_bits}"
        )
    for label, values, field in (
        ("slope", qtable.slopes_fxp, "param_bits"),
        ("intercept", qtable.intercepts_fxp, "param_bits"),
        ("breakpoint", qtable.breakpoints_q, "input_bits"),
    ):
        bits = getattr(datapath, field)
        for v in values:
            if not fits(v, bits):
                raise ValueError(f"{label} {v} does not fit datapath.{field} {bits}")


def eval_qpwl_real(qtable: QPwlTable, x):
    """Real-domain evaluation of a quantized table (dequantized parameters).

    Segment selection uses the dequantized breakpoint positions; the output
    is slope*x + intercept with the stored fixed-point parameter values.
    """
    y = eval_segments(
        np.asarray(qtable.breakpoints_real), np.asarray(qtable.slopes_real),
        np.asarray(qtable.intercepts_real), x,
    )
    return float(y) if np.isscalar(x) else y


def segment_index(q, table: QPwlTable):
    """Table entry selected for quantized input q (an int or integer array).

    The index is the number of stored breakpoints <= q, found by pure
    integer compares, so q at or above the last breakpoint selects the last
    entry.
    """
    idx = np.searchsorted(np.asarray(table.breakpoints_q, dtype=np.int64), q, side="right")
    return int(idx) if np.isscalar(q) else idx


@dataclass(frozen=True)
class SubRange:
    """[lo, hi) slice of the wide input domain with its fold-in scale."""

    lo: float
    hi: float
    scale: PowTwoScale


@dataclass(frozen=True)
class RangeScalingPlan:
    """Multi-range input scaling setup for a wide-range operator.

    Sub-ranges tile [inner hi, +inf); inputs inside the inner range pass
    through unscaled. The final sub-range is open-ended: its scaled inputs
    may exceed the fitted range and clamp into the last table segment. An
    rsqrt plan's exponents are even, so its output rescale is a shift.
    """

    inner_range: tuple[float, float]
    sub_ranges: tuple[SubRange, ...]
    op_kind: Kind

    def __post_init__(self):
        if self.op_kind not in (Kind.DIV, Kind.RSQRT):
            raise ValueError(f"plan only applies to div/rsqrt, got {self.op_kind.value}")
        lo, hi = self.inner_range
        if lo <= 0:
            raise ValueError(f"inner range must be positive, got {self.inner_range}")
        if not self.sub_ranges:
            raise ValueError("at least one sub-range required")
        prev_hi = hi
        for i, sr in enumerate(self.sub_ranges):
            if self.op_kind is Kind.RSQRT and sr.scale.exponent % 2:
                raise FieldError(
                    f"sub_ranges[{i}].exponent",
                    f"rsqrt rescales by 2^(e/2), a shift only for an even e, got {sr.scale.exponent}",
                )
            if sr.lo != prev_hi:
                raise ValueError(
                    f"sub-ranges must tile contiguously from {hi}: got lo={sr.lo}, expected {prev_hi}"
                )
            if not sr.hi > sr.lo:
                raise ValueError(f"empty sub-range [{sr.lo}, {sr.hi})")
            prev_hi = sr.hi
            if math.isfinite(sr.hi):
                s = sr.scale.value
                if sr.lo * s < lo - 1e-12 or sr.hi * s > hi + 1e-12:
                    raise ValueError(
                        f"sub-range [{sr.lo}, {sr.hi}) * 2^{sr.scale.exponent} "
                        f"does not map into {self.inner_range}"
                    )
        if not math.isinf(self.sub_ranges[-1].hi):
            raise ValueError("last sub-range must extend to +inf")


def select_subrange(x, plan: RangeScalingPlan):
    """Fold-in exponent and output rescale factor for input x.

    Inside the inner range: exponent 0, rescale 1. Otherwise the exponent of
    the containing sub-range's scale S' and the rescale S' (div) or sqrt(S')
    (rsqrt); the caller computes rescale * pwl(x * S'). A float x gives an
    int and a float, an array gives an int array and a float array, element
    by element.
    """
    xs = np.asarray(x, dtype=float)
    lo, hi = plan.inner_range
    for bad, message in (
        (~(xs > 0), f"{plan.op_kind.value} input must be positive, got {{}}"),
        (xs < lo, f"input {{}} below inner range [{lo}, {hi}]"),
        (xs == math.inf, "input {} not covered by plan"),
    ):
        if bad.any():
            raise DomainError(message.format(xs[bad].flat[0]))
    # Sub-range k covers [lo_k, lo_{k+1}); x == hi stays in the inner range.
    k = np.searchsorted([sr.lo for sr in plan.sub_ranges], xs, side="right")
    exponents = np.array([0] + [sr.scale.exponent for sr in plan.sub_ranges])
    exponents = exponents[np.where(xs <= hi, 0, k)]
    rescales = np.ldexp(1.0, exponents)
    if plan.op_kind is Kind.RSQRT:
        rescales = np.sqrt(rescales)
    if xs.ndim == 0:
        return int(exponents), float(rescales)
    return exponents, rescales


_PLANS: dict[str, RangeScalingPlan] = {
    "div-int8": RangeScalingPlan(
        inner_range=(0.5, 4.0),
        sub_ranges=(
            SubRange(4.0, 32.0, PowTwoScale(-3)),
            SubRange(32.0, 256.0, PowTwoScale(-6)),
            SubRange(256.0, math.inf, PowTwoScale(-6)),
        ),
        op_kind=Kind.DIV,
    ),
    "rsqrt-int8": RangeScalingPlan(
        inner_range=(0.25, 4.0),
        sub_ranges=(
            SubRange(4.0, 64.0, PowTwoScale(-4)),
            SubRange(64.0, 1024.0, PowTwoScale(-8)),
            SubRange(1024.0, math.inf, PowTwoScale(-12)),
        ),
        op_kind=Kind.RSQRT,
    ),
}


def get_plan(name: str) -> RangeScalingPlan:
    """Built-in multi-range scaling preset by name."""
    try:
        return _PLANS[name]
    except KeyError:
        raise KeyError(f"unknown plan {name!r}; available: {sorted(_PLANS)}") from None
