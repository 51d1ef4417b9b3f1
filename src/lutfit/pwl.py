"""Real-valued piecewise-linear tables: construction, evaluation and fitness.

An N-entry table has N-1 breakpoints. Segment selection for input x:
index = number of breakpoints <= x, so inputs left of the first breakpoint
use segment 0 and inputs at or right of the last use segment N-1. The two
boundary segments extrapolate linearly outside the fitting range.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from ._fields import FieldError
from ._lazy import lazy_import
from .fxp import fxp_round
from .nonlin import NonLinSpec, eval_ref

np = lazy_import("numpy")

# Fitness grid step, and the minimum spacing kept between breakpoints
# (and between a breakpoint and a range endpoint) so segment slopes stay
# well defined after mutation.
FITNESS_STEP = 0.01
MIN_GAP = 2 * FITNESS_STEP


class GapError(ValueError):
    """Breakpoints too close together (or too close to the range ends)."""


@dataclass(frozen=True)
class BreakpointSet:
    """Strictly ascending breakpoints inside a search range (the breakpoints
    field of a table's JSON form)."""

    points: tuple[float, ...]
    search_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.search_range
        pts = self.points
        if not pts:
            raise FieldError("breakpoints", "at least one breakpoint required")
        if any(map(operator.ge, pts, pts[1:])):
            raise FieldError("breakpoints", f"breakpoints must be strictly ascending: {pts}")
        if pts[0] < lo or pts[-1] > hi:
            raise FieldError("breakpoints", f"breakpoints {pts} outside range ({lo}, {hi})")

    def __len__(self) -> int:
        return len(self.points)


def repair_points(values, search_range: tuple[float, float]) -> tuple[float, ...]:
    """Sort values and enforce the minimum spacing MIN_GAP inside the range.

    Points are clipped MIN_GAP inside the range ends (the ends act as
    virtual interpolation nodes), then pushed apart left-to-right with a
    right-to-left fixup if the last point overflows. Plain float arithmetic:
    the inputs are a handful of points, where numpy's per-call overhead
    would dominate.
    """
    lo, hi = search_range
    n = len(values)
    if hi - lo < (n + 1) * MIN_GAP:
        raise GapError(f"range ({lo}, {hi}) cannot hold {n} points at gap {MIN_GAP}")
    floor, ceil = lo + MIN_GAP, hi - MIN_GAP
    # np.clip's order, as comparisons: builtin min/max calls cost twice as much
    pts = [floor if v < floor else v for v in sorted(map(float, values))]
    pts = [ceil if v > ceil else v for v in pts]
    for k in range(1, n):
        if pts[k] < pts[k - 1] + MIN_GAP:
            pts[k] = pts[k - 1] + MIN_GAP
    if pts[-1] > ceil:
        pts[-1] = ceil
        for k in range(n - 2, -1, -1):
            if pts[k] > pts[k + 1] - MIN_GAP:
                pts[k] = pts[k + 1] - MIN_GAP
            else:
                break
    return tuple(pts)


def repaired_breakpoints(values, search_range) -> BreakpointSet:
    return BreakpointSet(points=repair_points(values, search_range), search_range=search_range)


@dataclass(frozen=True)
class PwlTable:
    """Slopes/intercepts of an N-entry pwl plus its N-1 breakpoints."""

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    breakpoints: BreakpointSet
    spec: NonLinSpec

    def __post_init__(self):
        n = len(self.slopes)
        if len(self.intercepts) != n or len(self.breakpoints) != n - 1:
            raise FieldError(
                "intercepts" if len(self.intercepts) != n else "breakpoints",
                f"inconsistent table: {n} slopes, {len(self.intercepts)} intercepts, "
                f"{len(self.breakpoints)} breakpoints"
            )

    @property
    def entries(self) -> int:
        return len(self.slopes)


def reference_values(spec: NonLinSpec, x: np.ndarray, ref=None) -> np.ndarray:
    """The operator's exact values at x, or ref's when a stub target is given."""
    return eval_ref(spec, x) if ref is None else np.asarray(ref(x), dtype=float)


def segment_params(nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of the pwl interpolating values at ascending nodes."""
    slopes = np.diff(values) / np.diff(nodes)
    intercepts = values[:-1] - slopes * nodes[:-1]
    return slopes, intercepts


def eval_segments(points: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray, x):
    """slope*x + intercept of the segment each x selects (ndarray table fields).

    The segment index is the number of points <= x, so the boundary
    segments extrapolate outside the first and last point.
    """
    idx = np.searchsorted(points, x, side="right")
    return slopes[idx] * x + intercepts[idx]


def derive_table(spec: NonLinSpec, bps: BreakpointSet, ref=None) -> PwlTable:
    """Table whose segments interpolate the reference exactly at the breakpoints.

    The boundary segments interpolate through the range endpoints, which act
    as virtual breakpoints, so the table is continuous on the whole range.
    ref overrides the reference function (used by tests with stub targets).
    """
    lo, hi = spec.search_range
    if bps.search_range != spec.search_range:
        raise ValueError(
            f"breakpoint range {bps.search_range} does not match spec range {spec.search_range}"
        )
    nodes = np.empty(len(bps) + 2)
    nodes[0] = lo
    nodes[1:-1] = bps.points
    nodes[-1] = hi
    gaps = np.diff(nodes)
    if gaps.min() < MIN_GAP - 1e-12:
        raise GapError(f"segment narrower than {MIN_GAP}: gaps {gaps.tolist()}")
    slopes, intercepts = segment_params(nodes, reference_values(spec, nodes, ref))
    return PwlTable(
        slopes=tuple(slopes.tolist()),
        intercepts=tuple(intercepts.tolist()),
        breakpoints=bps,
        spec=spec,
    )


def eval_pwl(table: PwlTable, x):
    """Evaluate the table at x (scalar or ndarray); tails extrapolate."""
    y = eval_segments(
        np.asarray(table.breakpoints.points), np.asarray(table.slopes),
        np.asarray(table.intercepts), x,
    )
    return float(y) if np.isscalar(x) else y


def fitness_grid(search_range: tuple[float, float], step: float) -> tuple[np.ndarray, int]:
    """Evaluation grid from lo to hi inclusive; returns (points, interval count)."""
    lo, hi = search_range
    count = int(math.floor((hi - lo) / step + 1e-9))
    return np.linspace(lo, hi, count + 1), count


class FitnessScorer:
    """Fitness-grid MSE against one operator; caches the grid and its reference values.

    ref overrides the reference function (used by tests with stub targets).
    """

    def __init__(self, spec: NonLinSpec, ref=None):
        self.spec = spec
        self.ref = ref
        self.lo, self.hi = spec.search_range
        self.xs, self.count = fitness_grid(spec.search_range, FITNESS_STEP)
        self.fx = reference_values(spec, self.xs, ref)

    def table_mse(self, points: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray) -> float:
        err = eval_segments(points, slopes, intercepts, self.xs) - self.fx
        return float(err @ err) / self.count

    def __call__(self, points) -> float:
        """MSE of the table interpolating the reference at points and the range ends."""
        nodes = np.empty(len(points) + 2)
        nodes[0] = self.lo
        nodes[1:-1] = points
        nodes[-1] = self.hi
        slopes, intercepts = segment_params(nodes, reference_values(self.spec, nodes, self.ref))
        return self.table_mse(nodes[1:-1], slopes, intercepts)


# Shared scorers: the grid and its reference values are built once per
# (spec, ref).
fitness_scorer = functools.lru_cache(maxsize=32)(FitnessScorer)


def fitness_mse(table: PwlTable, ref=None) -> float:
    """Mean squared error of the table on its spec's FITNESS_STEP grid.

    The sum of squared errors is divided by (hi - lo) / FITNESS_STEP,
    matching the optimizer's running-mean accumulation.
    """
    return fitness_scorer(table.spec, ref).table_mse(
        np.asarray(table.breakpoints.points), np.asarray(table.slopes),
        np.asarray(table.intercepts),
    )


def fxp_round_table(table: PwlTable, frac_bits: int) -> PwlTable:
    """Round slopes and intercepts to frac_bits fractional bits; breakpoints stay real.

    Each intercept is recomputed against its rounded slope, anchored at the
    segment midpoint, before its own rounding. Rounding both independently
    would shift every segment by the slope error times the full input
    magnitude, which dominates all other error sources away from zero; the
    midpoint anchor is the least-squares-optimal compensation.
    """
    lo, hi = table.spec.search_range
    nodes = (lo,) + table.breakpoints.points + (hi,)
    slopes_q = []
    intercepts_q = []
    for i, (k, b) in enumerate(zip(table.slopes, table.intercepts)):
        mid = 0.5 * (nodes[i] + nodes[i + 1])
        kq = fxp_round(k, frac_bits)
        slopes_q.append(kq)
        intercepts_q.append(fxp_round(b + (k - kq) * mid, frac_bits))
    return PwlTable(
        slopes=tuple(slopes_q),
        intercepts=tuple(intercepts_q),
        breakpoints=table.breakpoints,
        spec=table.spec,
    )
