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

from ._fields import FieldError, frozen
from ._lazy import lazy_import
from .fxp import fxp_round
from .nonlin import NonLinSpec, eval_ref

np = lazy_import("numpy")

# Fitness grid step, and the minimum spacing kept between breakpoints
# (and between a breakpoint and a range endpoint) so segment slopes stay
# well defined after mutation.
FITNESS_STEP = 0.01
MIN_GAP = 2 * FITNESS_STEP
# How far below MIN_GAP derive_table lets a segment fall: repair_points
# spaces points by x + MIN_GAP, which rounds by up to half an ulp of x.
GAP_TOLERANCE = 1e-12
# The most FITNESS_STEP intervals the config reader lets a range span: each
# scored row lays grid-sized arrays over it, 0.5 MB apiece at the cap.
MAX_GRID_INTERVALS = 2**16


class GapError(ValueError):
    """Breakpoints too close together (or too close to the range ends)."""


@frozen
class BreakpointSet:
    """One GA individual: the strictly ascending points repair_points returns."""

    points: tuple[float, ...]

    def __init__(self, points: tuple[float, ...]):
        # by hand: a stock fit builds tens of thousands of sets, and frozen's
        # general constructor costs several times this one
        object.__setattr__(self, "points", points)


def _narrow_range(lo: float, hi: float, n: int) -> GapError:
    return GapError(f"range ({lo}, {hi}) cannot hold {n} points at gap {MIN_GAP}")


def repair_points(values, search_range: tuple[float, float]) -> tuple[float, ...]:
    """Sort values and enforce the minimum spacing MIN_GAP inside the range.

    Points are clipped MIN_GAP inside the range ends (the ends act as
    virtual interpolation nodes), then pushed apart left-to-right with a
    right-to-left fixup if the last point overflows. A range too narrow for
    n points at that spacing is a GapError. Plain float arithmetic:
    the inputs are a handful of points, where numpy's per-call overhead
    would dominate.
    """
    lo, hi = search_range
    n = len(values)
    if hi - lo < (n + 1) * MIN_GAP:
        raise _narrow_range(lo, hi, n)
    floor, ceil = lo + MIN_GAP, hi - MIN_GAP
    # np.clip as comparisons (builtin min/max calls cost twice as much); the
    # range check above keeps floor <= ceil, so one pass gives clip's result
    pts = [floor if v < floor else ceil if v > ceil else v for v in sorted(map(float, values))]
    for k in range(1, n):
        if pts[k] < pts[k - 1] + MIN_GAP:
            pts[k] = pts[k - 1] + MIN_GAP
    if pts[-1] > ceil:
        # Each point the fixup moves becomes the largest float that the pass
        # above leaves in place below its right neighbour (p[k+1] - MIN_GAP
        # can round so that adding MIN_GAP back overshoots), which makes
        # every result a fixed point of the repair.
        pts[-1] = ceil
        for k in range(n - 2, -1, -1):
            right = pts[k + 1]
            if pts[k] + MIN_GAP <= right:
                break
            p = right - MIN_GAP
            while p + MIN_GAP > right:
                p = math.nextafter(p, -math.inf)
            pts[k] = p
        # a range within rounding of (n + 1) * MIN_GAP can push the chain
        # below the floor
        if pts[0] < floor:
            raise _narrow_range(lo, hi, n)
    return tuple(pts)


def repaired_breakpoints(values, search_range) -> BreakpointSet:
    """The BreakpointSet of repair_points(values, search_range)."""
    return BreakpointSet(repair_points(values, search_range))


@frozen
class PwlTable:
    """Slopes/intercepts of an N-entry pwl plus its N-1 breakpoints, which
    are strictly ascending inside the spec's search range."""

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    breakpoints: tuple[float, ...]
    spec: NonLinSpec

    def __post_init__(self):
        lo, hi = self.spec.search_range
        pts = self.breakpoints
        if not pts:
            raise FieldError("breakpoints", "at least one breakpoint required")
        if any(map(operator.ge, pts, pts[1:])):
            raise FieldError("breakpoints", f"breakpoints must be strictly ascending: {pts}")
        if pts[0] < lo or pts[-1] > hi:
            raise FieldError("breakpoints", f"breakpoints {pts} outside range ({lo}, {hi})")
        n = len(self.slopes)
        if len(self.intercepts) != n or len(pts) != n - 1:
            raise FieldError(
                "intercepts" if len(self.intercepts) != n else "breakpoints",
                f"inconsistent table: {n} slopes, {len(self.intercepts)} intercepts, "
                f"{len(pts)} breakpoints"
            )

    @property
    def entries(self) -> int:
        return len(self.slopes)


def segment_params(nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of the pwl interpolating values at ascending nodes
    (along the last axis, so a 2-D call gives one table per row)."""
    slopes = np.diff(values) / np.diff(nodes)
    intercepts = values[..., :-1] - slopes * nodes[..., :-1]
    return slopes, intercepts


def eval_segments(points: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray, x):
    """slope*x + intercept of the segment each x selects (ndarray table fields).

    The segment index is the number of points <= x, so the boundary
    segments extrapolate outside the first and last point.
    """
    idx = np.searchsorted(points, x, side="right")
    return slopes[idx] * x + intercepts[idx]


def derive_table(spec: NonLinSpec, bps: BreakpointSet) -> PwlTable:
    """Table whose segments interpolate the reference exactly at the breakpoints.

    The boundary segments interpolate through the range endpoints, which act
    as virtual breakpoints, so the table is continuous on the whole range.
    """
    lo, hi = spec.search_range
    nodes = np.array((lo, *bps.points, hi), dtype=float)
    gaps = np.diff(nodes)
    if gaps.min() < MIN_GAP - GAP_TOLERANCE:
        raise GapError(f"segment narrower than {MIN_GAP}: gaps {gaps.tolist()}")
    slopes, intercepts = segment_params(nodes, eval_ref(spec, nodes))
    return PwlTable(
        slopes=tuple(slopes.tolist()),
        intercepts=tuple(intercepts.tolist()),
        breakpoints=bps.points,
        spec=spec,
    )


def eval_pwl(table: PwlTable, x):
    """Evaluate the table at x (scalar or ndarray); tails extrapolate."""
    y = eval_segments(
        np.asarray(table.breakpoints), np.asarray(table.slopes),
        np.asarray(table.intercepts), x,
    )
    return float(y) if np.isscalar(x) else y


def fitness_grid(search_range: tuple[float, float]) -> tuple[np.ndarray, int]:
    """FITNESS_STEP grid from lo to hi inclusive; returns (points, interval count)."""
    lo, hi = search_range
    count = int(math.floor((hi - lo) / FITNESS_STEP + 1e-9))
    return np.linspace(lo, hi, count + 1), count


class FitnessScorer:
    """Fitness-grid MSE against one operator; caches the grid and its reference values."""

    def __init__(self, spec: NonLinSpec):
        self.spec = spec
        self.lo, self.hi = spec.search_range
        self.xs, self.count = fitness_grid(spec.search_range)
        self.fx = eval_ref(spec, self.xs)

    def table_mses(self, points: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray) -> list:
        """Grid MSE of each row's table: (m, n) breakpoints, (m, n+1) slopes
        and intercepts.

        Row r's segment s covers the grid points first[r, s] <= g <
        first[r, s+1], where first holds 0, then the index of the first grid
        point at or right of each breakpoint, then the grid size. So
        repeating each segment's slope and intercept by its run length lays
        them along the grid, exactly. Each row's error is summed by its own
        1-D dot product, which fixes the fitness bits.
        """
        shape = len(points), len(self.xs)
        first = np.zeros((shape[0], points.shape[1] + 2), dtype=np.intp)
        first[:, 1:-1] = np.searchsorted(self.xs, points, side="left")
        first[:, -1] = shape[1]
        runs = (first[:, 1:] - first[:, :-1]).ravel()
        # in place, which spares the allocations of three grid-sized temporaries
        err = np.repeat(slopes.ravel(), runs).reshape(shape)
        err *= self.xs
        err += np.repeat(intercepts.ravel(), runs).reshape(shape)
        err -= self.fx
        return [float(e @ e) / self.count for e in err]

    def scores(self, rows) -> list:
        """Fitness of each equal-length breakpoint tuple in rows: the MSE of
        the table interpolating the reference at its points and the range
        ends, with one reference evaluation for all rows."""
        nodes = np.empty((len(rows), len(rows[0]) + 2))
        nodes[:, 0] = self.lo
        nodes[:, 1:-1] = rows
        nodes[:, -1] = self.hi
        slopes, intercepts = segment_params(nodes, eval_ref(self.spec, nodes))
        return self.table_mses(nodes[:, 1:-1], slopes, intercepts)


@functools.lru_cache(maxsize=32)
def fitness_scorer(spec: NonLinSpec) -> FitnessScorer:
    """The shared scorer of spec: its grid and reference values are built once."""
    return FitnessScorer(spec)


def fitness_mse(table: PwlTable) -> float:
    """Mean squared error of the table on its spec's FITNESS_STEP grid.

    The sum of squared errors is divided by (hi - lo) / FITNESS_STEP,
    matching the optimizer's running-mean accumulation.
    """
    return fitness_scorer(table.spec).table_mses(
        np.array([table.breakpoints]), np.array([table.slopes]),
        np.array([table.intercepts]),
    )[0]


def fxp_round_table(table: PwlTable, frac_bits: int) -> PwlTable:
    """Round slopes and intercepts to frac_bits fractional bits; breakpoints stay real.

    Each intercept is recomputed against its rounded slope, anchored at the
    segment midpoint, before its own rounding. Rounding both independently
    would shift every segment by the slope error times the full input
    magnitude, which dominates all other error sources away from zero; the
    midpoint anchor is the least-squares-optimal compensation.
    """
    lo, hi = table.spec.search_range
    nodes = (lo,) + table.breakpoints + (hi,)
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
