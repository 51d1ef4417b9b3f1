"""Reference computations the tests compare the tool against: an exhaustive
breakpoint-enumeration oracle, a lower bound for the genetic search, and the
breakpoint deviation of a quantized table, the inputs whose integer segment
is not the segment the real table selects."""

import math
from itertools import combinations

import numpy as np

from lutfit.fxp import int_bounds
from lutfit.nonlin import NonLinSpec
from lutfit.pwl import (
    MIN_GAP,
    BreakpointSet,
    PwlTable,
    derive_table,
    fitness_grid,
    fitness_scorer,
)
from lutfit.quant import QPwlTable, segment_index


def brute_force_oracle(
    spec: NonLinSpec,
    n_breakpoints: int,
    grid_step: float,
    ref=None,
    budget: int = 100_000,
) -> PwlTable:
    """Exhaustively optimal table over grid-restricted breakpoint tuples.

    Enumerates every ascending n_breakpoints-tuple on the grid_step lattice
    spanning the search range (endpoints included in the candidate count;
    tuples violating the minimum spacing are skipped) and returns the table
    with minimal fitness_mse, first-found on ties. Refuses combinatorial
    budgets above `budget`.
    """
    if n_breakpoints > 2:
        raise ValueError(f"oracle supports n_breakpoints <= 2, got {n_breakpoints}")
    lo, hi = spec.search_range
    grid, _ = fitness_grid(spec.search_range, grid_step)
    n_combos = math.comb(grid.size, n_breakpoints)
    if n_combos > budget:
        raise ValueError(f"{n_combos} candidate tuples exceed the budget of {budget}")

    scorer = fitness_scorer(spec, ref)
    best_mse = math.inf
    best_pts = None
    for pts in combinations(grid.tolist(), n_breakpoints):
        nodes = (lo, *pts, hi)
        if min(b - a for a, b in zip(nodes, nodes[1:])) < MIN_GAP - 1e-12:
            continue
        mse = scorer(pts)
        if mse < best_mse:
            best_mse = mse
            best_pts = pts
    if best_pts is None:
        raise ValueError("no valid breakpoint tuple on the grid")
    bps = BreakpointSet(points=tuple(best_pts), search_range=spec.search_range)
    return derive_table(spec, bps, ref=ref)


def breakpoint_deviation(table: PwlTable, qtable: QPwlTable, bits: int) -> tuple[int, ...]:
    """Quantized inputs whose integer segment differs from the float choice.

    For each signed bits-wide q the segment implied by the quantized
    breakpoints (mapped back to original segment numbering) is compared with
    the segment the real table selects at S*q. The returned q values are the
    measurable form of breakpoint deviation under scale S.
    """
    if qtable.scale is None:
        raise ValueError("deviation analysis requires a scale-carrying table")
    s = qtable.scale.value
    fpts = np.asarray(table.breakpoints.points)
    segments = np.asarray(qtable.source_segments or tuple(range(qtable.entries)))
    q_lo, q_hi = int_bounds(bits)
    q_values = np.arange(q_lo, q_hi + 1)
    int_idx = segment_index(q_values, qtable)
    float_idx = np.searchsorted(fpts, s * q_values, side="right")
    deviated = q_values[segments[int_idx] != float_idx]
    return tuple(int(q) for q in deviated)
