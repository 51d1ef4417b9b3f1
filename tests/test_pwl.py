import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutfit.nonlin import Kind, default_spec
from lutfit.pwl import (
    FITNESS_STEP,
    MIN_GAP,
    BreakpointSet,
    GapError,
    PwlTable,
    derive_table,
    eval_pwl,
    fitness_grid,
    fitness_mse,
    fitness_scorer,
    fxp_round_table,
    repair_points,
    repaired_breakpoints,
)

GELU = default_spec(Kind.GELU)
EXP = default_spec(Kind.EXP)

# Frozen two-point-line oracle values for EXP with a single breakpoint at -4.
EXP_K0 = 0.0044950440652079164  # (e^-4 - e^-8) / 4
EXP_B0 = 0.03629581514956584  # e^-8 + 8 * k0


def linear(values):
    return np.asarray(values, dtype=float)


def make_linear_table(spec, points):
    bps = BreakpointSet(points=tuple(points), search_range=spec.search_range)
    return derive_table(spec, bps, ref=linear)


def test_breakpoint_set_validation():
    with pytest.raises(ValueError):
        BreakpointSet(points=(1.0, 1.0), search_range=(-4.0, 4.0))
    with pytest.raises(ValueError):
        BreakpointSet(points=(2.0, 1.0), search_range=(-4.0, 4.0))
    with pytest.raises(ValueError):
        BreakpointSet(points=(-5.0,), search_range=(-4.0, 4.0))
    with pytest.raises(ValueError):
        BreakpointSet(points=(), search_range=(-4.0, 4.0))


def test_repair_sorts_clips_and_spaces():
    out = repair_points([3.99, -7.0, 3.999, 0.5], (-4.0, 4.0))
    assert np.all(np.diff(out) >= MIN_GAP - 1e-12)
    assert out[0] >= -4.0 + MIN_GAP and out[-1] <= 4.0 - MIN_GAP
    assert np.all(np.sort(out) == out)


def test_repair_backward_pass():
    out = repair_points([3.98, 3.98, 3.98], (-4.0, 4.0))
    assert np.all(np.diff(out) >= MIN_GAP - 1e-12)
    assert out[-1] <= 4.0 - MIN_GAP + 1e-12


def test_repair_noop_on_valid_input():
    pts = np.array([-2.0, 0.0, 2.0])
    assert np.array_equal(repair_points(pts, (-4.0, 4.0)), pts)


def test_repair_rejects_overfull_range():
    with pytest.raises(GapError):
        repair_points(np.zeros(500), (-4.0, 4.0))


def test_derive_linear_stub_is_exact():
    table = make_linear_table(GELU, (-2.0, 0.5, 3.0))
    assert table.slopes == (1.0, 1.0, 1.0, 1.0)
    assert all(abs(b) < 1e-15 for b in table.intercepts)


def test_derive_exp_single_breakpoint_oracle():
    bps = BreakpointSet(points=(-4.0,), search_range=EXP.search_range)
    table = derive_table(EXP, bps)
    assert table.entries == 2
    assert table.slopes[0] == pytest.approx(EXP_K0, rel=1e-14)
    assert table.intercepts[0] == pytest.approx(EXP_B0, rel=1e-14)


def test_gelu_default_breakpoint_count_gives_eight_entries():
    bps = repaired_breakpoints(np.linspace(-3, 3, 7), GELU.search_range)
    assert derive_table(GELU, bps).entries == 8


def test_derive_rejects_degenerate_gap():
    bad = BreakpointSet(points=(-7.999,), search_range=EXP.search_range)
    with pytest.raises(GapError):
        derive_table(EXP, bad)


def test_derive_rejects_mismatched_range():
    bps = BreakpointSet(points=(-1.0,), search_range=(-2.0, 2.0))
    with pytest.raises(ValueError):
        derive_table(GELU, bps)


def test_eval_linear_table_everywhere():
    table = make_linear_table(GELU, (-1.0, 1.0))
    assert eval_pwl(table, 17.3) == pytest.approx(17.3, abs=1e-12)
    assert eval_pwl(table, -9.0) == pytest.approx(-9.0, abs=1e-12)
    xs = np.linspace(-10, 10, 101)
    assert np.allclose(eval_pwl(table, xs), xs, atol=1e-12)


def test_eval_exact_at_breakpoints():
    bps = BreakpointSet(points=(-4.0,), search_range=EXP.search_range)
    table = derive_table(EXP, bps)
    assert eval_pwl(table, -4.0) == pytest.approx(math.exp(-4), rel=1e-14)
    assert eval_pwl(table, -8.0) == pytest.approx(math.exp(-8), rel=1e-14)
    assert eval_pwl(table, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_eval_segment_structure():
    # two segments with different slopes; check the case split at the breakpoint
    table = PwlTable(
        slopes=(1.0, 2.0),
        intercepts=(0.0, -1.0),
        breakpoints=BreakpointSet(points=(1.0,), search_range=(-4.0, 4.0)),
        spec=GELU,
    )
    assert eval_pwl(table, 0.999) == pytest.approx(0.999)
    assert eval_pwl(table, 1.0) == pytest.approx(1.0)  # x >= p selects the upper segment
    assert eval_pwl(table, 2.0) == pytest.approx(3.0)


def test_continuity_at_breakpoints_of_derived_tables():
    rng = np.random.default_rng(21)
    for spec in (GELU, EXP):
        for _ in range(10):
            bps = repaired_breakpoints(
                rng.uniform(*spec.search_range, size=7), spec.search_range
            )
            table = derive_table(spec, bps)
            for i, p in enumerate(table.breakpoints.points):
                left = table.slopes[i] * p + table.intercepts[i]
                right = table.slopes[i + 1] * p + table.intercepts[i + 1]
                assert abs(left - right) < 1e-9


def test_fitness_grid_includes_endpoints():
    xs, count = fitness_grid((-4.0, 4.0), 0.01)
    assert count == 800
    assert xs[0] == -4.0 and xs[-1] == 4.0
    assert len(xs) == 801


def test_fitness_zero_on_linear():
    table = make_linear_table(GELU, (-1.0, 2.0))
    assert fitness_mse(table, ref=linear) < 1e-12


def test_fitness_matches_naive_reimplementation():
    bps = BreakpointSet(points=(-4.0,), search_range=EXP.search_range)
    table = derive_table(EXP, bps)
    got = fitness_mse(table)

    # independent brute-force accumulation over the same grid
    lo, hi = EXP.search_range
    n = round((hi - lo) / FITNESS_STEP)
    total = 0.0
    for k in range(n + 1):
        x = lo + (hi - lo) * k / n
        total += (eval_pwl(table, x) - math.exp(x)) ** 2 / n
    assert got == pytest.approx(total, rel=1e-12)


def test_monotone_refinement_on_convex_exp():
    coarse = BreakpointSet(points=(-4.0,), search_range=EXP.search_range)
    fine = BreakpointSet(points=(-6.0, -4.0, -2.0), search_range=EXP.search_range)
    mse_coarse = fitness_mse(derive_table(EXP, coarse))
    mse_fine = fitness_mse(derive_table(EXP, fine))
    assert mse_fine <= mse_coarse + 1e-12


def test_fxp_round_table_grid_and_linear_exactness():
    table = make_linear_table(GELU, (-1.0, 1.0))
    rounded = fxp_round_table(table, 5)
    assert rounded.slopes == (1.0, 1.0, 1.0)
    assert rounded.intercepts == (0.0, 0.0, 0.0)

    bps = repaired_breakpoints([-2.3, -0.7, 1.1], GELU.search_range)
    rounded = fxp_round_table(derive_table(GELU, bps), 5)
    for v in rounded.slopes + rounded.intercepts:
        assert v == round(v * 32) / 32


def test_fxp_round_table_keeps_values_near_original():
    bps = repaired_breakpoints([-2.3, -0.7, 1.1], GELU.search_range)
    table = derive_table(GELU, bps)
    rounded = fxp_round_table(table, 5)
    xs = np.linspace(-4, 4, 801)
    # midpoint-anchored compensation keeps the pointwise gap within one
    # slope quantum times half a segment plus the intercept quantum
    assert np.max(np.abs(eval_pwl(rounded, xs) - eval_pwl(table, xs))) < 2 ** -5 * 3


# Random breakpoint sets: an operator plus 1..15 unit draws, mapped into its
# range and repaired the way the optimizer repairs them.
point_sets = st.tuples(
    st.sampled_from(list(Kind)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=15),
)


def _repaired(kind, unit):
    spec = default_spec(kind)
    lo, hi = spec.search_range
    return spec, repaired_breakpoints([lo + u * (hi - lo) for u in unit], spec.search_range)


@settings(max_examples=60, deadline=None)
@given(point_sets)
def test_ga_score_equals_fitness_of_derived_table(case):
    spec, bps = _repaired(*case)
    ga_score = fitness_scorer(spec)(bps.points)
    assert ga_score == fitness_mse(derive_table(spec, bps))


@settings(max_examples=60, deadline=None)
@given(point_sets, st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=20))
def test_scalar_eval_matches_array_eval(case, unit_xs):
    spec, bps = _repaired(*case)
    table = derive_table(spec, bps)
    lo, hi = spec.search_range
    xs = np.array([lo + u * (hi - lo) for u in unit_xs] + list(bps.points))
    ys = eval_pwl(table, xs)
    for x, y in zip(xs, ys):
        scalar = eval_pwl(table, float(x))
        assert type(scalar) is float
        assert scalar == y


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(Kind)), st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=15))
def test_repair_points_invariants(kind, unit):
    lo, hi = default_spec(kind).search_range
    out = repair_points([lo + u * (hi - lo) for u in unit], (lo, hi))
    assert len(out) == len(unit)
    assert np.all(np.diff(out) >= MIN_GAP - 1e-9)
    assert out[0] >= lo + MIN_GAP - 1e-9 and out[-1] <= hi - MIN_GAP + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(Kind)), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=15))
def test_repair_points_noop_on_valid_input(kind, weights):
    # Valid points: ascending, MIN_GAP plus a share of the spare room apart,
    # with an unused share left at the top end.
    lo, hi = default_spec(kind).search_range
    room = (hi - lo) - (len(weights) + 1) * MIN_GAP
    pts = [lo]
    for w in weights:
        pts.append(pts[-1] + MIN_GAP + room * w / (sum(weights) + 1))
    pts = np.array(pts[1:])
    assert pts[-1] < hi - MIN_GAP
    assert np.array_equal(repair_points(pts, (lo, hi)), pts)
