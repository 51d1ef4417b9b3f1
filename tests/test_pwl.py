import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from lutfit._fields import FieldError
from lutfit.config import ConfigError, config_from_dict
from lutfit.nonlin import Kind, NonLinSpec, default_spec, eval_ref
from lutfit.pwl import (
    FITNESS_STEP,
    MIN_GAP,
    BreakpointSet,
    GapError,
    FitnessScorer,
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
# an exact linear target: hswish(x) = x for x >= 3
LINEAR = NonLinSpec(Kind.HSWISH, (3.0, 8.0))

# Frozen two-point-line oracle values for EXP with a single breakpoint at -4.
EXP_K0 = 0.0044950440652079164  # (e^-4 - e^-8) / 4
EXP_B0 = 0.03629581514956584  # e^-8 + 8 * k0


def make_linear_table(points):
    bps = BreakpointSet(points=tuple(points))
    return derive_table(LINEAR, bps)


def test_table_breakpoint_validation():
    # repeated, descending, outside the spec's range (-4, 4), and none at all
    for points in ((1.0, 1.0), (2.0, 1.0), (-5.0,), ()):
        n = len(points) + 1
        with pytest.raises(FieldError) as info:
            PwlTable(slopes=(0.0,) * n, intercepts=(0.0,) * n, breakpoints=points, spec=GELU)
        assert info.value.field == "breakpoints"


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


def test_derive_linear_target_is_exact():
    # dyadic nodes keep x * 6 / 6 exact
    table = make_linear_table((4.0, 5.5, 7.0))
    assert table.slopes == (1.0, 1.0, 1.0, 1.0)
    assert all(abs(b) < 1e-15 for b in table.intercepts)


def test_derive_exp_single_breakpoint_oracle():
    bps = BreakpointSet(points=(-4.0,))
    table = derive_table(EXP, bps)
    assert table.entries == 2
    assert table.slopes[0] == pytest.approx(EXP_K0, rel=1e-14)
    assert table.intercepts[0] == pytest.approx(EXP_B0, rel=1e-14)


def test_gelu_default_breakpoint_count_gives_eight_entries():
    bps = repaired_breakpoints(np.linspace(-3, 3, 7), GELU.search_range)
    assert derive_table(GELU, bps).entries == 8


def test_derive_rejects_degenerate_gap():
    bad = BreakpointSet(points=(-7.999,))
    with pytest.raises(GapError):
        derive_table(EXP, bad)


def test_eval_linear_table_everywhere():
    table = make_linear_table((4.0, 6.0))
    assert eval_pwl(table, 17.3) == pytest.approx(17.3, abs=1e-12)
    assert eval_pwl(table, -9.0) == pytest.approx(-9.0, abs=1e-12)
    xs = np.linspace(-10, 10, 101)
    assert np.allclose(eval_pwl(table, xs), xs, atol=1e-12)


def test_eval_exact_at_breakpoints():
    bps = BreakpointSet(points=(-4.0,))
    table = derive_table(EXP, bps)
    assert eval_pwl(table, -4.0) == pytest.approx(math.exp(-4), rel=1e-14)
    assert eval_pwl(table, -8.0) == pytest.approx(math.exp(-8), rel=1e-14)
    assert eval_pwl(table, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_eval_segment_structure():
    # two segments with different slopes; check the case split at the breakpoint
    table = PwlTable(
        slopes=(1.0, 2.0),
        intercepts=(0.0, -1.0),
        breakpoints=(1.0,),
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
            for i, p in enumerate(table.breakpoints):
                left = table.slopes[i] * p + table.intercepts[i]
                right = table.slopes[i + 1] * p + table.intercepts[i + 1]
                assert abs(left - right) < 1e-9


def test_fitness_grid_includes_endpoints():
    xs, count = fitness_grid((-4.0, 4.0))
    assert count == 800
    assert xs[0] == -4.0 and xs[-1] == 4.0
    assert len(xs) == 801


def test_fitness_zero_on_linear():
    table = make_linear_table((4.0, 6.5))
    assert fitness_mse(table) < 1e-12


def test_fitness_matches_naive_reimplementation():
    bps = BreakpointSet(points=(-4.0,))
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
    coarse = BreakpointSet(points=(-4.0,))
    fine = BreakpointSet(points=(-6.0, -4.0, -2.0))
    mse_coarse = fitness_mse(derive_table(EXP, coarse))
    mse_fine = fitness_mse(derive_table(EXP, fine))
    assert mse_fine <= mse_coarse + 1e-12


def test_fxp_round_table_grid_and_linear_exactness():
    table = make_linear_table((4.0, 6.0))
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
    ga_score = fitness_scorer(spec).scores([bps.points])[0]
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


STOCK_RANGES = sorted({default_spec(kind).search_range for kind in Kind})


@st.composite
def crowded_repairs(draw):
    """(search range, values) for 7 or 15 points: a stock range, or a range a
    gelu config accepts, down to the narrowest and with its top near zero,
    where the fixup's chain crosses it; values mostly crowded under the top,
    so the right-to-left fixup runs."""
    n = draw(st.sampled_from([7, 15]))
    if draw(st.booleans()):
        lo, hi = draw(st.sampled_from(STOCK_RANGES))
    else:
        hi = draw(st.one_of(st.floats(-10.0, 10.0), st.floats(-MIN_GAP, (n + 2) * MIN_GAP)))
        slack = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 8.0)))
        lo = hi - (n + 1) * MIN_GAP - slack
        try:
            config_from_dict({"function": "gelu", "entries": n + 1, "search_range": [lo, hi]})
        except ConfigError:
            reject()
    crowd = st.floats(hi - (n + 2) * MIN_GAP, hi)
    values = draw(st.lists(st.one_of(crowd, crowd, st.floats(lo, hi)), min_size=n, max_size=n))
    return (lo, hi), values


@settings(max_examples=300, deadline=None)
@given(crowded_repairs())
# chains that cross zero, on a range a few ulps over the narrowest and on a
# wider one: there p[k+1] - MIN_GAP can round so that adding MIN_GAP back
# overshoots p[k+1]
@example(((-0.16, 0.16000000000000011), [0.2] * 15))
@example(((-0.16, 0.1639), [0.2] * 15))
def test_repair_points_is_idempotent(case):
    search_range, values = case
    out = repair_points(values, search_range)
    assert out[0] >= search_range[0] + MIN_GAP
    assert [p.hex() for p in repair_points(out, search_range)] == [p.hex() for p in out]


@pytest.mark.parametrize("ranges", [
    ((-4, 4), (-4.0, 4.0)),
    ((-8, 0), (-8.0, 0.0)),
    ((-8.0, 0.0), (-8.0, -0.0)),
])
def test_repair_memo_gives_the_bits_of_an_uncached_repair(ranges):
    # Ranges that compare equal give the same points bit for bit, however
    # they are written: every point here is clipped to a range end or pushed
    # from one, so it comes from the range itself.
    for search_range in (*ranges, *ranges[::-1]):
        lo, hi = search_range
        values = (lo - 1.0, lo + 0.01, hi + 0.5, hi + 1.0)
        out = repaired_breakpoints(values, search_range)
        first = repaired_breakpoints(values, ranges[0])
        uncached = repair_points(values, search_range)
        assert [p.hex() for p in out.points] == [p.hex() for p in uncached]
        assert [p.hex() for p in out.points] == [p.hex() for p in first.points]


def reference_table_mse(scorer, points, slopes, intercepts):
    """One table's grid MSE as first written: a float searchsorted over the
    grid and one 1-D dot product."""
    idx = np.searchsorted(points, scorer.xs, side="right")
    err = slopes[idx] * scorer.xs + intercepts[idx] - scorer.fx
    return float(err @ err) / scorer.count


def reference_score(scorer, points):
    """One individual's fitness, scored the way the scorer first did it."""
    nodes = np.empty(len(points) + 2)
    nodes[0] = scorer.lo
    nodes[1:-1] = points
    nodes[-1] = scorer.hi
    values = eval_ref(scorer.spec, nodes)
    slopes = np.diff(values) / np.diff(nodes)
    intercepts = values[:-1] - slopes * nodes[:-1]
    return reference_table_mse(scorer, nodes[1:-1], slopes, intercepts)


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(Kind)), st.sampled_from([1, 7, 15]), st.integers(1, 60),
    st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1), st.none(),
)
# rows given as (grid index, offset in grid steps) pairs: a breakpoint on a
# grid point, two in one grid cell (an empty segment), one in the first cell
@example(Kind.GELU, 1, 1, 0.0, 0, [[(400, 0.0)]])
@example(Kind.GELU, 2, 1, 0.0, 0, [[(400, 0.2), (400, 0.7)]])
@example(Kind.EXP, 3, 2, 0.0, 0, [[(0, 0.5), (1, 0.0), (799, 0.5)], [(0, 0.3), (2, 0.3), (2, 0.6)]])
def test_batch_scores_match_per_row_reference(kind, n, m, on_grid, seed, placed):
    # rows of ascending breakpoints drawn among the grid cells, a share of
    # them exactly on grid points, where segment selection flips
    scorer = FitnessScorer(default_spec(kind))
    rng = np.random.default_rng(seed)
    if placed is None:
        placed = []
        for _ in range(m):
            cells = np.sort(rng.choice(np.arange(1, len(scorer.xs) - 1), size=n, replace=False))
            offset = rng.uniform(0.0, 0.9, size=n) * (rng.random(n) >= on_grid)
            placed.append(list(zip(cells, offset)))
    rows = [tuple(float(scorer.xs[g] + offset * FITNESS_STEP) for g, offset in row)
            for row in placed]
    assert bits(scorer.scores(rows)) == bits([reference_score(scorer, row) for row in rows])
    # segments that do not meet at their breakpoint show which one a grid
    # point on a breakpoint selects
    points = np.array(rows)
    slopes, intercepts = rng.normal(size=(2, m, n + 1))
    assert bits(scorer.table_mses(points, slopes, intercepts)) == bits(
        [reference_table_mse(scorer, *row) for row in zip(points, slopes, intercepts)]
    )
