import math

import numpy as np
import pytest

from lutfit.evalbench import (
    DEFAULT_SCALE_EXPONENTS,
    eval_range_q,
    quant_aware_mse,
    sweep_scales,
    wide_range_mse,
)
from lutfit.fxp import DatapathConfig
from lutfit.intsim import int_pwl
from lutfit.nonlin import Kind, NonLinSpec, default_spec, eval_ref
from lutfit.pwl import (
    BreakpointSet,
    derive_table,
    eval_pwl,
    fitness_mse,
    fxp_round_table,
    repaired_breakpoints,
)
from lutfit.quant import PowTwoScale, get_plan, quantize_table

from oracle import brute_force_oracle

GELU = default_spec(Kind.GELU)
EXP = default_spec(Kind.EXP)
RSQRT = default_spec(Kind.RSQRT)
# exact targets: hswish(x) is x on (3, 8) and zero on (-4, -3)
LINEAR = NonLinSpec(Kind.HSWISH, (3.0, 8.0))
ZERO = NonLinSpec(Kind.HSWISH, (-4.0, -3.0))


def test_eval_range_restricted_to_fitted_range():
    assert eval_range_q(GELU, PowTwoScale(-5), 8) == (-128, 127)
    assert eval_range_q(GELU, PowTwoScale(0), 8) == (-4, 4)
    assert eval_range_q(GELU, PowTwoScale(-4), 8) == (-64, 64)
    assert eval_range_q(EXP, PowTwoScale(-6), 8) == (-128, 0)
    assert eval_range_q(EXP, PowTwoScale(0), 8) == (-8, 0)
    # range ends whose q is past the float range clamp to the input width
    assert eval_range_q(GELU, PowTwoScale(-1022), 8) == (-128, 127)


def test_quant_aware_mse_exact_on_representable_linear_target():
    # y = x has exactly representable lambda=5 parameters, so the integer
    # path reproduces it and the MSE is zero
    bps = BreakpointSet(points=(5.0,))
    table = fxp_round_table(derive_table(LINEAR, bps), 5)
    for e in (-5, -2, 0):
        assert quant_aware_mse(table, PowTwoScale(e), DatapathConfig()) == 0.0


def test_quant_aware_mse_matches_naive_reimplementation():
    bps = repaired_breakpoints(np.linspace(-2.9, 2.9, 7), GELU.search_range)
    table = fxp_round_table(derive_table(GELU, bps), 5)
    scale = PowTwoScale(-3)
    dp = DatapathConfig()
    got = quant_aware_mse(table, scale, dp)

    # independent accumulation: quantize the table, walk the dequantized grid
    qt = quantize_table(table, scale, dp)
    s = scale.value
    q_lo = max(-128, math.ceil(GELU.search_range[0] / s))
    q_hi = min(127, math.floor(GELU.search_range[1] / s))
    errors = []
    for q in range(q_lo, q_hi + 1):
        errors.append((s * int_pwl(q, qt, dp) - eval_ref(GELU, s * q)) ** 2)
    naive = sum(errors) / len(errors)
    assert got == pytest.approx(naive, rel=1e-12)


def test_sweep_scales_report_consistency():
    bps = repaired_breakpoints(np.linspace(-2.5, 2.5, 7), GELU.search_range)
    table = fxp_round_table(derive_table(GELU, bps), 5)
    report = sweep_scales(table, exponents=(-6, -5, -4))
    assert [e for e, _ in report.per_scale] == [-6, -5, -4]
    assert report.average_mse == pytest.approx(
        sum(m for _, m in report.per_scale) / 3, rel=1e-14
    )


def test_default_sweep_set():
    assert DEFAULT_SCALE_EXPONENTS == (-6, -5, -4, -3, -2, -1)


def test_quant_aware_mse_improves_with_finer_fxp():
    # coarse-to-fine lambda sweep: large steps must shrink the error, and
    # each refinement may regress at most one new-grid quantum of noise
    bps = repaired_breakpoints([-2.6, -1.8, -0.9, 0.0, 0.9, 1.8, 2.6], GELU.search_range)
    fl = derive_table(GELU, bps)
    mses = []
    for lam in (3, 4, 5, 6):
        table = fxp_round_table(fl, lam)
        dp = DatapathConfig(frac_bits=lam)
        mses.append(quant_aware_mse(table, PowTwoScale(-5), dp))
    assert mses[-1] < mses[0] / 2
    for prev, nxt, lam in zip(mses, mses[1:], (4, 5, 6)):
        assert nxt <= prev + 4.0 ** -lam


def test_wide_range_pointwise_composition_through_table():
    # x=256 folds to exactly 1.0; with a breakpoint pinned at 1.0 the float
    # table is exact there and the fixed-point table is within its grid
    bps = BreakpointSet(points=(0.5, 1.0, 2.0))
    fl = derive_table(RSQRT, bps)
    plan = get_plan("rsqrt-int8")
    from lutfit.quant import eval_qpwl_real, fxp_quantize_table, select_subrange

    e, rescale = select_subrange(256.0, plan)
    exact = rescale * eval_pwl(fl, math.ldexp(256.0, e))
    assert exact == pytest.approx(eval_ref(RSQRT, 256.0), abs=1e-15)

    qt = fxp_quantize_table(fxp_round_table(fl, 5), DatapathConfig())
    through_fxp = rescale * eval_qpwl_real(qt, math.ldexp(256.0, e))
    assert abs(through_fxp - eval_ref(RSQRT, 256.0)) <= rescale * 2 ** -4


def test_wide_range_mse_small_for_good_fit():
    bps = repaired_breakpoints(np.geomspace(0.55, 3.6, 7), RSQRT.search_range)
    table = fxp_round_table(derive_table(RSQRT, bps), 5)
    mse = wide_range_mse(table, get_plan("rsqrt-int8"))
    assert 0 < mse < 5e-3


def test_wide_range_mse_rejects_scale_carrying():
    bps = repaired_breakpoints([-1.0, 1.0], GELU.search_range)
    table = fxp_round_table(derive_table(GELU, bps), 5)
    with pytest.raises(ValueError):
        wide_range_mse(table, get_plan("div-int8"))


def test_oracle_linear_target_ties_to_first():
    table = brute_force_oracle(ZERO, 1, 0.25)
    # every candidate scores zero on a linear target; first wins the tie
    assert fitness_mse(table) == 0.0
    assert table.breakpoints == (-4.0 + 0.25,)  # first valid grid point


def test_oracle_budget_refusal():
    with pytest.raises(ValueError):
        brute_force_oracle(GELU, 2, 0.001)
    with pytest.raises(ValueError):
        brute_force_oracle(GELU, 3, 0.5)


def test_oracle_dominates_grid_restricted_tables():
    oracle = brute_force_oracle(EXP, 2, 0.1)
    best = fitness_mse(oracle)
    grid = np.linspace(-8.0, 0.0, 81)  # the oracle's own candidate lattice
    rng = np.random.default_rng(23)
    for _ in range(30):
        pts = np.sort(rng.choice(grid[1:-1], size=2, replace=False))
        if pts[1] - pts[0] < 0.05:
            continue
        bps = BreakpointSet(points=tuple(pts))
        assert fitness_mse(derive_table(EXP, bps)) >= best - 1e-15


def test_oracle_exp_single_breakpoint_location():
    # convex exp on (-8, 0): the best single breakpoint sits in the steep region
    table = brute_force_oracle(EXP, 1, 0.05)
    p = table.breakpoints[0]
    assert -3.5 < p < -0.5
