import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutfit._fields import replace
from lutfit.fxp import DatapathConfig, int_bounds
from lutfit.nonlin import DomainError, Kind, default_spec, eval_ref
from lutfit.pwl import BreakpointSet, derive_table, fxp_round_table, repaired_breakpoints
from lutfit.quant import (
    PowTwoScale,
    QPwlTable,
    RangeScalingPlan,
    SubRange,
    dequantize,
    eval_qpwl_real,
    fxp_quantize_table,
    get_plan,
    quantize,
    quantize_table,
    segment_index,
    select_subrange,
)

from oracle import breakpoint_deviation

GELU = default_spec(Kind.GELU)
DIV = default_spec(Kind.DIV)
RSQRT = default_spec(Kind.RSQRT)


def test_quantize_examples():
    assert quantize(0.37, PowTwoScale(-3), 8) == 3
    assert quantize(100.0, PowTwoScale(-3), 8) == 127
    assert quantize(-100.0, PowTwoScale(-3), 8) == -128
    for q in (-128, -5, 0, 17, 127):
        assert quantize(q * 2 ** -4, PowTwoScale(-4), 8) == q
    # x / S past the float range saturates like any other out-of-range value
    assert quantize(5.0, PowTwoScale(-1022), 8) == 127
    assert quantize(-5.0, PowTwoScale(-1022), 8) == -128


def test_pow_two_scale_is_a_normal_double():
    assert PowTwoScale(-1022).value == 2.0 ** -1022
    assert PowTwoScale(1023).value == 2.0 ** 1023
    for e in (-1023, 1024, 100000):
        with pytest.raises(ValueError, match=f"scale exponent {e} outside -1022..1023"):
            PowTwoScale(e)


def test_dequantize_exact():
    assert dequantize(3, PowTwoScale(-3)) == 0.375
    assert dequantize(0, PowTwoScale(9)) == 0.0
    assert dequantize(-7, PowTwoScale(2)) == -28.0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((8, 16)),
    st.integers(-8, 2),
    st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False),
)
def test_round_trip_half_step_bound(bits, e, unit):
    # unit scales x to the input format's range, overshooting it by half
    scale = PowTwoScale(e)
    q_lo, q_hi = int_bounds(bits)
    x = unit * -q_lo * scale.value
    q = quantize(x, scale, bits)
    if x / scale.value < q_lo:
        assert q == q_lo
    elif x / scale.value > q_hi:
        assert q == q_hi
    else:
        assert abs(x - dequantize(q, scale)) <= scale.value / 2


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((Kind.GELU, Kind.HSWISH, Kind.EXP)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=15),
    st.sampled_from((8, 16)),
    st.integers(-10, 0),
)
def test_quantize_table_breakpoints_are_collapsed_quantize(kind, unit, bits, e):
    spec = default_spec(kind)
    lo, hi = spec.search_range
    bps = repaired_breakpoints([lo + u * (hi - lo) for u in unit], spec.search_range)
    scale = PowTwoScale(e)
    qt = quantize_table(fxp_round_table(derive_table(spec, bps), 5), scale,
                        DatapathConfig(input_bits=bits))
    assert qt.breakpoints_q == tuple(sorted({quantize(p, scale, bits) for p in bps.points}))


def gelu_table(points=(-2.5, -1.25, 0.5, 1.75)):
    bps = BreakpointSet(points=points)
    return fxp_round_table(derive_table(GELU, bps), 5)


def test_quantize_table_breakpoint_arithmetic():
    table = gelu_table(points=(-1.37, 0.5, 2.0))
    qt = quantize_table(table, PowTwoScale(-2))
    assert qt.breakpoints_q[0] == -5  # round(-1.37 / 0.25) = round(-5.48)
    assert qt.breakpoints_q[1] == 2
    assert qt.breakpoints_q[2] == 8
    assert qt.scale == PowTwoScale(-2)
    assert qt.source_segments == (0, 1, 2, 3)


def test_quantize_table_unit_scale_rounds_directly():
    table = gelu_table(points=(-2.5, -1.25, 0.75, 2.25))
    qt = quantize_table(table, PowTwoScale(0))
    assert qt.breakpoints_q == (-2, -1, 1, 2)  # ties round toward +inf


def test_quantize_table_slopes_are_lambda_mantissas():
    table = gelu_table()
    qt = quantize_table(table, PowTwoScale(-5), DatapathConfig(frac_bits=5))
    assert qt.slopes_fxp == tuple(int(round(k * 32)) for k in table.slopes)
    assert qt.intercepts_fxp == tuple(int(round(b * 32)) for b in table.intercepts)
    assert qt.frac_bits == 5


def test_quantize_table_collapses_duplicates(caplog):
    table = gelu_table(points=(0.26, 0.3, 1.5))
    with caplog.at_level(logging.WARNING, logger="lutfit.quant"):
        qt = quantize_table(table, PowTwoScale(0))
    # 0.26 and 0.3 both round to 0; the segment between them is unreachable
    assert qt.breakpoints_q == (0, 2)
    assert qt.dropped_segments == (1,)
    assert qt.source_segments == (0, 2, 3)
    assert qt.entries == 3
    assert any("collapsed" in r.message for r in caplog.records)


def test_quantize_table_collapse_maps_region_past_duplicates():
    # both breakpoints clip to q_lo; everything at or above q_lo belongs to
    # the segment right of the whole run
    table = gelu_table(points=(-3.5, -3.0, 1.0))
    qt = quantize_table(table, PowTwoScale(-6))
    assert qt.breakpoints_q == (-128, 64)
    assert qt.source_segments == (0, 2, 3)
    # q = -100 >= -128 must use original segment 2's parameters
    x = dequantize(-100, PowTwoScale(-6))
    assert eval_qpwl_real(qt, x) == pytest.approx(
        table.slopes[2] * x + table.intercepts[2], abs=1e-12
    )


def test_quantize_table_rejects_wide_range():
    bps = BreakpointSet(points=(1.0, 2.0))
    table = fxp_round_table(derive_table(DIV, bps), 5)
    with pytest.raises(ValueError):
        quantize_table(table, PowTwoScale(0))


def test_fitted_gelu_breakpoints_stay_distinct_at_natural_scale():
    rng = np.random.default_rng(0)
    for _ in range(5):
        bps = repaired_breakpoints(rng.uniform(-4, 4, size=7), GELU.search_range)
        qt = quantize_table(fxp_round_table(derive_table(GELU, bps), 5), PowTwoScale(-5))
        assert len(set(qt.breakpoints_q)) == len(qt.breakpoints_q)


def div_table(points=(0.75, 1.0, 1.5, 2.5)):
    bps = BreakpointSet(points=points)
    return fxp_round_table(derive_table(DIV, bps), 5)


def test_fxp_quantize_table_rounds_breakpoints():
    # built directly: 0.515625 sits too close to the range edge for derive
    from lutfit.pwl import PwlTable

    table = PwlTable(
        slopes=(-2.0, -1.0, -0.5, -0.25),
        intercepts=(3.0, 2.0, 1.5, 1.0),
        breakpoints=(0.515625, 1.0, 2.0),
        spec=DIV,
    )
    qt = fxp_quantize_table(table)
    assert qt.breakpoints_q[0] == 17  # 0.53125, the nearest multiple of 1/32
    assert qt.breakpoints_q[1] == 32  # 1.0: on-grid values unchanged
    assert qt.scale is None


def test_fxp_quantize_table_div_plan_fits_without_saturation():
    rng = np.random.default_rng(2)
    for _ in range(5):
        bps = repaired_breakpoints(rng.uniform(0.5, 4.0, size=7), DIV.search_range)
        table = fxp_round_table(derive_table(DIV, bps), 5)
        qt = fxp_quantize_table(table)
        assert qt.saturated == ()
        for v in qt.slopes_fxp + qt.intercepts_fxp + qt.breakpoints_q:
            assert -128 <= v <= 127


def test_fxp_quantize_table_records_saturation():
    table = div_table()
    inflated = type(table)(
        slopes=(100.0,) + table.slopes[1:],
        intercepts=table.intercepts,
        breakpoints=table.breakpoints,
        spec=table.spec,
    )
    narrow = DatapathConfig(param_bits=8)
    qt = fxp_quantize_table(inflated, narrow)
    assert "slope[0]" in qt.saturated
    assert qt.slopes_fxp[0] == 127
    # a mantissa past the float range is an error naming the field, not a saturation
    huge = replace(inflated, intercepts=inflated.intercepts[:2] + (-1e308,) + inflated.intercepts[3:])
    with pytest.raises(ValueError, match=r"field intercepts\[2\]"):
        fxp_quantize_table(huge, narrow)


def test_fxp_quantize_table_parameters_are_param_bits_wide():
    table = div_table()
    steep = replace(table, slopes=(-8.0,) + table.slopes[1:],
                    intercepts=(6.0,) + table.intercepts[1:])
    qt = fxp_quantize_table(steep)
    assert (qt.slopes_fxp[0], qt.intercepts_fxp[0]) == (-256, 192)
    assert qt.saturated == ()
    qt = fxp_quantize_table(steep, DatapathConfig(param_bits=8))
    assert (qt.slopes_fxp[0], qt.intercepts_fxp[0]) == (-128, 127)
    assert qt.saturated == ("slope[0]", "intercept[0]")
    # breakpoints stay input_bits wide: 4.0 is mantissa 128 at 5 fractional bits
    wide_bps = replace(table, breakpoints=(0.75, 1.0, 1.5, 4.0))
    assert fxp_quantize_table(wide_bps).saturated == ("breakpoint[3]",)


def test_fxp_quantize_table_rejects_scale_carrying():
    with pytest.raises(ValueError):
        fxp_quantize_table(gelu_table())


def test_plan_presets_match_configuration():
    div = get_plan("div-int8")
    assert div.inner_range == (0.5, 4.0)
    assert [(sr.lo, sr.hi, sr.scale.exponent) for sr in div.sub_ranges] == [
        (4.0, 32.0, -3),
        (32.0, 256.0, -6),
        (256.0, math.inf, -6),
    ]
    rsqrt = get_plan("rsqrt-int8")
    assert rsqrt.inner_range == (0.25, 4.0)
    assert [(sr.lo, sr.hi, sr.scale.exponent) for sr in rsqrt.sub_ranges] == [
        (4.0, 64.0, -4),
        (64.0, 1024.0, -8),
        (1024.0, math.inf, -12),
    ]
    with pytest.raises(KeyError):
        get_plan("div-int4")


def test_plan_validation():
    with pytest.raises(ValueError):
        RangeScalingPlan(
            inner_range=(0.5, 4.0),
            sub_ranges=(SubRange(5.0, math.inf, PowTwoScale(-3)),),  # gap at 4..5
            op_kind=Kind.DIV,
        )
    with pytest.raises(ValueError):
        RangeScalingPlan(
            inner_range=(0.5, 4.0),
            sub_ranges=(SubRange(4.0, 32.0, PowTwoScale(-1)),),  # maps outside inner
            op_kind=Kind.DIV,
        )
    with pytest.raises(ValueError):
        RangeScalingPlan(
            inner_range=(0.5, 4.0),
            sub_ranges=(SubRange(4.0, 32.0, PowTwoScale(-3)),),  # not open-ended
            op_kind=Kind.DIV,
        )
    with pytest.raises(ValueError, match="shift only for an even e"):
        RangeScalingPlan(
            inner_range=(0.25, 4.0),
            sub_ranges=(SubRange(4.0, math.inf, PowTwoScale(-3)),),  # sqrt(2^-3) is no shift
            op_kind=Kind.RSQRT,
        )


def test_select_subrange_div_example():
    plan = get_plan("div-int8")
    e, rescale = select_subrange(100.0, plan)
    assert e == -6 and rescale == 2 ** -6
    assert 0.5 <= math.ldexp(100.0, e) <= 4.0
    assert math.ldexp(100.0, e) == 1.5625


def test_select_subrange_rsqrt_power_of_two_composition():
    plan = get_plan("rsqrt-int8")
    e, rescale = select_subrange(256.0, plan)
    assert e == -8 and rescale == 0.0625
    assert math.ldexp(256.0, e) == 1.0
    assert rescale * (1.0 / math.sqrt(1.0)) == 1.0 / math.sqrt(256.0)


def test_select_subrange_identity_inside_inner_range():
    plan = get_plan("div-int8")
    for x in (0.5, 2.0, 4.0):
        e, rescale = select_subrange(x, plan)
        assert e == 0 and rescale == 1.0


def test_select_subrange_domain_errors():
    plan = get_plan("div-int8")
    for x in (0.0, -3.0, 0.25):
        with pytest.raises(DomainError):
            select_subrange(x, plan)
    for bad in (0.0, 0.25, math.inf, math.nan):
        with pytest.raises(DomainError):
            select_subrange(np.array([1.0, bad, 100.0]), plan)


def test_composition_identity_exact():
    # rescale * f(x * S') == f(x) bit-exactly for power-of-two folds
    rng = np.random.default_rng(17)
    for kind in (Kind.DIV, Kind.RSQRT):
        spec = default_spec(kind)
        plan = get_plan(f"{kind.value}-int8")
        boundaries = [sr.lo for sr in plan.sub_ranges]
        interior = list(rng.uniform(4.0, 2000.0, size=200))
        for x in boundaries + interior:
            e, rescale = select_subrange(float(x), plan)
            assert rescale * eval_ref(spec, math.ldexp(float(x), e)) == eval_ref(spec, float(x))


def reference_fold(x: float, plan: RangeScalingPlan) -> tuple[int, float]:
    """Fold-in exponent and rescale of one input, by walking the sub-ranges."""
    if x <= plan.inner_range[1]:
        return 0, 1.0
    for sr in plan.sub_ranges:
        if sr.lo <= x < sr.hi:
            rescale = sr.scale.value
            return sr.scale.exponent, rescale if plan.op_kind is Kind.DIV else math.sqrt(rescale)
    raise AssertionError(f"{x} not covered")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from((Kind.DIV, Kind.RSQRT)),
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_plan_folding_properties(kind, xs):
    spec = default_spec(kind)
    plan = get_plan(f"{kind.value}-int8")
    lo, hi = plan.inner_range
    # random points in [inner lo, 1e6] plus the inner hi and every sub-range edge
    x = np.array([lo + u * (1e6 - lo) for u in xs] + [hi] + [sr.lo for sr in plan.sub_ranges])
    exponents, rescales = select_subrange(x, plan)
    assert exponents.dtype.kind == "i"
    for k, xk in enumerate(x.tolist()):
        e, rescale = select_subrange(xk, plan)
        assert (e, rescale) == (int(exponents[k]), float(rescales[k]))
        assert (e, rescale) == reference_fold(xk, plan)
        folded = math.ldexp(xk, e)
        sr = next((r for r in plan.sub_ranges if r.lo <= xk < r.hi), None)
        if sr is None or math.isfinite(sr.hi):
            assert lo <= folded <= hi, (xk, folded)
        assert rescale * eval_ref(spec, folded) == eval_ref(spec, xk)

def test_breakpoint_deviation_detects_round_down():
    table = gelu_table(points=(1.3,))
    qt = quantize_table(table, PowTwoScale(0))
    assert qt.breakpoints_q == (1,)
    # float path puts x=1 below the breakpoint, integer path at/above it
    assert breakpoint_deviation(table, qt, 8) == (1,)


def test_breakpoint_deviation_empty_for_grid_aligned():
    table = gelu_table(points=(-2.0, 1.0, 3.0))
    qt = quantize_table(table, PowTwoScale(0))
    assert breakpoint_deviation(table, qt, 8) == ()


def test_eval_qpwl_real_wide_range_matches_dequantized_params():
    table = div_table()
    qt = fxp_quantize_table(table)
    xs = np.linspace(0.5, 4.0, 57)
    ys = eval_qpwl_real(qt, xs)
    breakpoints = [math.ldexp(b, -qt.frac_bits) for b in qt.breakpoints_q]
    for x, y in zip(xs, ys):
        idx = int(np.searchsorted(breakpoints, x, side="right"))
        assert y == pytest.approx(
            math.ldexp(qt.slopes_fxp[idx], -qt.frac_bits) * x
            + math.ldexp(qt.intercepts_fxp[idx], -qt.frac_bits), abs=1e-15
        )


def fitted_tables(kind, count=10):
    """count tables over kind's stock range, alternately 8 and 16 entries,
    with breakpoints drawn from a fixed seed."""
    spec = default_spec(kind)
    rng = np.random.default_rng(23)
    return [
        fxp_round_table(derive_table(spec, repaired_breakpoints(
            rng.uniform(*spec.search_range, size=7 if i % 2 else 15), spec.search_range)), 5)
        for i in range(count)
    ]


def assert_float_model_selects_segment_index(qt, exponent, bits):
    """On every input x = q * 2^exponent of a bits-wide datapath, the float
    model selects segment_index(q) and evaluates that entry."""
    lo, hi = int_bounds(bits)
    q = np.arange(lo, hi + 1)
    x = np.ldexp(q.astype(float), exponent)
    idx = segment_index(q, qt)
    selected = np.searchsorted(np.ldexp(np.asarray(qt.breakpoints_q, dtype=float), exponent),
                               x, side="right")
    assert np.array_equal(selected, idx), (qt, exponent, bits)
    slopes = np.ldexp(np.asarray(qt.slopes_fxp, dtype=float), -qt.frac_bits)
    intercepts = np.ldexp(np.asarray(qt.intercepts_fxp, dtype=float), -qt.frac_bits)
    assert np.array_equal(eval_qpwl_real(qt, x), slopes[idx] * x + intercepts[idx])


@pytest.mark.parametrize("kind", (Kind.GELU, Kind.HSWISH, Kind.EXP))
def test_float_model_selects_the_integer_segment_scale_carrying(kind):
    collapsed = 0
    for table in fitted_tables(kind):
        for bits in (8, 16):
            for e in range(-12, 0):
                qt = quantize_table(table, PowTwoScale(e), DatapathConfig(input_bits=bits))
                collapsed += len(qt.dropped_segments)
                assert_float_model_selects_segment_index(qt, e, bits)
    assert collapsed > 0


@pytest.mark.parametrize("kind", (Kind.DIV, Kind.RSQRT))
def test_float_model_selects_the_integer_segment_wide_range(kind):
    for table in fitted_tables(kind):
        for bits in (8, 16):
            qt = fxp_quantize_table(table, DatapathConfig(input_bits=bits))
            assert_float_model_selects_segment_index(qt, -qt.frac_bits, bits)


def test_qpwl_table_validation():
    with pytest.raises(ValueError):
        QPwlTable(
            slopes_fxp=(1, 2),
            intercepts_fxp=(0, 0),
            breakpoints_q=(3, 3),
            frac_bits=5,
            spec=GELU,
        )
    with pytest.raises(ValueError):
        QPwlTable(
            slopes_fxp=(1, 2, 3),
            intercepts_fxp=(0, 0),
            breakpoints_q=(3,),
            frac_bits=5,
            spec=GELU,
        )
    # a scale exactly when the operator is scale-carrying
    with pytest.raises(ValueError, match="needs a scale"):
        QPwlTable(slopes_fxp=(1,), intercepts_fxp=(0,), breakpoints_q=(), frac_bits=5, spec=GELU)
    with pytest.raises(ValueError, match="takes no scale"):
        QPwlTable(slopes_fxp=(1,), intercepts_fxp=(0,), breakpoints_q=(), frac_bits=5,
                  spec=default_spec(Kind.DIV), scale=PowTwoScale(-3))
