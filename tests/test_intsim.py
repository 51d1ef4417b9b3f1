import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lutfit.fxp import DatapathConfig, fits, int_bounds, shift_right_round
from lutfit.intsim import AccumulatorOverflow, int_pwl, segment_index
from lutfit.nonlin import Kind, default_spec
from lutfit.pwl import BreakpointSet, derive_table, eval_pwl, fxp_round_table
from lutfit.quant import PowTwoScale, QPwlTable, quantize_table

from oracle import breakpoint_deviation

GELU = default_spec(Kind.GELU)


def hand_table(slopes, intercepts, breakpoints, exponent, frac_bits=5):
    return QPwlTable(
        slopes_fxp=tuple(slopes),
        intercepts_fxp=tuple(intercepts),
        breakpoints_q=tuple(breakpoints),
        frac_bits=frac_bits,
        spec=GELU,
        scale=PowTwoScale(exponent),
    )


def fitted_qtable(exponent=-5, points=(-2.8, -1.9, -0.9, 0.1, 0.9, 1.8, 2.7)):
    bps = BreakpointSet(points=points)
    table = fxp_round_table(derive_table(GELU, bps), 5)
    return table, quantize_table(table, PowTwoScale(exponent))


def test_segment_index_case_structure():
    qt = hand_table([0] * 4, [0] * 4, [-10, 0, 10], exponent=0)
    assert segment_index(-11, qt) == 0
    assert segment_index(-10, qt) == 1
    assert segment_index(-1, qt) == 1
    assert segment_index(0, qt) == 2
    assert segment_index(10, qt) == 3  # q >= last breakpoint selects the last entry
    assert segment_index(127, qt) == 3


def test_segment_index_monotone_over_int8():
    _, qt = fitted_qtable()
    indices = [segment_index(q, qt) for q in range(-128, 128)]
    assert all(b >= a for a, b in zip(indices, indices[1:]))
    assert indices[0] == 0 and indices[-1] == qt.entries - 1


def test_int_pwl_hand_trace():
    # k=0.25, b=0.5 at lambda=5, e=-3, q=3: y = 0.25*3 + 0.5*8 = 4.75
    qt = hand_table([8], [16], [], exponent=-3)
    y = int_pwl(3, qt, DatapathConfig())
    assert y == 4.75
    assert PowTwoScale(-3).value * y == 0.59375


def test_int_pwl_zero_input_is_shifted_intercept():
    qt = hand_table([8, -4], [16, 12], [5], exponent=-2)
    y = int_pwl(0, qt, DatapathConfig())
    assert y == (16 << 2) / 32  # b mantissa left-shifted by 2


def test_int_pwl_positive_exponent_rounds_shift():
    # e=1: b >> 1 rounds the dropped bit half up
    qt = hand_table([0], [5], [], exponent=1)
    assert int_pwl(7, qt, DatapathConfig()) == 3 / 32  # 5>>1 -> 2.5 -> 3
    qt = hand_table([0], [-5], [], exponent=1)
    assert int_pwl(7, qt, DatapathConfig()) == -2 / 32  # -2.5 -> -2


def test_int_pwl_matches_float_path_exactly_off_deviation():
    table, qt = fitted_qtable(exponent=-4)
    dp = DatapathConfig()
    s = 2 ** -4
    deviated = set(breakpoint_deviation(table, qt, 8))
    for q in range(-128, 128):
        if q in deviated:
            continue
        assert s * int_pwl(q, qt, dp) == eval_pwl(table, s * q)


def test_int_pwl_rejects_out_of_range_input():
    qt = hand_table([8], [16], [], exponent=0)
    with pytest.raises(ValueError):
        int_pwl(128, qt, DatapathConfig())


def test_int_pwl_rejects_wide_params():
    qt = hand_table([300], [16], [], exponent=0)
    with pytest.raises(ValueError):
        int_pwl(0, qt, DatapathConfig(param_bits=8))


def test_int_pwl_rejects_frac_bits_mismatch():
    qt = hand_table([8], [16], [], exponent=0, frac_bits=6)
    with pytest.raises(ValueError):
        int_pwl(0, qt, DatapathConfig(frac_bits=5))


def test_accumulator_overflow_is_hard_error():
    # 127 << 8 = 32512 plus the product overflows a 16-bit accumulator
    qt = hand_table([127], [127], [], exponent=-8)
    with pytest.raises(AccumulatorOverflow):
        int_pwl(127, qt, DatapathConfig(input_bits=8, param_bits=8, acc_bits=16))
    # the same computation fits a wide accumulator
    assert int_pwl(127, qt, DatapathConfig(acc_bits=32)) is not None


def test_no_intermediate_exceeds_declared_accumulator():
    # shadow wide-integer recomputation of every intermediate
    table, qt = fitted_qtable(exponent=-6)
    dp = DatapathConfig()
    acc_limit = 1 << (dp.effective_acc_bits - 1)
    for q in range(-128, 128):
        i = segment_index(q, qt)
        product = qt.slopes_fxp[i] * q
        shifted = qt.intercepts_fxp[i] << 6
        assert abs(product) < acc_limit
        assert abs(shifted) < acc_limit
        assert abs(product + shifted) < acc_limit
        assert int_pwl(q, qt, dp) == (product + shifted) / 32


def test_datapath_config_validation():
    with pytest.raises(ValueError):
        DatapathConfig(input_bits=0)
    with pytest.raises(ValueError):
        DatapathConfig(acc_bits=10)  # below input + param widths
    assert DatapathConfig().effective_acc_bits == 32
    # int64 holds at most a 63-bit accumulator exactly
    assert DatapathConfig(acc_bits=63).effective_acc_bits == 63
    with pytest.raises(ValueError, match="acc_bits"):
        DatapathConfig(acc_bits=64)
    with pytest.raises(ValueError, match="acc_bits"):
        DatapathConfig(input_bits=32, param_bits=32)  # derived width 72


def test_int_pwl_requires_scale_carrying_table():
    qt = QPwlTable(
        slopes_fxp=(8,),
        intercepts_fxp=(16,),
        breakpoints_q=(),
        frac_bits=5,
        spec=default_spec(Kind.DIV),
        scale=None,
    )
    with pytest.raises(ValueError):
        int_pwl(0, qt, DatapathConfig())


def reference_datapath(q, table, cfg):
    """The datapath at one input in Python ints: the output value, or the
    (name, value) of the first intermediate that leaves acc_bits."""
    i = bisect_right(table.breakpoints_q, q)
    product = table.slopes_fxp[i] * q
    shifted_b = shift_right_round(table.intercepts_fxp[i], table.scale.exponent)
    acc = product + shifted_b
    for name, value in (("product", product), ("shifted intercept", shifted_b), ("sum", acc)):
        if not fits(value, cfg.effective_acc_bits):
            return name, value
    return acc / float(1 << cfg.frac_bits)


@st.composite
def datapath_cases(draw):
    input_bits = draw(st.sampled_from((8, 16)))
    param_bits = draw(st.integers(4, 16))
    narrowest = input_bits + param_bits
    acc_bits = draw(st.none() | st.integers(narrowest, narrowest + 8))
    cfg = DatapathConfig(input_bits=input_bits, param_bits=param_bits, acc_bits=acc_bits)
    n = draw(st.integers(1, 16))
    breakpoints = sorted(draw(st.sets(
        st.integers(*int_bounds(input_bits)), min_size=n - 1, max_size=n - 1
    )))
    params = st.lists(st.integers(*int_bounds(param_bits)), min_size=n, max_size=n)
    table = hand_table(draw(params), draw(params), breakpoints, draw(st.integers(-24, 8)))
    return table, cfg


@settings(max_examples=30, deadline=None)
@given(datapath_cases())
@example((hand_table([127], [127], [], exponent=-8), DatapathConfig(8, 8, acc_bits=16)))
@example((hand_table([8, -4], [16, 12], [5], exponent=1), DatapathConfig()))
# each intermediate exactly one past the 16-bit accumulator: 64 << 9 = 2^15,
# and 8*64 + (126 << 8) = 2^15 at q=64 after 8*63 + (126 << 8) fits
@example((hand_table([0], [64], [], exponent=-9), DatapathConfig(8, 8, acc_bits=16)))
@example((hand_table([8], [126], [], exponent=-8), DatapathConfig(8, 8, acc_bits=16)))
def test_array_datapath_matches_python_int_reference(case):
    table, cfg = case
    q_lo, q_hi = int_bounds(cfg.input_bits)
    qs = np.arange(q_lo, q_hi + 1)
    assert segment_index(qs, table).tolist() == [
        bisect_right(table.breakpoints_q, q) for q in range(q_lo, q_hi + 1)
    ]
    expected = [reference_datapath(q, table, cfg) for q in range(q_lo, q_hi + 1)]
    overflow = next(
        ((q, r) for q, r in zip(range(q_lo, q_hi + 1), expected) if isinstance(r, tuple)), None
    )
    if overflow is not None:
        q, (name, value) = overflow
        with pytest.raises(AccumulatorOverflow, match=re.escape(f"{name} {value} ")) as info:
            int_pwl(qs, table, cfg)
        assert f"(q={q}, segment={bisect_right(table.breakpoints_q, q)}," in str(info.value)
        return
    got = int_pwl(qs, table, cfg)
    assert got.dtype == np.float64 and got.shape == qs.shape
    assert np.array_equal(got.view(np.int64), np.asarray(expected).view(np.int64))
    for q in (q_lo, 0, q_hi):
        assert int_pwl(q, table, cfg) == expected[q - q_lo]
