from fractions import Fraction

import numpy as np
import pytest

from lutfit.fxp import (
    fits,
    fxp_round,
    int_bounds,
    round_half_up,
    saturate,
    shift_right_round,
    to_mantissa,
)


def round_half_up_oracle(x: Fraction) -> int:
    """Independent exact-rational rounding reference."""
    floor = x.numerator // x.denominator
    frac = x - floor
    return floor + (1 if frac >= Fraction(1, 2) else 0)


def test_round_half_up_against_fraction_oracle():
    rng = np.random.default_rng(3)
    # random values plus exact ties of both signs
    values = list(rng.uniform(-20, 20, size=200)) + [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.75]
    # one ulp either side of a half, where floor(x + 0.5) would round up
    values += [np.nextafter(h, d) for h in (0.5, -0.5, 1.5, -2.5, 2.0 ** 51 + 0.5)
               for d in (-np.inf, np.inf)]
    for v in values:
        assert round_half_up(v) == round_half_up_oracle(Fraction(v))


def test_fxp_round_examples():
    assert fxp_round(0.515625, 5) == 0.53125
    assert fxp_round(1.37, 1) == 1.5
    assert fxp_round(0.53125, 5) == 0.53125  # idempotent on the grid
    assert fxp_round(-0.5, 0) == 0.0  # tie toward +inf


def test_to_mantissa_exact_on_grid():
    assert to_mantissa(0.25, 5) == 8
    assert to_mantissa(4.75, 5) == 152
    assert to_mantissa(-0.03125, 5) == -1
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(-4000, 4000))
        assert to_mantissa(m / 32.0, 5) == m


def test_int_bounds():
    assert int_bounds(8) == (-128, 127)
    assert int_bounds(16) == (-32768, 32767)
    with pytest.raises(ValueError):
        int_bounds(0)


def test_saturate_and_fits():
    assert saturate(800, 8) == 127
    assert saturate(-800, 8) == -128
    assert saturate(5, 8) == 5
    assert fits(127, 8) and not fits(128, 8)
    assert fits(-128, 8) and not fits(-129, 8)


def test_shift_right_round():
    assert shift_right_round(16, -3) == 128  # left shift exact
    assert shift_right_round(5, 1) == 3  # 2.5 -> 3
    assert shift_right_round(-5, 1) == -2  # -2.5 -> -2 (half up)
    assert shift_right_round(7, 2) == 2  # 1.75 -> 2
    assert shift_right_round(-7, 2) == -2  # -1.75 -> -2
    # against an exact rational oracle
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = int(rng.integers(-(1 << 16), 1 << 16))
        s = int(rng.integers(1, 8))
        assert shift_right_round(v, s) == round_half_up_oracle(Fraction(v, 1 << s))
