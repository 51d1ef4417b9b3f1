"""Fixed-point helpers shared by the optimizer, quantizer and simulator.

The project-wide rounding mode is round-half-up (ties toward +inf, the
add-and-truncate rounding hardware implements); every
conversion goes through these helpers so exports stay bit-exact. Ties
toward +inf also keep half-grid breakpoints out of their own deviation
zones after quantization, which ties away from zero would not.
"""

import math


def round_half_up(x: float) -> int:
    """Round to the nearest integer, ties toward +inf.

    Compares the fraction against a half rather than computing floor(x + 0.5),
    whose addition rounds a value one ulp below a half up to the next integer.
    """
    r = math.floor(x)
    return r + (x - r >= 0.5)


def fxp_round(x: float, frac_bits: int) -> float:
    """Snap x to the 2^-frac_bits grid (nearest, ties toward +inf)."""
    scale = math.ldexp(1.0, frac_bits)
    return round_half_up(x * scale) / scale


def to_mantissa(x: float, frac_bits: int) -> int:
    """Integer mantissa of x at frac_bits fractional bits.

    Exact for values already on the grid; otherwise rounds half up.
    """
    return round_half_up(x * float(1 << frac_bits))


def int_bounds(bits: int) -> tuple[int, int]:
    """(lo, hi) representable range of a signed bits-wide integer."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def saturate(value: int, bits: int) -> int:
    """Clamp an integer into the signed bits-wide representable range."""
    lo, hi = int_bounds(bits)
    return min(max(int(value), lo), hi)


def fits(value: int, bits: int) -> bool:
    lo, hi = int_bounds(bits)
    return lo <= value <= hi


def shift_right_round(value: int, shift: int) -> int:
    """Arithmetic right shift rounding the dropped bits half up.

    shift <= 0 is an exact left shift. Python's arithmetic shift floors,
    so adding half the dropped weight first gives round-half-up exactly.
    """
    if shift <= 0:
        return int(value) << (-shift)
    return (int(value) + (1 << (shift - 1))) >> shift
