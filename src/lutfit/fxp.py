"""Fixed-point helpers shared by the optimizer, quantizer and simulator.

The project-wide rounding mode is round-half-up (ties toward +inf, the
add-and-truncate rounding hardware implements); every
conversion goes through these helpers so exports stay bit-exact. Ties
toward +inf also keep half-grid breakpoints out of their own deviation
zones after quantization, which ties away from zero would not.
"""

import math

from ._fields import FieldError, frozen

# Widest accumulator int64 arithmetic simulates exactly.
MAX_ACC_BITS = 63


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


@frozen
class DatapathConfig:
    """The table format and bit widths of the integer datapath.

    frac_bits is lambda, the fractional bits of every stored mantissa.
    Slopes and intercepts are param_bits wide, inputs and breakpoints
    input_bits. acc_bits defaults to input_bits + param_bits + 8, leaving
    headroom for the runtime intercept shift (scale exponents down to -8).
    """

    input_bits: int = 8
    param_bits: int = 16
    frac_bits: int = 5
    acc_bits: int | None = None

    def __post_init__(self):
        for name in ("input_bits", "param_bits"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.frac_bits <= MAX_ACC_BITS:
            raise FieldError(
                "frac_bits", f"frac_bits {self.frac_bits} outside 0..{MAX_ACC_BITS}, "
                f"the widest mantissa int64 holds"
            )
        if self.acc_bits is not None and self.acc_bits < self.input_bits + self.param_bits:
            raise FieldError(
                "acc_bits",
                f"acc_bits {self.acc_bits} below input_bits + param_bits "
                f"({self.input_bits + self.param_bits})"
            )
        if self.effective_acc_bits > MAX_ACC_BITS:
            raise FieldError(
                "acc_bits",
                f"acc_bits {self.effective_acc_bits} above {MAX_ACC_BITS}, "
                f"the widest accumulator int64 holds exactly"
            )

    @property
    def effective_acc_bits(self) -> int:
        if self.acc_bits is not None:
            return self.acc_bits
        return self.input_bits + self.param_bits + 8
