"""Reference implementations of the target non-linear operators.

These are the exact double-precision functions the fitted tables are
measured against. GELU uses the erf form x*Phi(x).
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

from ._fields import FieldError
from ._lazy import lazy_import

np = lazy_import("numpy")


class DomainError(ValueError):
    """Input outside the mathematical domain of the operator."""


class Kind(str, Enum):
    GELU = "gelu"
    HSWISH = "hswish"
    EXP = "exp"
    DIV = "div"
    RSQRT = "rsqrt"


# Operators whose input arrives as scale * q from the quantizer. DIV and
# RSQRT instead consume intermediate fixed-point values with wide ranges.
SCALE_CARRYING = frozenset({Kind.GELU, Kind.HSWISH, Kind.EXP})

# Default fitting ranges per operator.
SEARCH_RANGES: dict[Kind, tuple[float, float]] = {
    Kind.GELU: (-4.0, 4.0),
    Kind.HSWISH: (-4.0, 4.0),
    Kind.EXP: (-8.0, 0.0),
    Kind.DIV: (0.5, 4.0),
    Kind.RSQRT: (0.25, 4.0),
}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@functools.cache
def _erf():
    """math.erf as a ufunc, built on first use so importing loads no numpy."""
    return np.frompyfunc(math.erf, 1, 1)  # 0-d input gives a bare float


@dataclass(frozen=True)
class NonLinSpec:
    """A target operator together with its fitting range."""

    kind: Kind
    search_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.search_range
        if not (lo < hi):
            raise FieldError("search_range", f"search_range must satisfy lo < hi, got ({lo}, {hi})")
        if self.kind in (Kind.DIV, Kind.RSQRT) and lo <= 0.0:
            raise FieldError("search_range", f"{self.kind.value} search range must be strictly "
                                             f"positive, got lo={lo}")

    @property
    def scale_carrying(self) -> bool:
        return self.kind in SCALE_CARRYING


def default_spec(kind: Kind | str) -> NonLinSpec:
    """Spec with the stock search range for the given operator."""
    kind = Kind(kind)
    return NonLinSpec(kind=kind, search_range=SEARCH_RANGES[kind])


def eval_ref(spec: NonLinSpec, x):
    """Exact reference value(s) of the operator at x (scalar or ndarray)."""
    kind = spec.kind
    arr = np.asarray(x, dtype=float)
    if kind in (Kind.DIV, Kind.RSQRT) and np.any(arr <= 0.0):
        raise DomainError(f"{kind.value} requires x > 0")
    if kind is Kind.GELU:
        out = arr * 0.5 * (1.0 + np.asarray(_erf()(arr * _INV_SQRT2), dtype=float))
    elif kind is Kind.HSWISH:
        out = arr * np.clip(arr + 3.0, 0.0, 6.0) / 6.0
    elif kind is Kind.EXP:
        out = np.exp(arr)
    elif kind is Kind.DIV:
        out = 1.0 / arr
    else:
        out = 1.0 / np.sqrt(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def ref_float(spec: NonLinSpec, x: float) -> float:
    """The reference at one point in Python float arithmetic, with inf where
    it overflows. It loads no numpy, for the config reader's checks; eval_ref
    gives the values that tables are fit and measured against."""
    kind = spec.kind
    if kind is Kind.GELU:
        return x * 0.5 * (1.0 + math.erf(x * _INV_SQRT2))
    if kind is Kind.HSWISH:
        return x * min(max(x + 3.0, 0.0), 6.0) / 6.0
    if kind is Kind.EXP:
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf
    if kind is Kind.DIV:
        return 1.0 / x
    return 1.0 / math.sqrt(x)
