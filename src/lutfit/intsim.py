"""Bit-accurate simulation of the integer LUT datapath.

The hardware selects a segment by comparing the quantized input q against
the stored integer breakpoints, multiplies by the fixed-point slope and adds
the intercept shifted by the scale exponent:

    y = k_fxp * q + (b_fxp >> e)

where a negative e is an exact left shift and a positive e rounds the
dropped bits half up. The result carries frac_bits fractional
bits and the implicit scale S, so S * y approximates f(S * q). All
intermediates are checked against the configured accumulator width; an
overflow is a configuration error, never a silent wrap. The accumulator is
at most 63 bits wide, so int64 holds every checked value exactly.
"""

from ._lazy import lazy_import
from .fxp import DatapathConfig, int_bounds, shift_right_round
from .quant import QPwlTable, check_format, segment_index

np = lazy_import("numpy")


class AccumulatorOverflow(OverflowError):
    """An intermediate exceeded the configured accumulator width."""


def int_pwl(q, table: QPwlTable, cfg: DatapathConfig):
    """Integer-datapath output for input q, as the exact fixed-point value.

    q is an int (the result is a float) or an integer ndarray (the result
    is a float ndarray of the same shape). The return value has frac_bits
    fractional bits and carries the table's implicit scale: S * int_pwl(q)
    approximates f(S * q). An overflow names the first offending q.
    """
    if table.scale is None:
        raise ValueError("integer datapath requires a scale-carrying table")
    check_format(table, cfg)
    qa = np.asarray(q)
    if qa.dtype.kind not in "iu":
        raise ValueError(f"q must be an integer or integer array, got dtype {qa.dtype}")
    in_lo, in_hi = int_bounds(cfg.input_bits)
    outside = (qa < in_lo) | (qa > in_hi)
    if outside.any():
        bad = qa.flat[np.argmax(outside)]
        raise ValueError(f"q={bad} outside {cfg.input_bits}-bit input range")
    qa = qa.astype(np.int64)

    e = table.scale.exponent
    acc_bits = cfg.effective_acc_bits
    acc_lo, acc_hi = int_bounds(acc_bits)
    # One shifted intercept per stored entry, in Python ints. An entry past
    # the accumulator enters int64 saturated one beyond its bounds, so the
    # check still fires; the message reports the exact value.
    shifted = [shift_right_round(b, e) for b in table.intercepts_fxp]
    saturated = [min(max(v, acc_lo - 1), acc_hi + 1) for v in shifted]

    i = segment_index(qa, table)
    # |product| <= 2^(acc_bits - 2) and |shifted_b| <= 2^(acc_bits - 1) + 1
    # with acc_bits <= 63, so neither operation wraps in int64.
    product = np.asarray(table.slopes_fxp, dtype=np.int64)[i] * qa
    shifted_b = np.asarray(saturated, dtype=np.int64)[i]
    acc = product + shifted_b
    checks = [
        (name, values, (values < acc_lo) | (values > acc_hi))
        for name, values in (("product", product), ("shifted intercept", shifted_b), ("sum", acc))
    ]
    failed = np.logical_or.reduce([over for _, _, over in checks])
    if failed.any():
        k = np.argmax(failed)
        seg = int(i.flat[k])
        name, values, _ = next(c for c in checks if c[2].flat[k])
        value = shifted[seg] if name == "shifted intercept" else int(values.flat[k])
        raise AccumulatorOverflow(
            f"{name} {value} exceeds acc_bits={acc_bits} "
            f"(q={int(qa.flat[k])}, segment={seg}, scale=2^{e})"
        )
    y = acc / float(1 << cfg.frac_bits)
    return float(y) if np.isscalar(q) else y
