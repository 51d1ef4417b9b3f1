"""Compile the C headers that export writes and run the datapath rule on them.

intsim's rule, in C over the header's macros and arrays: the segment is the
number of breakpoints <= q, and the accumulator is k*q plus the intercept
scaled by 2^-e (exact for e <= 0, rounding half up for e > 0). For every
input code the compiled program's accumulator must equal
int_pwl(q) * 2^frac_bits exactly.
"""

import shutil
import subprocess

import numpy as np
import pytest

from lutfit.artifacts import Provenance, render_c_header
from lutfit.fxp import DatapathConfig, int_bounds
from lutfit.intsim import int_pwl
from lutfit.nonlin import Kind, default_spec
from lutfit.pwl import derive_table, fxp_round_table, repaired_breakpoints
from lutfit.quant import PowTwoScale, quantize_table

CC = shutil.which("cc")

INT8 = DatapathConfig(input_bits=8)
INT16 = DatapathConfig(input_bits=16)
# 8-bit slopes and intercepts, so the header declares them int8_t
NARROW = DatapathConfig(input_bits=8, param_bits=8)

# Breakpoints per operator: evenly spread for gelu and hswish, and for exp
# crowded toward 0, so that coarse scales collapse them.
POINTS = {
    Kind.GELU: np.linspace(-3.2, 3.2, 7),
    Kind.HSWISH: np.linspace(-3.6, 3.6, 15),
    Kind.EXP: -np.geomspace(7.5, 0.05, 15),
}

# (operator, datapath, scale exponent)
CASES = [
    (Kind.GELU, INT8, -5), (Kind.GELU, INT8, -2), (Kind.GELU, INT8, 1),
    (Kind.GELU, INT16, -12), (Kind.GELU, INT16, -7),
    (Kind.GELU, NARROW, -5),
    (Kind.HSWISH, INT8, -4), (Kind.HSWISH, INT8, -1),
    (Kind.HSWISH, INT16, -11), (Kind.HSWISH, INT16, -3),
    (Kind.EXP, INT8, -4), (Kind.EXP, INT8, -1), (Kind.EXP, INT8, 2),
    (Kind.EXP, INT16, -12), (Kind.EXP, INT16, -9),
]

PROGRAM = r"""
#include <inttypes.h>
#include <stdio.h>

/* b * 2^-e: a product for e <= 0 (shifting a negative value left is
   undefined), and for e > 0 the floor of (b + 2^(e-1)) / 2^e */
static int64_t scale_intercept(int64_t b, int e)
{
    if (e <= 0)
        return b * ((int64_t)1 << -e);
    int64_t d = (int64_t)1 << e, v = b + d / 2;
    return v / d - (v % d < 0);
}

#define RUN(P, INPUT_BITS)                                                    \
    for (int64_t q = -((int64_t)1 << ((INPUT_BITS) - 1));                     \
         q < ((int64_t)1 << ((INPUT_BITS) - 1)); q++) {                       \
        int s = 0;                                                            \
        while (s < P##_ENTRIES - 1 && P##_BREAKPOINTS[s] <= q)                \
            s++;                                                              \
        printf("%" PRId64 "\n", (int64_t)P##_SLOPES[s] * q                    \
               + scale_intercept(P##_INTERCEPTS[s], P##_SCALE_EXP));          \
    }
"""


def case_name(kind, datapath, e):
    sign = "m" if e < 0 else "p"
    return f"{kind.value}_in{datapath.input_bits}_p{datapath.param_bits}_e{sign}{abs(e)}"


def qtable(kind, datapath, e):
    spec = default_spec(kind)
    table = derive_table(spec, repaired_breakpoints(POINTS[kind], spec.search_range))
    return quantize_table(fxp_round_table(table, datapath.frac_bits), PowTwoScale(e), datapath)


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """Each case's table and the accumulators the compiled program gives for
    every input code, in ascending order."""
    if CC is None:
        pytest.skip("no C compiler: cc is not on the PATH")
    tables = {case_name(*case): (case, qtable(*case)) for case in CASES}
    headers = [render_c_header(qt, Provenance("test", 0), name, case[1])
               for name, (case, qt) in tables.items()]
    runs = [f"    RUN({name.upper()}, {case[1].input_bits})"
            for name, (case, _) in tables.items()]
    source = "\n".join([*headers, PROGRAM, "int main(void)\n{", *runs, "    return 0;\n}\n"])
    work = tmp_path_factory.mktemp("cheader")
    (work / "check.c").write_text(source)
    subprocess.run([CC, "-std=c99", "-O1", "-Wall", "-Werror", "-o", "check", "check.c"],
                   cwd=work, check=True, capture_output=True)
    out = np.array(subprocess.run([str(work / "check")], check=True, capture_output=True,
                                  text=True).stdout.split(), dtype=np.int64)
    accs, start = {}, 0
    for name, (case, qt) in tables.items():
        size = 1 << case[1].input_bits
        accs[name] = (qt, out[start : start + size])
        start += size
    assert start == out.size
    return accs


@pytest.mark.parametrize("case", CASES, ids=[case_name(*case) for case in CASES])
def test_header_runs_the_simulated_datapath(compiled, case):
    qt, accs = compiled[case_name(*case)]
    datapath = case[1]
    q_lo, q_hi = int_bounds(datapath.input_bits)
    q = np.arange(q_lo, q_hi + 1)
    expected = np.ldexp(int_pwl(q, qt, datapath), datapath.frac_bits)
    assert np.all(np.abs(expected) < 2.0**53)  # so the float holds the integer exactly
    assert np.array_equal(accs, expected.astype(np.int64))


def test_cases_cover_collapse_and_narrow_types(compiled):
    # a positive exponent rounds the intercept shift, a coarse scale
    # collapses exp's crowded breakpoints, and 8-bit parameters give int8_t
    assert any(e > 0 for _, _, e in CASES)
    collapsed = [name for name, (qt, _) in compiled.items() if qt.dropped_segments]
    assert any(name.startswith("exp_in8") for name in collapsed)
    narrow = qtable(Kind.GELU, NARROW, -5)
    header = render_c_header(narrow, Provenance("test", 0), "narrow", NARROW)
    assert "static const int8_t NARROW_SLOPES" in header
