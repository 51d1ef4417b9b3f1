"""End-to-end acceptance suite.

Every fitted table used here comes from the full stock configuration
(population 50, 500 generations) over the five canonical seeds 0..4; fits
are cached across criteria. Each criterion prints one PASS/FAIL line
(visible with pytest -s or on failure).
"""

import hashlib
import math
import statistics
import time
from dataclasses import replace

import numpy as np

from lutfit.cli import cmd_fit
from lutfit.config import config_from_dict, default_ga_config
from lutfit.evalbench import quant_aware_mse, sweep_scales, wide_range_mse
from lutfit.evolve import GaConfig, MutationKind, evolve, make_rng, rounding_mutate
from lutfit.fxp import DatapathConfig
from lutfit.intsim import int_pwl, segment_index
from lutfit.nonlin import Kind, NonLinSpec, default_spec, eval_ref
from lutfit.pwl import (
    BreakpointSet,
    derive_table,
    eval_pwl,
    fitness_mse,
    fxp_round_table,
    repaired_breakpoints,
)
from lutfit.quant import (
    PowTwoScale,
    dequantize,
    get_plan,
    quantize,
    quantize_table,
)

from oracle import breakpoint_deviation, brute_force_oracle

SEEDS = (0, 1, 2, 3, 4)
SWEEP = tuple(range(-6, 0))
LAMBDA = 5
DP = DatapathConfig()

# Reference operator-level average MSE (this method, with rounding mutation).
TABLE3_RM = {
    (Kind.GELU, 8): 9.4e-5,
    (Kind.GELU, 16): 9.6e-5,
    (Kind.HSWISH, 8): 2.9e-4,
    (Kind.HSWISH, 16): 2.2e-4,
    (Kind.EXP, 8): 1.2e-4,
    (Kind.EXP, 16): 7.4e-5,
}
# Baseline rows the fits must never be worse than.
NNLUT = {
    (Kind.GELU, 8): 1.3e-3,
    (Kind.GELU, 16): 2.7e-4,
    (Kind.HSWISH, 8): 1.2e-3,
    (Kind.HSWISH, 16): 7.9e-4,
    (Kind.EXP, 8): 6.4e-4,
    (Kind.EXP, 16): 2.3e-4,
}
TABLE3_WIDE = {Kind.DIV: 7.8e-4, Kind.RSQRT: 1.2e-3}

# sha256 of the full-length stock seed-0 8-entry fit artifact per operator.
GOLDEN_500 = {
    Kind.GELU: "ceeefa970ce4af0d48fb0fabd1dfd7555896c4b037064b31c08e6f157c159327",
    Kind.HSWISH: "2990a4e03772ea24b876003fcb1372f53c9eca932ca193570f849eaa3f24ff61",
    Kind.EXP: "fbdccb8320bd78d8095363a6c8cadd1604606ebbcdb20e0bfc0c010d0f7f8832",
    Kind.DIV: "3175024c11981c961bfa416c730a4cf066c632710875a8c2e4843fa5260f9f07",
    Kind.RSQRT: "58539ceb14927c26a750d811f4e6c41efd33346a5813ce4586d07f4f760a9b7a",
}

_fit_cache: dict = {}
_fit_seconds: dict = {}


def float_segment_index(table, x: np.ndarray) -> np.ndarray:
    """Segment the real-valued table selects for each input x."""
    return np.searchsorted(np.asarray(table.breakpoints), x, side="right")


def get_fit(kind, entries=8, seed=0, mutation=None, n_breakpoints=None):
    key = (kind, entries, seed, mutation, n_breakpoints)
    if key not in _fit_cache:
        cfg = default_ga_config(kind, entries)
        if mutation is not None:
            cfg = replace(cfg, mutation_kind=mutation)
        if n_breakpoints is not None:
            cfg = replace(cfg, n_breakpoints=n_breakpoints)
        spec = default_spec(kind)
        start = time.monotonic()
        _fit_cache[key] = fxp_round_table(evolve(spec, cfg, seed), LAMBDA)
        _fit_seconds[key] = time.monotonic() - start
    return _fit_cache[key]


def test_criterion_1_table3_reproduction():
    failures = []
    lines = []
    for (kind, entries), target in TABLE3_RM.items():
        averages = []
        for seed in SEEDS:
            table = get_fit(kind, entries, seed)
            report = sweep_scales(table, exponents=SWEEP, datapath=DP)
            averages.append(report.average_mse)
        med = statistics.median(averages)
        ok = med <= 3 * target and med <= NNLUT[(kind, entries)]
        lines.append(f"{kind.value}-{entries}: median {med:.3e} "
                     f"(3x gate {3 * target:.2e}, reference row {NNLUT[(kind, entries)]:.1e})")
        if not ok:
            failures.append(lines[-1])

    # pointwise plausibility: gelu(0) = 0, fitted value there stays within
    # two standard deviations of the reference average MSE (seed-dependent,
    # so checked at the median)
    at_zero = statistics.median(
        abs(eval_pwl(get_fit(Kind.GELU, 8, s), 0.0)) for s in SEEDS
    )
    assert at_zero <= 2 * math.sqrt(TABLE3_RM[(Kind.GELU, 8)])

    # at the natural 8-bit scale all fitted breakpoints survive quantization
    for seed in SEEDS:
        qt = quantize_table(get_fit(Kind.GELU, 8, seed), PowTwoScale(-5), DP)
        assert qt.dropped_segments == ()
    slowest = max(_fit_seconds.values())
    print(f"ACCEPTANCE 1 (operator MSE, {len(TABLE3_RM)} cells, "
          f"slowest fit {slowest:.1f}s): {'FAIL' if failures else 'PASS'}")
    for line in lines:
        print("   " + line)
    assert not failures, failures
    assert slowest < 60.0, f"fit exceeded the runtime budget: {slowest:.1f}s"


def test_criterion_2_wide_range_operators():
    failures = []
    lines = []
    for kind, target in TABLE3_WIDE.items():
        plan = get_plan(f"{kind.value}-int8")
        values = []
        for seed in SEEDS:
            cfg = default_ga_config(kind, 8)
            assert cfg.rm_prob == 0.0  # rounding mutation disabled for these
            values.append(wide_range_mse(get_fit(kind, 8, seed), plan))
        med = statistics.median(values)
        ok = med <= 3 * target
        lines.append(f"{kind.value}-8: median {med:.3e} (gate {3 * target:.2e})")
        if not ok:
            failures.append(lines[-1])
    print(f"ACCEPTANCE 2 (wide-range operators): {'FAIL' if failures else 'PASS'}")
    for line in lines:
        print("   " + line)
    assert not failures, failures


def test_criterion_3_rounding_mutation_large_scale_trend():
    wins = 0
    detail = []
    for seed in SEEDS:
        t_rm = get_fit(Kind.GELU, 8, seed)
        t_g = get_fit(Kind.GELU, 8, seed, mutation=MutationKind.GAUSSIAN)
        s_rm = sum(quant_aware_mse(t_rm, PowTwoScale(e), DP) for e in (-2, -1, 0))
        s_g = sum(quant_aware_mse(t_g, PowTwoScale(e), DP) for e in (-2, -1, 0))
        wins += s_rm <= s_g
        detail.append(f"seed {seed}: rm {s_rm:.2e} vs gaussian {s_g:.2e}")
    print(f"ACCEPTANCE 3 (rounding-mutation trend at e in -2..0): {wins}/5 "
          f"{'PASS' if wins >= 4 else 'FAIL'}")
    for line in detail:
        print("   " + line)
    assert wins >= 4, detail


def test_criterion_4_oracle_dominance():
    spec = default_spec(Kind.EXP)
    failures = []
    for nb in (1, 2):
        start = time.monotonic()
        oracle = brute_force_oracle(spec, nb, 0.05)
        oracle_seconds = time.monotonic() - start
        oracle_mse = fitness_mse(oracle)
        ratios = []
        for seed in SEEDS:
            table = get_fit(Kind.EXP, 8, seed, mutation=MutationKind.GAUSSIAN, n_breakpoints=nb)
            float_table = derive_table(spec, BreakpointSet(table.breakpoints))
            ratios.append(fitness_mse(float_table) / oracle_mse)
        med = statistics.median(ratios)
        ok = med <= 1.05 and oracle_seconds < 30.0
        print(f"ACCEPTANCE 4 (oracle dominance, {nb} breakpoints): median ratio {med:.4f}, "
              f"oracle {oracle_seconds:.1f}s {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append((nb, med, oracle_seconds))
    assert not failures, failures


def test_criterion_5_integer_datapath_equivalence():
    checked = 0
    max_dev_error = 0.0
    q = np.arange(-128, 128)
    for (kind, entries) in TABLE3_RM:
        for seed in SEEDS:
            table = get_fit(kind, entries, seed)
            for e in range(-6, 1):
                scale = PowTwoScale(e)
                qtable = quantize_table(table, scale, DP)
                s = scale.value
                x = s * q
                # deviation from a plain integer compare, independent of segment_index
                own_idx = (q[:, None] >= np.asarray(qtable.breakpoints_q)).sum(axis=1)
                own_original = np.asarray(qtable.source_segments)[own_idx]
                deviated = own_original != float_segment_index(table, x)
                assert breakpoint_deviation(table, qtable, 8) == tuple(
                    int(v) for v in q[deviated]
                ), (kind, entries, seed, e)
                err = np.abs(s * int_pwl(q, qtable, DP) - eval_pwl(table, x))
                int_original = np.asarray(qtable.source_segments)[segment_index(q, qtable)]
                agree = int_original == float_segment_index(table, x)
                max_dev_error = max(max_dev_error, float(err[deviated].max(initial=0.0)))
                tol = s * 2.0 ** -LAMBDA * (1 + np.abs(q)) + s * 2.0 ** -(LAMBDA + 1)
                off = ~deviated
                assert np.all(err[off] <= tol[off]), (kind, entries, seed, e, q[off & (err > tol)])
                assert np.all(agree[off]), (kind, entries, seed, e, q[off & ~agree])
                checked += int(off.sum())
    print(f"ACCEPTANCE 5 (integer datapath): PASS "
          f"({checked} off-deviation points exact, worst on-deviation error "
          f"{max_dev_error:.3e})")
    assert checked > 0


def test_criterion_6_property_suite():
    results = []

    # pwl exactness on linear functions: hswish(x) = x on (3, 8)
    linear = NonLinSpec(Kind.HSWISH, (3.0, 8.0))
    spec = default_spec(Kind.GELU)
    bps = BreakpointSet(points=(3.5, 5.0, 7.25))
    lin_mse = fitness_mse(derive_table(linear, bps))
    results.append(("linear exactness", lin_mse <= 1e-12, f"mse {lin_mse:.1e}"))

    # continuity at breakpoints of derived tables (fitted + random)
    worst_gap = 0.0
    rng = np.random.default_rng(5)
    tables = [derive_table(spec, BreakpointSet(get_fit(Kind.GELU, 8, s).breakpoints))
              for s in SEEDS]
    for _ in range(10):
        pts = repaired_breakpoints(rng.uniform(-4, 4, size=7), spec.search_range)
        tables.append(derive_table(spec, pts))
    for table in tables:
        for i, p in enumerate(table.breakpoints):
            gap = abs(
                table.slopes[i] * p + table.intercepts[i]
                - table.slopes[i + 1] * p - table.intercepts[i + 1]
            )
            worst_gap = max(worst_gap, gap)
    results.append(("breakpoint continuity", worst_gap < 1e-9, f"worst gap {worst_gap:.1e}"))

    # quantize/dequantize round-trip bound
    ok_rt = True
    for e in (-6, -3, 0):
        scale = PowTwoScale(e)
        for x in rng.uniform(-100 * scale.value, 100 * scale.value, size=200):
            back = dequantize(quantize(float(x), scale, 8), scale)
            ok_rt &= abs(back - x) <= scale.value / 2 + 1e-15
    results.append(("quantize round-trip bound", ok_rt, "|x - deq(q)| <= S/2"))

    # composition identity at every finite sub-range boundary
    ok_comp = True
    for kind in (Kind.DIV, Kind.RSQRT):
        wspec = default_spec(kind)
        plan = get_plan(f"{kind.value}-int8")
        from lutfit.quant import select_subrange

        for x in [sr.lo for sr in plan.sub_ranges]:
            e, rescale = select_subrange(x, plan)
            ok_comp &= rescale * eval_ref(wspec, math.ldexp(x, e)) == eval_ref(wspec, x)
    results.append(("composition identity", ok_comp, "exact at plan boundaries"))

    # determinism: identical seeded runs produce byte-identical artifacts
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name in ("a", "b"):
            cfg = config_from_dict({"function": "gelu", "seeds": [11], "ga": {"iterations": 40},
                                    "output": {"dir": os.path.join(tmp, name)}})
            runs.append([open(p, "rb").read() for p in cmd_fit(cfg)])
        ok_det = runs[0] == runs[1]
    results.append(("determinism", ok_det, "byte-identical artifacts"))

    # export round-trip identity on the quantized table
    from lutfit.artifacts import Provenance, read_artifact, write_qtable_artifact

    qt = quantize_table(get_fit(Kind.GELU, 8, 0), PowTwoScale(-5), DP)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.qtable.json")
        write_qtable_artifact(path, qt, Provenance("hash", 0))
        loaded, _ = read_artifact(path)
    results.append(("export round-trip", loaded == qt, "QPwlTable identity"))

    # rounding mutation with zero probability is a no-op
    cfg0 = GaConfig(n_breakpoints=7, rm_prob=0.0)
    pts = repaired_breakpoints(rng.uniform(-4, 4, size=7), spec.search_range)
    ok_noop = all(
        rounding_mutate(pts, cfg0, spec.search_range, make_rng(s)) == pts for s in range(10)
    )
    results.append(("zero-probability mutation no-op", ok_noop, "identity"))

    all_ok = all(ok for _, ok, _ in results)
    print(f"ACCEPTANCE 6 (property suite): {'PASS' if all_ok else 'FAIL'}")
    for name, ok, detail in results:
        print(f"   {name}: {'pass' if ok else 'FAIL'} ({detail})")
    assert all_ok, [r for r in results if not r[1]]


def test_full_length_fits_match_golden_digests():
    from lutfit.artifacts import Provenance, fit_artifact_text

    digests = {
        kind: hashlib.sha256(
            fit_artifact_text(get_fit(kind, 8, 0), Provenance("golden", 0)).encode()
        ).hexdigest()
        for kind in GOLDEN_500
    }
    moved = [kind.value for kind in GOLDEN_500 if digests[kind] != GOLDEN_500[kind]]
    print(f"GOLDEN (500-generation stock fits): {'FAIL ' + str(moved) if moved else 'PASS'}")
    assert not moved, moved
