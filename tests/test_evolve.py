import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lutfit.config import default_ga_config
from lutfit.evolve import (
    GaConfig,
    MutationKind,
    _rm_exponent,
    _tournament_picks,
    crossover,
    evolve,
    gaussian_mutate,
    init_population,
    make_rng,
    rounding_mutate,
)
from lutfit.fxp import fxp_round
from lutfit.nonlin import Kind, default_spec
from lutfit.pwl import (
    MIN_GAP,
    BreakpointSet,
    GapError,
    derive_table,
    fitness_mse,
    repair_points,
)

from oracle import brute_force_oracle

GELU = default_spec(Kind.GELU)
EXP = default_spec(Kind.EXP)


def bset(points, search_range=(-4.0, 4.0)):
    return BreakpointSet(points=tuple(float(p) for p in points), search_range=search_range)


def small_cfg(**kw):
    base = dict(n_breakpoints=5, population_size=12, iterations=30)
    base.update(kw)
    return GaConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(cross_prob=1.5)
    with pytest.raises(ValueError):
        GaConfig(rm_range=(3, 2))
    with pytest.raises(ValueError):
        GaConfig(rm_range=(-1, 3))
    with pytest.raises(ValueError):
        GaConfig(rm_prob=0.2, rm_range=(0, 6))  # 7 * 0.2 > 1
    with pytest.raises(ValueError):
        GaConfig(gaussian_sigma=0.0)
    with pytest.raises(ValueError):
        GaConfig(population_size=0)


def test_init_population_shape_and_bounds():
    cfg = GaConfig(n_breakpoints=7, population_size=50)
    pop = init_population(cfg, GELU, make_rng(1))
    assert len(pop) == 50
    for ind in pop:
        pts = np.asarray(ind.points)
        assert pts.size == 7
        assert np.all(np.diff(pts) > 0)
        assert pts[0] > -4.0 and pts[-1] < 4.0


def test_init_population_deterministic():
    cfg = GaConfig(n_breakpoints=7, population_size=20)
    a = init_population(cfg, GELU, make_rng(5))
    b = init_population(cfg, GELU, make_rng(5))
    assert a == b


def test_init_population_single_breakpoint():
    cfg = GaConfig(n_breakpoints=1, population_size=4)
    pop = init_population(cfg, GELU, make_rng(0))
    assert all(len(ind) == 1 for ind in pop)


def test_crossover_identical_parents():
    a = bset([-3, 0, 3])
    out_a, out_b = crossover(a, a, make_rng(0))
    assert out_a == a and out_b == a


def test_crossover_full_span_exchanges_parents():
    a = bset([-3, 0, 3])
    b = bset([-2, 1, 2])
    out_a, out_b = crossover(a, b, make_rng(0), span=(0, 2))
    assert out_a == b and out_b == a


def test_crossover_single_index_hand_trace():
    a = bset([-3, 0, 3])
    b = bset([-2, 1, 2])
    out_a, out_b = crossover(a, b, make_rng(0), span=(1, 1))
    assert out_a.points == (-3.0, 1.0, 3.0)
    assert out_b.points == (-2.0, 0.0, 2.0)


def test_crossover_all_spans_preserve_invariants():
    a = bset([-3, -1, 0.5, 2])
    b = bset([-2.5, -0.5, 1, 3])
    n = len(a)
    for i in range(n):
        for j in range(i, n):
            out_a, out_b = crossover(a, b, make_rng(0), span=(i, j))
            for out in (out_a, out_b):
                pts = np.asarray(out.points)
                assert np.all(np.diff(pts) >= MIN_GAP - 1e-12)
            # swapped multiset is preserved before repair; with these
            # well-separated parents repair never fires
            merged = sorted(out_a.points + out_b.points)
            assert merged == sorted(a.points + b.points)


def test_crossover_rejects_mismatched_parents():
    with pytest.raises(ValueError):
        crossover(bset([-1, 1]), bset([-1, 0, 1]), make_rng(0))


def test_gaussian_mutate_degenerate_noise_is_identity():
    # nonzero points absorb 1e-300 noise exactly
    p = bset([-2, 0.5, 2])
    assert gaussian_mutate(p, 1e-300, make_rng(3)) == p


def test_gaussian_mutate_bounds_and_determinism():
    p = bset([-3.9, 0, 3.9])
    a = gaussian_mutate(p, 2.0, make_rng(9))
    b = gaussian_mutate(p, 2.0, make_rng(9))
    assert a == b
    pts = np.asarray(a.points)
    assert pts[0] >= -4.0 and pts[-1] <= 4.0
    assert np.all(np.diff(pts) >= MIN_GAP - 1e-12)


def test_rm_exponent_interval_mapping():
    # i chosen when i*prob <= rand < (i+1)*prob, restricted to [ma, mb]
    assert _rm_exponent(0.00, 0.05, (0, 6)) == 0
    assert _rm_exponent(0.07, 0.05, (0, 6)) == 1
    assert _rm_exponent(0.349, 0.05, (0, 6)) == 6
    assert _rm_exponent(0.36, 0.05, (0, 6)) is None
    assert _rm_exponent(0.9, 0.05, (0, 6)) is None
    assert _rm_exponent(0.07, 0.05, (2, 6)) is None
    assert _rm_exponent(0.12, 0.05, (2, 6)) == 2
    assert _rm_exponent(0.9, 0.0, (0, 6)) is None


def test_rounding_mutate_zero_prob_is_identity():
    cfg = GaConfig(n_breakpoints=3, rm_prob=0.0)
    p = bset([-2.123, 0.456, 2.789])
    assert rounding_mutate(p, cfg, make_rng(4)) == p


def test_rounding_mutate_fixed_points_on_grid():
    # integer-grid values are fixed points of every 2^-i rounding
    cfg = GaConfig(n_breakpoints=3, rm_prob=0.05, rm_range=(0, 6))
    p = bset([-2.0, 1.0, 3.0])
    for seed in range(20):
        assert rounding_mutate(p, cfg, make_rng(seed)) == p


def test_rounding_mutate_snaps_to_grids():
    cfg = GaConfig(n_breakpoints=4, rm_prob=0.125, rm_range=(0, 1))
    p = bset([-2.3, -0.6, 1.37, 3.1])
    hits = 0
    for seed in range(40):
        out = rounding_mutate(p, cfg, make_rng(seed))
        for before, after in zip(p.points, out.points):
            if after != before:
                hits += 1
                assert after == round(after * 2) / 2  # on the 2^-1 grid or coarser
    assert hits > 0


def test_rounding_mutate_rate_matches_interval_width():
    # per-element mutation probability is (mb - ma + 1) * rm_prob
    cfg = GaConfig(n_breakpoints=6, rm_prob=0.05, rm_range=(0, 6))
    p = bset([-3.313, -2.177, -1.031, 0.618, 1.592, 3.141])
    changed = total = 0
    for seed in range(300):
        out = rounding_mutate(p, cfg, make_rng(seed))
        for before, after in zip(p.points, out.points):
            total += 1
            changed += after != before
    rate = changed / total
    assert 0.25 < rate < 0.45  # nominal 0.35, minus reverted collisions


def test_tournament_all_equal_resamples_population():
    picks = _tournament_picks([1.0] * 6, make_rng(2))
    assert len(picks) == 6
    assert set(picks) <= set(range(6))


def test_tournament_single_individual():
    assert _tournament_picks([0.5], make_rng(0)) == [0]


def test_tournament_best_copy_expectation():
    # with one strictly best individual, each slot copies it with
    # probability 1 - ((n-1)/n)^3; check the Monte-Carlo mean over seeds
    n = 10
    fitnesses = [1.0] * n
    fitnesses[4] = 0.1
    copies = []
    for seed in range(200):
        picks = _tournament_picks(fitnesses, make_rng(seed))
        copies.append(picks.count(4))
    expected = n * (1 - ((n - 1) / n) ** 3)  # 2.71
    mean = sum(copies) / len(copies)
    assert mean >= 1.0
    assert abs(mean - expected) < 0.5


def test_evolve_deterministic():
    cfg = small_cfg()
    a = evolve(GELU, cfg, 123)
    b = evolve(GELU, cfg, 123)
    assert a == b


def test_evolve_zero_iterations_returns_best_initial():
    cfg = small_cfg(iterations=0)
    table = evolve(GELU, cfg, 7)

    # independent replay: the initial population is drawn first from the
    # same stream, so the winner must be its fitness argmin
    pop = init_population(cfg, GELU, make_rng(7))
    best = min(pop, key=lambda ind: fitness_mse(derive_table(GELU, ind)))
    assert table.breakpoints == best


def test_evolve_log_tracks_generations():
    log = []
    cfg = small_cfg(iterations=12)
    evolve(GELU, cfg, 0, log=log)
    assert len(log) == 13
    assert [g for g, _ in log] == list(range(13))


def test_selection_only_drift_loses_diversity():
    # with crossover and mutation off, evolution is repeated tournament
    # selection, and the genotype set can only shrink
    cfg = GaConfig(n_breakpoints=3, population_size=16, cross_prob=0.0, mutate_prob=0.0)
    rng = make_rng(11)
    pop = init_population(cfg, GELU, rng)
    fitness = [fitness_mse(derive_table(GELU, ind)) for ind in pop]
    for _ in range(5):
        nxt = [pop[k] for k in _tournament_picks(fitness, rng)]
        assert set(nxt) <= set(pop)
        pop = nxt
        fitness = [fitness_mse(derive_table(GELU, ind)) for ind in pop]


def test_smoothed_min_fitness_descends():
    # per run, at least 90% of the 20-generation-smoothed steps must not increase
    for seed in range(5):
        log = []
        cfg = GaConfig(n_breakpoints=7, population_size=50, iterations=100)
        evolve(GELU, cfg, seed, log=log)
        series = [m for _, m in log[:-1]]
        win = 20
        sm = [sum(series[i : i + win]) / win for i in range(len(series) - win + 1)]
        steps = [b <= a * (1 + 1e-9) for a, b in zip(sm, sm[1:])]
        assert sum(steps) / len(steps) >= 0.9, f"seed {seed}"


def test_short_ga_tracks_oracle_on_exp():
    oracle = brute_force_oracle(EXP, 1, 0.05)
    oracle_mse = fitness_mse(oracle)
    cfg = GaConfig(
        n_breakpoints=1,
        population_size=50,
        iterations=150,
        mutation_kind=MutationKind.GAUSSIAN,
    )
    table = evolve(EXP, cfg, 3)
    float_mse = fitness_mse(derive_table(EXP, table.breakpoints))
    assert float_mse <= 1.3 * oracle_mse


def test_memo_scores_under_half_of_the_walk(monkeypatch):
    # rounding snaps and tournament copies make most individuals repeats, so
    # a working two-generation memo scores well under half of the walk
    # the package rebinds lutfit.evolve to the function; this is the module
    evolve_module = importlib.import_module("lutfit.evolve")
    shared_scorer = evolve_module.fitness_scorer
    calls = []

    def counting_scorer(spec):
        scorer = shared_scorer(spec)

        def score(points):
            calls.append(points)
            return scorer(points)

        return score

    monkeypatch.setattr(evolve_module, "fitness_scorer", counting_scorer)
    cfg = replace(default_ga_config(Kind.GELU, 8), iterations=60)
    evolve(GELU, cfg, 0)
    assert len(calls) < 0.5 * cfg.population_size * cfg.iterations


# numpy references: the variation operators as first written, on arrays.
# The float-tuple operators must return the same floats bit for bit and
# draw the same numbers from the RNG.


def reference_repair_points(values, search_range, min_gap=MIN_GAP):
    pts = np.sort(np.asarray(values, dtype=float))
    lo, hi = search_range
    n = pts.size
    if hi - lo < (n + 1) * min_gap:
        raise GapError(f"range ({lo}, {hi}) cannot hold {n} points at gap {min_gap}")
    np.clip(pts, lo + min_gap, hi - min_gap, out=pts)
    for k in range(1, n):
        if pts[k] < pts[k - 1] + min_gap:
            pts[k] = pts[k - 1] + min_gap
    if pts[-1] > hi - min_gap:
        pts[-1] = hi - min_gap
        for k in range(n - 2, -1, -1):
            if pts[k] > pts[k + 1] - min_gap:
                pts[k] = pts[k + 1] - min_gap
            else:
                break
    return pts


def reference_crossover(a, b, rng):
    n = len(a)
    cuts = rng.integers(0, n, size=2)
    i, j = int(cuts.min()), int(cuts.max())
    pa = np.asarray(a.points)
    pb = np.asarray(b.points)
    child_a = pa.copy()
    child_b = pb.copy()
    child_a[i : j + 1] = pb[i : j + 1]
    child_b[i : j + 1] = pa[i : j + 1]
    return (
        reference_repair_points(child_a, a.search_range),
        reference_repair_points(child_b, b.search_range),
    )


def reference_gaussian_mutate(p, sigma, spec, rng):
    noisy = np.asarray(p.points) + rng.normal(0.0, sigma, size=len(p))
    np.clip(noisy, spec.search_range[0], spec.search_range[1], out=noisy)
    return reference_repair_points(noisy, p.search_range)


def reference_rounding_mutate(p, cfg, rng):
    out = np.asarray(p.points).copy()
    lo, hi = p.search_range
    draws = rng.random(len(p))
    for idx, rand_p in enumerate(draws):
        i = _rm_exponent(float(rand_p), cfg.rm_prob, cfg.rm_range)
        if i is None:
            continue
        snapped = float(fxp_round(out[idx], i))
        if not (lo + MIN_GAP <= snapped <= hi - MIN_GAP):
            continue
        others = np.delete(out, idx)
        if others.size and np.abs(others - snapped).min() < MIN_GAP:
            continue
        out[idx] = snapped
    return reference_repair_points(out, p.search_range)


def bits(points) -> bytes:
    return np.asarray(points, dtype=float).tobytes()


def next_draws(rng) -> list:
    return rng.integers(0, 2**63, size=4).tolist()


SPECS = [default_spec(kind) for kind in Kind]
SEEDS = st.integers(0, 2**32 - 1)


def range_values(lo, hi):
    """Floats in and just outside [lo, hi]: the ends, a crowd under hi, and
    values near power-of-two grid points, where rounding snaps collide."""
    width = hi - lo
    near_grid = st.builds(
        lambda k, e, d: k / 2**e + d,
        st.integers(int(lo) - 1, int(hi) + 1), st.integers(0, 6),
        st.sampled_from([0.0, 0.005, -0.005, 0.015, -0.015, MIN_GAP]),
    )
    return st.one_of(
        st.floats(lo - 0.1 * width, hi + 0.1 * width),
        st.sampled_from([lo, hi, lo + MIN_GAP, hi - MIN_GAP]),
        st.floats(hi - 4 * MIN_GAP, hi),
        near_grid,
    )


@st.composite
def repair_cases(draw):
    """(search range, values): unsorted, some outside the range, with repeats."""
    lo, hi = draw(st.sampled_from(SPECS)).search_range
    values = draw(st.lists(range_values(lo, hi), min_size=1, max_size=15))
    values += draw(st.lists(st.sampled_from(values), max_size=4))
    return (lo, hi), values


@st.composite
def individuals(draw, spec, n):
    lo, hi = spec.search_range
    inside = range_values(lo, hi).map(lambda v: min(max(v, lo), hi))
    points = draw(st.lists(inside, min_size=n, max_size=n, unique=True))
    return BreakpointSet(points=tuple(sorted(points)), search_range=spec.search_range)


@st.composite
def mutation_cases(draw, max_size=15):
    spec = draw(st.sampled_from(SPECS))
    return spec, draw(individuals(spec, draw(st.integers(1, max_size))))


def repair_outcome(fn, values, search_range):
    try:
        return bits(fn(values, search_range))
    except GapError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(repair_cases())
@example(((-4.0, 4.0), [3.98, 3.98, 3.98]))  # collisions, backward fixup
@example(((-4.0, 4.0), [3.99, -7.0, 3.999, 0.5]))  # clipped at both ends
@example(((0.5, 4.0), [0.5, 0.5, 0.51, 4.0, 4.0]))
@example(((-4.0, 4.0), [0.0] * 500))  # overfull range
def test_repair_points_matches_reference(case):
    search_range, values = case
    assert repair_outcome(repair_points, values, search_range) == repair_outcome(
        reference_repair_points, values, search_range
    )


@st.composite
def parent_pairs(draw):
    spec = draw(st.sampled_from(SPECS))
    n = draw(st.integers(1, 15))
    return draw(individuals(spec, n)), draw(individuals(spec, n))


@settings(max_examples=200, deadline=None)
@given(parent_pairs(), SEEDS)
@example((bset([3.9, 3.95, 3.99]), bset([3.89, 3.91, 3.93])), 0)  # repair fires
def test_crossover_matches_reference(parents, seed):
    rng, ref_rng = make_rng(seed), make_rng(seed)
    children = crossover(*parents, rng)
    expected = reference_crossover(*parents, ref_rng)
    assert [bits(c.points) for c in children] == [bits(c) for c in expected]
    assert next_draws(rng) == next_draws(ref_rng)


@settings(max_examples=200, deadline=None)
@given(mutation_cases(), st.sampled_from([1e-3, 0.05, 1.0, 10.0]), SEEDS)
@example((GELU, bset([-3.99, 3.99])), 10.0, 0)  # noise clipped at lo and hi
def test_gaussian_mutate_matches_reference(case, sigma_share, seed):
    spec, p = case
    lo, hi = spec.search_range
    sigma = sigma_share * (hi - lo)
    rng, ref_rng = make_rng(seed), make_rng(seed)
    out = gaussian_mutate(p, sigma, rng)
    assert bits(out.points) == bits(reference_gaussian_mutate(p, sigma, spec, ref_rng))
    assert next_draws(rng) == next_draws(ref_rng)


@st.composite
def rm_configs(draw):
    ma = draw(st.integers(0, 6))
    mb = draw(st.integers(ma, ma + 3))
    rm_prob = draw(st.sampled_from([0.0, 0.5, 1.0])) / (mb - ma + 1)
    return GaConfig(rm_prob=rm_prob, rm_range=(ma, mb))


@settings(max_examples=300, deadline=None)
@given(mutation_cases(), rm_configs(), SEEDS)
def test_rounding_mutate_matches_reference(case, cfg, seed):
    _, p = case
    rng, ref_rng = make_rng(seed), make_rng(seed)
    out = rounding_mutate(p, cfg, rng)
    assert bits(out.points) == bits(reference_rounding_mutate(p, cfg, ref_rng))
    assert next_draws(rng) == next_draws(ref_rng)


@pytest.mark.parametrize("points", [(0.985, 1.015), (3.9,), (-3.9,)])
def test_rounding_mutate_reverts_blocked_snaps(points):
    # every draw selects a grid; each snap lands within MIN_GAP of the other
    # point (1.0) or of a range end (4.0, -4.0), so it is reverted
    cfg = GaConfig(rm_prob=0.5, rm_range=(0, 1))
    p = bset(points)
    for seed in range(20):
        out = rounding_mutate(p, cfg, make_rng(seed))
        assert out == p
        assert bits(out.points) == bits(reference_rounding_mutate(p, cfg, make_rng(seed)))
