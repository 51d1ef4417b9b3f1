import numpy as np
import pytest

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
from lutfit.nonlin import Kind, default_spec
from lutfit.pwl import MIN_GAP, BreakpointSet, derive_table, fitness_mse
from lutfit.evalbench import brute_force_oracle

GELU = default_spec(Kind.GELU)
EXP = default_spec(Kind.EXP)


def bset(points, search_range=(-4.0, 4.0)):
    return BreakpointSet(points=tuple(float(p) for p in points), search_range=search_range)


def small_cfg(**kw):
    base = dict(n_breakpoints=5, population_size=12, iterations=30, seed=0)
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
    cfg = GaConfig(n_breakpoints=7, population_size=20, seed=5)
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
    assert gaussian_mutate(p, 1e-300, GELU, make_rng(3)) == p


def test_gaussian_mutate_bounds_and_determinism():
    p = bset([-3.9, 0, 3.9])
    a = gaussian_mutate(p, 2.0, GELU, make_rng(9))
    b = gaussian_mutate(p, 2.0, GELU, make_rng(9))
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
    cfg = small_cfg(seed=123)
    a = evolve(GELU, cfg)
    b = evolve(GELU, cfg)
    assert a == b


def test_evolve_zero_iterations_returns_best_initial():
    cfg = small_cfg(iterations=0, seed=7)
    table = evolve(GELU, cfg)

    # independent replay: the initial population is drawn first from the
    # same stream, so the winner must be its fitness argmin, FXP-rounded
    pop = init_population(cfg, GELU, make_rng(7))
    best = min(pop, key=lambda ind: fitness_mse(derive_table(GELU, ind), GELU))
    assert table.breakpoints == best


def test_evolve_log_tracks_generations():
    log = []
    cfg = small_cfg(iterations=12)
    evolve(GELU, cfg, log=log)
    assert len(log) == 13
    assert [g for g, _ in log] == list(range(13))


def test_evolve_params_on_fxp_grid():
    table = evolve(GELU, small_cfg(fxp_frac_bits=5))
    for v in table.slopes + table.intercepts:
        assert v == round(v * 32) / 32


def test_selection_only_drift_loses_diversity():
    # with crossover and mutation off, evolution is repeated tournament
    # selection, and the genotype set can only shrink
    cfg = GaConfig(n_breakpoints=3, population_size=16, cross_prob=0.0, mutate_prob=0.0)
    rng = make_rng(11)
    pop = init_population(cfg, GELU, rng)
    fitness = [fitness_mse(derive_table(GELU, ind), GELU) for ind in pop]
    for _ in range(5):
        nxt = [pop[k] for k in _tournament_picks(fitness, rng)]
        assert set(nxt) <= set(pop)
        pop = nxt
        fitness = [fitness_mse(derive_table(GELU, ind), GELU) for ind in pop]


def test_smoothed_min_fitness_descends():
    # per run, at least 90% of the 20-generation-smoothed steps must not increase
    for seed in range(5):
        log = []
        cfg = GaConfig(n_breakpoints=7, population_size=50, iterations=100, seed=seed)
        evolve(GELU, cfg, log=log)
        series = [m for _, m in log[:-1]]
        win = 20
        sm = [sum(series[i : i + win]) / win for i in range(len(series) - win + 1)]
        steps = [b <= a * (1 + 1e-9) for a, b in zip(sm, sm[1:])]
        assert sum(steps) / len(steps) >= 0.9, f"seed {seed}"


def test_short_ga_tracks_oracle_on_exp():
    oracle = brute_force_oracle(EXP, 1, 0.05)
    oracle_mse = fitness_mse(oracle, EXP)
    cfg = GaConfig(
        n_breakpoints=1,
        population_size=50,
        iterations=150,
        mutation_kind=MutationKind.GAUSSIAN,
        seed=3,
    )
    table = evolve(EXP, cfg)
    float_mse = fitness_mse(derive_table(EXP, table.breakpoints), EXP)
    assert float_mse <= 1.3 * oracle_mse
