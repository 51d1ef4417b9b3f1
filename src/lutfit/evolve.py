"""Genetic optimizer over breakpoint sets.

Each generation walks the population: record the individual's breakpoints,
then apply segment crossover and mutation in place; the next generation is
filled by 3-way tournaments over the fitness of the recorded breakpoints
(lower MSE wins, ties to the lowest index). The mutation operator
is either Gaussian noise or rounding mutation, which snaps breakpoints onto
random power-of-two grids so the evolved placement already tolerates the
grids later imposed by quantization.

Rounding snaps and tournament copies make most individuals exact repeats of
one walked in the same or the previous generation. After the walk, the
distinct recorded tuples that the previous generation did not score are
scored in one numpy batch; the rest reuse that generation's scores. Scoring
draws nothing from the RNG, so neither the batch nor the memo changes a draw
or a result. A crossover child is repaired only when one of its two
junctions breaks the minimum gap. Variation runs on plain float tuples:
with a handful of breakpoints per individual, numpy's per-call overhead
would cost more than the arithmetic.

The RNG is numpy's counter-based Philox. The GA decodes its own doubles and
bounded integers from Philox's raw 64-bit words, with the rules numpy's
Generator uses, so the draws are the Generator's bit for bit; only the
uniform and normal draws are left to numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum

from ._fields import FieldError, frozen
from ._lazy import lazy_import
from .fxp import MAX_ACC_BITS, round_half_up
from .nonlin import NonLinSpec
from .pwl import (
    MIN_GAP,
    BreakpointSet,
    PwlTable,
    derive_table,
    fitness_scorer,
    repaired_breakpoints,
)

np = lazy_import("numpy")


class MutationKind(Enum):
    GAUSSIAN = "gaussian"
    ROUNDING = "rm"


@frozen
class GaConfig:
    """Genetic-search hyperparameters."""

    n_breakpoints: int = 7
    population_size: int = 50
    cross_prob: float = 0.7
    mutate_prob: float = 0.2
    rm_prob: float = 0.05
    rm_range: tuple[int, int] = (0, 6)
    iterations: int = 500
    mutation_kind: MutationKind = MutationKind.ROUNDING
    gaussian_sigma: float | None = None

    def __post_init__(self):
        for name in ("n_breakpoints", "population_size"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("cross_prob", "mutate_prob", "rm_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise FieldError(name, f"{name} must be in [0, 1], got {v}")
        # bounded as lambda is; near i = 1024 a snap's x * 2^i overflows
        ma, mb = self.rm_range
        if not (isinstance(ma, int) and isinstance(mb, int) and 0 <= ma <= mb <= MAX_ACC_BITS):
            raise FieldError("rm_range", f"rm_range must be integers 0 <= ma <= mb <= "
                                         f"{MAX_ACC_BITS}, got {self.rm_range}")
        if (mb - ma + 1) * self.rm_prob > 1.0 + 1e-12:
            raise FieldError("rm_prob", f"(mb - ma + 1) * rm_prob must not exceed 1, "
                                        f"got {self.rm_range} * {self.rm_prob}")
        if self.iterations < 0:
            raise FieldError("iterations", f"iterations must be >= 0, got {self.iterations}")
        if self.gaussian_sigma is not None and self.gaussian_sigma <= 0:
            raise FieldError("gaussian_sigma",
                             f"gaussian_sigma must be positive, got {self.gaussian_sigma}")


class PhiloxRng:
    """The draws of np.random.Generator(np.random.Philox(seed)), with the
    doubles and the bounded integers decoded from Philox's raw words.

    Per-call overhead is most of the cost of a Generator's scalar integer
    draw; Python arithmetic on a random_raw word costs less. A double is the
    top 53 bits of a word times 2^-53. An integer below n <= 2^32 is
    Lemire's method on a 32-bit half-word: the low half of a word goes
    first and the high half is carried to the next integer draw, scalar or
    sized. uniform, normal and wider integer ranges are numpy's, on the
    same bit generator; they take whole words and leave the carried half
    alone, as numpy's do. No call draws ahead of what it returns.
    """

    __slots__ = ("_raw", "_gen", "_half")

    def __init__(self, seed: int):
        bit_generator = np.random.Philox(seed)
        self._raw = bit_generator.random_raw
        self._gen = np.random.Generator(bit_generator)
        self._half = None

    def random(self, size=None):
        """A uniform double in [0, 1), or a list of size of them."""
        if size is None:
            return (self._raw() >> 11) * 2**-53
        return [(word >> 11) * 2**-53 for word in self._raw(size).tolist()]

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        """Uniform integers in [low, high), or in [0, low) without high.

        Below n = high - low <= 2^32 this is numpy's 32-bit Lemire method,
        which redraws a half-word whose low product bits fall below
        (2^32 - n) % n.
        """
        if high is None:
            low, high = 0, low
        n = high - low
        if not 0 < n <= 2**32:
            return self._gen.integers(low, high, size)
        if size is not None:
            return low + self._bounded_block(n, size)
        if n == 1:
            return low
        threshold = (2**32 - n) % n
        while True:
            half = self._half
            if half is None:
                word = self._raw()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = None
            m = half * n
            if m & 0xFFFFFFFF >= threshold:
                return low + (m >> 32)

    def _bounded_block(self, n: int, size) -> np.ndarray:
        """An array of integers(n) draws, decoded from one block of words.

        Lemire's method rejects a half-word by its own value, so the draws
        are the accepted ones of the halves in stream order; a rejection
        leaves the block short, and scalar draws fill it.
        """
        out = np.zeros(size, dtype=np.int64)
        flat = out.reshape(-1)
        count = flat.size
        if n == 1 or count == 0:
            return out
        carry = self._half
        words = self._raw((count - (carry is not None) + 1) // 2)
        halves = np.empty(1 + 2 * words.size, dtype=np.uint64)
        halves[0] = carry or 0
        # a little-endian word's two 32-bit halves are its low half, then its high
        halves[1:] = words.astype("<u8", copy=False).view("<u4")
        stream = halves if carry is not None else halves[1:]
        self._half = int(stream[count]) if stream.size > count else None
        # numpy scalars, not Python ints, keep these on numpy's fast loops
        m = stream[:count] * np.uint64(n)
        kept = (m >> np.uint64(32))[m & np.uint64(0xFFFFFFFF) >= np.uint64((2**32 - n) % n)]
        flat[: kept.size] = kept
        for k in range(kept.size, count):
            flat[k] = self.integers(n)
        return out


def make_rng(seed: int) -> PhiloxRng:
    return PhiloxRng(seed)


def init_population(
    cfg: GaConfig, spec: NonLinSpec, rng: PhiloxRng
) -> list[BreakpointSet]:
    """Uniform random breakpoint sets, sorted and spacing-repaired."""
    draws = rng.uniform(*spec.search_range, size=(cfg.population_size, cfg.n_breakpoints))
    return [repaired_breakpoints(row, spec.search_range) for row in draws.tolist()]


def crossover(
    a: BreakpointSet, b: BreakpointSet, search_range: tuple[float, float],
    rng: PhiloxRng,
) -> tuple[BreakpointSet, BreakpointSet]:
    """Exchange a contiguous index range between two parents.

    Both ends of the range (inclusive) are drawn uniformly; a child is
    repaired only where a junction fails repair's spacing test.
    """
    pa, pb = a.points, b.points
    n = len(pa)
    if len(pb) != n:
        raise ValueError(f"parents differ in size: {n} vs {len(pb)}")
    # two scalar draws take the same half-words as one size=2 draw, without
    # building its array
    i, j = rng.integers(n), rng.integers(n)
    if j < i:
        i, j = j, i
    return _child(pa, pb, i, j, search_range), _child(pb, pa, i, j, search_range)


def _child(
    p: tuple, q: tuple, i: int, j: int, search_range: tuple[float, float]
) -> BreakpointSet:
    """The child p[:i] + q[i:j+1] + p[j+1:] of two repair outputs. Their points
    lie inside repair_points' clip and pass its left-to-right spacing test, so
    where both junctions pass too, repair would return the child unchanged."""
    points = p[:i] + q[i : j + 1] + p[j + 1 :]
    if (i == 0 or not q[i] < p[i - 1] + MIN_GAP) and (
        j == len(p) - 1 or not p[j + 1] < q[j] + MIN_GAP
    ):
        return BreakpointSet(points)
    return repaired_breakpoints(points, search_range)


def gaussian_mutate(
    p: BreakpointSet, sigma: float, search_range: tuple[float, float], rng: PhiloxRng
) -> BreakpointSet:
    """Perturb every breakpoint with N(0, sigma^2); repair clips them to the range."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    noise = rng.normal(0.0, sigma, size=len(p.points)).tolist()
    return repaired_breakpoints([x + e for x, e in zip(p.points, noise)], search_range)


def _rm_exponent(rand_p: float, rm_prob: float, rm_range: tuple[int, int]) -> int | None:
    """Grid exponent selected by a uniform draw, or None for pass-through.

    Exponent i is chosen when i*rm_prob <= rand_p < (i+1)*rm_prob; at most
    one i in [ma, mb] can match, so an element mutates once or not at all.
    """
    if rm_prob <= 0.0:
        return None
    ma, mb = rm_range
    i = int(rand_p // rm_prob)
    return i if ma <= i <= mb else None


# 2^i for each grid exponent i that GaConfig accepts in rm_range
_GRID_SCALES = tuple(math.ldexp(1.0, i) for i in range(MAX_ACC_BITS + 1))


def rounding_mutate(
    p: BreakpointSet, cfg: GaConfig, search_range: tuple[float, float], rng: PhiloxRng
) -> BreakpointSet:
    """Snap randomly chosen breakpoints onto 2^-i grids, i in rm_range.

    Elements whose draw selects no grid pass through unchanged, and so does
    a nonzero element already on its grid: that snap moves nothing. (-0.0
    snaps to +0.0, so a zero always snaps.) A snap that would land within
    the minimum gap of a neighbour (or outside the range) is reverted rather
    than pushed apart: pushing would strand the value just off its grid and
    waste a segment on a near-duplicate breakpoint. With no snap kept the
    parent is returned; otherwise the result is re-sorted and
    spacing-repaired as a final guard.
    """
    out = list(p.points)
    # the points in ascending order: float subtraction is monotone, so the
    # nearest neighbour on each side decides the gap test
    ordered = list(p.points)
    lo, hi = search_range
    floor, ceil = lo + MIN_GAP, hi - MIN_GAP
    rm_prob, rm_range = cfg.rm_prob, cfg.rm_range
    snapped_any = False
    for idx, rand_p in enumerate(rng.random(len(out))):
        i = _rm_exponent(rand_p, rm_prob, rm_range)
        if i is None:
            continue
        x = out[idx]
        scale = _GRID_SCALES[i]
        snapped = round_half_up(x * scale) / scale
        if (snapped == x and x != 0) or not floor <= snapped <= ceil:
            continue
        k = bisect_left(ordered, x)
        del ordered[k]
        at = bisect_left(ordered, snapped)
        if (at and snapped - ordered[at - 1] < MIN_GAP) or (
            at < len(ordered) and ordered[at] - snapped < MIN_GAP
        ):
            ordered.insert(k, x)
            continue
        ordered.insert(at, snapped)
        out[idx] = snapped
        snapped_any = True
    return repaired_breakpoints(out, search_range) if snapped_any else p


def _tournament_picks(fitnesses, rng: PhiloxRng) -> list[int]:
    """Winner indices of len(fitnesses) independent 3-way tournaments (lower
    MSE wins, ties to the lowest index)."""
    n = len(fitnesses)
    # min over the (fitness, index) pairs makes the same < tests as a key
    # function would, without calling one
    return [min((fitnesses[a], a), (fitnesses[b], b), (fitnesses[c], c))[1]
            for a, b, c in rng.integers(0, n, size=(n, 3)).tolist()]


def _score_walk(scorer, walked: list, last: dict) -> tuple[list, dict]:
    """Fitness of each walked breakpoint tuple, and the scores of this walk.

    Tuples that last (the previous walk's scores) holds reuse its score; the
    other distinct tuples are scored in one batch.
    """
    scores = {points: last.get(points) for points in walked}
    todo = [points for points, f in scores.items() if f is None]
    if todo:
        scores.update(zip(todo, scorer.scores(todo)))
    return [scores[points] for points in walked], scores


def evolve(spec: NonLinSpec, cfg: GaConfig, seed: int, log: list | None = None) -> PwlTable:
    """Run the full genetic search from the Philox stream of seed and return
    the best table.

    Each generation walks the population in index order: an individual's
    breakpoints are recorded first, then it is crossed over with probability
    cross_prob (partner drawn from the rest of the population, both parents
    replaced in place) and mutated with probability mutate_prob. Tournament
    selection then acts on the fitness of the recorded breakpoints, so a
    variation applied after an individual was recorded is not priced until
    the next generation. That lets rounding mutations survive one selection
    round on the parent's fitness, which is what lets coarse power-of-two
    placements take hold in the population at all.

    Fitness is scored after the walk: the distinct recorded breakpoints
    that the previous generation did not score go to the scorer in one
    batch, and the others reuse the previous generation's score, which is
    the same float the scorer would return. At most 2 * population_size
    scores are held: this generation's and the last one's.

    The winner of a final scoring pass is returned with its real-valued
    slopes and intercepts; the caller rounds them to the datapath's
    fractional bits. If log is given, (generation, best_mse) pairs are
    appended per generation plus a final entry for the returned individual.
    """
    rng = make_rng(seed)
    inds = init_population(cfg, spec, rng)
    scorer = fitness_scorer(spec)
    lo, hi = search_range = spec.search_range
    sigma = 0.05 * (hi - lo) if cfg.gaussian_sigma is None else cfg.gaussian_sigma
    n = cfg.population_size
    # a lone individual has no partner; rand_c < 0.0 never holds
    cross_prob = cfg.cross_prob if n > 1 else 0.0
    mutate_prob = cfg.mutate_prob
    rounding = cfg.mutation_kind is MutationKind.ROUNDING
    random, integers = rng.random, rng.integers
    walked = [None] * n
    scores = {}

    for gen in range(cfg.iterations):
        for i in range(n):
            walked[i] = inds[i].points
            rand_c = random()
            rand_m = random()
            if rand_c < cross_prob:
                j = integers(n - 1)
                if j >= i:
                    j += 1
                inds[i], inds[j] = crossover(inds[i], inds[j], search_range, rng)
            if rand_m < mutate_prob:
                if rounding:
                    inds[i] = rounding_mutate(inds[i], cfg, search_range, rng)
                else:
                    inds[i] = gaussian_mutate(inds[i], sigma, search_range, rng)
        fitness, scores = _score_walk(scorer, walked, scores)
        if log is not None:
            log.append((gen, min(fitness)))
        picks = _tournament_picks(fitness, rng)
        inds = [inds[k] for k in picks]

    fitness, _ = _score_walk(scorer, [ind.points for ind in inds], scores)
    best = min(range(n), key=lambda k: (fitness[k], k))
    if log is not None:
        log.append((cfg.iterations, fitness[best]))
    return derive_table(spec, inds[best])
