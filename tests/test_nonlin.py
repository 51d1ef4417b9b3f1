import numpy as np
import pytest

from lutfit.nonlin import DomainError, Kind, NonLinSpec, default_spec, eval_ref, ref_float

# High-precision oracle value: GELU(1) = Phi(1), computed with mpmath at 40 digits.
GELU_AT_1 = 0.8413447460685429


@pytest.mark.parametrize(
    "kind,x,expected",
    [
        (Kind.GELU, 0.0, 0.0),
        (Kind.EXP, 0.0, 1.0),
        (Kind.HSWISH, 3.0, 3.0),
        (Kind.RSQRT, 4.0, 0.5),
        (Kind.DIV, 2.0, 0.5),
    ],
)
def test_exact_values(kind, x, expected):
    assert eval_ref(default_spec(kind), x) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("kind", list(Kind))
def test_ref_float_tracks_eval_ref(kind):
    # the config reader's numpy-free reference: within a few ulps of
    # eval_ref, and infinite exactly where the value overflows
    spec = default_spec(kind)
    xs = np.linspace(*spec.search_range, 257)
    assert np.allclose([ref_float(spec, x) for x in xs.tolist()], eval_ref(spec, xs),
                       rtol=1e-15, atol=0.0)
    wide = NonLinSpec(kind, (1e-310, 1e300))
    with np.errstate(all="ignore"):
        for x in (1e-310, 709.0, 710.0, 1e300):
            assert np.isfinite(ref_float(wide, x)) == np.isfinite(eval_ref(wide, x)), x


def test_gelu_erf_oracle():
    assert eval_ref(default_spec(Kind.GELU), 1.0) == pytest.approx(GELU_AT_1, abs=1e-14)


def test_gelu_reflection_identity():
    # from Phi(x) + Phi(-x) = 1: x*Phi(x) - (-x)*Phi(-x) = x
    spec = default_spec(Kind.GELU)
    rng = np.random.default_rng(7)
    for x in rng.uniform(-6, 6, size=50):
        assert eval_ref(spec, x) - eval_ref(spec, -x) == pytest.approx(x, abs=1e-12)


def test_hswish_saturation():
    spec = default_spec(Kind.HSWISH)
    for x in (3.0, 3.5, 10.0):
        assert eval_ref(spec, x) == pytest.approx(x)
    for x in (-3.0, -4.0, -50.0):
        assert eval_ref(spec, x) == 0.0


def test_monotonicity():
    xs = np.linspace(0.01, 10, 200)
    assert np.all(np.diff(eval_ref(default_spec(Kind.EXP), xs)) > 0)
    assert np.all(np.diff(eval_ref(default_spec(Kind.DIV), xs)) < 0)
    assert np.all(np.diff(eval_ref(default_spec(Kind.RSQRT), xs)) < 0)


def test_finite_on_search_ranges():
    for kind in Kind:
        spec = default_spec(kind)
        lo, hi = spec.search_range
        xs = np.linspace(lo, hi, 257)
        if kind in (Kind.DIV, Kind.RSQRT):
            xs = xs[xs > 0]
        assert np.all(np.isfinite(eval_ref(spec, xs)))


@pytest.mark.parametrize("kind", [Kind.DIV, Kind.RSQRT])
def test_domain_error_nonpositive(kind):
    spec = default_spec(kind)
    with pytest.raises(DomainError):
        eval_ref(spec, 0.0)
    with pytest.raises(DomainError):
        eval_ref(spec, -1.0)
    with pytest.raises(DomainError):
        eval_ref(spec, np.array([1.0, -2.0]))


def test_spec_validation():
    with pytest.raises(ValueError):
        NonLinSpec(kind=Kind.GELU, search_range=(4.0, -4.0))
    with pytest.raises(ValueError):
        NonLinSpec(kind=Kind.DIV, search_range=(-0.5, 4.0))


def test_default_specs_match_stock_ranges():
    assert default_spec("gelu").search_range == (-4.0, 4.0)
    assert default_spec("hswish").search_range == (-4.0, 4.0)
    assert default_spec("exp").search_range == (-8.0, 0.0)
    assert default_spec("div").search_range == (0.5, 4.0)
    assert default_spec("rsqrt").search_range == (0.25, 4.0)
    for kind in (Kind.GELU, Kind.HSWISH, Kind.EXP):
        assert default_spec(kind).scale_carrying
    for kind in (Kind.DIV, Kind.RSQRT):
        assert not default_spec(kind).scale_carrying


def test_vectorized_matches_scalar():
    spec = default_spec(Kind.GELU)
    xs = np.linspace(-4, 4, 17)
    vec = eval_ref(spec, xs)
    for x, v in zip(xs, vec):
        assert eval_ref(spec, float(x)) == v
