"""The received-power cache: piecewise Chebyshev interpolants of log f, log F
and log M1 against closed forms computed without it, and its debug line."""

import logging
import math
import re
import warnings
import weakref

from scipy import integrate
from scipy.interpolate import PPoly

import numpy as np
import pytest

from corridor_cov import (
    ChannelParams,
    CorridorGeometry,
    FixedHeight,
    ParameterError,
    ReceivedPowerDistribution,
)
from corridor_cov import analytic
from conftest import closed_form_cdf_and_moment

H = 100.0
LINE = re.compile(
    r"received-power cache: (\d+) pieces, (\d+) rounds, worst trailing coefficient "
    r"([0-9.e+-]+), (\d+) pieces above tolerance, (\d+) node evaluations, [0-9.]+ s"
)


def build(q, alpha, r_over_h, caplog):
    """A fresh distribution, its cache built, and the fields of its debug line."""
    geom = CorridorGeometry(r_over_h * H, FixedHeight(H))
    dist = ReceivedPowerDistribution(geom, ChannelParams(alpha=alpha, q=q, m=1.0))
    with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
        dist.x_lo
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("received-power")]
    caplog.clear()
    assert len(lines) == 1
    fields = LINE.fullmatch(lines[0])
    assert fields is not None, lines[0]
    pieces, rounds, worst, above, nodes = fields.groups()
    return dist, (int(pieces), int(rounds), float(worst), int(above), int(nodes))


def test_build_logs_its_work(caplog):
    _, (pieces, rounds, worst, above, nodes) = build(2.0, 2.2, 5.0, caplog)
    assert pieces >= analytic._CHEB_PIECES
    assert 1 <= rounds <= analytic._CHEB_ROUNDS
    assert 0.0 < worst <= analytic._CHEB_TOL
    assert above == 0
    # one 3-component integral (pdf, cdf, first moment) per Chebyshev point,
    # each at least the initial 8 G7/K15 panels, whose nodes all three share
    assert nodes % 15 == 0 and nodes >= pieces * analytic._CHEB_POINTS * 8 * 15
    # the work at R = 500 m, h = 100 m, alpha = 2.2, q = 2, pinned: a change to
    # the cost per node must not move the node count
    assert (pieces, rounds, nodes) == (12, 3, 30_780)


def listed_smooth_integrand(dist, x, u):
    """`_smooth_integrand` with Q(q - 1, z) taken as exp(log S(z) - z) at
    every q >= 1.5 with 2q an integer, q = 2 (S = 1) included."""
    q = dist.q
    z = dist.gam * (dist.h**2 + u**2) ** (-dist.alpha / 2.0) / x
    e1 = np.exp((q - 1.0) * np.log(z) - z - dist._lgamma_q)
    with np.errstate(over="ignore"):
        scaled = np.minimum(analytic._scaled_upper_gamma(q - 1.0, z), np.finfo(float).max)
    below = np.exp(np.log(scaled) - z)
    return np.stack([z * e1 / x, below + e1, x * z / (q - 1.0) * below])


@pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 3.0, 20.0])
def test_smooth_integrand_is_the_listed_form(q):
    # at q = 2 the integrand takes exp(-z) for exp(log 1 - z), the same
    # bits; the other elementary orders keep the log/exp form
    dist = ReceivedPowerDistribution(CorridorGeometry(500.0, FixedHeight(H)), ChannelParams(alpha=2.2, q=q, m=1.0))
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(math.log(dist.x_lo), math.log(dist.x_hi), 3000))
    u = rng.uniform(0.0, dist.R, x.size)
    got = dist._smooth_integrand(x, u)
    expected = listed_smooth_integrand(dist, x, u)
    assert [v.hex() for v in got.ravel()] == [v.hex() for v in expected.ravel()]


# The documented domain's corners and middle: q down to 1.05, alpha 2 to 6,
# R/h up to 500.
@pytest.mark.parametrize("r_over_h", [1.0, 5.0, 500.0])
@pytest.mark.parametrize("alpha", [2.0, 6.0])
@pytest.mark.parametrize("q", [1.05, 2.0, 20.0])
def test_cache_matches_closed_forms(caplog, q, alpha, r_over_h):
    dist, (_, _, _, above, _) = build(q, alpha, r_over_h, caplog)
    assert above == 0
    x = np.geomspace(dist.x_lo, dist.x_hi, 32)[1:-1]
    cdf, moment = closed_form_cdf_and_moment(dist, x)
    np.testing.assert_allclose(dist.pdf(x), dist._pdf_smooth(x), rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(dist.cdf(x), cdf, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(dist.mean_below(x), moment, rtol=1e-9, atol=0.0)
    p = np.array([1e-12, 1e-6, 0.5, 1.0 - 1e-9])
    x = dist.ppf(p)
    np.testing.assert_allclose(dist.cdf(x), p, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(closed_form_cdf_and_moment(dist, x)[0], p, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("r_over_h", [1.0, 500.0])
@pytest.mark.parametrize("alpha", [2.0, 6.0])
@pytest.mark.parametrize("q", [1.05, 2.0, 20.0])
def test_log_space_reader_matches_the_public_methods(caplog, q, alpha, r_over_h):
    # the hot loops' reader at log-abscissae strictly inside the cache range,
    # against pdf, cdf and mean_below at x = e^t
    dist, _ = build(q, alpha, r_over_h, caplog)
    c = dist._ensure()
    t = np.linspace(c["t_lo"], c["t_hi"], 2003)[1:-1]
    f, cdf, m1 = np.exp(dist._log_at(t, "log_pdf", "log_cdf", "log_m1"))
    x = np.exp(t)
    np.testing.assert_allclose(f, dist.pdf(x), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(cdf, dist.cdf(x), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(m1, dist.mean_below(x), rtol=1e-13, atol=0.0)
    # F <= 1 everywhere, also in the last nat below t_hi, where log F is nearest 0
    top = c["t_hi"] - np.geomspace(1e-14, 1.0, 200)
    assert np.all(cdf <= 1.0) and np.all(dist._log_at(top, "log_cdf")[0] <= 0.0)


@pytest.mark.parametrize("r_over_h", [1.0, 500.0])
@pytest.mark.parametrize("alpha", [2.0, 6.0])
@pytest.mark.parametrize("q", [1.05, 20.0])
def test_reader_repeats_ppoly_bit_for_bit(caplog, q, alpha, r_over_h):
    # The oracle is scipy's PPoly on the cache's own breaks and coefficients:
    # the reader repeats its arithmetic, so every read is equal, not close,
    # for any number of names and any shape of t.
    dist, _ = build(q, alpha, r_over_h, caplog)
    c = dist._ensure()
    search, _, coef = c["pieces"]
    breaks = search[:-1]  # the last is the reader's sentinel just above t_hi
    oracle = {
        name: PPoly(coef[i, 1:-2, ::-1].T, breaks, extrapolate=False)
        for i, name in enumerate(analytic._LOG_NAMES)
    }

    def want(t, name):
        value = oracle[name](t)
        return np.minimum(value, 0.0) if name == "log_cdf" else value

    rng = np.random.default_rng(31)
    t = np.concatenate([[c["t_lo"], c["t_hi"]], breaks, rng.uniform(c["t_lo"], c["t_hi"], 4500)])
    assert t.size > 2 * analytic._READ_BLOCK  # three blocks
    lone = t[:2 * analytic._READ_BLOCK + 1]  # a last block of one point
    for names in (("log_pdf",), ("log_cdf", "log_m1"), analytic._LOG_NAMES):
        for shaped in (t[1], t[7], t[:1], t[:2], lone, t, t[:4096].reshape(64, 64)):
            got = dist._log_at(shaped, *names)
            assert got.shape == (len(names),) + np.shape(shaped)
            for value, name in zip(got, names):
                assert np.asarray(value).tobytes() == want(shaped, name).tobytes(), (name, shaped)
    # like PPoly(extrapolate=False), NaN outside [t_lo, t_hi] and at NaN
    outside = np.array([np.nextafter(c["t_lo"], -np.inf), np.nextafter(c["t_hi"], np.inf), np.nan])
    assert np.isnan(dist._log_at(outside, *analytic._LOG_NAMES)).all()
    # the table that seeds `ppf`'s Newton steps comes from the same reader
    assert c["log_cdf_table"].tobytes() == oracle["log_cdf"](c["t_table"]).tobytes()


@pytest.mark.parametrize("q", [1.05, 5.0])
@pytest.mark.parametrize("alpha", [2.0, 2.2, 6.0])
@pytest.mark.parametrize("r", [100.0, 500.0, 50_000.0])
def test_literal_integral_normalizes_and_matches_the_cache(q, alpha, r):
    # `pdf_exact` integrates over the path-loss value, whose density is
    # singular at the top of its support and which spans many decades at R/h = 500
    dist = ReceivedPowerDistribution(CorridorGeometry(r, FixedHeight(H)), ChannelParams(alpha=alpha, q=q))
    assert dist.normalization() == pytest.approx(1.0, abs=1e-6)
    xs = np.geomspace(dist.x_lo, dist.x_hi, 41)[1:-1]
    np.testing.assert_allclose(dist.pdf_exact(xs), dist.pdf(xs), rtol=1e-6, atol=0)


def test_mean_below_keeps_the_first_moment_above_the_cache(caplog):
    # At q = 1.05 the mass above x_hi is below 1e-13, but the first moment
    # beyond x decays only like x^(1 - q): x_hi holds 0.76 of E[P] and
    # 10 x_hi 0.79, and E[P] is reached only as x grows without bound.
    dist, _ = build(1.05, 2.2, 5.0, caplog)
    x = dist.x_hi * np.array([1.0, 10.0, 1e250])
    got = dist.mean_below(x)
    np.testing.assert_allclose(got, closed_form_cdf_and_moment(dist, x)[1], rtol=1e-9, atol=0.0)
    assert dist.mean_below(x[1]) == got[1] and got[1] > 1.03 * got[0]
    mean_w = integrate.quad(
        lambda u: (H * H + u * u) ** (-dist.alpha / 2.0), 0.0, dist.R,
        epsabs=0.0, epsrel=1e-13,
    )[0] / dist.R
    assert got[2] == pytest.approx(dist.gam / (dist.q - 1.0) * mean_w, rel=1e-8)


@pytest.mark.parametrize("q", [1.05, 2.0, 5.0])
def test_mean_below_infinity_is_the_mean(caplog, q):
    # M1(x) tends to E[P] = E[S] E[l]; at x = inf the closed form above the
    # cache would form inf * 0, so mean_below returns that limit, warns of
    # nothing, and keeps every finite x
    dist, _ = build(q, 2.2, 5.0, caplog)
    x = np.array([0.5 * dist.x_hi, 2.0 * dist.x_hi, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dist.mean_below(x)
        top = dist.mean_below(np.inf)
    assert top == got[3]
    assert [dist.mean_below(v) for v in x[:3]] == list(got[:3])
    assert list(got[1:3]) == list(dist._smooth_integrals(x[1:3])[0][2])
    assert top == pytest.approx(got[2], rel=1e-13)
    mean_w = integrate.quad(
        lambda u: (H * H + u * u) ** (-dist.alpha / 2.0), 0.0, dist.R,
        epsabs=0.0, epsrel=1e-13,
    )[0] / dist.R
    assert top == pytest.approx(dist.gam / (dist.q - 1.0) * mean_w, rel=1e-12)


def test_cdf_is_at_most_one_below_the_cache_top(caplog):
    # At q = 20, alpha = 6, R/h = 500 the interpolated log F carries the
    # sampling rule's noise near F = 1 and rises up to about 3e-11 above 0
    # in the last nat below x_hi; F is capped at 1 there.
    dist, _ = build(20.0, 6.0, 500.0, caplog)
    x = dist.x_hi * np.concatenate([1.0 - np.geomspace(1e-15, 1e-2, 200), np.geomspace(0.4, 0.99, 200)])
    assert np.all(dist.cdf(x) <= 1.0)
    assert dist.cdf(x[0]) <= 1.0


NAN_CALLS = {
    "pdf": lambda model, x: model.dist.pdf(x),
    "cdf": lambda model, x: model.dist.cdf(x),
    "mean_below": lambda model, x: model.dist.mean_below(x),
    "ppf": lambda model, x: model.dist.ppf(x),
    "max_power_pdf": lambda model, x: model.max_power_pdf(x),
    "max_power_cdf": lambda model, x: model.max_power_cdf(x),
    "joint_top_two_pdf": lambda model, x: model.joint_top_two_pdf(2.0 * model.dist.x_hi, x),
}


@pytest.mark.parametrize("name", NAN_CALLS)
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_nan_argument_raises(name, shape):
    # NaN lies in no range of the cache, so an accessor raises rather than
    # return a silent 0 (or a NaN quantile)
    geom = CorridorGeometry(500.0, FixedHeight(H))
    model = analytic.bpp_model(10, geom, ChannelParams(alpha=2.2, q=2.0, m=1.0))
    x = np.nan if shape == "scalar" else np.array([0.5, np.nan])
    with pytest.raises(ParameterError):
        NAN_CALLS[name](model, x)


@pytest.fixture()
def cold_model_caches():
    # the tests below fill the model caches from empty; later tests build
    # their own models again
    def clear():
        for obj in vars(analytic).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()

    clear()
    yield
    clear()


def test_live_models_share_one_distribution(cold_model_caches, monkeypatch):
    # While a model holds a (geometry, channel)'s distribution, every new
    # model of that pair takes it and its cache, however many other
    # geometries `_cached_dist` has seen since.
    builds = []
    build_cache = ReceivedPowerDistribution._build_cache

    def counted(dist):
        builds.append(dist)
        build_cache(dist)

    monkeypatch.setattr(ReceivedPowerDistribution, "_build_cache", counted)
    ch = ChannelParams(alpha=2.2, q=2.0, m=1.0)
    geom = CorridorGeometry(433.0, FixedHeight(H))  # a pair no other test holds
    first = analytic.bpp_model(10, geom, ch)
    first.dist.cdf(1.0)
    others = [analytic.hppp_model(0.01, CorridorGeometry(100.0 + r, FixedHeight(H)), ch)
              for r in range(32)]
    assert all(model.dist is not first.dist for model in others)
    second = analytic.bpp_model(5, geom, ch)
    second.dist.cdf(1.0)
    assert second.dist is first.dist and builds == [first.dist]


def test_cleared_caches_build_a_fresh_distribution(cold_model_caches):
    # Once every cache of the module is cleared and no model is held, the
    # next model of the same pair builds its distribution afresh, as a
    # benchmark sweep from cold caches needs.
    ch = ChannelParams(alpha=2.2, q=2.0, m=1.0)
    geom = CorridorGeometry(433.0, FixedHeight(H))  # a pair no other test holds
    model = analytic.bpp_model(10, geom, ch)
    model.coverage(1.0)
    held = weakref.ref(model.dist)
    del model
    for obj in vars(analytic).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    assert held() is None
    assert analytic.bpp_model(10, geom, ch).dist._cache is None
