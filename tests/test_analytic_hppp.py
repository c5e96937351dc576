import math

import numpy as np
import pytest
from scipy import special

from corridor_cov import (
    ChannelParams,
    CorridorGeometry,
    FiniteHPPP,
    FixedHeight,
    InterferenceLaplaceBPP,
    InterferenceLaplaceHPPP,
    ParameterError,
    QuadratureConfig,
    bpp_model,
    hppp_model,
    integrate,
    simulate_sir,
)
from corridor_cov.quadrature import nested_integrate_2d
from conftest import ks_statistic

LAM = 10.0 / 1000.0
H, R = 100.0, 500.0


def simulate_hppp_maxima(rng, trials, lam=LAM, q=2.0, gamma=1.0, alpha=2.2):
    counts = rng.poisson(lam * 2 * R, trials)
    k = counts.max()
    pos = rng.uniform(-R, R, (trials, k))
    s = 1.0 / rng.gamma(q, 1.0 / gamma, (trials, k))
    p = s * np.hypot(pos, H) ** -alpha
    p[np.arange(k)[None, :] >= counts[:, None]] = 0.0
    return p.max(axis=1)[counts > 0]


def eta_series_2d(geom, channel, lam, s, s0, order):
    """[eta, eta', ..., eta^(order)] of log L(s | s0) from the double integral
    over the ground offset u = sqrt(d^2 - h^2) and v = gamma / shadowing:

        eta = -2 lam int_0^R int (1 - (1 + s a(u) gamma / (v m))^-m) g_q(v) dv du,

    a(u) = d^-alpha, g_q the Gamma(q, 1) density, and v above the value at
    which the UAV's power reaches s0.  Independent of the received-power cache.
    """
    h, R, alpha = geom.fixed_height, geom.R, channel.alpha
    q, gam, m = channel.q, channel.gamma, float(channel.m)
    # the Gamma(q) weight is negligible beyond v_hi
    log_v_hi = math.log(q + 40.0 * math.sqrt(q) + 60.0)
    log_gamma_q = math.lgamma(q)
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)

    def v_bounds(u):
        smax = s0 * (h**2 + u**2) ** (alpha / 2.0)
        return (min(math.log(gam / smax), log_v_hi), log_v_hi)

    def term(j):
        def integrand(u, y):
            v = np.exp(y)
            a_sig = (h**2 + u**2) ** (-alpha / 2.0) * gam / v
            base = 1.0 + s * a_sig / m
            gamma_w = np.exp(q * y - v - log_gamma_q)
            if j == 0:
                return (1.0 - base ** (-m)) * gamma_w
            return a_sig**j * base ** (-(m + j)) * gamma_w

        return nested_integrate_2d(integrand, (0.0, R), v_bounds, cfg).value

    out = [-2.0 * lam * term(0)]
    for j in range(1, order + 1):
        out.append(2.0 * lam * special.poch(m, j) * (-1.0 / m) ** j * term(j))
    return out


class TestMaxPowerPdfHPPP:
    def test_normalizes(self, hmodel):
        dist = hmodel.dist
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-14)
        res = integrate(
            lambda t: hmodel.max_power_pdf(np.exp(t)) * np.exp(t),
            math.log(dist.x_lo),
            math.log(dist.x_hi),
            cfg,
        )
        assert res.value == pytest.approx(1.0, abs=1e-5)

    def test_matches_simulated_maxima_ks(self, hmodel):
        rng = np.random.default_rng(21)
        maxima = simulate_hppp_maxima(rng, 10**6)
        assert ks_statistic(maxima, hmodel.max_power_cdf) < 0.005

    def test_approaches_bpp_shape_as_density_grows(self, geom, channel):
        # with mean count lam|L| = n the conditioned HPPP maximum approaches
        # the BPP maximum; the sup-distance must shrink as the count grows
        def sup_distance(n):
            hm = hppp_model(n / 1000.0, geom, channel)
            bm = bpp_model(n, geom, channel)
            xs = np.exp(
                np.linspace(math.log(bm.dist.x_lo * 1.01), math.log(bm.dist.x_hi * 0.99), 4000)
            )
            bpp_cdf = bm.dist.cdf(xs) ** n
            np.testing.assert_allclose(bm.max_power_cdf(xs), bpp_cdf, rtol=1e-13, atol=0.0)
            return np.max(np.abs(hm.max_power_cdf(xs) - bpp_cdf))

        d5, d10, d20 = sup_distance(5), sup_distance(10), sup_distance(20)
        assert d5 > d10 > d20

    def test_invalid_intensity(self, geom, channel, hmodel):
        # nan once gave a quadrature error, and a nan-count transform nan
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                hppp_model(bad, geom, channel)
            with pytest.raises(ParameterError):
                InterferenceLaplaceHPPP(hmodel.dist, bad, channel.m)


class TestLaplaceHPPP:
    def test_unity_at_origin(self, hmodel):
        assert hmodel.laplace.derivative_series(0.0, 3e-6, 0)[0] == 1.0

    def test_value_in_unit_interval_and_decreasing(self, hmodel):
        s0 = 3e-6
        values = [hmodel.laplace.derivative_series(s, s0, 0)[0] for s in (0.0, 1e4, 1e5, 1e6)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_derivative_matches_finite_difference(self, geom):
        ch = ChannelParams(alpha=2.2, q=2.0, m=3.0)
        model = hppp_model(LAM, geom, ch)
        s0 = 3e-6
        s = 2.0 / s0
        h_fd = 1e-3 * s
        values = [model.laplace.derivative_series(v, s0, 0)[0] for v in (s + h_fd, s - h_fd)]
        fd = (values[0] - values[1]) / (2 * h_fd)
        assert model.laplace.derivative_series(s, s0, 1)[1] == pytest.approx(fd, rel=1e-5)

    def test_alternating_derivative_signs(self, geom):
        ch = ChannelParams(alpha=2.2, q=2.0, m=3.0)
        model = hppp_model(LAM, geom, ch)
        series = model.laplace.derivative_series(5e5, 3e-6, 2)
        assert series[0] > 0 and series[1] < 0 and series[2] > 0

    def test_derivative_order_contract(self, hmodel):
        with pytest.raises(ParameterError):
            hmodel.laplace.derivative_series(1e5, 3e-6, 1)  # m=1

    @pytest.mark.parametrize("m", [1.0, 3.0])
    def test_poisson_mixture_of_bpp_transforms(self, geom, m):
        # given s0 the interferer count is Poisson(mu F(s0)); given k of them
        # the transform is the BPP one with n = k + 1
        model = hppp_model(LAM, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
        order = int(m) - 1
        for s0, s in ((3e-6, 1e5), (1e-5, 3e6), (1e-4, 1e3)):
            mean = model.mu * model.dist.cdf(s0)
            expected = np.zeros(order + 1)
            expected[0] = math.exp(-mean)  # k = 0: no interference
            for k in range(1, int(mean + 12 * math.sqrt(mean) + 20)):
                weight = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                bpp = InterferenceLaplaceBPP(model.dist, k + 1, m)
                expected += weight * np.array(bpp.derivative_series(s, s0, order))
            got = model.laplace.derivative_series(s, s0, order)
            assert got == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("s, s0", [(1e5, 3e-6), (3e6, 1e-5), (1e3, 1e-4)])
    def test_matches_double_integral_over_offset_and_shadowing(self, geom, s, s0):
        ch = ChannelParams(alpha=2.2, q=2.0, m=3.0)
        eta = eta_series_2d(geom, ch, LAM, s, s0, 2)
        value = math.exp(eta[0])
        expected = [value, eta[1] * value, (eta[2] + eta[1] ** 2) * value]
        got = hppp_model(LAM, geom, ch).laplace.derivative_series(s, s0, 2)
        # the double integral is certified to rel 1e-6 in eta, |eta| <= mu = 10
        assert got == pytest.approx(expected, rel=1e-5)

    def test_conditional_mean_interference_oracle(self, hmodel):
        # condition the simulation on the maximum power falling in a
        # +-0.25 dB window around the conditioning point; the mean aggregate
        # interference must match -dL/ds at s=0 within 3%
        dist = hmodel.dist
        mu = hmodel.mu
        p_med = math.log(0.5 * math.expm1(mu) + 1.0) / mu
        s0_med = dist.ppf(p_med)
        ana = hmodel.laplace.mean_interference(s0_med)

        rng = np.random.default_rng(22)
        win = 10 ** (0.25 / 10)
        accepted_sum = 0.0
        accepted_n = 0
        for _ in range(60):
            counts = rng.poisson(mu, 10**5)
            k = counts.max()
            pos = rng.uniform(-R, R, (10**5, k))
            s = 1.0 / rng.gamma(2.0, 1.0, (10**5, k))
            p = s * np.hypot(pos, H) ** -2.2
            p[np.arange(k)[None, :] >= counts[:, None]] = 0.0
            top = p.max(axis=1)
            ok = (top > s0_med / win) & (top < s0_med * win)
            accepted_sum += (p.sum(axis=1) - top)[ok].sum()
            accepted_n += ok.sum()
            if accepted_n >= 10**5:
                break
        assert accepted_n >= 10**5
        emp = accepted_sum / accepted_n
        assert ana == pytest.approx(emp, rel=0.03)


class TestCoverageHPPP:
    def test_theta_to_zero_limit(self, hmodel):
        assert hmodel.coverage(1e-6) >= 0.999

    def test_matches_monte_carlo_at_default_point(self, geom, channel, hmodel):
        theta = 10 ** (-3 / 10)
        sirs, _ = simulate_sir(FiniteHPPP(LAM), geom, channel, 10**6, seed=102)
        mc = (sirs > theta).mean()
        assert hmodel.coverage(theta) == pytest.approx(mc, abs=0.01)

    def test_coverage_decreasing_in_density(self, geom, channel):
        theta = 10 ** (-3 / 10)
        cov = [
            hppp_model(n / 1000.0, geom, channel).coverage(theta) for n in (5, 10, 20, 40)
        ]
        assert all(a > b for a, b in zip(cov, cov[1:]))

    # m = 3 coverage from the double-integral (offset, shadowing) transform
    PINNED_M3 = {-6.0: 0.845061782510, 0.0: 0.331195466556, 6.0: 0.052922001237}

    @pytest.mark.parametrize("theta_db", list(PINNED_M3))
    def test_m3_pinned_values(self, geom, channel_m3, theta_db):
        cov = hppp_model(LAM, geom, channel_m3).coverage(10 ** (theta_db / 10))
        assert cov == pytest.approx(self.PINNED_M3[theta_db], abs=1e-6)

    def test_shares_received_power_cache_with_bpp(self, geom, channel):
        assert bpp_model(10, geom, channel).dist is hppp_model(0.01, geom, channel).dist

    def test_models_differing_only_in_m_share_one_cache(self, geom):
        # the received-power distribution does not depend on the fading shape
        dists = [
            model(size, geom, ChannelParams(alpha=2.2, q=2.0, m=m)).dist
            for model, size in ((bpp_model, 10), (hppp_model, 0.01))
            for m in (1.0, 2.5, 3.0)
        ]
        assert all(dist is dists[0] for dist in dists)

    @pytest.mark.parametrize("m", [1.0, 8.0])
    @pytest.mark.parametrize("mean_count", [2.0, 200.0])
    @pytest.mark.parametrize("theta_db", [-20.0, 20.0])
    def test_converges_at_domain_corners(self, geom, m, mean_count, theta_db):
        model = hppp_model(mean_count / geom.length, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
        assert 0.0 < model.coverage(10 ** (theta_db / 10)) < 1.0

    # A mean count of 2 (R = h = 100 m) at high theta: the lone serving UAV
    # carries about 0.313 of a dominant value of about 0.315.  Every fading
    # rung raised while it was certified against the N >= 2 part alone
    # (0.0017 at 20 dB), not against the value returned.
    @pytest.mark.parametrize("alpha, theta_db", [(2.0, 18.0), (2.0, 19.0), (2.0, 20.0), (6.0, 20.0)])
    def test_dominant_rung_tolerance_counts_the_lone_uav(self, alpha, theta_db):
        geom = CorridorGeometry(100.0, FixedHeight(100.0))
        model = hppp_model(LAM, geom, ChannelParams(alpha=alpha, q=5.0, m=0.5))
        mu = LAM * geom.length
        alone = mu * math.exp(-mu) / -math.expm1(-mu)
        value = model.coverage_dominant(10 ** (theta_db / 10))
        assert alone < value < alone + 0.01

    def test_requires_integer_m(self, geom):
        ch = ChannelParams(alpha=2.2, q=2.0, m=2.5)
        with pytest.raises(ParameterError):
            hppp_model(LAM, geom, ch).coverage(0.5)

    def test_in_unit_interval_and_monotone(self, hmodel):
        cov = np.array([hmodel.coverage(th) for th in 10 ** (np.array([-6.0, 0.0, 6.0]) / 10)])
        assert np.all((cov >= 0.0) & (cov <= 1.0))
        assert np.all(np.diff(cov) <= 5e-6)
