import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import optimize, special, stats

from corridor_cov import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    CoverageQuery,
    FiniteHPPP,
    FixedHeight,
    InverseGammaShadowing,
    ParameterError,
    QuadratureConfig,
    QuadratureError,
    ReceivedPowerDistribution,
    bpp_model,
    coverage_probability,
    empirical_coverage,
    hppp_model,
    integrate,
    simulate_sir,
)
from corridor_cov import analytic
from corridor_cov.analytic import _LAGUERRE_LADDER, _fading_tail_expectation
from corridor_cov.quadrature import IntegralResult, nested_integrate_2d
from conftest import ks_statistic

N = 10
H, R, ALPHA = 100.0, 500.0, 2.2
TOP_RUNG = _LAGUERRE_LADDER[-1]  # the fading rule ladder's fallback: 32 nodes
# the m of the elementary I_x(m, m), and how far it may lie from scipy's
# betainc: relative wherever betainc >= 1e-300, absolute everywhere
ELEMENTARY_M = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5]
BETA_RTOL, BETA_ATOL = 1e-12, 1e-15


def draw_powers(rng, trials, n=N, h=H, r=R, alpha=ALPHA, q=2.0, gamma=1.0):
    d = np.hypot(rng.uniform(-r, r, (trials, n)), h)
    s = 1.0 / rng.gamma(q, 1.0 / gamma, (trials, n))
    return s * d**-alpha


def full_rule_tail(m, a, b, n_nodes):
    """T(a, b) = E[Q(m, a + b Y)] with the untrimmed n-node generalized
    Gauss-Laguerre rule at a > 0 and the incomplete beta function at a = 0.
    The rule's terms are the engine's, so a comparison isolates the trimming."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    z, w = special.roots_genlaguerre(n_nodes, m - 1.0)
    shifted = analytic._laguerre_tail(m, a.ravel(), b.ravel(), z, w / special.gamma(m))
    return np.where(a > 0, shifted.reshape(a.shape), special.betainc(m, m, 1.0 / (1.0 + b)))


class TestReceivedPowerDistribution:
    def test_exact_routes_agree(self, model10):
        dist = model10.dist
        for x in (1e-6, 1e-5, 1e-4, 1e-3):
            exact = dist.pdf_exact(x)  # literal integral over the path-loss value
            smooth = dist._pdf_smooth(x)  # same integral after the u-substitution
            assert smooth == pytest.approx(exact, rel=1e-7)
            assert dist.pdf(x) == pytest.approx(exact, rel=1e-5)

    def test_normalizes(self, model10):
        assert model10.dist.normalization() == pytest.approx(1.0, abs=1e-6)

    def test_matches_simulated_powers_ks(self, model10):
        rng = np.random.default_rng(11)
        samples = draw_powers(rng, 10**5, n=10).ravel()  # 1e6 i.i.d. powers
        assert ks_statistic(samples, model10.dist.cdf) < 0.005

    def test_point_corridor_limit_is_scaled_shadowing(self, channel):
        # R -> 0+: Pr -> S * h^(-alpha), so the pdf approaches the inverse-
        # gamma density rescaled by w = h^(-alpha).
        geom = CorridorGeometry(1e-3, FixedHeight(H))
        dist = ReceivedPowerDistribution(geom, channel)
        w = H**-ALPHA
        ig = InverseGammaShadowing(2.0, 1.0)
        for x in (0.3 * w, 1.0 * w, 3.0 * w):
            assert dist._pdf_smooth(x) == pytest.approx(ig.pdf(x / w) / w, rel=1e-5)
            assert dist.pdf(x) == pytest.approx(ig.pdf(x / w) / w, rel=1e-4)

    @pytest.mark.parametrize("r", [250.0, 1000.0])
    def test_batched_smooth_pdf_matches_per_point_integrals(self, channel, r):
        dist = ReceivedPowerDistribution(CorridorGeometry(r, FixedHeight(H)), channel)
        shadow = InverseGammaShadowing(channel.q, channel.gamma)
        xs = np.geomspace(dist.x_lo, dist.x_hi, 40)
        refs = []
        for x in xs:

            def integrand(u, x=x):
                da = (H**2 + u**2) ** (ALPHA / 2.0)
                return da * shadow.pdf(x * da)

            refs.append(integrate(integrand, 0.0, r, analytic._PDF_QUAD))
        if r == 1000.0:  # some points need panels beyond the initial eight
            assert max(ref.n_evals for ref in refs) > 8 * 15
        expected = [ref.value / r for ref in refs]
        np.testing.assert_allclose(dist._pdf_smooth(xs), expected, rtol=1e-12, atol=0)

    def test_cached_pdf_matches_exact_across_support(self, model10):
        dist = model10.dist
        xs = np.geomspace(dist.x_lo, dist.x_hi, 22)[1:-1]
        np.testing.assert_allclose(dist.pdf(xs), dist.pdf_exact(xs), rtol=1e-5, atol=0)

    def test_received_power_pdf_operation(self, geom, channel):
        x = 3e-6
        dist = ReceivedPowerDistribution(geom, channel)
        assert dist.pdf_exact(x) == pytest.approx(bpp_model(N, geom, channel).dist.pdf_exact(x), rel=1e-10)
        assert dist.pdf_exact(-1.0) == 0.0


class TestMaxPowerPdf:
    def test_n1_reduces_to_single_power_pdf(self, geom, channel):
        model1 = bpp_model(1, geom, channel)
        xs = np.array([1e-6, 1e-5, 1e-4])
        assert np.allclose(model1.max_power_pdf(xs), model1.dist.pdf(xs), rtol=1e-12)

    def test_normalizes(self, model10):
        dist = model10.dist
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-14)
        res = integrate(
            lambda t: model10.max_power_pdf(np.exp(t)) * np.exp(t),
            math.log(dist.x_lo),
            math.log(dist.x_hi),
            cfg,
        )
        assert res.value == pytest.approx(1.0, abs=1e-5)

    def test_matches_simulated_maxima_ks(self, model10):
        rng = np.random.default_rng(12)
        maxima = draw_powers(rng, 10**6).max(axis=1)
        assert ks_statistic(maxima, lambda x: model10.dist.cdf(x) ** N) < 0.005

    def test_invalid_n_rejected(self, geom, channel):
        with pytest.raises(ParameterError):
            bpp_model(0, geom, channel)

    @pytest.mark.parametrize("n", [2.5, 10.0, np.float64(10.0), True, "10"])
    def test_non_integer_n_rejected(self, geom, channel, model10, n):
        # 2.5 once gave the N = 2 value; 10.0 and True equal cached keys
        with pytest.raises(ParameterError, match="integer"):
            bpp_model(n, geom, channel)
        with pytest.raises(ParameterError, match="integer"):
            analytic.InterferenceLaplaceBPP(model10.dist, n, channel.m)
        assert bpp_model(np.int64(N), geom, channel).coverage(1.0) == model10.coverage(1.0)


class TestLaplaceBPP:
    def test_unity_at_origin(self, model10):
        assert model10.laplace.derivative_series(0.0, 3e-6, 0)[0] == 1.0

    def test_value_in_unit_interval_and_decreasing(self, model10):
        x0 = 3e-6
        values = [model10.laplace.derivative_series(s, x0, 0)[0] for s in (0.0, 1e4, 1e5, 1e6, 1e7)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_derivative_matches_finite_difference(self, geom, channel_m3):
        model = bpp_model(N, geom, channel_m3)
        x0 = 3e-6
        s = 2.0 / x0
        h_fd = 1e-3 * s

        def value(s):
            return model.laplace.derivative_series(s, x0, 0)[0]

        for k in (1, 2):
            if k == 1:
                fd = (value(s + h_fd) - value(s - h_fd)) / (2 * h_fd)
            else:
                fd = (value(s + h_fd) - 2 * value(s) + value(s - h_fd)) / h_fd**2
            ana = model.laplace.derivative_series(s, x0, k)[k]
            assert ana == pytest.approx(fd, rel=1e-5)

    def test_alternating_derivative_signs(self, geom, channel_m3):
        # complete monotonicity spot check: L > 0, L' < 0, L'' > 0
        model = bpp_model(N, geom, channel_m3)
        x0, s = 3e-6, 5e5
        series = model.laplace.derivative_series(s, x0, 2)
        assert series[0] > 0 and series[1] < 0 and series[2] > 0

    def test_derivative_order_contract(self, model10, geom, channel_m3):
        with pytest.raises(ParameterError):
            model10.laplace.derivative_series(1e5, 3e-6, 1)  # m=1 -> only k=0 exists
        model3 = bpp_model(N, geom, channel_m3)
        with pytest.raises(ParameterError):
            model3.laplace.derivative_series(1e5, 3e-6, 3)

    @pytest.mark.parametrize("s, x0, order", [(-1.0, 3e-6, 0), (1e5, 0.0, 0), (1e5, 3e-6, -1)])
    def test_argument_contract(self, model10, s, x0, order):
        with pytest.raises(ParameterError):
            model10.laplace.derivative_series(s, x0, order)

    def test_m1_coverage_uses_only_k0(self, model10):
        # with m=1 the theorem's sum truncates at k=0: the conditional
        # coverage equals the transform at s = theta / x0
        theta, x0 = 0.5, 3e-6
        lhs = model10.conditional_coverage(theta, x0)
        rhs = model10.laplace.derivative_series(theta / x0, x0, 0)[0]
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCoverageBPP:
    def test_theta_to_zero_limit(self, model10):
        assert model10.coverage(1e-6) >= 0.999  # -60 dB

    def test_matches_monte_carlo_at_default_point(self, geom, channel, model10):
        theta = 10 ** (-3 / 10)
        sirs, _ = simulate_sir(BPP(N), geom, channel, 10**6, seed=101)
        mc = (sirs > theta).mean()
        assert model10.coverage(theta) == pytest.approx(mc, abs=0.01)

    def test_fewer_uavs_cover_better(self, model3, model10):
        for th_db in (-10.0, -3.0, 0.0, 10.0):
            th = 10 ** (th_db / 10)
            assert model3.coverage(th) > model10.coverage(th)

    def test_requires_interferers(self, geom, channel):
        model1 = bpp_model(1, geom, channel)
        with pytest.raises(ParameterError):
            model1.coverage(0.5)

    def test_requires_integer_m(self, geom):
        ch = ChannelParams(alpha=2.2, q=2.0, m=1.5)
        with pytest.raises(ParameterError):
            bpp_model(N, geom, ch).coverage(0.5)

    def test_in_unit_interval_and_monotone(self, model10):
        thetas = 10 ** (np.array([-6.0, -3.0, 0.0, 3.0, 6.0]) / 10)
        cov = np.array([model10.coverage(th) for th in thetas])
        assert np.all((cov >= 0.0) & (cov <= 1.0))
        assert np.all(np.diff(cov) <= 5e-6)

    def test_sir_invariant_to_shadowing_scale(self, geom):
        # scaling gamma rescales every link power identically, so a Monte
        # Carlo curve on one seed draws the same SIRs up to rounding
        thetas = np.arange(-20.0, 21.0, 5.0)
        for spatial in (BPP(N), FiniteHPPP(0.01)):
            for m in (1.0, 2.5, 3.0):
                c1, c5 = (
                    empirical_coverage(spatial, geom, ChannelParams(alpha=2.2, q=2.0, m=m, gamma=g),
                                       thetas, 200_000, seed=7).coverage
                    for g in (1.0, 5.0)
                )
                np.testing.assert_array_equal(c1, c5)

    @pytest.mark.parametrize("m, method", [
        (1.0, "exact"), (3.0, "exact"),
        *((m, method) for m in (1.0, 2.5, 3.0) for method in ("dominant", "single_dominant")),
    ])
    @pytest.mark.parametrize("spatial", [BPP(N), FiniteHPPP(0.01)], ids=["bpp", "hppp"])
    def test_analytic_sir_invariant_to_shadowing_scale(self, geom, spatial, m, method):
        # the same for the analytic values, which support the unit-mean
        # default gamma = q - 1 and a path-loss constant folded into gamma
        for theta_db in (-20.0, -3.0, 20.0):
            c1, c5 = (
                coverage_probability(CoverageQuery(
                    10 ** (theta_db / 10), spatial, ChannelParams(alpha=2.2, q=2.0, m=m, gamma=g),
                    geom, method))
                for g in (1.0, 5.0)
            )
            assert c1 == pytest.approx(c5, rel=1e-12, abs=0)


class TestResidualMeanInterference:
    def test_n2_is_zero(self, geom, channel):
        model = bpp_model(2, geom, channel)
        assert model.residual_mean_interference(1e-5, 1e-6) == 0.0

    def test_bounded_by_truncation_point(self, model10):
        for x_i in (1e-6, 1e-5, 1e-4):
            val = model10.residual_mean_interference(2 * x_i, x_i)
            assert 0.0 < val <= (N - 2) * x_i

    def test_ordering_violation_rejected(self, model10):
        with pytest.raises(ParameterError):
            model10.residual_mean_interference(1e-6, 1e-5)

    def test_conditioned_simulation_oracle(self, model10):
        # medians of the top-two order statistics
        dist = model10.dist
        x0_med = dist.ppf(0.5 ** (1.0 / N))
        p2 = optimize.brentq(lambda p: p**N + N * p ** (N - 1) * (1 - p) - 0.5, 0.3, 0.999999)
        xi_med = dist.ppf(p2)
        ana = model10.residual_mean_interference(x0_med, xi_med)

        rng = np.random.default_rng(13)
        accepted_sum = 0.0
        accepted_n = 0
        win = 10 ** (0.25 / 10)  # +-0.25 dB acceptance window
        for _ in range(10):  # 1e6 trials
            p = draw_powers(rng, 10**5)
            part = np.partition(p, (N - 2, N - 1), axis=1)
            top1, top2 = part[:, N - 1], part[:, N - 2]
            ok = (
                (top1 > x0_med / win)
                & (top1 < x0_med * win)
                & (top2 > xi_med / win)
                & (top2 < xi_med * win)
            )
            rest = p.sum(axis=1) - top1 - top2
            accepted_sum += rest[ok].sum()
            accepted_n += ok.sum()
        assert accepted_n > 500, "acceptance window too narrow for the oracle"
        emp = accepted_sum / accepted_n
        assert ana == pytest.approx(emp, rel=0.02)


class TestJointTopTwoPdf:
    def test_zero_outside_ordering_region(self, model10):
        assert model10.joint_top_two_pdf(1e-6, 2e-6) == 0.0

    def test_marginalization_recovers_max_pdf(self, model10):
        # int_0^{x0} f(xi) F(xi)^(n-2) dxi = F(x0)^(n-1) / (n-1) exactly, so
        # the xi-marginal of the joint pdf is the maximum-power pdf.
        dist = model10.dist
        for x0 in (1e-6, 3e-6, 2e-5):
            marginal = N * dist.pdf(x0) * dist.cdf(x0) ** (N - 1)
            assert marginal == pytest.approx(model10.max_power_pdf(x0), rel=1e-6)
            cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-20)
            res = integrate(
                lambda t: model10.joint_top_two_pdf(x0, np.exp(t)) * np.exp(t),
                math.log(dist.x_lo),
                math.log(x0),
                cfg,
            )
            assert res.value == pytest.approx(marginal, rel=1e-6)

    def test_double_integral_is_one(self, model10):
        dist = model10.dist
        t_lo, t_hi = math.log(dist.x_lo), math.log(dist.x_hi)
        res = nested_integrate_2d(
            lambda t0, ti: model10.joint_top_two_pdf(math.exp(t0), np.exp(ti))
            * math.exp(t0)
            * np.exp(ti),
            (t_lo, t_hi),
            lambda t0: (t_lo, t0),
            QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9),
        )
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_chi2_against_simulated_top_two(self, model10):
        dist = model10.dist
        trials = 10**6
        rng = np.random.default_rng(14)
        p = draw_powers(rng, trials)
        part = np.partition(p, (N - 2, N - 1), axis=1)
        top1, top2 = part[:, N - 1], part[:, N - 2]

        qs = np.linspace(0.0, 1.0, 7)[1:-1]
        edges = np.concatenate(
            [[dist.x_lo / 10], dist.ppf(qs ** (1.0 / N)), [dist.x_hi * 10]]
        )
        counts, _, _ = np.histogram2d(top1, top2, bins=(edges, edges))

        def cell_probability(a0, b0, ai, bi):
            def f(t):
                x0 = np.exp(t)
                hi = dist.cdf(np.minimum(bi, x0)) ** (N - 1)
                lo = dist.cdf(np.minimum(ai, x0)) ** (N - 1)
                return N * dist.pdf(x0) * np.maximum(hi - lo, 0.0) * x0

            lo_t = math.log(max(a0, dist.x_lo))
            hi_t = math.log(min(b0, dist.x_hi))
            if hi_t <= lo_t:
                return 0.0
            return integrate(f, lo_t, hi_t, QuadratureConfig(rel_tol=1e-7, abs_tol=1e-12)).value

        expected = np.array(
            [
                [
                    cell_probability(edges[i], edges[i + 1], edges[j], edges[j + 1])
                    for j in range(len(edges) - 1)
                ]
                for i in range(len(edges) - 1)
            ]
        )
        keep = (expected * trials) >= 50
        f_obs = counts[keep]
        f_exp = expected[keep] * trials
        f_exp *= f_obs.sum() / f_exp.sum()  # renormalize over kept cells
        _, p_value = stats.chisquare(f_obs, f_exp)
        assert p_value > 0.01


class TestDominantInterferer:
    def mc_approximate_sir(self, model, trials, seed, single):
        """Direct simulation of the approximate SIR: top-two powers exact,
        residual interference replaced by its conditional mean."""
        n = model.n
        rng = np.random.default_rng(seed)
        p = draw_powers(rng, trials, n=n)
        part = np.partition(p, (n - 2, n - 1), axis=1)
        x0, xi = part[:, n - 1], part[:, n - 2]
        h0 = rng.exponential(1.0, trials)
        hi = rng.exponential(1.0, trials)
        if single or n == 2:
            omega = 0.0
        else:
            omega = (n - 2) * model.dist.mean_below(xi) / np.maximum(model.dist.cdf(xi), 1e-250)
        return h0 * x0 / (hi * xi + omega)

    def test_dominant_matches_approximate_sir_simulation(self, model10):
        sir = self.mc_approximate_sir(model10, 400_000, 15, single=False)
        for th_db in (-3.0, 3.0):
            th = 10 ** (th_db / 10)
            assert model10.coverage_dominant(th) == pytest.approx((sir > th).mean(), abs=0.01)

    @staticmethod
    def mc_approximate_sir_hppp(model, trials, seed):
        """The same approximate SIR for the finite HPPP: Poisson counts
        conditioned on N >= 1, the residual replaced by mu M1(x_i); a lone
        UAV has no interferer, so its SIR is infinite."""
        rng = np.random.default_rng(seed)
        counts = rng.poisson(model.mu, trials)
        counts = counts[counts > 0]
        x0, xi = np.empty(counts.size), np.zeros(counts.size)
        for n in np.unique(counts):
            rows = counts == n
            p = np.sort(draw_powers(rng, np.count_nonzero(rows), n=n, h=model.dist.h, r=model.dist.R),
                        axis=1)
            x0[rows] = p[:, -1]
            if n > 1:
                xi[rows] = p[:, -2]
        h0 = rng.exponential(1.0, counts.size)
        hi = rng.exponential(1.0, counts.size)
        omega = model.mu * model.dist.mean_below(xi)
        with np.errstate(divide="ignore"):
            return h0 * x0 / (hi * xi + omega)

    @pytest.mark.parametrize("mean_count", [10.0, 0.5])
    def test_hppp_dominant_matches_approximate_sir_simulation(self, geom, channel, mean_count):
        # at mean count 0.5 a lone serving UAV is most of the mass
        model = hppp_model(mean_count / geom.length, geom, channel)
        sir = self.mc_approximate_sir_hppp(model, 400_000, 17)
        for th_db in (-3.0, 3.0):
            th = 10 ** (th_db / 10)
            assert model.coverage_dominant(th) == pytest.approx((sir > th).mean(), abs=0.01)
        assert model.coverage_dominant(1e-6) == pytest.approx(1.0, abs=1e-3)

    def test_hppp_mean_count_beyond_exp_overflow(self, channel):
        # mu = 1000: e^mu overflows a double, so the outer bounds' quantile
        # level is taken in log space; exact and dominant both still match
        # their simulations
        geom = CorridorGeometry(50_000.0, FixedHeight(H))
        model = hppp_model(0.01, geom, channel)
        assert model.mu == 1000.0
        sirs, _ = simulate_sir(FiniteHPPP(0.01), geom, channel, 40_000, seed=23, batch_size=4096)
        approx = self.mc_approximate_sir_hppp(model, 40_000, 24)
        for th_db in (-3.0, 3.0):
            th = 10 ** (th_db / 10)
            assert model.coverage(th) == pytest.approx((sirs > th).mean(), abs=0.01)
            assert model.coverage_dominant(th) == pytest.approx((approx > th).mean(), abs=0.01)

    def test_single_dominant_matches_its_simulation(self, model10):
        sir = self.mc_approximate_sir(model10, 400_000, 16, single=True)
        th = 10 ** (-3 / 10)
        assert model10.coverage_single_dominant(th) == pytest.approx((sir > th).mean(), abs=0.01)

    def test_close_to_exact_at_default_threshold(self, model3, model10):
        # measured approximation error of the mean-residual form peaks at
        # 0.033-0.040 around theta in [0, +9] dB (see decisions ledger); at
        # the default -3 dB operating point it is well inside 0.03
        th = 10 ** (-3 / 10)
        for model in (model3, model10):
            assert abs(model.coverage_dominant(th) - model.coverage(th)) <= 0.03

    def test_single_dominant_upper_bounds_dominant(self, model10):
        for th_db in (-6.0, 0.0, 6.0):
            th = 10 ** (th_db / 10)
            assert model10.coverage_single_dominant(th) >= model10.coverage_dominant(th) - 1e-4

    def test_single_dominant_only_accurate_for_small_n(self, model3, model10):
        th = 10 ** (-3 / 10)
        err3 = abs(model3.coverage_single_dominant(th) - model3.coverage(th))
        err10 = abs(model10.coverage_single_dominant(th) - model10.coverage(th))
        assert err3 < err10

    def test_n2_dominant_equals_single_equals_exact(self, geom, channel):
        model = bpp_model(2, geom, channel)
        th = 10 ** (-3 / 10)
        dom = model.coverage_dominant(th)
        single = model.coverage_single_dominant(th)
        exact = model.coverage(th)
        assert dom == pytest.approx(single, abs=1e-6)  # omega == 0 at n=2
        assert single == pytest.approx(exact, abs=2e-3)  # one interferer: exact

    def test_any_positive_m_allowed(self, geom):
        # the incomplete-gamma form needs no Laplace derivatives, so
        # non-integer m is fine here (unlike the exact engine)
        ch = ChannelParams(alpha=2.2, q=2.0, m=1.5)
        model = bpp_model(N, geom, ch)
        val = model.coverage_dominant(10 ** (-3 / 10))
        assert 0.0 < val < 1.0

    # (m, N, theta dB) -> (dominant, single-dominant) from the former 3D
    # nested quadrature, which integrated the fading adaptively
    ADAPTIVE_FADING_VALUES = {
        (2.5, 10, 0.0): (0.27814043509873027, 0.7399026845016949),
        (0.5, 10, 0.0): (0.26466096561284735, 0.6117228223501998),
        (0.5, 10, 20.0): (0.00016873839766672513, 0.0981566676479201),
        (0.5, 2, 0.0): (0.7034838529353242, 0.7034838529353242),
        (1.0, 10, 20.0): (0.00010149196934548837, 0.027433068059209562),
    }

    @pytest.mark.parametrize("m, n, theta_db", list(ADAPTIVE_FADING_VALUES))
    def test_matches_adaptive_fading_integral(self, geom, m, n, theta_db):
        model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
        th = 10 ** (theta_db / 10)
        got = (model.coverage_dominant(th), model.coverage_single_dominant(th))
        for value, ref in zip(got, self.ADAPTIVE_FADING_VALUES[(m, n, theta_db)]):
            assert abs(value - ref) <= 1e-5
            assert abs(value - ref) <= 1e-3 * ref

    def test_coarse_fading_rule_fails_certification(self, geom, monkeypatch):
        # at m=0.5 a 2-node rule is off by ~3e-4 in the integrated value,
        # far beyond the dominant tolerance, so the 2- vs 4-node check trips
        model = bpp_model(N, geom, ChannelParams(alpha=2.2, q=2.0, m=0.5))
        monkeypatch.setattr(analytic, "_LAGUERRE_LADDER", (2,))
        with pytest.raises(QuadratureError) as err:
            model.coverage_dominant(1.0)
        assert err.value.level == "fading"


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.5, 8.0])
def test_dominant_grid_converges(geom, m):
    # no QuadratureError over N in {2, 10, 200} and theta in {-20, 0, +20} dB
    for n in (2, 10, 200):
        model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
        for theta_db in (-20.0, 0.0, 20.0):
            th = 10 ** (theta_db / 10)
            dominant = model.coverage_dominant(th)
            single = model.coverage_single_dominant(th)
            assert 0.0 <= dominant <= 1.0 and 0.0 <= single <= 1.0
            assert single >= dominant - 1e-4, (n, theta_db)


def betainc_branch(m, b):
    """The a = 0 fading tail as scipy's incomplete beta at x = 1/(1+b)."""
    return special.betainc(m, m, 1.0 / (1.0 + b))


def half_order_branch(m, b):
    """The a = 0 fading tail at m = 1/2 in closed form: (2/pi) arctan(1/sqrt b)."""
    assert m == 0.5
    return (2.0 / math.pi) * np.arctan2(1.0, np.sqrt(b))


@pytest.mark.parametrize("n", [10, 200])
@pytest.mark.parametrize("m", [2.5, 7.5, 8.0])
def test_single_dominant_elementary_beta_matches_betainc(geom, monkeypatch, n, m):
    # single-dominant's whole fading expectation is I_x(m, m); its
    # elementary form keeps the values of the betainc branch, also far in
    # the tail, where the half-integer recurrence hands over to the series
    model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
    thetas = [10 ** (theta_db / 10) for theta_db in (20.0, 60.0)]
    got = [model.coverage_single_dominant(th) for th in thetas]
    monkeypatch.setattr(analytic, "_symmetric_beta", betainc_branch)
    expected = [model.coverage_single_dominant(th) for th in thetas]
    np.testing.assert_allclose(got, expected, rtol=BETA_RTOL, atol=0.0)


@pytest.mark.parametrize("m", [0.5, 1.3, 3.0])
def test_single_dominant_keeps_betainc_off_the_elementary_orders(geom, monkeypatch, m):
    # below m = 1 betainc at x rounded near 1 loses relative accuracy, so
    # m = 1/2 is held to its closed form instead
    model = bpp_model(N, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
    thetas = [10 ** (theta_db / 10) for theta_db in (-20.0, 0.0, 20.0)]
    got = [model.coverage_single_dominant(th) for th in thetas]
    monkeypatch.setattr(analytic, "_symmetric_beta", half_order_branch if m < 1 else betainc_branch)
    expected = [model.coverage_single_dominant(th) for th in thetas]
    if m < 1:
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    else:
        assert got == expected


@pytest.mark.parametrize("theta", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["coverage", "coverage_dominant", "coverage_single_dominant"])
@pytest.mark.parametrize("make", [bpp_model, hppp_model])
def test_non_finite_theta_rejected(geom, channel, make, method, theta):
    # nan once surfaced as a QuadratureError from the integrand, and an
    # infinite theta gave single-dominant coverage 0
    model = make(N if make is bpp_model else 0.01, geom, channel)
    with pytest.raises(ParameterError, match="finite"):
        getattr(model, method)(theta)


CONDITIONAL_CALLS = {
    "conditional_coverage-theta": lambda model, v: model.conditional_coverage(v, 3e-6),
    "conditional_coverage-x0": lambda model, v: model.conditional_coverage(1.0, v),
    "derivative_series-s": lambda model, v: model.laplace.derivative_series(v, 3e-6, 0),
    "derivative_series-x0": lambda model, v: model.laplace.derivative_series(1e6, v, 0),
    "mean_interference-x0": lambda model, v: model.laplace.mean_interference(v),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in CONDITIONAL_CALLS for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)
    if (name, bad) != ("derivative_series-s", 0.0)  # L(0 | x0) = 1
])
def test_conditional_methods_reject_bad_inputs(model10, name, bad):
    # these once raised QuadratureError, warned of a division by zero, or
    # returned a number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            CONDITIONAL_CALLS[name](model10, bad)


@pytest.mark.parametrize("m", [0.5, 1.3, 2.5, 8.0])
def test_dominant_panels_keep_their_tolerance(geom, monkeypatch, m):
    # the dominant rule starts each level from fewer panels than the
    # default 8; its values must stay within its own tolerance of the
    # 8-panel rule's, here and at one corner of the parameter domain
    ch = ChannelParams(alpha=2.2, q=2.0, m=m)
    cases = [(model, th) for model in (bpp_model(2, geom, ch), bpp_model(200, geom, ch),
                                       hppp_model(0.01, geom, ch))
             for th in (0.01, 1.0, 100.0)]
    if m == 2.5:
        corner = CorridorGeometry(500 * H, FixedHeight(H))
        cases.append((bpp_model(N, corner, ChannelParams(alpha=6.0, q=1.05, m=m)), 1.0))

    def values():
        return [(model.coverage_dominant(th), model.coverage_single_dominant(th))
                for model, th in cases]

    shipped = values()
    cfg = analytic._DOMINANT_QUAD
    monkeypatch.setattr(analytic, "_DOMINANT_QUAD", dataclasses.replace(cfg, initial_panels=8))
    for got, ref in zip(shipped, values()):
        for v, r in zip(got, ref):
            assert abs(v - r) <= max(cfg.abs_tol, cfg.rel_tol * abs(r)), (m, got, ref)


class TestBatchedDominantIntegral:
    """The dominant-interferer 2D integral with one batched inner rule per
    outer-integrand call, against the nested scalar rule it replaced."""

    @staticmethod
    def nested(model, theta, with_residual_mean, n_rule):
        """The former per-outer-node `integrate` loop over the old integrand,
        with the untrimmed Laguerre rule whose value the method returns: the
        `n_rule`-node rule that its debug line names as certified."""
        dist, m, n = model.dist, model.m, model.n
        lo, hi = model._outer_bounds(1e-10)
        t_lo, t_hi = math.log(lo), math.log(hi)
        residual = with_residual_mean and n > 2
        n_nodes = TOP_RUNG if float(m).is_integer() or not residual else n_rule

        def integrand(t0, ti):
            x0 = math.exp(t0)
            xi = np.exp(ti)
            omega = 0.0
            if residual:
                fxi = dist.cdf(xi)
                omega = np.where(
                    fxi > 1e-250, (n - 2) * dist.mean_below(xi) / np.maximum(fxi, 1e-250), 0.0
                )
            tail = full_rule_tail(m, m * theta * omega / x0, theta * xi / x0, n_nodes)
            return tail * model.joint_top_two_pdf(x0, xi) * x0 * xi

        value = nested_integrate_2d(
            integrand, (t_lo, t_hi), lambda t0: (t_lo, t0), analytic._DOMINANT_QUAD
        ).value
        return min(max(value, 0.0), 1.0)

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("m", [0.5, 2.5, 3.0])
    def test_matches_nested_scalar_rule(self, geom, caplog, m, n):
        model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            dominant = model.coverage_dominant(1.0)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dominant")]
        n_rule = int(self.LINE.fullmatch(line).group(7))
        single = model.coverage_single_dominant(1.0)
        assert dominant == pytest.approx(self.nested(model, 1.0, True, n_rule), rel=1e-12, abs=0.0)
        assert single == pytest.approx(self.nested(model, 1.0, False, n_rule), rel=1e-12, abs=0.0)

    LINE = re.compile(
        r"dominant coverage at theta=1: (\d+) nodes read, residual (mean|dropped), "
        r"(\d+) outer nodes, (\d+) inner rows, (\d+) inner node evaluations, "
        r"(\d+)/(\d+) Laguerre nodes kept, certified (yes|no), [0-9.]+ s"
    )

    def test_logs_its_work(self, geom, caplog, monkeypatch):
        ch = ChannelParams(alpha=2.2, q=2.0, m=2.5)
        model = analytic.BppCoverageModel(N, geom, ch)  # its dominant table not yet built
        model.dist.x_lo  # build the cache outside the captured calls
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            model.coverage_dominant(1.0)
            model.coverage_single_dominant(1.0)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dominant")]
        assert len(lines) == 2
        fields = [self.LINE.fullmatch(line) for line in lines]
        assert all(fields), lines
        (read, res, outer, rows, inner, kept, n_rule, cert), single = (f.groups() for f in fields)
        # m = 2.5: the ladder's first rung, 4 nodes checked against 8,
        # certifies the value in one 2D pass, which reads every node
        assert (res, cert, int(n_rule)) == ("mean", "yes", 2 * analytic._LAGUERRE_LADDER[0])
        assert int(read) == int(outer) + int(inner)
        assert int(outer) % 15 == 0  # one G7/K15 panel is 15 nodes
        # the work at R = 500 m, h = 100 m, alpha = 2.2, q = 2, pinned: a change
        # to the cost per node must not move it
        assert tuple(map(int, (outer, inner, kept))) == (75, 3_405, 8)
        assert int(rows) == int(outer)  # one inner row per outer node
        # at least the first sweep's panels per row
        assert int(inner) >= 15 * analytic._DOMINANT_QUAD.initial_panels * int(rows)
        read, res, outer, rows, inner, kept, n_rule, cert = single
        # the single-dominant value reuses what the dominant one read
        assert (read, res, kept, n_rule, cert) == ("0", "dropped", "0", "0", "no")
        assert int(rows) == int(outer) > 0 and int(inner) > 0
        # the 8-node rule drops nothing at m = 2.5; on a forced 8/16 rung the
        # 16-node rule drops its largest nodes
        caplog.clear()
        monkeypatch.setattr(analytic, "_LAGUERRE_LADDER", (8,))
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            model.coverage_dominant(1.0)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dominant")]
        read, res, outer, _, inner, kept, n_rule, cert = self.LINE.fullmatch(line).groups()
        assert (read, res, cert, int(n_rule)) == ("0", "mean", "yes", 16)
        assert 0 < int(kept) < int(n_rule)
        assert tuple(map(int, (outer, inner, kept))) == (75, 3_405, 15)


class TestExactFadingRuleAtIntegerM:
    """For integer m the mean-residual fading rule is exact, so the dominant
    coverage is one 2D integral with no certifying second integral; at
    half-integer m the certifying rule is a second component of that one
    integral."""

    # (m, N, theta dB) -> mean-residual dominant coverage computed with the
    # 32-node rule certified against (and replaced by) the 64-node rule, each
    # rule in its own 2D pass.  The integer-m values lie within 1e-14 of the
    # same rule run on the pdf, cdf and first moment computed without the
    # received-power cache.
    CERTIFIED_VALUES = {
        (1.0, 10, 0.0): 0.2813456249428171,
        (3.0, 10, 0.0): 0.27558242491171553,
        (2.0, 3, -3.0): 0.8683173367121796,
        (2.5, 10, 0.0): 0.2781403719720366,
    }

    @pytest.mark.parametrize("m, n, theta_db", list(CERTIFIED_VALUES))
    def test_one_integral_equals_certified_value(self, geom, monkeypatch, caplog, m, n, theta_db):
        # each 2D pass is one outer `integrate` call over t0
        calls = []
        outer = analytic.integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return outer(*args, **kwargs)

        monkeypatch.setattr(analytic, "integrate", counted)
        model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            value = model.coverage_dominant(10 ** (theta_db / 10))
        assert value == pytest.approx(self.CERTIFIED_VALUES[(m, n, theta_db)], rel=1e-9)
        assert len(calls) == 1
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dominant")]
        certified = re.search(r"certified (yes|no)", line).group(1)
        assert certified == ("no" if float(m).is_integer() else "yes"), line

    @pytest.mark.parametrize("m", [1.0, 3.0, 8.0])
    def test_default_rule_has_ceil_half_m_nodes(self, geom, caplog, m):
        model = bpp_model(N, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
        model.dist.x_lo  # build the cache outside the captured call
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            model.coverage_dominant(1.0)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dominant")]
        fields = TestBatchedDominantIntegral.LINE.fullmatch(line)
        assert fields, line
        _, res, _, _, _, kept, n_rule, cert = fields.groups()
        assert (res, int(kept), int(n_rule), cert) == ("mean", math.ceil(m / 2), math.ceil(m / 2), "no")

    def test_two_node_rule_exact_up_to_m4(self, geom):
        # m = 3 takes the ceil(m/2) = 2-node rule: a 2-node Gauss rule
        # integrates polynomials of degree <= 3 exactly, which covers the
        # degree m-1 = 2 integrand
        model = bpp_model(N, geom, ChannelParams(alpha=2.2, q=2.0, m=3.0))
        value = model.coverage_dominant(1.0)
        assert value == pytest.approx(self.CERTIFIED_VALUES[(3.0, 10, 0.0)], rel=1e-9)


class TestFadingRuleLadder:
    """At non-integer m the mean-residual fading rule is certified on a
    ladder of three rungs: 4 nodes checked against 8 first, 8 against 16
    where that pair disagrees, and 32 against 64 where that one does too;
    each rung returns its finer rule's value.  A one-rung
    `_LAGUERRE_LADDER` is one pair."""

    @staticmethod
    def one_rung(monkeypatch, model, theta, n_nodes):
        """Mean-residual dominant coverage on the single rung `n_nodes`."""
        with monkeypatch.context() as patch:
            patch.setattr(analytic, "_LAGUERRE_LADDER", (n_nodes,))
            return model.coverage_dominant(theta)

    def test_fallback_repeats_the_top_rung(self, geom, monkeypatch, caplog):
        # at BPP 3, m = 0.5, 0 dB the 4/8 and 8/16 pairs disagree, so the
        # value is the 32/64 pair's, bit for bit, after all three 2D passes
        model = bpp_model(3, geom, ChannelParams(alpha=2.2, q=2.0, m=0.5))
        with pytest.raises(QuadratureError) as err:
            self.one_rung(monkeypatch, model, 1.0, 8)
        assert err.value.level == "fading"
        top = self.one_rung(monkeypatch, model, 1.0, TOP_RUNG)
        work = {"integrate": [], "integrate_batch": []}

        def counted(name):
            rule = getattr(analytic, name)

            def wrapper(*args, **kwargs):
                res = rule(*args, **kwargs)
                work[name].append(res.n_evals)
                return res

            return wrapper

        for name in work:
            monkeypatch.setattr(analytic, name, counted(name))
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            value = model.coverage_dominant(1.0)
        assert value == top
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dominant")]
        _, res, outer, _, inner, kept, n_rule, cert = TestBatchedDominantIntegral.LINE.fullmatch(line).groups()
        assert (res, int(n_rule), cert) == ("mean", 2 * TOP_RUNG, "yes")
        assert int(kept) == analytic._gen_laguerre_rule(0.5, 2 * TOP_RUNG)[0].size
        assert len(work["integrate"]) == 3  # one outer integral per pass
        assert (int(outer), int(inner)) == (sum(work["integrate"]), sum(work["integrate_batch"]))

    @pytest.mark.parametrize("m", [0.5, 1.3, 2.5, 8.5])
    def test_ladder_within_tolerance_of_top_rung(self, geom, monkeypatch, m):
        # every value the ladder returns, first rung or fallback, lies within
        # the dominant tolerance of the 32/64 pair's, with no QuadratureError
        ch = ChannelParams(alpha=2.2, q=2.0, m=m)
        cfg = analytic._DOMINANT_QUAD
        models = [bpp_model(n, geom, ch) for n in (2, 10, 200)] + [hppp_model(0.01, geom, ch)]
        for model in models:
            for theta_db in (-20.0, 0.0, 20.0):
                th = 10 ** (theta_db / 10)
                got = model.coverage_dominant(th)
                ref = self.one_rung(monkeypatch, model, th, TOP_RUNG)
                assert abs(got - ref) <= max(cfg.abs_tol, cfg.rel_tol * abs(ref)), (model.law, theta_db)


BOTH_SIZES = ((analytic.BppCoverageModel, N), (analytic.HpppCoverageModel, 0.01))


@pytest.mark.parametrize("order", [("dominant", "single"), ("single", "dominant")])
@pytest.mark.parametrize(
    "specs, m, thetas_db",
    [(BOTH_SIZES, 1.0, range(-20, 21, 5)), (BOTH_SIZES, 2.5, range(-20, 21, 5)),
     # the ladder's fallback: three 2D passes, the last two on the table
     (((analytic.BppCoverageModel, 3),), 0.5, (0,))],
    ids=["m1", "m2.5", "fallback"],
)
def test_dominant_table_matches_fresh_models(geom, caplog, specs, m, thetas_db, order):
    # A fresh model's value reads at most every node it evaluates, and a
    # warm one's, of either method, fewer, since at least its first sweeps'
    # reads are held; values, node counts and debug lines are those of
    # a fresh model per theta and method, bit for bit.  BPP 10 and HPPP 0.01
    # share one received-power cache and take their values in turn.
    ch = ChannelParams(alpha=2.2, q=2.0, m=m)
    methods = {"dominant": "coverage_dominant", "single": "coverage_single_dominant"}
    shared = [cls(size, geom, ch) for cls, size in specs]
    assert all(model.dist is shared[0].dist for model in shared)

    def value_and_line(model, method, theta):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            value = getattr(model, methods[method])(theta)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dominant")]
        read = re.search(r": (\d+) nodes read, ", line)
        assert read is not None, line
        return value, int(read.group(1)), re.sub(r"[0-9.]+ s$", "", line.replace(read.group(0), ": "))

    refined = 0
    for k, db in enumerate(thetas_db):
        theta = 10 ** (db / 10)
        for j, method in enumerate(order):
            for (cls, size), model in zip(specs, shared):
                value, read, work = value_and_line(model, method, theta)
                fresh_value, fresh_read, fresh_work = value_and_line(cls(size, geom, ch), method, theta)
                assert value == fresh_value and work == fresh_work, (cls, method, db)
                outer, inner = map(int, re.search(r"(\d+) outer nodes, \d+ inner rows, (\d+) inner", work).groups())
                assert 0 < fresh_read <= outer + inner
                assert read == fresh_read if k == j == 0 else read < fresh_read
                refined += outer > 45 and inner > 45 * 45  # both levels past their first sweep
    assert refined


@pytest.mark.parametrize("method, shift, clipped", [("coverage", 1.0, 1.0), ("coverage_dominant", -1.0, 0.0)])
def test_clamp_reports_the_unclipped_value(geom, monkeypatch, caplog, method, shift, clipped):
    # an outer integral shifted out of [0, 1] is clipped, and its debug line
    # gives the value before the clip; an unshifted one names no clamp
    model = bpp_model(N, geom, ChannelParams(alpha=2.2, q=2.0, m=1.0))
    model.dist.x_lo  # build the cache outside the captured calls
    with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
        getattr(model, method)(1.0)
    assert not any("clamped" in r.getMessage() for r in caplog.records)
    caplog.clear()
    outer, raw = analytic.integrate, []

    def shifted(*args, **kwargs):
        res = outer(*args, **kwargs)
        raw.append(float(np.ravel(res.value)[0] + shift))
        return IntegralResult(res.value + shift, res.error, res.n_evals)

    monkeypatch.setattr(analytic, "integrate", shifted)
    with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
        assert getattr(model, method)(1.0) == clipped
    (line,) = [r.getMessage() for r in caplog.records if "coverage at theta" in r.getMessage()]
    assert line.endswith(f" s, clamped from {raw[0]!r}"), line


class TestFadingTailExpectation:
    """T(a, b) = E[Q(m, a + b Y)], Y ~ Gamma(m, 1): the dominant-interferer
    integrand after the fading of the strongest interferer is integrated."""

    @staticmethod
    def adaptive(m, a, b):
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-15)

        def f(y):
            return np.exp((m - 1) * np.log(y) - y - math.lgamma(m)) * special.gammaincc(m, a + b * y)

        tail = sp_integrate.quad(f, 1.0, math.inf, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=200)[0]
        return integrate(f, 0.0, 1.0, cfg).value + tail

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.5, 8.0])
    def test_matches_adaptive_integral(self, m):
        for a in (0.0, 1e-2, 1.0, 10.0):
            for b in (1e-4, 1e-2, 1.0, 100.0):
                ref = self.adaptive(m, a, b)
                coarse = _fading_tail_expectation(m, a, b, TOP_RUNG)
                fine = _fading_tail_expectation(m, a, b, 2 * TOP_RUNG)
                # the rule converges slowly only for m < 1 near a = 0 (the
                # integrand has a y^m kink at y = 0); there the n- vs
                # 2n-node gap, which certifies the coverage, bounds the error
                assert abs(fine - ref) <= 1e-4
                assert abs(fine - ref) <= abs(coarse - fine) + 1e-9 * ref

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.3, 1.5, 2.5, 8.0])
    def test_gap_bounds_the_error_on_each_rung(self, m):
        # what the certification relies on: on every rung of the ladder
        # (n = 4, 8 and 32) and between them, the n- vs 2n-node gap bounds
        # the 2n-node rule's error
        for a in (0.0, 1e-2, 1.0, 10.0):
            for b in (1e-4, 1e-2, 1.0, 100.0):
                ref = self.adaptive(m, a, b)
                for n_nodes in (4, 8, 16, 32):
                    coarse = _fading_tail_expectation(m, a, b, n_nodes)
                    fine = _fading_tail_expectation(m, a, b, 2 * n_nodes)
                    assert abs(fine - ref) <= abs(coarse - fine) + 1e-9 * ref, (a, b, n_nodes)

    @staticmethod
    def gammaincc_tail(m, a, b, n_nodes):
        """T(a, b) on the engine's trimmed rule with every term formed as
        exp(beta z) gammaincc(m, a + beta z), the incomplete beta at a = 0."""
        a, b = (np.ravel(v) for v in np.broadcast_arrays(a, b))
        z, w = analytic._gen_laguerre_rule(m, n_nodes)
        beta = (b / (1.0 + b))[:, None]
        terms = np.exp(beta * z) * special.gammaincc(m, a[:, None] + beta * z)
        return np.where(a > 0, (1.0 + b) ** -m * (terms @ w), special.betainc(m, m, 1.0 / (1.0 + b)))

    @pytest.mark.parametrize("n_nodes", [TOP_RUNG, 2 * TOP_RUNG])
    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 8.0])
    def test_elementary_terms_match_gammaincc(self, m, n_nodes):
        # where 2m is an integer the terms are e^-a S(a + beta z), S from the
        # order recurrence of Q, in place of exp(beta z) gammaincc(m, a + beta z)
        x = np.geomspace(1e-8, 700.0, 200)
        np.testing.assert_allclose(
            analytic._scaled_upper_gamma(m, x), np.exp(x) * special.gammaincc(m, x), rtol=1e-13, atol=0.0
        )
        a, b = np.meshgrid(np.geomspace(1e-4, 1e3, 15), np.geomspace(1e-4, 1e4, 17))
        got = _fading_tail_expectation(m, a, b, n_nodes).ravel()
        np.testing.assert_allclose(got, self.gammaincc_tail(m, a, b, n_nodes), rtol=0.0, atol=1e-14)
        # far offsets: e^-a underflows to 0, and S does not overflow
        a, b = np.meshgrid([800.0, 1e4, 1e6], np.geomspace(1e-4, 1e4, 5))
        far = _fading_tail_expectation(m, a, b, n_nodes)
        assert np.all(np.isfinite(far) & (far >= 0.0))

    def test_other_orders_keep_gammaincc_terms(self):
        # 2m not an integer: the terms are still exp(beta z) gammaincc(m, .),
        # bit for bit
        a, b = np.meshgrid(np.geomspace(1e-4, 1e3, 15), np.geomspace(1e-4, 1e4, 17))
        got = _fading_tail_expectation(1.3, a, b, TOP_RUNG).ravel()
        np.testing.assert_array_equal(got, self.gammaincc_tail(1.3, a, b, TOP_RUNG))

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.3, 2.5, 8.0])
    def test_zero_offset_is_incomplete_beta(self, m):
        b = np.array([1e-4, 1e-2, 1.0, 100.0])
        a = np.array([0.0, 1.0, 0.0, 1.0])  # closed form also inside a mixed batch
        got = _fading_tail_expectation(m, a, b, TOP_RUNG)[[0, 2]]
        expected = special.betainc(m, m, 1.0 / (1.0 + b[[0, 2]]))
        scalar = _fading_tail_expectation(m, 0.0, 3.0, TOP_RUNG)
        if m in ELEMENTARY_M:
            # the elementary form, within its bound
            np.testing.assert_allclose(got, expected, rtol=BETA_RTOL, atol=0.0)
            assert scalar == pytest.approx(special.betainc(m, m, 0.25), rel=BETA_RTOL, abs=0.0)
        elif m < 1:
            # b < 1 is not betainc at x rounded near 1: the closed form bounds it
            np.testing.assert_allclose(got, half_order_branch(m, b[[0, 2]]), rtol=1e-15, atol=0.0)
            assert scalar == special.betainc(m, m, 0.25)
        else:
            assert list(got) == list(expected)
            assert scalar == special.betainc(m, m, 0.25)

    @pytest.mark.parametrize("m", ELEMENTARY_M)
    def test_elementary_beta_matches_betainc(self, m):
        b = np.concatenate([np.geomspace(1e-8, 1e12, 2001), np.geomspace(1e13, 1e300, 30)])
        got = analytic._symmetric_beta(m, b)
        expected = special.betainc(m, m, 1.0 / (1.0 + b))
        gap = np.abs(got - expected)
        assert np.all(gap <= BETA_ATOL)
        big = expected >= 1e-300
        assert np.all(gap[big] <= BETA_RTOL * expected[big])
        # the same values through the fading tail, on a 2D batch of a = 0
        tail = _fading_tail_expectation(m, 0.0, b[:2000].reshape(40, 50), TOP_RUNG)
        np.testing.assert_array_equal(tail, got[:2000].reshape(40, 50))

    @pytest.mark.parametrize("m", ELEMENTARY_M)
    def test_elementary_beta_is_symmetric(self, m):
        # I_x(m, m) + I_y(m, m) = 1 with y = b/(1+b) = 1/(1+1/b), to a few
        # ulps, because the form reads b, not x = 1/(1+b) rounded
        b = np.geomspace(1e-12, 1e12, 481)
        total = analytic._symmetric_beta(m, b) + analytic._symmetric_beta(m, 1.0 / b)
        assert np.all(np.abs(total - 1.0) <= 16 * np.finfo(float).eps)

    @pytest.mark.parametrize("two_m", range(1, 17))
    def test_beta_vanishes_at_infinite_b(self, two_m):
        # x = 1/(1+b) = 0: every order gives betainc's 0, with no warning
        m = two_m / 2
        b = np.array([1e300, np.finfo(float).max, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analytic._symmetric_beta(m, b)
            tail = _fading_tail_expectation(m, 0.0, np.inf, TOP_RUNG)
        np.testing.assert_array_equal(got, special.betainc(m, m, 1.0 / (1.0 + b)))
        assert got[2] == tail == 0.0

    @pytest.mark.parametrize(
        "m", [0.5, 0.7, 1.0, 1.3, 2.0, 2.25, 3.0, 4.0, 5.0, 6.0, 7.0, 7.9, 8.0, 8.5, 9.0, 600.5]
    )
    def test_other_orders_keep_betainc(self, m):
        # integer m and m = 1/2 keep betainc, and so does every m past 15/2,
        # where the half-integer form would underflow (x^m) or overflow
        # (1/(m B(m, m))) before I_x(m, m) does.  Below m = 1 only b >= 1
        # does; b < 1, where betainc's error reaches 1.7e-10, is held to
        # references in `test_orders_below_one_match_references`
        b = np.geomspace(1e-8, 1e12, 201)
        got = analytic._symmetric_beta(m, b)
        expected = special.betainc(m, m, 1.0 / (1.0 + b))
        kept = b >= 1 if m < 1 else np.full(b.shape, True)
        np.testing.assert_array_equal(got[kept], expected[kept])
        np.testing.assert_allclose(got[~kept], expected[~kept], rtol=1e-9, atol=0.0)

    # I_x(m, m) at x = 1/(1+b) for b = 10.0 ** np.arange(-14, 15, 2), from
    # mpmath 1.3.0 at 50 digits, rounded to the nearest float
    BELOW_ONE_REFERENCES = {
        0.5: [
            0.9999999363380228, 0.9999993633802277, 0.9999936338022766, 0.9999363380229754,
            0.9993633804398389, 0.9936340144701835, 0.9365489651388929, 0.5, 0.06345103486110713,
            0.00636598552981651, 0.0006366195601611178, 6.366197702455154e-05,
            6.366197723463607e-06, 6.366197723673691e-07, 6.366197723675793e-08,
        ],
        0.55: [
            0.9999999867861772, 0.9999998336478261, 0.9999979057502101, 0.9999736349573103,
            0.9996680839060081, 0.995821585404823, 0.947598852727396, 0.5, 0.05240114727260403,
            0.0041784145951769365, 0.0003319160939918853, 2.6365042689671553e-05,
            2.0942497899042986e-06, 1.6635217387506603e-07, 1.3213822861677898e-08,
        ],
        0.7: [
            0.9999999998807747, 0.9999999970051966, 0.9999999247739393, 0.9999981104067994,
            0.9999525355918711, 0.9988078160097876, 0.9702233137262456, 0.5, 0.029776686273754373,
            0.0011921839902123976, 4.746440812882109e-05, 1.8895932006172763e-06,
            7.522606068880664e-08, 2.994803417441564e-09, 1.1922527148822857e-10,
        ],
        0.9: [
            0.9999999999997724, 0.9999999999856374, 0.9999999990937825, 0.9999999428215361,
            0.9999963922858713, 0.9997723878400917, 0.9857587662415151, 0.5, 0.014241233758484824,
            0.00022761215990833278, 3.6077141286995634e-06, 5.7178463893815156e-08,
            9.062175894563424e-10, 1.4362580885391123e-11, 2.2763156671447715e-13,
        ],
    }

    @pytest.mark.parametrize("m", sorted(BELOW_ONE_REFERENCES))
    def test_orders_below_one_match_references(self, m):
        # betainc at x = 1/(1+b) rounded near 1 misses these by up to 2.8e-11
        b = np.append(10.0 ** np.arange(-14, 15, 2), np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analytic._symmetric_beta(m, b)
        np.testing.assert_allclose(got[:-1], self.BELOW_ONE_REFERENCES[m], rtol=1e-15, atol=0.0)
        assert got[-1] == 0.0

    @pytest.mark.parametrize("m", [1.3, 2.5, 3.0])
    def test_each_offset_branch_runs_only_on_its_elements(self, monkeypatch, m):
        # a > 0 everywhere (the mean-residual rule): no incomplete beta is
        # formed; at an elementary order, a = 0 never reaches scipy's betainc
        a, b = np.full(5, 0.5), np.geomspace(1e-2, 1e2, 5)
        expected = _fading_tail_expectation(m, a, b, 4)

        def refuse(*args):
            raise AssertionError("called without elements")

        monkeypatch.setattr(analytic, "_symmetric_beta", refuse)
        np.testing.assert_array_equal(_fading_tail_expectation(m, a, b, 4), expected)
        monkeypatch.undo()
        monkeypatch.setattr(analytic, "_laguerre_tails", refuse)
        _fading_tail_expectation(m, 0.0 * a, b, 4)
        if m in ELEMENTARY_M:
            monkeypatch.setattr(analytic.special, "betainc", refuse)
            _fading_tail_expectation(m, 0.0 * a, b, 4)


    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.5, 8.0])
    def test_trimmed_rule_matches_full_rule(self, m):
        a, b = np.meshgrid(np.geomspace(1e-4, 1e3, 15), np.geomspace(1e-4, 1e4, 17))
        for n_nodes in (TOP_RUNG, 2 * TOP_RUNG):
            z, w = analytic._gen_laguerre_rule(m, n_nodes)
            z_full, w_full = special.roots_genlaguerre(n_nodes, m - 1.0)
            kept = z.size
            assert kept < n_nodes
            np.testing.assert_array_equal(z, z_full[:kept])
            # what the dropped nodes add, on the grid: at most the 1e-17 budget
            beta = (b / (1.0 + b))[..., None]
            zd = z_full[kept:]
            dropped = np.exp(beta * zd) * special.gammaincc(m, a[..., None] + beta * zd)
            dropped = (1.0 + b) ** -m * (dropped @ (w_full[kept:] / special.gamma(m)))
            assert np.all(dropped <= 1e-17)
            # end to end: within 1e-16, plus the few ulps by which dot
            # products of different lengths may round apart
            full = full_rule_tail(m, a, b, n_nodes)
            got = _fading_tail_expectation(m, a, b, n_nodes)
            assert np.all(np.abs(got - full) <= 1e-16 + 4 * np.finfo(float).eps * full)

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_rule_is_scipys_bit_for_bit(self, n_nodes):
        # the numpy Golub-Welsch rule equals scipy's, which imports
        # scipy.linalg for its eigenvalues, on m = 0.5, 0.55, ..., 8
        for m in np.round(np.arange(0.5, 8.0 + 1e-9, 0.05), 10):
            z, w = analytic._gen_laguerre_roots(n_nodes, m - 1.0)
            z_ref, w_ref = special.roots_genlaguerre(n_nodes, m - 1.0)
            assert z.shape == w.shape == (n_nodes,)
            assert [v.hex() for v in z] == [v.hex() for v in z_ref], m
            assert [v.hex() for v in w] == [v.hex() for v in w_ref], m

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.5, 8.0])
    def test_term_bound_holds(self, m):
        # exp(beta z) Q(m, a + beta z) <= B(z) for a >= 0, 0 < beta < 1
        z = np.geomspace(1e-3, 600.0, 200)
        bound = analytic._fading_term_bound(m, z)
        for a in (0.0, 1e-3, 1.0, 10.0):
            for beta in (1e-3, 0.1, 0.5, 0.9, 0.999):
                term = np.exp(beta * z) * special.gammaincc(m, a + beta * z)
                assert np.all(term <= bound * (1.0 + 1e-12)), (a, beta)

def listed_scaled_upper_gamma(m, x):
    """`_scaled_upper_gamma` as an out-of-place recurrence: every partial
    sum and term a fresh array, and the term past the last one formed."""
    k = math.ceil(m) - 1
    f = m - k
    if f == 1.0:
        out, term = np.ones_like(x), x
    else:
        root = np.sqrt(x)
        out, term = special.erfcx(root), root * (2.0 / math.sqrt(math.pi))
    for j in range(k):
        out = out + term
        term = term * x / (f + j + 1.0)
    return out


def masked_fading_tail(m, a, b, n_nodes):
    """T(a, b) as `_fading_tail_expectation` formed it with masks: the
    incomplete beta on the elements with a = 0, one `_laguerre_tail` on the
    rest, each scattered into place."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.empty(a.shape)
    shifted = a > 0
    if not shifted.all():
        out[~shifted] = analytic._symmetric_beta(m, b[~shifted])
    if shifted.any():
        out[shifted] = analytic._laguerre_tail(m, a[shifted], b[shifted], *analytic._gen_laguerre_rule(m, n_nodes))
    return float(out) if out.ndim == 0 else out


class TestOnePassFadingTails:
    """The dominant rule's kernel forms every rule of a ladder rung in one
    pass (`_fading_tails`); each value must stay what the rules give one
    at a time."""

    ORDERS = [0.5, 1.3, 1.5, 2.5, 3.7, 7.5, 8.5]
    RUNGS = [(2 * n, n) for n in _LAGUERRE_LADDER]

    @staticmethod
    def offsets(rows, seed):
        # a and b over the kernel's range, a reaching past e^-a's underflow
        rng = np.random.default_rng(seed)
        return 10.0 ** rng.uniform(-6.0, 3.0, rows), 10.0 ** rng.uniform(-4.0, 4.0, rows)

    @pytest.mark.parametrize("rows", [1, 7, 1000, 3405, 9000])
    @pytest.mark.parametrize("m", ORDERS)
    def test_one_pass_equals_each_rule_alone(self, m, rows):
        # a BLAS dot product rounds a row by where it lies in its block, so
        # each rule keeps its own row blocks inside the rung's shared terms
        a, b = self.offsets(rows, int(10 * m) + rows)
        for rung in self.RUNGS:
            rules = [analytic._gen_laguerre_rule(m, n) for n in rung]
            got = analytic._laguerre_tails(m, a, b, rules)
            assert got.shape == (len(rung), rows)
            for tail, (z, w) in zip(got, rules):
                expected = analytic._laguerre_tail(m, a, b, z, w)
                assert [v.hex() for v in tail] == [v.hex() for v in expected], (rung, z.size)
            np.testing.assert_array_equal(analytic._fading_tails(m, a, b, rung), got)

    @pytest.mark.parametrize(
        "m, rung, calls",
        [
            (2.5, (8, 4), 2),  # 12 nodes in blocks of 2,048 rows: one pass
            (3.5, (16, 8), 4),  # 24 nodes in blocks of 1,024 rows: one pass
            (2.5, (16, 8), 7 + 4),  # 15 nodes and 8 have no small common block
            (2.5, (64, 32), 15 + 10),
        ],
    )
    def test_rules_share_a_pass_where_their_blocks_allow(self, monkeypatch, m, rung, calls):
        # the order recurrence runs once per block of the rung's shared terms
        # where its rules' blocks have a common multiple of at most
        # `_FUSED_TERMS` terms, else once per block of each rule
        seen = []
        recurrence = analytic._scaled_upper_gamma
        monkeypatch.setattr(analytic, "_scaled_upper_gamma", lambda m, x: seen.append(x.shape) or recurrence(m, x))
        a, b = self.offsets(3405, 1)
        analytic._fading_tails(m, a, b, rung)
        assert len(seen) == calls
        if calls == 2:
            assert seen == [(2048, 12), (3405 - 2048, 12)]

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.3, 2.5, 3.0, 8.5])
    def test_dispatch_equals_the_masked_form(self, m):
        # every a = 0 (single-dominant), every a > 0 and a mix, as 2D arrays
        # and scalars, equal the masked form bit for bit
        a, b = (v.reshape(40, 50) for v in self.offsets(2000, 3))
        mixed = np.where(np.arange(a.size).reshape(a.shape) % 3 == 0, 0.0, a)
        for n_nodes in (4, 8, 32):
            for offsets in (0.0 * a, a, mixed, 0.0):
                got = _fading_tail_expectation(m, offsets, b, n_nodes)
                np.testing.assert_array_equal(got, masked_fading_tail(m, offsets, b, n_nodes))
            for scalars in ((0.0, 3.0), (0.5, 3.0)):
                got = _fading_tail_expectation(m, *scalars, n_nodes)
                assert isinstance(got, float) and got == masked_fading_tail(m, *scalars, n_nodes)
        # every a = 0 gives every rule the incomplete beta
        rows = b.ravel()
        got = analytic._fading_tails(m, 0.0 * rows, rows, (8, 4))
        assert got.shape == (2, rows.size)
        for tail in got:
            np.testing.assert_array_equal(tail, masked_fading_tail(m, 0.0, rows, 4))

    @pytest.mark.parametrize("two_m", range(1, 17))
    def test_scaled_upper_gamma_is_the_listed_recurrence(self, two_m):
        # in place, and without the unused last term, the recurrence gives
        # the same bits at every order, the k = 0 orders m = 1/2 and 1
        # included, and leaves its argument as it was
        m = two_m / 2
        x = np.concatenate([[0.0], np.geomspace(1e-8, 700.0, 403), [1e4]]).reshape(3, 135)
        before = x.copy()
        got = analytic._scaled_upper_gamma(m, x)
        np.testing.assert_array_equal(x, before)
        assert got.shape == x.shape
        expected = listed_scaled_upper_gamma(m, x)
        assert [v.hex() for v in got.ravel()] == [v.hex() for v in expected.ravel()]


class TestCoverageQueryDispatch:
    def test_bpp_methods(self, geom, channel, model10):
        from corridor_cov import CoverageQuery, coverage_probability

        th = 10 ** (-3 / 10)
        q = CoverageQuery(theta=th, spatial=BPP(N), channel=channel, geom=geom)
        assert coverage_probability(q) == pytest.approx(model10.coverage(th), rel=1e-9)
        q_dom = CoverageQuery(th, BPP(N), channel, geom, method="dominant")
        assert coverage_probability(q_dom) == pytest.approx(model10.coverage_dominant(th), rel=1e-6)

    def test_hppp_methods(self, geom, channel):
        from corridor_cov import CoverageQuery, FiniteHPPP, coverage_probability

        th = 10 ** (-3 / 10)
        model = hppp_model(0.01, geom, channel)
        q = CoverageQuery(th, FiniteHPPP(0.01), channel, geom)
        assert coverage_probability(q) == pytest.approx(model.coverage(th), rel=1e-9)
        q_dom = CoverageQuery(th, FiniteHPPP(0.01), channel, geom, "dominant")
        assert coverage_probability(q_dom) == pytest.approx(model.coverage_dominant(th), rel=1e-6)

    def test_quadrature_error_names_method_and_theta(self, geom, monkeypatch):
        # a 2-node fading rule cannot certify m = 0.5: the dispatcher's error
        # names the query and keeps the engine's estimates and level
        from corridor_cov import CoverageQuery, coverage_probability

        ch = ChannelParams(alpha=2.2, q=2.0, m=0.5)
        monkeypatch.setattr(analytic, "_LAGUERRE_LADDER", (2,))
        with pytest.raises(QuadratureError) as engine:
            bpp_model(N, geom, ch).coverage_dominant(1.0)
        with pytest.raises(QuadratureError) as err:
            coverage_probability(CoverageQuery(1.0, BPP(N), ch, geom, "dominant"))
        reason = str(engine.value).removeprefix("[fading] ")
        assert str(err.value) == f"[fading] coverage method 'dominant' failed at theta=1.0: {reason}"
        assert (err.value.best_estimate, err.value.error_estimate, err.value.level) == (
            engine.value.best_estimate, engine.value.error_estimate, "fading")

    def test_disc_is_simulation_only(self, geom, channel):
        from corridor_cov import CoverageQuery, Disc2D, coverage_probability

        with pytest.raises(ParameterError):
            coverage_probability(CoverageQuery(0.5, Disc2D(10, 250.0), channel, geom))

    def test_theta_must_be_positive_linear(self, geom, channel):
        from corridor_cov import CoverageQuery

        with pytest.raises(ParameterError):
            CoverageQuery(-3.0, BPP(N), channel, geom)  # dB passed by mistake
        with pytest.raises(ParameterError):
            CoverageQuery(0.5, BPP(N), channel, geom, method="approximate")
