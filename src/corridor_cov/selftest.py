"""Built-in oracle suite: quick analytic-versus-simulation cross checks.

Each check prints one PASS/FAIL line.  This is a smoke-level subset of the
full test suite, runnable from the CLI on an installed package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import analytic
from .core import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    FiniteHPPP,
    FixedHeight,
    InverseGammaShadowing,
    NakagamiFadingPower,
    link_distance_cdf,
    path_loss,
)
from .quadrature import QuadratureConfig, QuadratureError, integrate, nested_integrate_2d
from .simulator import simulate_sir


def _ks_statistic(samples, cdf):
    samples = np.sort(samples)
    n = len(samples)
    grid = cdf(samples)
    upper = np.abs(np.arange(1, n + 1) / n - grid)
    lower = np.abs(grid - np.arange(0, n) / n)
    return float(max(upper.max(), lower.max()))


def run(trials=200_000, seed=20250811):
    geom = CorridorGeometry(500.0, FixedHeight(100.0))
    channel = ChannelParams(alpha=2.2, q=2.0, m=1.0)
    rng = np.random.default_rng(seed)
    checks = []

    # quadrature corpus
    r = integrate(lambda x: x * x, 0.0, 1.0)
    checks.append(("quadrature polynomial", abs(r.value - 1.0 / 3.0) < 1e-10))
    r = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    checks.append(("quadrature endpoint singularity", abs(r.value - 2.0) < 1e-6))

    # channel blocks
    shadow = InverseGammaShadowing(channel.q, channel.gamma)
    s = shadow.sample(rng, 10**5)
    checks.append(("shadowing sampler KS", _ks_statistic(s, shadow.cdf) < 1.63 / math.sqrt(10**5)))
    fading = NakagamiFadingPower(3.0)
    f = fading.sample(rng, 10**5)
    checks.append(("fading sampler KS", _ks_statistic(f, fading.cdf) < 1.63 / math.sqrt(10**5)))
    u = rng.uniform(-geom.R, geom.R, 10**5)
    d = np.hypot(u, 100.0)
    checks.append(
        (
            "link distance CDF",
            _ks_statistic(d, lambda x: link_distance_cdf(x, 100.0, 500.0)) < 1.63 / math.sqrt(10**5),
        )
    )

    # received power pdf normalization, on the cache the models share
    bpp = analytic.bpp_model(10, geom, channel)
    checks.append(("received power pdf normalizes", abs(bpp.dist.normalization() - 1.0) < 1e-6))

    # cached cdf against its closed form F(x) = (1/R) int_0^R P(S <= x / l(d(u))) du
    def cdf_integrand(x, u):
        return shadow.cdf(x / path_loss(np.hypot(u, 100.0), channel))

    xs = bpp.dist.ppf(np.array([1e-6, 0.5, 0.999]))
    tight = QuadratureConfig(rel_tol=1e-12)
    cdf = analytic._integrate_at_points(xs, cdf_integrand, 0.0, geom.R, tight)[0] / geom.R
    ok = np.allclose(bpp.dist.cdf(xs), cdf, rtol=1e-9, atol=0.0)
    checks.append(("cached received power cdf vs closed form", bool(ok)))

    # Laplace transforms at the origin and against finite differences
    checks.append(("BPP Laplace at s=0", bpp.laplace.derivative_series(0.0, 3e-6, 0)[0] == 1.0))
    ch3 = ChannelParams(alpha=2.2, q=2.0, m=3.0)
    bpp3 = analytic.bpp_model(10, geom, ch3)
    x0 = 3e-6
    sarg = 2.0 / x0
    h_fd = 1e-3 * sarg

    def laplace_fd(lap):
        """L'(sarg | x0) and its central finite difference."""
        value = [lap.derivative_series(s, x0, 0)[0] for s in (sarg + h_fd, sarg - h_fd)]
        return lap.derivative_series(sarg, x0, 1)[1], (value[0] - value[1]) / (2 * h_fd)

    d1, fd = laplace_fd(bpp3.laplace)
    checks.append(("BPP Laplace derivative vs FD", abs(d1 - fd) <= 1e-5 * abs(fd)))

    # batched moment kernel (rows D, h_1, h_2 of the coverage expansion,
    # tau = s) against one scalar integral per point
    dist, cfg = bpp3.dist, analytic._LAPLACE_QUAD
    x0s = np.geomspace(1e-7, 1e-4, 5)
    batched, _ = analytic._moment_series(dist, 3.0, sarg, sarg, x0s, 2)

    def moment(j, x0):
        def f(t):
            p = np.exp(t)
            y = sarg * p / 3.0
            row = -np.expm1(-3.0 * np.log1p(y)) if j == 0 else y**j * (1.0 + y) ** (-3.0 - j)
            return row * p * dist.pdf(p)

        value = integrate(f, math.log(dist.x_lo), math.log(min(x0, dist.x_hi)), cfg).value
        return special.poch(3.0, j) / math.factorial(j) * value

    ref = np.array([[moment(j, x) for x in x0s] for j in range(3)])
    checks.append(
        (
            "batched moment series vs per-point integrals",
            bool(np.all(np.abs(batched - ref) <= 1e-10 * np.abs(ref))),
        )
    )

    # elementary scaled fading-tail terms e^x Q(m, x) against scipy's Q
    x = np.geomspace(1e-8, 700.0, 200)
    ok = all(
        np.allclose(analytic._scaled_upper_gamma(m, x), np.exp(x) * special.gammaincc(m, x), rtol=1e-13, atol=0.0)
        for m in (2.5, 3.0)
    )
    checks.append(("elementary fading-tail terms vs gammaincc", ok))

    # batched mean-residual dominant coverage against the nested scalar rule,
    # on the 8-node rule that certifies it here (the ladder's first rung)
    bpp25 = analytic.bpp_model(10, geom, ChannelParams(alpha=2.2, q=2.0, m=2.5))
    t_lo, t_hi = np.log(bpp25._outer_bounds(1e-10))
    n_rule = 2 * analytic._LAGUERRE_LADDER[0]

    def top_two(t0, ti):
        x0, xi = math.exp(t0), np.exp(ti)
        omega = 8 * bpp25.dist.mean_below(xi) / np.maximum(bpp25.dist.cdf(xi), 1e-250)
        tail = analytic._fading_tail_expectation(2.5, 2.5 * omega / x0, xi / x0, n_rule)
        return tail * bpp25.joint_top_two_pdf(x0, xi) * x0 * xi

    nested = nested_integrate_2d(top_two, (t_lo, t_hi), lambda t0: (t_lo, t0), analytic._DOMINANT_QUAD)
    dominant = bpp25.coverage_dominant(1.0)
    ok = abs(dominant - nested.value) <= 1e-10 * nested.value
    checks.append(("batched dominant coverage vs nested scalar rule", ok))

    lam = 10.0 / geom.length
    hppp = analytic.hppp_model(lam, geom, channel)
    checks.append(("HPPP Laplace at s=0", hppp.laplace.derivative_series(0.0, 3e-6, 0)[0] == 1.0))
    hppp3 = analytic.hppp_model(lam, geom, ch3)
    d1, fd = laplace_fd(hppp3.laplace)
    checks.append(("HPPP Laplace derivative vs FD", abs(d1 - fd) <= 1e-5 * abs(fd)))

    # analytic vs Monte Carlo coverage at the default operating point
    theta = 10 ** (-3.0 / 10.0)
    sirs, _ = simulate_sir(BPP(10), geom, channel, trials, seed=seed + 1)
    mc = float((sirs > theta).mean())
    exact = bpp.coverage(theta)
    tol = 0.005 + 4.0 / math.sqrt(trials)
    checks.append((f"exact BPP coverage vs MC ({exact:.4f} vs {mc:.4f})", abs(exact - mc) <= tol))

    try:
        ok = 0.0 <= analytic.bpp_model(200, geom, channel).coverage(theta) <= 1.0
    except QuadratureError:
        ok = False
    checks.append(("exact BPP coverage at N=200 converges", ok))

    # single-dominant approximation vs a direct draw of its approximate SIR:
    # top-two received powers exact, the other interferers dropped
    d = np.hypot(rng.uniform(-geom.R, geom.R, (trials, 10)), 100.0)
    top2 = np.partition(shadow.sample(rng, (trials, 10)) * path_loss(d, channel), (8, 9), axis=1)
    h0, h1 = NakagamiFadingPower(channel.m).sample(rng, (2, trials))
    mc = float((h0 * top2[:, 9] > theta * h1 * top2[:, 8]).mean())
    approx = bpp.coverage_single_dominant(theta)
    checks.append(
        (f"single-dominant BPP coverage vs its MC ({approx:.4f} vs {mc:.4f})", abs(approx - mc) <= tol)
    )

    sirs, _ = simulate_sir(FiniteHPPP(lam), geom, channel, trials, seed=seed + 2)
    mc = float((sirs > theta).mean())
    exact = hppp.coverage(theta)
    checks.append((f"exact HPPP coverage vs MC ({exact:.4f} vs {mc:.4f})", abs(exact - mc) <= tol))

    # determinism, with fixed counts and with Poisson counts
    for name, spatial in (("BPP", BPP(10)), ("HPPP", FiniteHPPP(lam))):
        a, _ = simulate_sir(spatial, geom, channel, 20_000, seed=123)
        b, _ = simulate_sir(spatial, geom, channel, 20_000, seed=123)
        checks.append((f"deterministic reseeded rerun, {name}", bool(np.array_equal(a, b))))

    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures
