"""Exact coverage at m = 1 against an oracle that shares none of its
numerical path: no received-power cache, no outer bounds, no adaptive
outer rule, no FFT, no count-law algebra.

At m = 1 the conditional coverage given the serving power x0 has a closed
inner form:

    BPP:   [int_0^x0 x0 / (x0 + theta p) f(p) dp / F(x0)]^(n-1),
    HPPP:  exp(-mu int_0^x0 theta p / (x0 + theta p) f(p) dp),

against the strongest power's density n F^(n-1) f (BPP) or
mu f e^(mu (F - 1)) / (1 - e^-mu) (HPPP); for the BPP the product is
n f J^(n-1), J the inner integral, which needs no division by F.  The
oracle samples f and F, un-interpolated, from `_smooth_integrals` on one
uniform grid in t = log p that spans the received power's quantiles
[1e-15, 1 - 1e-15] (from scipy's inverse-gamma distribution), takes every
inner integral as a trapezoid sum by direct convolution (`np.convolve`),
whose cut at p = x0 makes its error O(h^2), and the outer integral by the
trapezoid rule, on 2,048 and on 4,096 intervals; one Richardson step
removes the h^2 term.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from corridor_cov import analytic
from conftest import domain_sample

INTERVALS = 4096
TAIL = 1e-15


def densities(geom, channel):
    """(step, g, F) on the fine grid: g = f(e^t) e^t and F at every t."""
    h, R, alpha = geom.fixed_height, geom.R, channel.alpha
    shadowing = stats.invgamma(channel.q, scale=channel.gamma)
    t_lo = math.log(shadowing.ppf(TAIL)) - 0.5 * alpha * math.log(h * h + R * R)
    t_hi = math.log(shadowing.isf(TAIL)) - alpha * math.log(h)
    t = np.linspace(t_lo, t_hi, INTERVALS + 1)
    dist = analytic.ReceivedPowerDistribution(geom, channel)
    (f, cdf, _), _ = dist._smooth_integrals(np.exp(t))
    return t[1] - t[0], f * np.exp(t), cdf


def trapezoid_convolution(kernel, g):
    """step-free trapezoid sums c_i = sum_(j <= i) w_j kernel[i - j] g[j],
    w_j = 1/2 at j = 0 and j = i, else 1."""
    ends = g.copy()
    ends[0] *= 0.5
    return np.convolve(ends, kernel)[:g.size] - 0.5 * kernel[0] * g


def trapezoid(values, step):
    return step * (values.sum() - 0.5 * (values[0] + values[-1]))


def oracle(step, g, cdf, theta, n=None, mu=None):
    """Coverage at one grid spacing; n for the BPP, mu for the HPPP."""
    y = theta * np.exp(-step * np.arange(g.size))  # theta p / x0 at lag k
    if n is not None:
        inner = step * trapezoid_convolution(1.0 / (1.0 + y), g)
        return trapezoid(n * g * inner ** (n - 1), step)
    inner = step * trapezoid_convolution(y / (1.0 + y), g)
    outer = mu * g * np.exp(mu * (cdf - 1.0) - mu * inner)
    return trapezoid(outer, step) / -math.expm1(-mu)


def richardson(step, g, cdf, theta, **law):
    """The Richardson value from the 4,096- and 2,048-interval sums, and
    its distance from the one from the 2,048- and 1,024-interval sums, which
    bounds its own error (about a sixteenth of that distance)."""
    sums = [oracle(step * k, g[::k], cdf[::k], theta, **law) for k in (1, 2, 4)]
    fine, coarse = ((4.0 * a - b) / 3.0 for a, b in zip(sums, sums[1:]))
    return fine, abs(fine - coarse)


def check(model, step, g, cdf, thetas_db, **law):
    cfg = analytic._COVERAGE_QUAD
    for db in thetas_db:
        theta = 10 ** (db / 10)
        want, spread = richardson(step, g, cdf, theta, **law)
        tol = max(cfg.abs_tol, cfg.rel_tol * want)
        assert spread < tol, (db, want, spread)
        got = model.coverage(theta)
        assert abs(got - want) <= tol, (db, got, want)


THETAS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def test_default_point_matches_the_oracle(geom, channel):
    step, g, cdf = densities(geom, channel)
    check(analytic.BppCoverageModel(10, geom, channel), step, g, cdf, THETAS_DB, n=10)
    hppp = analytic.HpppCoverageModel(0.01, geom, channel)
    check(hppp, step, g, cdf, THETAS_DB, mu=hppp.mu)


@pytest.mark.parametrize("point", domain_sample().sample(12), ids=lambda p: p.name)
def test_domain_point_matches_the_oracle(point):
    # the tools/domain_sample.py point at m = 1, both count laws in turn
    point = dataclasses.replace(point, m=1)
    model = point.model()
    step, g, cdf = densities(point.geometry(), point.channel())
    law = {"n": model.n} if point.spatial == "bpp" else {"mu": model.mu}
    check(model, step, g, cdf, (-10.0, 0.0, 10.0, 20.0), **law)
