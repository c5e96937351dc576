"""Exact coverage on the batched moment kernel: the kernel against scalar
integrals, the array Laplace series against the scalar wrapper, pinned
coverage values and the per-call debug line."""

import logging
import math
import re

import numpy as np
import pytest
from scipy import special

from corridor_cov import ChannelParams, bpp_model, hppp_model, integrate
from corridor_cov import analytic

N = 10
LAM = 10.0 / 1000.0


def scalar_moment(dist, m, j, s, x0, cfg, complement=False):
    """M_j at one (s, x0) from one `integrate` call over log p (the oracle)."""
    t_lo, t_hi = math.log(dist.x_lo), math.log(min(x0, dist.x_hi))
    if t_hi <= t_lo:
        return 0.0

    def integrand(t):
        p = np.exp(t)
        if complement and j == 0:
            return -np.expm1(-m * np.log1p(s * p / m)) * p * dist.pdf(p)
        return p ** (j + 1) * (1.0 + s * p / m) ** (-(m + j)) * dist.pdf(p)

    return special.poch(m, j) * (-1.0 / m) ** j * integrate(integrand, t_lo, t_hi, cfg).value


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_batched_moment_series_matches_scalar_integrals(geom, m, complement):
    dist = bpp_model(N, geom, ChannelParams(alpha=2.2, q=2.0, m=float(m))).dist
    cfg = analytic._LAPLACE_QUAD
    # below the support, across it (both tails and the bulk) and above it
    x0 = np.array([0.5 * dist.x_lo, 3e-8 + dist.x_lo, 1e-6, 3e-6, 1e-4, 1e-2, 2.0 * dist.x_hi])
    s = m * np.array([0.3, 1.0, 0.1, 1.0, 10.0, 100.0, 1.0]) / x0
    order = m - 1
    got, n_evals = analytic._moment_series(dist, float(m), s, x0, order, cfg, complement)
    assert got.shape == (order + 1, x0.size)
    assert n_evals > 0
    assert np.all(got[:, 0] == 0.0)
    for i in range(1, x0.size):
        for j in range(order + 1):
            ref = scalar_moment(dist, float(m), j, s[i], x0[i], cfg, complement)
            assert got[j, i] == pytest.approx(ref, rel=1e-12, abs=0.0), (i, j)
    # the last point lies above the support: its integrals stop at x_hi
    full, _ = analytic._moment_series(dist, float(m), s[-1], dist.x_hi, order, cfg, complement)
    np.testing.assert_allclose(got[:, -1], full[:, 0], rtol=1e-12)


def test_batched_moment_series_without_live_points_is_zero(model10):
    dist = model10.dist
    got, n_evals = analytic._moment_series(
        dist, 1.0, 1e6, [0.1 * dist.x_lo, 0.5 * dist.x_lo], 2, analytic._LAPLACE_QUAD
    )
    assert n_evals == 0
    assert np.all(got == 0.0)


@pytest.mark.parametrize("spatial", ["bpp", "hppp"])
def test_array_series_equals_scalar_derivative_series(geom, channel_m3, spatial):
    if spatial == "bpp":
        laplace = bpp_model(N, geom, channel_m3).laplace
    else:
        laplace = hppp_model(LAM, geom, channel_m3).laplace
    x0 = np.array([1e-7, 1e-6, 3e-6, 3e-5, 1e-3])
    s = np.array([3e7, 1e5, 1e6, 3e5, 3e3])
    series, _ = laplace._series(s, x0, 2)
    for i in range(x0.size):
        np.testing.assert_allclose(
            series[:, i], laplace.derivative_series(s[i], x0[i], 2), rtol=1e-14, atol=0.0
        )


# Exact coverage values before the inner integrals were batched (one scalar
# `integrate` per outer node and derivative order).
BPP_M3_DB = list(range(-20, 21, 4))
BPP_M3_COVERAGE = [
    0.999956379513655,
    0.9993768907752172,
    0.9924342749452209,
    0.9345216752252369,
    0.6901469758027898,
    0.3045337727004001,
    0.08168486864441636,
    0.016632527715506475,
    0.0029582085048147455,
    0.0004927775324730074,
    7.972298334331024e-05,
]
HPPP_M1_DB = [-6, 0, 6]
HPPP_M1_COVERAGE = [0.6983282034312299, 0.3316911548162276, 0.07892636904886025]


def test_bpp_m3_coverage_pinned(geom, channel_m3):
    model = bpp_model(N, geom, channel_m3)
    got = [model.coverage(10 ** (db / 10)) for db in BPP_M3_DB]
    np.testing.assert_allclose(got, BPP_M3_COVERAGE, rtol=0.0, atol=1e-12)


def test_hppp_m1_coverage_pinned(hmodel):
    got = [hmodel.coverage(10 ** (db / 10)) for db in HPPP_M1_DB]
    np.testing.assert_allclose(got, HPPP_M1_COVERAGE, rtol=0.0, atol=1e-12)


def test_coverage_logs_its_work(geom, channel_m3, caplog):
    model = bpp_model(N, geom, channel_m3)
    model.dist.x_lo  # build the cache outside the captured call
    with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
        model.coverage(1.0)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact coverage")]
    assert len(lines) == 1
    fields = re.search(
        r"(\d+) outer-integrand calls, (\d+) outer nodes, (\d+) inner rows, "
        r"(\d+) inner node evaluations, (\d+) clamped, [0-9.]+ s",
        lines[0],
    )
    assert fields is not None, lines[0]
    calls, outer, rows, inner, clamped = map(int, fields.groups())
    assert calls >= 1 and outer % 15 == 0  # one G7/K15 panel is 15 nodes
    assert rows == 3 * outer  # m = 3: orders 0..2 at every outer node
    assert inner > 0
    # the alternating sum leaves [0, 1] at some nodes for m = 3
    assert 0 < clamped <= outer
