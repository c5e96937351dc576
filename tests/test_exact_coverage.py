"""Exact coverage on the batched moment kernel: the kernel against scalar
integrals, the array Laplace series against the scalar wrapper, coverage
against a cache-free oracle, pinned coverage values and the per-call debug
line."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from scipy import special

from corridor_cov import (
    BPP,
    ChannelParams,
    QuadratureConfig,
    bpp_model,
    hppp_model,
    integrate,
    simulate_sir,
)
from corridor_cov import analytic, quadrature
from conftest import closed_form_cdf_and_moment

N = 10
LAM = 10.0 / 1000.0


def scalar_moment(dist, m, j, s, tau, x0, cfg):
    """Kernel row j at one (s, tau, x0) from one `integrate` call over log p
    (the oracle): D for j = 0, h_j for j >= 1."""
    t_lo, t_hi = math.log(dist.x_lo), math.log(min(x0, dist.x_hi))
    if t_hi <= t_lo:
        return 0.0

    def integrand(t):
        p = np.exp(t)
        if j == 0:
            return -np.expm1(-m * np.log1p(s * p / m)) * p * dist.pdf(p)
        return (tau * p / m) ** j * (1.0 + s * p / m) ** (-(m + j)) * p * dist.pdf(p)

    return special.poch(m, j) / math.factorial(j) * integrate(integrand, t_lo, t_hi, cfg).value


# tau = s is the coverage expansion, tau = 1 the derivative one
@pytest.mark.parametrize("tau_is_s", [False, True])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_batched_moment_series_matches_scalar_integrals(geom, m, tau_is_s):
    dist = bpp_model(N, geom, ChannelParams(alpha=2.2, q=2.0, m=float(m))).dist
    cfg = analytic._LAPLACE_QUAD
    # below the support, across it (both tails and the bulk) and above it
    x0 = np.array([0.5 * dist.x_lo, 3e-8 + dist.x_lo, 1e-6, 3e-6, 1e-4, 1e-2, 2.0 * dist.x_hi])
    s = m * np.array([0.3, 1.0, 0.1, 1.0, 10.0, 100.0, 1.0]) / x0
    tau = s if tau_is_s else np.ones_like(s)
    order = m - 1
    got, n_evals = analytic._moment_series(dist, float(m), s, tau, x0, order)
    assert got.shape == (order + 1, x0.size)
    assert n_evals > 0
    assert np.all(got[:, 0] == 0.0)
    assert np.all(got >= 0.0)
    for i in range(1, x0.size):
        for j in range(order + 1):
            ref = scalar_moment(dist, float(m), j, s[i], tau[i], x0[i], cfg)
            assert got[j, i] == pytest.approx(ref, rel=1e-12, abs=0.0), (i, j)
    # the last point lies above the support: its integrals stop at x_hi
    full, _ = analytic._moment_series(dist, float(m), s[-1], tau[-1], dist.x_hi, order)
    np.testing.assert_allclose(got[:, -1], full[:, 0], rtol=1e-12)


def test_batched_moment_series_without_live_points_is_zero(model10):
    dist = model10.dist
    got, n_evals = analytic._moment_series(
        dist, 1.0, 1e6, 1e6, [0.1 * dist.x_lo, 0.5 * dist.x_lo], 2
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
    signed_factorial = np.array([(-1) ** k * math.factorial(k) for k in range(3)])
    # tau = 1: the array form of the scalar wrapper, same arithmetic
    series, floored, _ = laplace._series(s, 1.0, x0, 2)
    assert floored == 0
    # tau = s: the coverage coefficients (-s)^k / k! L^(k), all >= 0
    coeffs, floored, _ = laplace._series(s, s, x0, 2)
    assert floored == 0
    assert np.all(coeffs >= 0.0)
    for i in range(x0.size):
        derivs = laplace.derivative_series(s[i], x0[i], 2)
        np.testing.assert_allclose(series[:, i] * signed_factorial, derivs, rtol=1e-14, atol=0.0)
        expected = [(-s[i]) ** k / math.factorial(k) * derivs[k] for k in range(3)]
        np.testing.assert_allclose(coeffs[:, i], expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spatial", ["bpp", "hppp"])
def test_derivative_series_is_exactly_one_at_the_origin(geom, channel_m3, spatial):
    if spatial == "bpp":
        laplace = bpp_model(N, geom, channel_m3).laplace
    else:
        laplace = hppp_model(LAM, geom, channel_m3).laplace
    for x0 in (1e-7, 3e-6, 1e-3):
        assert laplace.derivative_series(0.0, x0, 2)[0] == 1.0


def test_hppp_derivative_at_origin_is_minus_mean_interference(geom, channel_m3):
    # and the BPP's; both are G''(F) / G'(F) M1(s0): mu M1 and (n - 1) M1 / F
    hppp, bpp = hppp_model(LAM, geom, channel_m3), bpp_model(N, geom, channel_m3)
    for model, ratio in ((hppp, lambda F: hppp.mu), (bpp, lambda F: (N - 1) / F)):
        laplace, dist = model.laplace, model.dist
        for s0 in (1e-7, 3e-6, 1e-3):
            mean = laplace.mean_interference(s0)
            derivative = laplace.derivative_series(0.0, s0, 1)[1]
            assert derivative == pytest.approx(-mean, rel=1e-12, abs=0.0)
            assert mean == pytest.approx(ratio(dist.cdf(s0)) * dist.mean_below(s0), rel=1e-8)


# Oracle: the same Taylor-series formulation with inner integrals at rel 1e-10
# and the outer integral at rel 1e-9, on the pdf and cdf computed without the
# received-power cache (`test_bpp_coverage_matches_cache_free_oracle`).  The
# log/exp derivative recursion it replaced was off by 6.1e-8 and 1.1e-6 at
# these points.
@pytest.mark.parametrize(
    "n, m, theta_db, oracle, tol",
    [(10, 3, 0, 0.3045337092, 2e-8), (50, 1, -20, 0.9534317808, 2e-7)],
)
def test_bpp_coverage_matches_tight_tolerance_oracle(geom, n, m, theta_db, oracle, tol):
    model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=float(m)))
    assert model.coverage(10 ** (theta_db / 10)) == pytest.approx(oracle, rel=0.0, abs=tol)


@pytest.mark.parametrize("n, m, theta_db", [(10, 3, 0), (50, 1, -20)])
def test_bpp_coverage_matches_cache_free_oracle(geom, monkeypatch, n, m, theta_db):
    theta = 10 ** (theta_db / 10)
    model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=float(m)))
    value = model.coverage(theta)
    dist = model.dist
    # the engine reads log f and log F at its log nodes through `_log_at`;
    # the oracle's reader takes them from the closed forms instead
    closed = {
        "log_pdf": dist._pdf_smooth,
        "log_cdf": lambda x: closed_form_cdf_and_moment(dist, x)[0],
    }
    read = set()

    def closed_form_log_at(t, *names):
        read.update(names)
        return [np.log(closed[name](np.exp(t))) for name in names]

    monkeypatch.setattr(dist, "_log_at", closed_form_log_at)
    monkeypatch.setattr(analytic, "_COVERAGE_QUAD", QuadratureConfig(rel_tol=1e-9, abs_tol=1e-15))
    monkeypatch.setattr(analytic, "_LAPLACE_QUAD", QuadratureConfig(rel_tol=1e-10, abs_tol=1e-280))
    tight = analytic.BppCoverageModel(n, geom, model.channel)
    assert tight.dist is dist
    oracle = tight.coverage(theta)
    assert read == {"log_pdf", "log_cdf"}
    assert value == pytest.approx(oracle, rel=0.0, abs=1e-9)


# Where kernel error made D / F(x0) exceed 1 with the spline cache (48 nodes
# over this grid), which `gamma0 = 1 - D / F(x0)` floors at 0.
@pytest.mark.parametrize("theta_db", [10, 20])
@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("m", [6, 8])
def test_bpp_kernel_needs_no_flooring(geom, caplog, m, n, theta_db):
    model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=float(m)))
    with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
        model.coverage(10 ** (theta_db / 10))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact coverage")]
    assert len(lines) == 1
    assert re.search(r", 0 floored, ", lines[0]), lines[0]


# Points where the clamped derivative recursion did not converge.
@pytest.mark.parametrize("m, n, theta_db", [(1, 200, -3), (1, 400, -20), (3, 400, 0), (8, 400, -3)])
def test_bpp_coverage_converges_for_many_uavs(geom, m, n, theta_db):
    model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=float(m)))
    value = model.coverage(10 ** (theta_db / 10))
    assert 0.0 <= value <= 1.0
    if (m, n, theta_db) == (1, 200, -3):
        sirs, _ = simulate_sir(BPP(n), geom, model.channel, 10**5, seed=7)
        assert value == pytest.approx(float((sirs > 10 ** (-0.3)).mean()), abs=0.01)


@pytest.mark.parametrize("n", [2, 10, 200])
@pytest.mark.parametrize("m", [1, 2, 3, 6, 8])
def test_conditional_coverage_stays_in_unit_interval(geom, m, n):
    model = bpp_model(n, geom, ChannelParams(alpha=2.2, q=2.0, m=float(m)))
    # serving powers across the maximum-power distribution's bulk and tails
    x0 = model.dist.ppf(np.array([1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9]) ** (1.0 / n))
    for theta_db in (-20, -10, 0, 10, 20):
        cov, _, _ = model._conditional_coverage(10 ** (theta_db / 10), m, x0)
        assert np.all(cov >= 0.0) and np.all(cov <= 1.0 + 1e-8), (theta_db, cov)


# Exact coverage values on the Chebyshev received-power cache.  Each lies
# within 2e-13 of the cache-free oracle (tight tolerances, pdf and cdf
# computed without the cache); the spline-cache values they replaced were up
# to 2.7e-7 (BPP) and 1.6e-8 (HPPP) from it.
BPP_M3_DB = list(range(-20, 21, 4))
BPP_M3_COVERAGE = [
    0.9999560341856042,
    0.9993764337717366,
    0.9924338180208881,
    0.9345212489410581,
    0.6901466638378118,
    0.30453370917700345,
    0.08168484674664786,
    0.016632523589050045,
    0.0029582079144950396,
    0.0004927774463263016,
    7.972296885740887e-05,
]
HPPP_M1_DB = [-6, 0, 6]
HPPP_M1_COVERAGE = [0.6983282074816954, 0.3316911389158729, 0.07892636828872343]


def test_bpp_m3_coverage_pinned(geom, channel_m3):
    model = bpp_model(N, geom, channel_m3)
    got = [model.coverage(10 ** (db / 10)) for db in BPP_M3_DB]
    np.testing.assert_allclose(got, BPP_M3_COVERAGE, rtol=0.0, atol=1e-12)


def test_hppp_m1_coverage_pinned(hmodel):
    got = [hmodel.coverage(10 ** (db / 10)) for db in HPPP_M1_DB]
    np.testing.assert_allclose(got, HPPP_M1_COVERAGE, rtol=0.0, atol=1e-12)


def exact_line(model, caplog):
    """(calls, outer nodes, inner rows, grid points, halvings, floored) from
    the debug line of one exact value at 0 dB, the cache built beforehand."""
    model.dist.x_lo  # build the cache outside the captured call
    with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
        model.coverage(1.0)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact coverage")]
    assert len(lines) == 1
    fields = re.search(
        r"(\d+) outer-integrand calls, (\d+) outer nodes, (\d+) inner rows, (\d+) grid "
        r"points at spacing [0-9.e-]+ after (\d+) halvings, estimate [0-9.e+-]+, (\d+) floored, [0-9.]+ s",
        lines[0],
    )
    assert fields is not None, lines[0]
    return tuple(map(int, fields.groups()))


# The work of one value at R = 500 m, h = 100 m, alpha = 2.2, q = 2, 0 dB is
# pinned in the two tests below: a change to the cost per node must not move
# the node counts.  Both laws share the outer range's upper end, and so the
# inner grid: t_lo to a few points past log hi at the first spacing.  Both
# values take the outer rule's first sweep alone: 15 nodes (one G7/K15
# panel) per initial panel.
FIRST_SWEEP = 15 * analytic._COVERAGE_QUAD.initial_panels


def test_coverage_logs_its_work(geom, channel_m3, caplog):
    calls, outer, rows, points, halvings, floored = exact_line(bpp_model(N, geom, channel_m3), caplog)
    assert rows == 3 * outer  # m = 3: orders 0..2 at every outer node
    assert (calls, outer, points, halvings) == (1, FIRST_SWEEP, 836, 0)
    assert outer == 180
    # every Taylor coefficient is >= 0, and at m = 3 no kernel error needs flooring
    assert floored == 0


def test_hppp_coverage_work_is_pinned(hmodel, caplog):
    calls, outer, rows, points, halvings, floored = exact_line(hmodel, caplog)
    assert (calls, outer, rows, points, halvings, floored) == (1, FIRST_SWEEP, FIRST_SWEEP, 836, 0, 0)
    assert outer == 180


def test_quadrature_sweeps_stay_within_the_node_budget(geom, channel_m3, monkeypatch):
    # The largest node array of any sweep, in a cold cache build and in the
    # batched moment rows of 150 serving powers: both run more rows than fit
    # one chunk, and no sweep exceeds the budget (larger temporaries were
    # faulted in afresh on every call).  An exact value's only adaptive rule
    # is the outer one, whose sweeps stay far below it.
    budget = quadrature._BATCH_NODES
    sizes = []
    evaluate = quadrature._evaluate_panels

    def recording(f, lo, hi):
        sizes.append(15 * lo.size)
        return evaluate(f, lo, hi)

    monkeypatch.setattr(quadrature, "_evaluate_panels", recording)
    analytic.ReceivedPowerDistribution(geom, channel_m3)._ensure()
    build = sizes.copy()
    sizes.clear()
    model = bpp_model(N, geom, channel_m3)
    model._conditional_coverage(1.0, 3, np.geomspace(1e-7, 1e-3, 150))
    rows = sizes.copy()
    sizes.clear()
    model.coverage(1.0)
    for work in (build, rows):
        assert budget // 2 < max(work) <= budget
    assert 0 < max(sizes) <= budget // 8


SWEEP_DB = list(range(-20, 21, 4))
# A corridor ten times longer, at alpha = 4 and q = 1.05, where a BPP 10
# value takes a second outer sweep at every threshold of the sweep
WIDE = (5000.0, 4.0, 1.05)


@pytest.mark.parametrize(
    "models, m, wide",
    [((("bpp", 10), ("bpp", 20)), 1, False), ((("bpp", 10), ("bpp", 20)), 3, False),
     ((("hppp", LAM),), 1, False), ((("bpp", 10),), 1, True)],
    ids=["models0-1", "models1-3", "models2-1", "wide-1"],
)
def test_theta_sweep_on_one_model_matches_fresh_models(geom, caplog, models, m, wide):
    # A fresh model reads every outer node and grid point it evaluates, and
    # a warm one fewer, since it holds the grid and at least its outer
    # rule's first sweeps come from the memo; values, node counts and grids
    # are those of a fresh model per theta, bit for bit.  At the default
    # corridor every value takes one outer sweep, so a warm model reads
    # nothing; on the wide one every value refines, and a warm model reads
    # only the panels that the value before did not refine.  No value of
    # the sweep halves the grid's spacing.  BPP 10 and 20 share one
    # received-power cache and take their values in turn.
    if wide:
        R, alpha, q = WIDE
        geom = dataclasses.replace(geom, R=R)
    else:
        alpha, q = 2.2, 2.0
    ch = ChannelParams(alpha=alpha, q=q, m=float(m))
    classes = {"bpp": analytic.BppCoverageModel, "hppp": analytic.HpppCoverageModel}

    def make(kind, size):
        return classes[kind](size, geom, ch)

    shared = [make(*spec) for spec in models]
    assert all(model.dist is shared[0].dist for model in shared)

    def value_and_line(model, theta):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            value = model.coverage(theta)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact")]
        read = re.search(r": (\d+) nodes read, ", line)
        assert read is not None, line
        return value, int(read.group(1)), re.sub(r"[0-9.]+ s$", "", line.replace(read.group(0), ": "))

    refined, warm_reads = set(), set()
    for k, db in enumerate(SWEEP_DB):
        theta = 10 ** (db / 10)
        for spec, model in zip(models, shared):
            value, read, work = value_and_line(model, theta)
            fresh_value, fresh_read, fresh_work = value_and_line(make(*spec), theta)
            assert value == fresh_value and work == fresh_work, (spec, db)
            outer, points, halvings = (int(re.search(rf"(\d+) {name}", work).group(1))
                                       for name in ("outer nodes", "grid points", "halvings"))
            assert halvings == 0 and fresh_read == outer + points
            assert read == fresh_read if k == 0 else read < fresh_read
            if k and not wide:
                assert read == 0, (spec, db)
            if outer > FIRST_SWEEP:
                refined.add(db)
                warm_reads.add(read)
    assert refined == (set(SWEEP_DB) if wide else set())
    # some warm value refines the panels of the value before from the memo
    assert (0 in warm_reads) == wide


def _held_bytes(memo):
    """The bytes of every array and panel key a memo holds, its inner memos'
    included."""
    if isinstance(memo, np.ndarray):
        return memo.nbytes
    if isinstance(memo, bytes):
        return len(memo)
    if isinstance(memo, dict):
        memo = memo.values()
    elif not isinstance(memo, tuple):
        return 0
    return sum(_held_bytes(v) for v in memo)


@pytest.mark.parametrize(
    "cls, size, m, method",
    [(analytic.BppCoverageModel, 10, 3.0, "coverage"),
     (analytic.HpppCoverageModel, LAM, 1.0, "coverage"),
     (analytic.BppCoverageModel, 10, 2.5, "coverage_dominant"),
     (analytic.BppCoverageModel, 10, 2.5, "coverage_single_dominant")],
    ids=["exact-bpp", "exact-hppp", "dominant", "single-dominant"],
)
def test_memo_stays_bounded_over_a_dense_sweep(geom, cls, size, m, method):
    # A memo holds one value's reads per chunk and sweep: 201 thresholds
    # that refine different panels replace its refinement entries instead of
    # adding to them.  A repeated threshold refines the panels it holds, so
    # it reads nothing.  Exact coverage's memo is its outer rule's, and its
    # grids, which no value of this sweep refines, are held beside it.
    model = cls(size, geom, ChannelParams(alpha=2.2, q=2.0, m=m))
    memo = (model._exact_memo, model._grids) if method == "coverage" else model._dominant_memo
    coverage = getattr(model, method)
    thetas = 10 ** (np.linspace(-20.0, 20.0, 201) / 10)
    coverage(thetas[0])
    first = _held_bytes(memo)
    read = model.dist.nodes_read
    coverage(thetas[0])
    assert model.dist.nodes_read == read
    for theta in thetas[1:]:
        coverage(theta)
    assert 0 < first and _held_bytes(memo) <= 1.5 * first, (first, _held_bytes(memo))


@pytest.mark.parametrize("method, rule", [("coverage", "_COVERAGE_QUAD"),
                                          ("coverage_dominant", "_DOMINANT_QUAD")])
def test_cached_model_follows_a_new_initial_panel_count(geom, monkeypatch, method, rule):
    # A model's memos hold the panels their reads were taken at, so after
    # the rule's initial panel count changes a cached model's next value is
    # a fresh model's, bit for bit.
    ch = ChannelParams(alpha=2.2, q=2.0, m=3.0)
    model = bpp_model(N, geom, ch)
    getattr(model, method)(1.0)
    panels_4 = dataclasses.replace(getattr(analytic, rule), initial_panels=4)
    monkeypatch.setattr(analytic, rule, panels_4)
    fresh = analytic.BppCoverageModel(N, geom, ch)
    assert getattr(model, method)(1.0) == getattr(fresh, method)(1.0)


@pytest.mark.parametrize("rule, field, values", [("_LAPLACE_QUAD", "rel_tol", (1e-10, 1e-7, 1e-10)),
                                                  ("_COVERAGE_QUAD", "initial_panels", (4, 12, 4))],
                         ids=["_LAPLACE_QUAD", "_COVERAGE_QUAD"])
def test_warm_model_follows_the_panel_count_between_values(geom, monkeypatch, rule, field, values):
    # The outer rule's first-sweep layout is tagged with the initial panel
    # count, and every value halves the inner grid's spacing from the first
    # on its own estimate against the Laplace tolerance: with either changed
    # between values and back, every value of a warm model is a fresh
    # model's, bit for bit.  At 1e-10 a value takes finer grids than the
    # default's, which the warm model holds from then on.
    ch = ChannelParams(alpha=2.2, q=2.0, m=3.0)
    model = analytic.BppCoverageModel(N, geom, ch)
    default = getattr(analytic, rule)
    thetas = [10 ** (db / 10) for db in (-20.0, 0.0)]
    for theta in thetas:
        model.coverage(theta)
    levels = set(model._grids)
    for value in values:
        monkeypatch.setattr(analytic, rule, dataclasses.replace(default, **{field: value}))
        for theta in thetas:
            assert model.coverage(theta) == analytic.BppCoverageModel(N, geom, ch).coverage(theta)
    assert (set(model._grids) > levels) == (rule == "_LAPLACE_QUAD")


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("spatial", ["bpp", "hppp"])
def test_grid_rows_match_the_adaptive_rows(geom, spatial, m):
    # Exact coverage's inner rows on the first grid, interpolated to random
    # serving powers of the outer range, against `_moment_series` at the
    # Laplace tolerance, on the scale on which a row error moves the
    # conditional coverage: G'(F) / G''(F), F(x0) / (n - 1) for the BPP and
    # 1 / mu for the HPPP.  None of these values halves the spacing.
    ch = ChannelParams(alpha=2.2, q=2.0, m=float(m))
    model = bpp_model(N, geom, ch) if spatial == "bpp" else hppp_model(LAM, geom, ch)
    lo, hi = model._outer_bounds()
    t_lo = model.dist._ensure()["t_lo"]
    step = model._grid(0)[0]
    t = np.sort(np.random.default_rng(7 * m).uniform(math.log(lo), math.log(hi), 40))
    x0 = np.exp(t)
    scale = 1.0 / model.law.derivative_ratio(1, model.dist.cdf(x0))
    for theta_db in (-20, 0, 20):
        theta = 10 ** (theta_db / 10)
        got = quadrature.interpolate_uniform(model._inner_rows(theta, m, 0), (t - t_lo) / step)
        s = m * theta / x0
        ref, _ = analytic._moment_series(model.dist, float(m), s, s, x0, m - 1)
        assert np.all(np.abs(got - ref) <= analytic._LAPLACE_QUAD.rel_tol * scale), theta_db


def test_first_exact_value_reads_few_points(geom, channel):
    # 180 outer nodes and one grid of 836 points at the defaults, where the
    # per-node inner rows read 19,200
    model = analytic.BppCoverageModel(N, geom, channel)
    model.dist.x_lo
    read = model.dist.nodes_read
    model.coverage(10 ** -0.3)
    assert 0 < model.dist.nodes_read - read < 2000


def test_coarse_first_spacing_halves_within_tolerance(geom, channel_m3, monkeypatch, caplog):
    theta = 10 ** -0.3
    default = analytic.BppCoverageModel(N, geom, channel_m3).coverage(theta)
    monkeypatch.setattr(analytic, "_GRID_SPACING", 0.5)
    with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
        value = analytic.BppCoverageModel(N, geom, channel_m3).coverage(theta)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact")]
    step, halvings = re.search(r"spacing ([0-9.e-]+) after (\d+) halvings", line).groups()
    assert int(halvings) >= 2 and float(step) == 0.5 / 2 ** int(halvings), line
    cfg = analytic._COVERAGE_QUAD
    assert abs(value - default) <= max(cfg.abs_tol, cfg.rel_tol * default)


def test_halved_values_form_their_own_stencils(geom, channel_m3, monkeypatch, caplog):
    # The memo holds the level-0 grid's stencils; a value that halves the
    # spacing interpolates its finer rows with stencils of its own, and a
    # warm model's values are a fresh model's, bit for bit.
    monkeypatch.setattr(analytic, "_GRID_SPACING", 0.5)
    applied = []
    apply_stencil = analytic.apply_stencil

    def recording(values, stencil):
        applied.append(stencil)
        return apply_stencil(values, stencil)

    monkeypatch.setattr(analytic, "apply_stencil", recording)
    warm = analytic.BppCoverageModel(N, geom, channel_m3)
    for db in (-10, 0, 10):
        theta = 10 ** (db / 10)
        applied.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="corridor_cov.analytic"):
            value = warm.coverage(theta)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact")]
        assert int(re.search(r"after (\d+) halvings", line).group(1)) >= 1, line
        held = {id(reads[-2][1]) for _, _, reads in warm._exact_memo.values()}
        assert applied and held and not held & {id(basis) for _, basis in applied}
        assert value == analytic.BppCoverageModel(N, geom, channel_m3).coverage(theta)


@pytest.mark.parametrize("spatial, m", [("bpp", 3), ("hppp", 1)])
def test_held_stencil_matches_interpolate_uniform(geom, spatial, m):
    ch = ChannelParams(alpha=2.2, q=2.0, m=float(m))
    model = (analytic.BppCoverageModel(N, geom, ch) if spatial == "bpp"
             else analytic.HpppCoverageModel(LAM, geom, ch))
    model.coverage(0.5)
    step, t_lo = model._grid(0)[0], model.dist._ensure()["t_lo"]
    rows = model._inner_rows(2.0, m, 0)
    for _, _, (t, *_, stencil, _) in model._exact_memo.values():
        got = quadrature.apply_stencil(rows, stencil)
        assert np.array_equal(got, quadrature.interpolate_uniform(rows, (t - t_lo) / step))


def test_grid_past_its_cap_raises(geom, channel, monkeypatch):
    monkeypatch.setattr(analytic, "_GRID_POINTS", 100)
    with pytest.raises(quadrature.QuadratureError, match="inner grid"):
        analytic.BppCoverageModel(N, geom, channel).coverage(1.0)


def _listed_taylor_sum(weights, h):
    """`analytic._taylor_sum` as each power's rows were once formed: a list
    of (k + 1, n) products summed over their first axis, stacked."""
    h = np.concatenate([np.zeros_like(h[:1]), h[1:]])
    power = np.zeros_like(h)
    power[0] = 1.0
    out = weights[0] * power
    for w in weights[1:]:
        power = np.array([(power[: k + 1] * h[k::-1]).sum(axis=0) for k in range(len(h))])
        out = out + w * power
    return out


@pytest.mark.parametrize("n", [1, 2, 120])
@pytest.mark.parametrize("order", range(8))
def test_taylor_sum_matches_its_listed_form(order, n):
    # the same products, summed in the same order: equal bit for bit, also
    # for one point, where numpy's sum over the first axis runs pairwise
    # from eight terms on
    rng = np.random.default_rng(100 * order + n)
    for _ in range(5):
        h = rng.random((order + 1, n)) * 10.0 ** rng.uniform(-8, 2, (order + 1, 1))
        weights = list(rng.random((order + 1, n)) * 10.0 ** rng.uniform(-3, 3, (order + 1, 1)))
        got = analytic._taylor_sum(weights, h)
        assert got.tobytes() == _listed_taylor_sum(weights, h).tobytes()
