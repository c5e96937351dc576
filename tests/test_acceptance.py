"""Acceptance suite: one test per criterion, heavy artifacts shared.

Each criterion runs at its stated tolerance against the stated trial
counts; the test name is the pass/fail line.  Printed details (gaps,
runtimes) surface in the captured output when a criterion fails.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from corridor_cov import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    Disc2D,
    FiniteHPPP,
    FixedHeight,
    NormalHeight,
    UniformHeight,
    bpp_model,
    coverage_from_sirs,
    empirical_coverage,
    fit_normal_height,
    hppp_model,
    simulate_sir,
    synthesize_trace,
    trace_replay,
)
from corridor_cov import cli
from corridor_cov.simulator import MAX_POWER, MIN_DISTANCE

THETA_DB = np.arange(-10.0, 11.0)
THETA_LIN = 10 ** (THETA_DB / 10.0)
TH_DEFAULT = 10 ** (-3.0 / 10.0)
N_TRIALS = 10**6

GEOM = CorridorGeometry(500.0, FixedHeight(100.0))
CHANNEL = ChannelParams(alpha=2.2, q=2.0, m=1.0)  # gamma defaults to q-1 = 1
LAMBDA = 10.0 / 1000.0


def hppp_coverage(theta, lam, h, R, q):
    geom = CorridorGeometry(R, FixedHeight(h))
    ch = ChannelParams(alpha=2.2, q=q, m=1.0)
    return hppp_model(lam, geom, ch).coverage(theta)


@pytest.fixture(scope="module")
def exact10():
    t0 = time.perf_counter()
    model = bpp_model(10, GEOM, CHANNEL)
    cov = np.array([model.coverage(th) for th in THETA_LIN])
    return cov, time.perf_counter() - t0


@pytest.fixture(scope="module")
def exact3():
    model = bpp_model(3, GEOM, CHANNEL)
    return np.array([model.coverage(th) for th in THETA_LIN])


@pytest.fixture(scope="module")
def mc10():
    t0 = time.perf_counter()
    sirs, _ = simulate_sir(BPP(10), GEOM, CHANNEL, N_TRIALS, seed=1001)
    curve = coverage_from_sirs(sirs, THETA_DB)
    return curve, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dominant_curves():
    out = {}
    for n in (3, 10):
        model = bpp_model(n, GEOM, CHANNEL)
        out[n] = {
            "dominant": np.array([model.coverage_dominant(th) for th in THETA_LIN]),
            "single": np.array([model.coverage_single_dominant(th) for th in THETA_LIN]),
        }
    return out


def test_criterion_01_bpp_oracle_equivalence(exact10, mc10):
    """|exact BPP coverage - Monte Carlo| <= 0.01 at every theta; < 5 min."""
    cov, t_exact = exact10
    curve, t_mc = mc10
    gap = np.max(np.abs(cov - curve.coverage))
    print(f"[C1] max|exact-mc| = {gap:.5f}; analytic {t_exact:.1f}s + mc {t_mc:.1f}s")
    assert gap <= 0.01
    assert t_exact + t_mc < 300.0


def test_criterion_02_hppp_oracle_equivalence():
    """Exact HPPP coverage vs conditioned Monte Carlo, lambda = 10/1000 per m."""
    t0 = time.perf_counter()
    model = hppp_model(LAMBDA, GEOM, CHANNEL)
    cov = np.array([model.coverage(th) for th in THETA_LIN])
    t_exact = time.perf_counter() - t0
    sirs, _ = simulate_sir(FiniteHPPP(LAMBDA), GEOM, CHANNEL, N_TRIALS, seed=1002)
    mc = coverage_from_sirs(sirs, THETA_DB)
    gap = np.max(np.abs(cov - mc.coverage))
    print(f"[C2] max|exact-mc| = {gap:.5f}; analytic {t_exact:.1f}s")
    assert gap <= 0.01


def test_criterion_03_uav_count_and_dominant_accuracy(exact10, exact3, dominant_curves):
    """Fewer UAVs cover better; mean-residual approximation close to exact
    (0.03 at the default threshold; see ledger for the full-grid profile);
    single-dominant only accurate at small N."""
    cov10, _ = exact10
    cov3 = exact3
    assert np.all(cov3 > cov10), "coverage(N=3) > coverage(N=10) must hold at every theta"

    i3 = int(np.where(THETA_DB == -3.0)[0][0])
    gap3 = abs(dominant_curves[3]["dominant"][i3] - cov3[i3])
    gap10 = abs(dominant_curves[10]["dominant"][i3] - cov10[i3])
    print(f"[C3] dominant-vs-exact at -3 dB: N=3 {gap3:.4f}, N=10 {gap10:.4f}")
    assert gap3 <= 0.03 and gap10 <= 0.03

    # the headline comparative claim: the mean-residual approximation stays
    # usable over the whole grid while single-dominant degrades badly at
    # large N ("more accurate only for small values of N")
    full3 = np.max(np.abs(dominant_curves[3]["dominant"] - cov3))
    full10 = np.max(np.abs(dominant_curves[10]["dominant"] - cov10))
    sing3 = np.max(np.abs(dominant_curves[3]["single"] - cov3))
    sing10 = np.max(np.abs(dominant_curves[10]["single"] - cov10))
    print(f"[C3] full-grid max gaps: dominant N3={full3:.4f} N10={full10:.4f}; "
          f"single N3={sing3:.4f} N10={sing10:.4f}")
    assert full3 < sing3 and full10 < sing10

    err_single_3 = abs(dominant_curves[3]["single"][i3] - cov3[i3])
    err_single_10 = abs(dominant_curves[10]["single"][i3] - cov10[i3])
    assert err_single_3 < err_single_10


def test_criterion_04_height_and_shadowing_trend():
    """Coverage decreases with h; the q=2 -> q=5 degradation grows with h."""
    cov = {(h, q): hppp_coverage(TH_DEFAULT, LAMBDA, h, 500.0, q)
           for h in (100.0, 150.0, 200.0) for q in (2.0, 5.0)}
    print(f"[C4] {cov}")
    assert cov[(100.0, 2.0)] > cov[(150.0, 2.0)] > cov[(200.0, 2.0)]
    drop100 = cov[(100.0, 2.0)] - cov[(100.0, 5.0)]
    drop200 = cov[(200.0, 2.0)] - cov[(200.0, 5.0)]
    assert drop200 > drop100 > 0


def test_criterion_05_shadowing_gap_vs_corridor_size():
    """The q=2 vs q=5 gap shrinks as R grows, faster for smaller h."""
    gaps = {}
    for h in (100.0, 200.0):
        for R in (250.0, 500.0, 1000.0):
            lam = 10.0 / (2.0 * R)  # default lambda = N / |L|
            gaps[(h, R)] = abs(
                hppp_coverage(TH_DEFAULT, lam, h, R, 2.0) - hppp_coverage(TH_DEFAULT, lam, h, R, 5.0)
            )
    print(f"[C5] {gaps}")
    for h in (100.0, 200.0):
        assert gaps[(h, 250.0)] > gaps[(h, 500.0)] > gaps[(h, 1000.0)]
    shrink100 = gaps[(100.0, 1000.0)] / gaps[(100.0, 250.0)]
    shrink200 = gaps[(200.0, 1000.0)] / gaps[(200.0, 250.0)]
    assert shrink100 < shrink200


def test_criterion_06_corner_ordering():
    """Large low corridors beat short high ones: (h=50,R=500) > (h=200,R=100)."""
    c_low_long = hppp_coverage(TH_DEFAULT, 10.0 / 1000.0, 50.0, 500.0, 2.0)
    c_high_short = hppp_coverage(TH_DEFAULT, 10.0 / 200.0, 200.0, 100.0, 2.0)
    print(f"[C6] coverage(h=50,R=500)={c_low_long:.4f} > coverage(h=200,R=100)={c_high_short:.4f}")
    assert c_low_long > c_high_short


def test_criterion_07_corridor_beats_disc():
    """Corridor coverage > 2D-disc coverage at h=50, R=250, N=10, all theta."""
    geom = CorridorGeometry(250.0, FixedHeight(50.0))
    corridor = empirical_coverage(BPP(10), geom, CHANNEL, THETA_DB, N_TRIALS, seed=1003)
    disc = empirical_coverage(Disc2D(10, 250.0), geom, CHANNEL, THETA_DB, N_TRIALS, seed=1004)
    margin = corridor.coverage - disc.coverage
    print(f"[C7] min margin = {margin.min():.5f}")
    assert np.all(margin > 0)


def test_criterion_08_policy_gap():
    """Max-power association dominates min-distance; SIR laws differ (KS)."""
    # one seed: both runs share positions, shadowing and fading
    sir_mp, sir_md = (
        simulate_sir(BPP(10), GEOM, CHANNEL, N_TRIALS, seed=1005, policy=policy)[0]
        for policy in (MAX_POWER, MIN_DISTANCE)
    )
    disagree = np.mean(sir_mp != sir_md)
    cov_mp = np.array([(sir_mp > th).mean() for th in THETA_LIN])
    cov_md = np.array([(sir_md > th).mean() for th in THETA_LIN])
    print(f"[C8] min pointwise margin = {(cov_mp - cov_md).min():.5f}, "
          f"policy disagreement = {disagree:.3f}")
    assert np.all(cov_mp >= cov_md)
    ks = stats.ks_2samp(np.log(sir_mp[np.isfinite(sir_mp)]),
                        np.log(sir_md[np.isfinite(sir_md)]))
    print(f"[C8] KS p-value = {ks.pvalue:.3e}")
    assert ks.pvalue < 0.01


def test_criterion_09_variable_height_gap():
    """Fixed vs variable height within 0.02: Uniform[160,240] and a fitted
    Normal around 200 m, for both spatial models."""
    rng = np.random.default_rng(1006)
    mu, sigma = fit_normal_height(rng.normal(200.0, 15.0, 10**5))
    spatials = {"bpp": BPP(10), "hppp": FiniteHPPP(10.0 / 400.0)}
    gaps = {}
    seed = 1007
    for name, spatial in spatials.items():
        for label, hm in (("uniform", UniformHeight(160.0, 240.0)),
                          ("normal", NormalHeight(mu, sigma))):
            # one seed: the runs share every draw but the heights
            fixed, variable = (
                empirical_coverage(spatial, CorridorGeometry(200.0, model), CHANNEL, THETA_DB,
                                   10**5, seed=seed)
                for model in (FixedHeight(200.0), hm)
            )
            gaps[(name, label)] = fixed.max_gap(variable)
            seed += 1
    print(f"[C9] gaps = {gaps}")
    assert all(g <= 0.02 for g in gaps.values())


def test_criterion_10_property_suites(tmp_path):
    """pdf normalizations 1e-5; Laplace(0)=1 exact; top-two marginalization
    identity 1e-6; analytic derivatives vs finite differences 1e-5;
    deterministic reruns byte-identical."""
    import corridor_cov as cc

    model = bpp_model(10, GEOM, CHANNEL)
    hmodel = hppp_model(LAMBDA, GEOM, CHANNEL)

    # pdf normalizations
    assert abs(model.dist.normalization() - 1.0) <= 1e-5
    for pdf, dist in ((model.max_power_pdf, model.dist), (hmodel.max_power_pdf, hmodel.dist)):
        res = cc.integrate(
            lambda t: pdf(np.exp(t)) * np.exp(t),
            math.log(dist.x_lo), math.log(dist.x_hi),
            cc.QuadratureConfig(rel_tol=1e-8, abs_tol=1e-13),
        )
        assert abs(res.value - 1.0) <= 1e-5

    # Laplace transforms at the origin are exactly one
    assert model.laplace.derivative_series(0.0, 3e-6, 0)[0] == 1.0
    assert hmodel.laplace.derivative_series(0.0, 3e-6, 0)[0] == 1.0

    # top-two joint density marginalizes back to the maximum-power pdf
    for x0 in (1e-6, 3e-6, 2e-5):
        marginal = cc.integrate(
            lambda t: model.joint_top_two_pdf(x0, np.exp(t)) * np.exp(t),
            math.log(model.dist.x_lo), math.log(x0),
            cc.QuadratureConfig(rel_tol=1e-9, abs_tol=1e-20),
        ).value
        assert marginal == pytest.approx(model.max_power_pdf(x0), rel=1e-6)

    # analytic Laplace derivatives vs central finite differences
    ch3 = ChannelParams(alpha=2.2, q=2.0, m=3.0)
    for lap in (bpp_model(10, GEOM, ch3).laplace, hppp_model(LAMBDA, GEOM, ch3).laplace):
        x0 = 3e-6
        s = 2.0 / x0
        h_fd = 1e-3 * s
        values = [lap.derivative_series(v, x0, 0)[0] for v in (s + h_fd, s - h_fd)]
        fd = (values[0] - values[1]) / (2 * h_fd)
        assert lap.derivative_series(s, x0, 1)[1] == pytest.approx(fd, rel=1e-5)

    # deterministic reseeded reruns: library arrays and CLI artifacts
    a, _ = simulate_sir(BPP(10), GEOM, CHANNEL, 50_000, seed=77)
    b, _ = simulate_sir(BPP(10), GEOM, CHANNEL, 50_000, seed=77)
    assert np.array_equal(a, b)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = ["coverage", "--sweep", "theta", "--values=-3,0,3", "--methods", "mc",
            "--trials", "20000", "--seed", "42"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_criterion_11_trace_replay_closure():
    """The published empirical KL values need a measurement dataset that is
    not available; the synthetic-trace closure test substitutes: replayed
    coverage matches direct simulation within 0.01 at 0.5 mm mapping."""
    geom = CorridorGeometry(200.0, FixedHeight(200.0))
    trace = synthesize_trace(geom, CHANNEL, spacing=5e-4, seed=1008)
    assert trace.mapping_accuracy_m <= 5e-4 * (0.5 + 1e-9)
    replay = trace_replay(trace, BPP(10), geom, 2 * 10**5, THETA_DB, seed=1009)
    direct = empirical_coverage(BPP(10), geom, CHANNEL, THETA_DB, 2 * 10**5, seed=1010)
    gap = replay.coverage.max_gap(direct)
    print(f"[C11] replay-vs-simulation max gap = {gap:.5f} "
          f"({trace.n_samples} trace samples at 0.5 mm)")
    assert gap <= 0.01
