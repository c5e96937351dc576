import math

import numpy as np
import pytest
from scipy import stats

from corridor_cov import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    Disc2D,
    EmpiricalDistribution,
    FiniteHPPP,
    FixedHeight,
    GridMismatchError,
    NormalHeight,
    ParameterError,
    SirTally,
    UniformHeight,
    coverage_from_sirs,
    db_to_linear,
    empirical_coverage,
    fit_normal_height,
    fit_uniform_height,
    height_model_kl_study,
    kl_divergence,
    simulate_sir,
    synthesize_trace,
    trace_replay,
)
from corridor_cov import core, simulator
from corridor_cov.core import sample_gamma
from corridor_cov.simulator import (
    MAX_POWER,
    MIN_DISTANCE,
    _Layout,
    _child,
    _combine_sir,
    _draw_batch,
    _draw_positions,
    _grid_quantile,
    _map_batches,
    _poisson_pmf,
    _serving,
    _simulate,
    _substream,
    sample_heights,
)
from conftest import ks_statistic


def policy_pair(spatial, geom, channel, trials, **kwargs):
    """SIRs under max-power and under min-distance association: one
    `simulate_sir` call per policy, which share their draws under one seed."""
    return [
        simulate_sir(spatial, geom, channel, trials, policy=policy, **kwargs)[0]
        for policy in (MAX_POWER, MIN_DISTANCE)
    ]


def served_both_ways(spatial, geom, channel, trials, seed, batch_size):
    """SIRs under max-power and under min-distance association from a
    single draw, each realization served once per policy."""

    pmf = _poisson_pmf(spatial.mean_count(geom)) if isinstance(spatial, FiniteHPPP) else None

    def run(rng, size):
        layout, powers, d2 = _draw_batch(spatial, geom, channel, size, rng, True, pmf)
        sir_mp, sir_md = [], []
        for p, d, scratch in layout.pieces(powers, d2):
            faded = sample_gamma(rng, channel.m, 1.0 / channel.m, scratch)
            faded *= p
            sir_mp.append(_combine_sir(faded, _serving(MAX_POWER, p, d)))
            sir_md.append(_combine_sir(faded, _serving(MIN_DISTANCE, p, d)))
        return (layout.ordered(sir_mp, rng), layout.ordered(sir_md, rng)), layout.kept

    batches, _ = _map_batches("test", run, trials, batch_size, seed)
    return [np.concatenate(sirs) for sirs in zip(*batches)]


def fixed_vs_variable_gap(spatial, R, fixed_h, height_model, channel, theta_db, trials, seed):
    """Largest coverage gap between a fixed height and `height_model`, the
    two runs sharing one seed and so every draw but the heights."""
    fixed, variable = (
        empirical_coverage(spatial, CorridorGeometry(R, model), channel, theta_db, trials, seed)
        for model in (FixedHeight(fixed_h), height_model)
    )
    return fixed.max_gap(variable)


class TestSampleNetwork:
    def test_bpp_counts_and_support(self, geom, channel):
        layout, powers, d2 = _draw_batch(BPP(10), geom, channel, 1, _substream(1, 0), keep_d2=True)
        # replay the batch's draws: positions, heights, then shadowing
        rng = _substream(1, 0)
        pos, _ = _draw_positions(BPP(10), geom, rng, 1)
        heights = geom.height_model.sample(rng, pos.shape)
        shadowing = 1.0 / sample_gamma(rng, channel.q, 1.0 / channel.gamma, np.empty(pos.shape))
        assert layout.n_trials.tolist() == [0] * 10 + [1] and powers.shape == (10,)
        assert np.all(np.abs(pos) <= geom.R)
        assert np.all(heights == 100.0)
        assert np.array_equal(d2, pos * pos + heights * heights)
        assert np.allclose(powers, shadowing * np.hypot(pos, heights) ** -2.2, rtol=1e-12)

    def test_bpp_positions_uniform_ks(self, geom, channel):
        rng = _substream(2, 0)
        pos, _ = _draw_positions(BPP(10), geom, rng, 10**5)
        u = pos.ravel()  # 1e6 positions
        assert ks_statistic(u, lambda x: np.clip((x + 500.0) / 1000.0, 0, 1)) < 0.005

    def test_hppp_count_mean_sanity(self, geom, channel):
        rng = _substream(3, 0)
        _, layout = _draw_positions(FiniteHPPP(0.01), geom, rng, 10**6, _poisson_pmf(10.0))
        counts = np.repeat(np.arange(layout.n_trials.size), layout.n_trials)
        mean = counts.mean()
        band = 3.0 * math.sqrt(10.0 / 10**6)
        assert abs(mean - 10.0) < band

    def test_disc_distance_density(self, channel):
        # ground radius density 2r/R^2 -> distance CDF (d^2 - h^2)/R^2
        geom = CorridorGeometry(250.0, FixedHeight(50.0))
        rng = _substream(4, 0)
        pos, _ = _draw_positions(Disc2D(10, 250.0), geom, rng, 10**5)
        d = np.hypot(pos, 50.0).ravel()
        cdf = lambda x: np.clip((x * x - 2500.0) / 250.0**2, 0.0, 1.0)
        assert ks_statistic(d, cdf) < 0.005


class TestAssociation:
    def test_single_uav_both_policies(self, geom, channel):
        # the lone UAV serves under both policies: they never disagree and
        # nothing interferes
        mp, md = policy_pair(BPP(1), geom, channel, 1000, seed=5)
        assert np.mean(mp != md) == 0.0
        assert len(mp) == len(md) == 1000
        assert np.all(np.isinf(mp)) and np.all(np.isinf(md))

    def test_unit_shadowing_reduces_to_min_distance(self):
        # with all shadowing gains equal the max-power choice is the nearest
        positions = np.array([-300.0, 50.0, 400.0])
        heights = np.full(3, 100.0)
        shadowing = np.ones(3)
        dist = np.hypot(positions, heights)[None, :]
        powers = shadowing * dist ** -2.2
        sir_mp = _combine_sir(powers, _serving(MAX_POWER, powers, dist))
        sir_md = _combine_sir(powers, _serving(MIN_DISTANCE, powers, dist))
        p = powers[0]
        assert sir_mp[0] == sir_md[0] == pytest.approx(p[1] / (p[0] + p[2]), rel=1e-12)

    def test_policies_disagree_often_under_shadowing(self, geom, channel):
        mp, md = policy_pair(BPP(10), geom, channel, 50_000, seed=6)
        assert np.mean(mp != md) > 0.3

    @pytest.mark.parametrize("spatial", [BPP(10), FiniteHPPP(0.005)])
    def test_paired_run_equals_one_run_per_policy(self, channel, spatial):
        # one draw served both ways keeps d^2 beside the powers, as the
        # min-distance run does; the max-power run writes the powers over it:
        # the SIRs must not differ
        geom = CorridorGeometry(500.0, UniformHeight(80.0, 120.0))
        kwargs = dict(seed=48, batch_size=1024)
        mp, md = served_both_ways(spatial, geom, channel, 3000, **kwargs)
        assert np.array_equal(mp, simulate_sir(spatial, geom, channel, 3000, **kwargs)[0])
        assert np.array_equal(
            md, simulate_sir(spatial, geom, channel, 3000, policy=MIN_DISTANCE, **kwargs)[0]
        )

    def test_unknown_policy_rejected(self, geom, channel):
        with pytest.raises(ParameterError):
            simulate_sir(BPP(2), geom, channel, 10, seed=7, policy="strongest")


class TestSirSample:
    def test_two_equal_powers_no_fading_gives_unit_sir(self, channel):
        powers = np.array([[2e-5, 2e-5]])
        ch = ChannelParams(alpha=2.2, q=2.0, m=1e7)  # m -> inf: fading collapses to 1
        fading = _substream(8, 0).gamma(ch.m, 1.0 / ch.m, powers.shape)
        sir = _combine_sir(fading * powers, _serving(MAX_POWER, powers, None))
        assert sir.shape == (1,)  # one SIR for the one two-UAV realization
        assert sir[0] == pytest.approx(1.0, abs=2e-3)

    def test_single_uav_infinite_sir(self, geom, channel):
        sirs, excluded = simulate_sir(BPP(1), geom, channel, 1000, seed=9)
        assert excluded == 0
        assert np.all(np.isinf(sirs))

    def test_two_uav_exponential_ratio_law(self, channel):
        # N=2, m=1, power ratio rho: P(SIR > theta) = 1 / (1 + theta/rho)
        trials = 20_000
        powers = np.full((trials, 2), 3e-6)  # rho = 1
        fading = _substream(10, 0).gamma(channel.m, 1.0 / channel.m, powers.shape)
        sir = _combine_sir(fading * powers, _serving(MAX_POWER, powers, None))
        assert np.mean(sir > 1.0) == pytest.approx(0.5, abs=0.01)

    def test_batch_engine_agrees_with_object_path(self, geom, channel):
        # same substream, BPP: the vectorized engine must reproduce a
        # trial-by-trial loop over the documented draw order exactly
        sirs, _ = simulate_sir(BPP(10), geom, channel, trials=3, batch_size=1, seed=77)
        manual = []
        for b in range(3):
            rng = _substream(77, b)
            pos = rng.uniform(-geom.R, geom.R, 10)
            heights = geom.height_model.sample(rng, 10)
            shadowing = 1.0 / sample_gamma(rng, channel.q, 1.0 / channel.gamma, np.empty(10))
            powers = shadowing * np.hypot(pos, heights) ** -channel.alpha
            serving = int(np.argmax(powers))
            faded = sample_gamma(rng, channel.m, 1.0 / channel.m, np.empty(10)) * powers
            manual.append(faded[serving] / (faded.sum() - faded[serving]))
        assert np.allclose(sirs, manual, rtol=1e-12)

    @pytest.mark.parametrize("policy", [MAX_POWER, MIN_DISTANCE])
    def test_hppp_batch_agrees_with_per_trial_loop(self, geom, channel, policy):
        # lam|L| = 2: counts 0..8 or so, so the batch has empty trials, lone
        # UAVs and several count blocks; replay the documented order by hand
        size, spatial = 400, FiniteHPPP(0.002)
        sirs, excluded = simulate_sir(
            spatial, geom, channel, size, seed=78, policy=policy, batch_size=size
        )
        rng = _substream(78, 0)
        n_trials = rng.multinomial(size, _poisson_pmf(spatial.intensity * geom.length))
        counts = np.repeat(np.arange(n_trials.size), n_trials)  # the trials in count order
        n = counts.sum()
        pos = rng.uniform(-geom.R, geom.R, n)
        heights = geom.height_model.sample(rng, n)
        shadowing = 1.0 / sample_gamma(rng, channel.q, 1.0 / channel.gamma, np.empty(n))
        fading = sample_gamma(rng, channel.m, 1.0 / channel.m, np.empty(n))
        # the UAVs of each trial follow those of every trial before it
        first = np.cumsum(counts) - counts
        manual = []
        for t in range(size):
            if counts[t] == 0:
                continue
            uavs = slice(first[t], first[t] + counts[t])
            dist = np.hypot(pos[uavs], heights[uavs])
            powers = shadowing[uavs] * dist**-channel.alpha
            serving = int(np.argmax(powers) if policy == MAX_POWER else np.argmin(dist))
            faded = fading[uavs] * powers
            interference = faded.sum() - faded[serving]
            manual.append(faded[serving] / interference if interference > 0 else np.inf)
        # the non-empty trials come back permuted by the batch's order stream
        perm = _child(_substream(78, 0), 1).permutation(len(manual))
        assert len(np.unique(counts)) > 5 and np.any(counts == 0) and np.any(counts == 1)
        assert excluded == np.count_nonzero(counts == 0)
        assert np.allclose(sirs, np.array(manual)[perm], rtol=1e-12)

    def test_hppp_batch_draws_one_value_per_uav(self, geom, channel):
        # the batch consumes one multinomial, then exactly one position and
        # one shadowing value per UAV (fixed heights draw nothing)
        pmf = _poisson_pmf(0.01 * geom.length)
        engine = _substream(79, 0)
        layout, _, _ = _draw_batch(FiniteHPPP(0.01), geom, channel, 500, engine, False, pmf)
        rng = _substream(79, 0)
        n_trials = rng.multinomial(500, pmf)
        assert np.array_equal(n_trials, layout.n_trials)
        n = n_trials @ np.arange(n_trials.size)
        rng.uniform(-geom.R, geom.R, n)
        sample_gamma(rng, channel.q, 1.0 / channel.gamma, np.empty(n))
        assert engine.random() == rng.random()

    @pytest.mark.parametrize("keep_d2", [False, True])
    def test_trace_batch_maps_each_uav_to_its_nearest_sample(self, geom, channel, keep_d2):
        # a trace source consumes the multinomial and the positions, and
        # nothing more; each UAV takes the power and d^2 of its nearest
        # trace sample
        trace = synthesize_trace(geom, channel, spacing=1.0, seed=80)
        pmf = _poisson_pmf(0.01 * geom.length)
        engine = _substream(79, 0)
        layout, powers, d2 = _draw_batch(FiniteHPPP(0.01), geom, trace, 200, engine, keep_d2, pmf)
        rng = _substream(79, 0)
        n_trials = rng.multinomial(200, pmf)
        assert np.array_equal(n_trials, layout.n_trials)
        pos = rng.uniform(-geom.R, geom.R, n_trials @ np.arange(n_trials.size))
        assert engine.random() == rng.random()
        nearest = np.argmin(np.abs(pos[:, None] - trace.position_m), axis=1)
        assert np.array_equal(powers, db_to_linear(trace.rx_power_dbm)[nearest])
        if keep_d2:
            assert np.array_equal(d2, trace.position_m[nearest] ** 2 + trace.height_m[nearest] ** 2)
        else:
            assert d2 is None


class TestEmpiricalCoverage:
    def test_matches_analytic_twin(self, geom, channel, model10):
        curve = empirical_coverage(BPP(10), geom, channel, [-3.0], 200_000, seed=11)
        assert curve.coverage[0] == pytest.approx(model10.coverage(10 ** (-0.3)), abs=0.01)

    def test_low_threshold_is_covered(self, geom, channel):
        curve = empirical_coverage(BPP(10), geom, channel, [-60.0], 20_000, seed=12)
        assert curve.coverage[0] > 0.999

    def test_wilson_interval_is_never_zero_width(self):
        # k = 0, 0 < k < n and k = n of 20,000 samples: the interval holds
        # the estimate, its ends are exactly 0 and 1 at the extremes, and
        # the standard error is unchanged
        sirs = np.concatenate([np.full(19_990, np.inf), np.ones(10)])
        curve = coverage_from_sirs(sirs, [-30.0, 300.0])
        n, z = 20_000, 1.959963984540054
        assert np.array_equal(curve.coverage, [1.0, 19_990 / n])
        assert curve.stderr[0] == 0.0 < curve.stderr[1]
        assert curve.ci_low[1] < curve.coverage[1] < curve.ci_high[1] < 1.0 == curve.ci_high[0]
        assert 0.0 < curve.ci_low[0] < 1.0
        p = 19_990 / n
        center = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        assert curve.ci_low[1] == pytest.approx(center - half, rel=1e-12)
        assert curve.ci_high[1] == pytest.approx(center + half, rel=1e-12)
        none = coverage_from_sirs(np.zeros(n), [0.0])
        assert none.ci_low[0] == 0.0 and none.ci_high[0] == pytest.approx(z * z / (n + z * z), rel=1e-12)

    def test_monotone_by_construction(self, geom, channel):
        curve = empirical_coverage(BPP(10), geom, channel, np.arange(-10, 11.0), 20_000, seed=13)
        assert np.all(np.diff(curve.coverage) <= 0.0)

    @pytest.mark.parametrize("spatial", [BPP(10), FiniteHPPP(0.0005)])
    def test_streamed_curve_equals_curve_of_all_sirs(self, geom, channel, spatial, set_cpus):
        # per-batch threshold counts must give the curve of the pooled SIRs
        # bit for bit; lam|L| = 0.5 leaves ~61% of HPPP trials empty
        set_cpus(2)
        thetas = np.arange(-10.0, 11.0, 2.5)
        kwargs = dict(seed=30, batch_size=3000)
        streamed = empirical_coverage(spatial, geom, channel, thetas, 20_000, **kwargs)
        sirs, _ = simulate_sir(spatial, geom, channel, 20_000, **kwargs)
        pooled = coverage_from_sirs(sirs, thetas)
        assert streamed.n_trials == pooled.n_trials == len(sirs)
        assert np.array_equal(streamed.coverage, pooled.coverage)
        assert np.array_equal(streamed.stderr, pooled.stderr)
        assert np.array_equal(
            pooled.coverage, [np.mean(sirs > th) for th in db_to_linear(thetas)]
        )

    @pytest.mark.parametrize("spatial", [BPP(10), FiniteHPPP(0.0005)])
    def test_streamed_histogram_equals_histogram_of_all_sirs(self, geom, channel, spatial, set_cpus):
        # per-piece histogram counts must pool to the histogram of the run's
        # SIRs; the HPPP batches hold empty and single-UAV (SIR = inf) trials
        set_cpus(2)
        thetas, hist_db = np.arange(-10.0, 11.0, 2.5), np.arange(-40.0, 40.5, 0.5)
        no_sirs = SirTally.of(np.empty(0), thetas, hist_db)
        tally, excluded = _simulate(
            spatial, geom, channel, channel.m, 20_000, 30, MAX_POWER, 3000, no_sirs
        )
        sirs, _ = simulate_sir(spatial, geom, channel, 20_000, seed=30, batch_size=3000)
        assert tally.n == len(sirs) == 20_000 - excluded
        finite = sirs[np.isfinite(sirs)]
        assert np.array_equal(tally.hist, np.histogram(10.0 * np.log10(finite), bins=hist_db)[0])
        assert tally.hist.sum() > 0
        assert np.array_equal(tally.above, [np.sum(sirs > th) for th in db_to_linear(thetas)])

    def test_min_distance_underestimates_coverage(self, geom, channel):
        mp, md = policy_pair(BPP(10), geom, channel, 200_000, seed=14)
        for th_db in (-10.0, -3.0, 0.0, 5.0):
            th = 10 ** (th_db / 10)
            assert (mp > th).mean() >= (md > th).mean()

    def test_max_power_serving_dominates_per_realization(self, geom, channel):
        _, powers, d2 = _draw_batch(BPP(10), geom, channel, 200, _substream(15, 0), keep_d2=True)
        # a BPP batch is one dense block in trial order
        powers, d2 = powers.reshape(200, 10), d2.reshape(200, 10)
        rng = _substream(15, 0)
        pos, _ = _draw_positions(BPP(10), geom, rng, 200)
        assert np.array_equal(d2, (pos * pos + 100.0**2).reshape(200, 10))
        rows = np.arange(200)
        i_mp = np.argmax(powers, axis=1)
        i_md = np.argmin(d2, axis=1)
        assert np.all(powers[rows, i_mp] >= powers[rows, i_md])

    def test_deterministic_rerun(self, geom, channel):
        a, _ = simulate_sir(BPP(10), geom, channel, 30_000, seed=16)
        b, _ = simulate_sir(BPP(10), geom, channel, 30_000, seed=16)
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_results(self, geom, channel, set_cpus):
        set_cpus(1)
        a, _ = simulate_sir(FiniteHPPP(0.01), geom, channel, 70_000, seed=17, batch_size=2**14)
        set_cpus(2)
        b, _ = simulate_sir(FiniteHPPP(0.01), geom, channel, 70_000, seed=17, batch_size=2**14)
        assert np.array_equal(a, b)

    def test_hppp_exclusions_counted(self, geom, channel):
        # lam|L| = 0.5: ~61% of realizations are empty and must be excluded
        sirs, excluded = simulate_sir(FiniteHPPP(0.00025), geom, channel, 50_000, seed=18)
        assert excluded == pytest.approx(50_000 * math.exp(-0.25), rel=0.05)
        assert len(sirs) == 50_000 - excluded


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["simulate_sir", "empirical_coverage", "coverage_from_sirs",
                                   "coverage_from_tally", "trace_replay"])
def test_non_finite_threshold_rejected(geom, channel, entry, threshold):
    # a nan threshold once raised GridMismatchError, and +inf gave coverage 0
    thetas = [0.0, threshold]
    calls = {
        "simulate_sir": lambda: simulate_sir(BPP(10), geom, channel, 100, seed=1, theta_db=thetas),
        "empirical_coverage": lambda: empirical_coverage(BPP(10), geom, channel, thetas, 100, seed=1),
        "coverage_from_sirs": lambda: coverage_from_sirs(np.ones(5), thetas),
        "coverage_from_tally": lambda: coverage_from_sirs(SirTally.of(np.ones(5), [0.0]), thetas),
        "trace_replay": lambda: trace_replay(
            synthesize_trace(geom, channel, spacing=1.0, seed=2), BPP(10), geom, 100, thetas, seed=1
        ),
    }
    with pytest.raises(ParameterError, match="finite"):
        calls[entry]()


class TestVariableHeight:
    def test_uniform_close_to_fixed(self, channel):
        gap = fixed_vs_variable_gap(
            BPP(10), 200.0, 200.0, UniformHeight(160.0, 240.0), channel,
            np.arange(-10, 11.0), 30_000, seed=19,
        )
        assert gap <= 0.02

    def test_degenerate_normal_matches_fixed(self, channel):
        gap = fixed_vs_variable_gap(
            BPP(10), 200.0, 200.0, NormalHeight(200.0, 1e-6), channel,
            np.arange(-10, 11.0), 30_000, seed=20,
        )
        # the runs share every draw but the heights
        assert gap <= 3.5 * math.sqrt(0.25 / 30_000) * 2

    @pytest.mark.parametrize("spatial", [BPP(10), FiniteHPPP(0.01)])
    def test_near_fixed_uniform_height_matches_fixed_trial_by_trial(self, channel, spatial):
        # heights come from their own stream, so the runs share positions,
        # shadowing and fading, and heights within 1e-6 m move each SIR by
        # well under 1e-6
        runs = [
            simulate_sir(spatial, CorridorGeometry(500.0, height), channel, 3000, seed=31,
                         batch_size=1024)
            for height in (FixedHeight(100.0), UniformHeight(100.0 - 1e-6, 100.0 + 1e-6))
        ]
        (fixed, excluded), (variable, excluded_var) = runs
        assert excluded == excluded_var
        assert np.allclose(variable, fixed, rtol=1e-6, atol=0.0)

    def test_height_fitting(self):
        rng = np.random.default_rng(21)
        data = rng.normal(200.0, 15.0, 10**5)
        mu, sigma = fit_normal_height(data)
        assert 199.0 <= mu <= 201.0
        assert 14.0 <= sigma <= 16.0
        lo, hi = fit_uniform_height(rng.uniform(160.0, 240.0, 10**5))
        assert lo == pytest.approx(160.0, abs=2.0)
        assert hi == pytest.approx(240.0, abs=2.0)

    def test_kl_prefers_matching_model(self, channel):
        rng = np.random.default_rng(22)
        data = rng.normal(200.0, 15.0, 50_000)
        res = height_model_kl_study(BPP(10), 200.0, data, channel, [0.0], 50_000, seed=23)
        assert res.kl_normal < res.kl_uniform
        assert res.mu == pytest.approx(200.0, abs=1.0)

    @pytest.mark.parametrize(
        "data", [[-50.0, 100.0, 120.0], [math.nan, 100.0, 120.0], [100.0, math.inf], [100.0], []]
    )
    def test_kl_study_rejects_bad_heights(self, channel, data):
        # a negative height once gave KL values, and a nan one or a single
        # height a histogram error that did not name the heights
        with pytest.raises(ParameterError, match="data_heights"):
            height_model_kl_study(BPP(10), 200.0, data, channel, [0.0], 1000, seed=1)

    def test_kl_prefers_uniform_for_uniform_data(self, channel):
        rng = np.random.default_rng(23)
        data = rng.uniform(160.0, 240.0, 50_000)
        res = height_model_kl_study(BPP(10), 200.0, data, channel, [0.0], 50_000, seed=24)
        assert res.kl_uniform < res.kl_normal

    @pytest.mark.parametrize("spatial", [BPP(10), FiniteHPPP(0.025)], ids=["bpp", "hppp"])
    def test_uniform_curve_is_empirical_coverage(self, channel, spatial):
        # the study's map lo + (hi - lo) u draws UniformHeight(lo, hi)'s heights
        # bit for bit, so its uniform run is the plain simulator's
        data = np.random.default_rng(25).normal(200.0, 15.0, 2000)
        theta_db = [-3.0, 0.0, 3.0]
        res = height_model_kl_study(
            spatial, 200.0, data, channel, theta_db, 5000, seed=26, batch_size=2048
        )
        geom = CorridorGeometry(200.0, UniformHeight(res.uniform_low, res.uniform_high))
        direct = empirical_coverage(spatial, geom, channel, theta_db, 5000, seed=26, batch_size=2048)
        assert np.array_equal(res.uniform_coverage.coverage, direct.coverage)
        assert np.array_equal(res.uniform_coverage.stderr, direct.stderr)
        assert res.uniform_coverage.n_trials == direct.n_trials


@pytest.mark.parametrize("n", [2, 3, 5000])
def test_grid_quantile_is_np_interp_bit_for_bit(n):
    # the KL study's data quantile finds each bracket arithmetically; it
    # must return exactly what np.interp returns, at and between grid points
    rng = np.random.default_rng(40)
    data = np.sort(rng.normal(100.0, 20.0, n))
    xp = np.linspace(0.0, 1.0, n)
    u = np.concatenate([
        rng.uniform(0.0, 1.0, 200_000), [0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0],
        xp, np.nextafter(xp[1:], 0.0), np.nextafter(xp[:-1], 1.0),
    ])
    got, want = _grid_quantile(data)(u), np.interp(u, xp, data)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestKlDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(24)
        edges = np.linspace(-5, 5, 41)
        p = EmpiricalDistribution.from_samples(rng.normal(0, 1, 10_000), edges)
        assert kl_divergence(p, p) == 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(25)
        edges = np.linspace(0.0, 1.0, 21)
        for _ in range(100):
            p = EmpiricalDistribution.from_samples(rng.beta(2, 3, 2000), edges)
            q = EmpiricalDistribution.from_samples(rng.beta(rng.uniform(1, 4), 2, 2000), edges)
            assert kl_divergence(p, q) >= 0.0

    def test_mismatched_grids_rejected(self):
        rng = np.random.default_rng(26)
        p = EmpiricalDistribution.from_samples(rng.normal(0, 1, 1000), np.linspace(-4, 4, 17))
        q = EmpiricalDistribution.from_samples(rng.normal(0, 1, 1000), np.linspace(-4, 4, 33))
        with pytest.raises(GridMismatchError):
            kl_divergence(p, q)

    def test_density_normalization(self):
        rng = np.random.default_rng(27)
        edges = np.linspace(-3, 3, 25)
        p = EmpiricalDistribution.from_samples(rng.normal(0, 1, 5000), edges)
        assert np.sum(p.density * np.diff(edges)) == pytest.approx(1.0, rel=1e-12)
        assert np.all(p.density >= 0.0)


class TestBatchRunner:
    @pytest.mark.parametrize("trials, batch_size", [(0, 1000), (100, 0), (100, -5)])
    @pytest.mark.parametrize(
        "entry",
        ["simulate_sir", "sir_min_distance", "height_model_kl_study", "trace_replay"],
    )
    def test_trials_and_batch_size_validated(self, geom, channel, entry, trials, batch_size):
        small = CorridorGeometry(200.0, FixedHeight(200.0))
        calls = {
            "simulate_sir": lambda: simulate_sir(
                BPP(10), geom, channel, trials, seed=1, batch_size=batch_size
            ),
            "sir_min_distance": lambda: simulate_sir(
                BPP(10), geom, channel, trials, seed=1, policy=MIN_DISTANCE,
                batch_size=batch_size,
            ),
            "height_model_kl_study": lambda: height_model_kl_study(
                BPP(10), 200.0, np.linspace(180.0, 220.0, 50), channel, [0.0], trials, seed=1,
                batch_size=batch_size,
            ),
            "trace_replay": lambda: trace_replay(
                synthesize_trace(small, channel, spacing=0.5, seed=1), BPP(10), small, trials,
                [0.0], seed=1, batch_size=batch_size,
            ),
        }
        name = "trials" if trials < 1 else "batch_size"
        with pytest.raises(ParameterError, match=f"{name} must be >= 1"):
            calls[entry]()


class TestSeeds:
    @staticmethod
    def calls(geom, channel, seed):
        small = CorridorGeometry(200.0, FixedHeight(200.0))
        trace = synthesize_trace(small, channel, spacing=0.5, seed=1)
        return {
            "simulate_sir": lambda: simulate_sir(BPP(10), geom, channel, 100, seed=seed),
            "sir_min_distance": lambda: simulate_sir(
                BPP(10), geom, channel, 100, seed=seed, policy=MIN_DISTANCE
            ),
            "height_model_kl_study": lambda: height_model_kl_study(
                BPP(10), 200.0, np.linspace(180.0, 220.0, 50), channel, [0.0], 100, seed=seed
            ),
            "trace_replay": lambda: trace_replay(trace, BPP(10), small, 100, [0.0], seed=seed),
            "synthesize_trace": lambda: synthesize_trace(small, channel, spacing=0.5, seed=seed),
            "sample_heights": lambda: sample_heights(UniformHeight(80.0, 120.0), 10, seed),
        }

    @pytest.mark.parametrize(
        "entry",
        ["simulate_sir", "sir_min_distance", "height_model_kl_study", "trace_replay",
         "synthesize_trace", "sample_heights"],
    )
    def test_negative_seed_rejected(self, geom, channel, entry):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            self.calls(geom, channel, -1)[entry]()

    # the counts and the seed are integers: a bool or a float is rejected by
    # name, where True would run 1 trial and 1000.0 fail inside numpy
    @pytest.mark.parametrize(
        "entry, argument",
        [("simulate_sir", a) for a in ("trials", "batch_size", "seed")]
        + [("empirical_coverage", a) for a in ("trials", "batch_size", "seed")]
        + [("trace_replay", a) for a in ("trials", "batch_size", "seed")]
        + [("sample_heights", "seed"), ("synthesize_trace", "seed")],
    )
    @pytest.mark.parametrize("bad", ["bool", "float"])
    def test_counts_and_seed_must_be_integers(self, geom, channel, entry, argument, bad):
        small = CorridorGeometry(200.0, FixedHeight(200.0))
        trace = synthesize_trace(small, channel, spacing=0.5, seed=1)
        kw = {"trials": 100, "batch_size": 64, "seed": 1}
        kw[argument] = True if bad == "bool" else {"trials": 1000.0, "batch_size": 256.5,
                                                   "seed": 1.5}[argument]
        calls = {
            "simulate_sir": lambda: simulate_sir(BPP(10), geom, channel, **kw),
            "empirical_coverage": lambda: empirical_coverage(BPP(10), geom, channel, [0.0], **kw),
            "trace_replay": lambda: trace_replay(trace, BPP(10), small, theta_db=[0.0], **kw),
            "sample_heights": lambda: sample_heights(UniformHeight(80.0, 120.0), 10, kw["seed"]),
            "synthesize_trace": lambda: synthesize_trace(small, channel, 0.5, kw["seed"]),
        }
        with pytest.raises(ParameterError, match=f"^{argument} must be an integer, got "):
            calls[entry]()

    # these once raised numpy's TypeError (True, 2.5) or ValueError (-1)
    @pytest.mark.parametrize("count, message", [
        (True, r"^count must be an integer, got True$"),
        (2.5, r"^count must be an integer, got 2\.5$"),
        (-1, r"^count must be >= 0$"),
    ])
    def test_height_count_is_checked(self, count, message):
        with pytest.raises(ParameterError, match=message):
            sample_heights(UniformHeight(80.0, 120.0), count, 1)
        assert sample_heights(UniformHeight(80.0, 120.0), 0, 1).shape == (0,)

    def test_numpy_integer_counts_give_the_same_stream(self, geom, channel):
        a, _ = simulate_sir(BPP(10), geom, channel, 300, seed=5, batch_size=128)
        b, _ = simulate_sir(BPP(10), geom, channel, np.int64(300), seed=np.uint64(5),
                            batch_size=np.int32(128))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 2**200])
    def test_seeds_of_64_bits_and_more_work(self, geom, channel, seed):
        for call in self.calls(geom, channel, seed).values():
            call()
        a, _ = simulate_sir(BPP(10), geom, channel, 100, seed=seed)
        b, _ = simulate_sir(BPP(10), geom, channel, 100, seed=seed)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_substreams_are_distinct(self):
        words = [
            _substream(s, b).bit_generator.random_raw(4)
            for s in (0, 1, 2, 2**64)
            for b in range(64)
        ]
        assert len(set(np.concatenate(words).tolist())) == 4 * 64 * 4

    @pytest.mark.parametrize("seed", [0, 8, 2**64])
    def test_height_data_stream_is_apart_from_the_batches(self, seed):
        class RawWords:
            """A height model whose samples are the stream's raw words."""

            def sample(self, rng, size):
                return rng.bit_generator.random_raw(size)

        # the helper returns floats, so the batches' words are compared as floats
        data = set(sample_heights(RawWords(), 4, seed).tolist())
        assert len(data) == 4
        for b in range(64):
            words = _substream(seed, b).bit_generator.random_raw(4).astype(float)
            assert data.isdisjoint(words.tolist())


class TestCpuCount:
    @pytest.mark.parametrize(
        "trials, cpus, threads", [(100, 4, []), (400, 1, []), (300, 2, [2]), (500, 8, [5])]
    )
    def test_threads_are_min_of_batches_and_cpus(self, set_cpus, thread_pools, trials, cpus, threads):
        set_cpus(cpus)
        sizes, kept = _map_batches("test", lambda rng, size: (size, size), trials, 100, seed=1)
        assert sizes == [100] * (trials // 100) and kept == trials
        assert thread_pools == threads

    def test_replay_and_kl_study_do_not_depend_on_cpus(self, channel, set_cpus):
        data = np.random.default_rng(8).normal(200.0, 15.0, 2000)
        geom = CorridorGeometry(200.0, FixedHeight(200.0))
        trace = synthesize_trace(geom, channel, spacing=0.05, seed=9)
        results = []
        for cpus in (1, 4):
            set_cpus(cpus)
            kl = height_model_kl_study(
                FiniteHPPP(0.025), 200.0, data, channel, [-3.0, 0.0, 3.0], 20_000, seed=10,
                batch_size=4096,
            )
            out = [kl.kl_normal, kl.kl_uniform]
            for m in (1.0, None):
                res = trace_replay(
                    trace, FiniteHPPP(0.025), geom, 20_000, [-3.0, 0.0, 3.0], seed=11,
                    m=m, batch_size=4096,
                )
                out += [res.coverage.coverage, res.coverage.stderr, res.sir.density,
                        res.coverage.n_trials]
            results.append(out)
        for a, b in zip(*results):
            assert np.array_equal(a, b)


class TestPieceSize:
    """Results do not depend on `_PIECE_UAVS`.  At a mean of 5 UAVs per HPPP
    trial, 7 UAVs per piece cut the count blocks between single trials and
    leave every trial of more than 7 UAVs a piece of its own; 100 cut the
    blocks mid-way.  The batches hold empty and single-UAV trials."""

    @staticmethod
    def outputs(geom, channel):
        small = CorridorGeometry(200.0, FixedHeight(200.0))
        trace = synthesize_trace(small, channel, spacing=0.05, seed=41)
        data = np.random.default_rng(42).normal(200.0, 15.0, 2000)
        out = []
        for spatial in (BPP(10), FiniteHPPP(0.005)):
            for policy in (MAX_POWER, MIN_DISTANCE):
                for theta_db in (None, [-3.0, 0.0, 3.0]):
                    sirs, excluded = simulate_sir(
                        spatial, geom, channel, 3000, seed=43, policy=policy, batch_size=1024,
                        theta_db=theta_db,
                    )
                    out += [sirs if theta_db is None else sirs.above, len(sirs), excluded]
        kl = height_model_kl_study(
            FiniteHPPP(0.0125), 200.0, data, channel, [-3.0, 0.0, 3.0], 3000, seed=45,
            batch_size=1024,
        )
        out += [kl.kl_normal, kl.kl_uniform]
        for m in (1.0, None):
            for policy in (MAX_POWER, MIN_DISTANCE):
                res = trace_replay(
                    trace, FiniteHPPP(0.0125), small, 3000, [-3.0, 0.0, 3.0], seed=46,
                    policy=policy, m=m, batch_size=1024,
                )
                out += [res.coverage.coverage, res.sir.density, res.coverage.n_trials]
        return out

    def test_batches_hold_every_kind_of_piece(self, geom):
        _, layout = _draw_positions(
            FiniteHPPP(0.005), geom, _substream(43, 0), 1024, _poisson_pmf(5.0)
        )
        n_trials = layout.n_trials
        assert n_trials[0] > 0 and n_trials[1] > 0 and n_trials[8:].sum() > 0

    def test_outputs_do_not_depend_on_piece_size(self, monkeypatch, geom, channel):
        default = self.outputs(geom, channel)
        for piece_uavs in (7, 100):
            monkeypatch.setattr(simulator, "_PIECE_UAVS", piece_uavs)
            for a, b in zip(default, self.outputs(geom, channel), strict=True):
                assert np.array_equal(a, b)


def _stream_state(rng):
    """The bit generator's state, its arrays turned into lists, so that two
    states compare with ==."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 2.5, 3.0, 1e7])
def test_numpy_piecewise_standard_gamma_equals_one_gamma_call(shape):
    # the engine draws shadowing and fading piece by piece into a buffer; this
    # is bit-identical to the whole-batch rng.gamma call only while numpy's
    # gamma(s, scale) is scale * standard_gamma(s), one value after another
    scale = 1.0 / shape
    whole = _substream(47, 3)
    expected = whole.gamma(shape, scale, 1000)
    rng = _substream(47, 3)
    buf = np.empty(300)
    parts = []
    for n in (300, 7, 1, 292, 300, 100):
        rng.standard_gamma(shape, out=buf[:n])
        parts.append(buf[:n] * scale)
    assert np.array_equal(np.concatenate(parts), expected)
    assert _stream_state(rng) == _stream_state(whole)


class _Extreme:
    """A stand-in generator whose uniforms are all `u`."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u
        return out


class TestSampleGamma:
    SHAPES_FALLBACK = (0.5, 1.0, 2.5, 5.0, 1e7)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_integer_shapes_follow_the_gamma_law(self, k):
        scale, n = 0.7, 10**6
        x = sample_gamma(_substream(48, 0), k, scale, np.empty(n))
        assert ks_statistic(x, stats.gamma(k, scale=scale).cdf) < 1.63 / 1000.0
        mean, var = k * scale, k * scale**2
        assert abs(x.mean() - mean) < 4.0 * math.sqrt(var / n)
        # Var(sample variance) = var^2 (2 + excess kurtosis 6/k) / n
        assert abs(x.var() - var) < 4.0 * var * math.sqrt((2.0 + 6.0 / k) / n)

    @pytest.mark.parametrize("shape", [2, 3.0, 4, 1.0, 2.5])
    def test_pieces_equal_one_call(self, monkeypatch, shape):
        # pieces of any size, across blocks of uniforms, give the values of
        # one call and leave the stream where it would
        whole = _substream(49, 2)
        expected = sample_gamma(whole, shape, 0.25, np.empty(1000))
        monkeypatch.setattr(core, "_ERLANG_BLOCK", 128)
        rng = _substream(49, 2)
        parts = [sample_gamma(rng, shape, 0.25, np.empty(n)) for n in (300, 7, 1, 292, 400)]
        assert np.array_equal(np.concatenate(parts), expected)
        assert _stream_state(rng) == _stream_state(whole)

    @pytest.mark.parametrize("shape", SHAPES_FALLBACK)
    def test_other_shapes_draw_numpys_gamma(self, shape):
        got = sample_gamma(_substream(50, 1), shape, 1.0 / shape, np.empty(1000))
        assert np.array_equal(got, _substream(50, 1).gamma(shape, 1.0 / shape, 1000))

    @pytest.mark.parametrize("shape", (2, 3, 4) + SHAPES_FALLBACK)
    def test_draws_are_finite_and_not_negative(self, shape):
        x = sample_gamma(_substream(51, 0), shape, 2.0, np.empty(10**5))
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_extreme_uniforms_give_finite_draws(self, k):
        # U = 0 gives the factor 1, the largest U below 1 gives 2**-53
        assert np.all(sample_gamma(_Extreme(0.0), k, 1.0, np.empty(5)) == 0.0)
        top = sample_gamma(_Extreme(1.0 - 2.0**-53), k, 1.0, np.empty(5))
        assert np.allclose(top, 53 * k * math.log(2.0), rtol=1e-15)


class TestPinnedStreams:
    """Values the engine produces on its SFC64 batch substreams (see
    `_substream`), pinned when integer Gamma shapes from 2 to 4 moved to
    `sample_gamma`'s draw from uniforms and non-fixed heights to each
    batch's height stream; the finite-HPPP values were pinned again when
    each batch's UAV counts became one multinomial draw.

    The determinism tests compare two runs of the same code; these catch a
    change of draw order within a batch, of the batch layout or of the
    substreams.
    """

    @pytest.mark.parametrize(
        "spatial, height, policy, n_sirs, excluded, pinned",
        [
            (BPP(10), FixedHeight(100.0), MAX_POWER, 3000, 0,
             [1.2166104652355039, 1.2054685739284425, 2.9087395919772825, 0.4564436665132074]),
            (BPP(10), UniformHeight(80.0, 120.0), MAX_POWER, 3000, 0,
             [0.8712612870119855, 0.7217296330380203, 2.68822654601186, 0.7861215992945807]),
            (FiniteHPPP(0.01), FixedHeight(100.0), MAX_POWER, 2999, 1,
             [9.845580722996504, 0.3147047367837182, 9.482132086943984, 0.6050605748622313]),
            (FiniteHPPP(0.002), FixedHeight(100.0), MIN_DISTANCE, 2593, 407,
             [5.55939221992415, math.inf, math.inf, 0.8149376123447746]),
            (Disc2D(10, 500.0), FixedHeight(100.0), MAX_POWER, 3000, 0,
             [0.5542248066907278, 0.4832045112268625, 0.20701387540853827, 0.10288888202341347]),
        ],
    )
    def test_simulate_sir(self, channel, spatial, height, policy, n_sirs, excluded, pinned):
        geom = CorridorGeometry(500.0, height)
        sirs, n_excluded = simulate_sir(
            spatial, geom, channel, 3000, seed=2024, policy=policy, batch_size=1024
        )
        assert (len(sirs), n_excluded) == (n_sirs, excluded)
        assert sirs[[0, 1, 1500, -1]] == pytest.approx(pinned, rel=1e-12)

    def test_paired_disagreement(self, geom, channel):
        mp, md = policy_pair(BPP(10), geom, channel, 5000, seed=2025, batch_size=2048)
        assert np.mean(mp != md) == pytest.approx(2698 / 5000, rel=1e-12)

    def test_kl_study(self, channel):
        data = np.random.default_rng(7).normal(200.0, 15.0, 5000)
        res = height_model_kl_study(
            FiniteHPPP(0.025), 200.0, data, channel, [-3.0, 0.0, 3.0], 20_000, seed=2026,
            batch_size=8192,
        )
        assert res.kl_normal == pytest.approx(1.762326809554032e-05, rel=1e-12)
        assert res.kl_uniform == pytest.approx(0.0003939852803642533, rel=1e-12)

    # m = 1 redraws the fading, m = None replays the recorded powers; the ids
    # name the fading modes these streams were pinned under
    @pytest.mark.parametrize(
        "m, pinned",
        [(1.0, [0.353, 0.1742, 0.0672]), (None, [0.3294, 0.0976, 0.0272])],
        ids=["redraw-pinned0", "fromtrace-pinned1"],
    )
    def test_trace_replay(self, channel, m, pinned):
        geom = CorridorGeometry(200.0, FixedHeight(200.0))
        trace = synthesize_trace(geom, channel, spacing=0.05, seed=2027)
        res = trace_replay(
            trace, BPP(10), geom, 5000, [-3.0, 0.0, 3.0], seed=2028, m=m, batch_size=2048,
        )
        assert res.coverage.coverage == pytest.approx(pinned, rel=1e-12)


class TestLayout:
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_blocks_hold_the_trials_of_each_count(self, monkeypatch, shuffled):
        # 3 empty trials, 2 of one UAV, 4 of three and 1 of four: 18 UAVs.
        # Pieces of at most 6 UAVs cut the three-UAV block in two and leave
        # the four-UAV trial a piece of its own
        monkeypatch.setattr(simulator, "_PIECE_UAVS", 6)
        layout = _Layout(np.array([3, 2, 0, 4, 1]), shuffled)
        assert (layout.kept, layout.n_uavs) == (7, 18)
        flat = np.arange(18.0)
        views = [view for view, scratch in layout.pieces(flat)]
        assert [view.shape for view in views] == [(2, 1), (2, 3), (2, 3), (1, 4)]
        assert np.array_equal(np.concatenate([view.ravel() for view in views]), flat)
        # one value per non-empty trial: the layout's order, or the order
        # stream's permutation of it
        values = [view[:, 0] for view in views]
        rng = _substream(55, 0)
        order = _child(rng, 1).permutation(7) if shuffled else np.arange(7)
        assert np.array_equal(layout.ordered(values, rng), np.concatenate(values)[order])


class TestCountSampler:
    """A finite-HPPP batch draws its per-count trial numbers as one
    multinomial over the Poisson pmf (`_poisson_pmf`)."""

    @pytest.mark.parametrize("mu", [1e-6, 0.5, 2.0, 10.0, 300.0, 1e4])
    def test_pmf_is_poisson_up_to_the_tail_underflow(self, mu):
        pmf = _poisson_pmf(mu)
        k = np.arange(pmf.size)
        K = pmf.size - 1
        assert stats.poisson.sf(K, mu) == 0.0 < stats.poisson.sf(K - 1, mu)
        exact = stats.poisson.pmf(k, mu)
        assert np.all(pmf >= 0.0) and abs(pmf.sum() - 1.0) < 1e-14
        normal = exact > 1e-300
        np.testing.assert_allclose(pmf[normal], exact[normal], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("mu", [2.0, 10.0, 300.0])
    def test_count_histogram_is_poisson(self, geom, mu):
        # chi-square over 50 batches of 2000 trials; cells below the 0.1%
        # quantile and above the 99.9% one are pooled
        spatial, batches, size = FiniteHPPP(mu / geom.length), 50, 2000
        pmf = _poisson_pmf(mu)
        observed = sum(
            _draw_positions(spatial, geom, _substream(54, b), size, pmf)[1].n_trials
            for b in range(batches)
        )
        lo, hi = (int(x) for x in stats.poisson.ppf([1e-3, 1 - 1e-3], mu))
        inner = np.arange(lo + 1, hi)
        cells = np.concatenate([[observed[: lo + 1].sum()], observed[inner], [observed[hi:].sum()]])
        expected = batches * size * np.concatenate(
            [[stats.poisson.cdf(lo, mu)], stats.poisson.pmf(inner, mu), [stats.poisson.sf(hi - 1, mu)]]
        )
        assert expected.min() >= 5.0
        assert stats.chisquare(cells, expected * cells.sum() / expected.sum()).pvalue > 1e-3

    def test_hppp_reruns_and_both_paths_agree(self, geom, channel, set_cpus):
        # bit-identical at 1 and 2 CPUs, and the tally path sees the
        # realizations whose SIRs the samples path returns
        thetas = np.arange(-10.0, 11.0, 2.5)
        kwargs = dict(seed=53, batch_size=4096)
        runs = []
        for cpus in (1, 2):
            set_cpus(cpus)
            sirs, excluded = simulate_sir(FiniteHPPP(0.005), geom, channel, 20_000, **kwargs)
            tally, tally_excluded = simulate_sir(
                FiniteHPPP(0.005), geom, channel, 20_000, theta_db=thetas, **kwargs
            )
            runs.append([sirs, excluded, tally.above, tally.n, tally_excluded])
        for a, b in zip(*runs, strict=True):
            assert np.array_equal(a, b)
        sirs, excluded, _, _, tally_excluded = runs[0]
        assert excluded == tally_excluded > 0
        streamed = coverage_from_sirs(tally, thetas)
        pooled = coverage_from_sirs(sirs, thetas)
        assert np.array_equal(streamed.coverage, pooled.coverage)
        assert np.array_equal(streamed.stderr, pooled.stderr)

    def test_returned_sirs_follow_the_order_stream(self, geom, channel):
        # each batch's non-empty trials come back permuted by its order
        # stream (spawn key (b, 1)), not in count order
        spatial, seed, size = FiniteHPPP(0.005), 52, 2048
        sirs, _ = simulate_sir(spatial, geom, channel, 3 * size, seed=seed, batch_size=size)
        pmf = _poisson_pmf(spatial.mean_count(geom))
        expected = []
        for b in range(3):
            rng = _substream(seed, b)
            layout, powers, _ = _draw_batch(spatial, geom, channel, size, rng, False, pmf)
            parts = []
            for p, scratch in layout.pieces(powers):
                faded = sample_gamma(rng, channel.m, 1.0 / channel.m, scratch) * p
                parts.append(_combine_sir(faded, _serving(MAX_POWER, p, None)))
            perm = _child(_substream(seed, b), 1).permutation(layout.kept)
            expected.append(np.concatenate(parts)[perm])
            counts = np.repeat(np.arange(layout.n_trials.size), layout.n_trials)[size - layout.kept :]
            assert np.any(np.diff(counts[perm]) < 0)
        assert np.array_equal(sirs, np.concatenate(expected))
