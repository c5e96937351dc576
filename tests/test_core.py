import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import stats

from corridor_cov import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    Disc2D,
    FiniteHPPP,
    FixedHeight,
    InverseGammaShadowing,
    LinkDistanceDistribution,
    NakagamiFadingPower,
    NormalHeight,
    ParameterError,
    QuadratureConfig,
    UniformHeight,
    db_to_linear,
    empirical_coverage,
    integrate,
    linear_to_db,
    link_distance_cdf,
    path_loss,
    pathloss_value_cdf,
    pathloss_value_pdf,
)
from conftest import ks_statistic

H, R, ALPHA = 100.0, 500.0, 2.2
KS_BOUND_1M = 0.005  # acceptance bound for 1e6-sample KS checks


class TestPathLoss:
    def test_unit_distance(self):
        assert path_loss(1.0, ChannelParams(alpha=2.2, q=2.0)) == 1.0

    def test_closed_form(self):
        assert path_loss(100.0, ChannelParams(alpha=2.2, q=2.0)) == pytest.approx(
            10.0**-4.4, rel=1e-12
        )

    def test_nonpositive_distance_rejected(self):
        ch = ChannelParams(alpha=2.2, q=2.0)
        with pytest.raises(ParameterError):
            path_loss(0.0, ch)
        with pytest.raises(ParameterError):
            path_loss(np.array([1.0, -2.0]), ch)

    @given(
        st.floats(min_value=0.1, max_value=1e6),
        st.floats(min_value=1.001, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_positive(self, d, factor):
        ch = ChannelParams(alpha=2.2, q=2.0)
        assert path_loss(d, ch) > path_loss(d * factor, ch) > 0.0


class TestLinkDistance:
    def test_cdf_closed_form_value(self):
        assert link_distance_cdf(300.0, H, R) == pytest.approx(math.sqrt(80000) / 500, rel=1e-12)

    def test_cdf_support_edges(self):
        assert link_distance_cdf(math.hypot(H, R), H, R) == 1.0
        assert link_distance_cdf(H, H, R) == 0.0
        assert link_distance_cdf(H - 1, H, R) == 0.0
        assert link_distance_cdf(1e9, H, R) == 1.0

    def test_cdf_matches_closed_form_at_random_points(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(H, math.hypot(H, R), 100)
        assert np.allclose(link_distance_cdf(d, H, R), np.sqrt(d * d - H * H) / R, atol=1e-12)

    def test_sampler_ks(self):
        dist = LinkDistanceDistribution(H, R)
        rng = np.random.default_rng(2)
        samples = dist.sample(rng, 10**6)
        assert ks_statistic(samples, dist.cdf) < KS_BOUND_1M

    def test_mean_matches_sample_mean(self):
        dist = LinkDistanceDistribution(H, R)
        rng = np.random.default_rng(3)
        assert dist.sample(rng, 10**6).mean() == pytest.approx(dist.mean(), rel=1e-3)


class TestPathlossValuePdf:
    W_LO = (H * H + R * R) ** (-ALPHA / 2)
    W_HI = H ** (-ALPHA)

    def test_normalizes(self):
        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-16, max_subdivisions=4000)
        res = integrate(lambda x: pathloss_value_pdf(x, H, R, ALPHA), self.W_LO, self.W_HI, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_out_of_support_zero(self):
        assert pathloss_value_pdf(self.W_LO / 2, H, R, ALPHA) == 0.0
        assert pathloss_value_pdf(self.W_HI * 2, H, R, ALPHA) == 0.0

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("h", [50.0, 100.0, 150.0, 200.0])
    def test_finite_one_ulp_below_the_top(self, h, alpha):
        # x^(-2/alpha) - h^2 cancelled there to 0 (inf pdf, cdf 1) or below (nan)
        x = np.nextafter(h**-alpha, 0.0)
        assert 0.0 < pathloss_value_pdf(x, h, R, alpha) < math.inf
        assert 0.0 < 1.0 - pathloss_value_cdf(x, h, R, alpha) < 1e-8

    def test_endpoint_singularity_integrable(self):
        # density diverges at the upper support edge; quadrature of the last
        # slice still converges (open rules never evaluate the endpoint)
        cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-14, max_subdivisions=4000)
        lo = self.W_HI * 0.999
        res = integrate(lambda x: pathloss_value_pdf(x, H, R, ALPHA), lo, self.W_HI, cfg)
        truth = pathloss_value_cdf(self.W_HI, H, R, ALPHA) - pathloss_value_cdf(lo, H, R, ALPHA)
        assert res.value == pytest.approx(truth, rel=1e-5)

    def test_chi2_against_simulated_pathloss(self):
        rng = np.random.default_rng(4)
        d = np.hypot(rng.uniform(-R, R, 10**6), H)
        w = d**-ALPHA
        # equal-probability bins from the closed-form CDF of l(d)
        n_bins = 40
        qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        # invert 1 - sqrt(x^(-2/a) - h^2)/R = p  =>  x = (h^2 + (R(1-p))^2)^(-a/2)
        edges = (H * H + (R * (1 - qs)) ** 2) ** (-ALPHA / 2)
        edges = np.concatenate([[self.W_LO], edges, [self.W_HI]])
        counts, _ = np.histogram(w, bins=edges)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01


class TestShadowing:
    def test_mean(self):
        assert InverseGammaShadowing(2.0, 1.0).mean() == 1.0
        assert InverseGammaShadowing(5.0, 4.0).mean() == 1.0

    def test_mode(self):
        dist = InverseGammaShadowing(2.0, 1.0)
        assert dist.mode() == pytest.approx(1.0 / 3.0, rel=1e-12)
        xs = np.linspace(0.05, 2.0, 2001)
        assert xs[np.argmax(dist.pdf(xs))] == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_pdf_normalizes_and_cdf_limits(self):
        dist = InverseGammaShadowing(2.0, 1.0)
        value = sp_integrate.quad(dist.pdf, 0.0, math.inf, epsabs=1e-14, epsrel=1e-9)[0]
        assert value == pytest.approx(1.0, abs=1e-7)
        assert dist.cdf(1e12) == pytest.approx(1.0, abs=1e-9)
        assert dist.cdf(0.0) == 0.0

    def test_sampler_moments_and_median(self):
        dist = InverseGammaShadowing(2.0, 1.0)
        rng = np.random.default_rng(5)
        s = dist.sample(rng, 10**6)
        # q=2: mean exists, variance infinite -> slow but unbiased sample mean
        assert 0.99 <= s.mean() <= 1.01
        gamma_median = stats.gamma(a=2.0).median()
        assert np.median(s) == pytest.approx(1.0 / gamma_median, rel=5e-3)
        assert np.median(s) == pytest.approx(dist.median(), rel=5e-3)

    def test_sampler_pdf_consistency_ks(self):
        dist = InverseGammaShadowing(2.0, 1.0)
        rng = np.random.default_rng(6)
        s = dist.sample(rng, 10**6)
        # KS critical value at significance 0.01 for n = 1e6
        assert ks_statistic(s, dist.cdf) < 1.63 / 1000.0

    def test_ppf_inverts_cdf_on_0_to_1(self):
        dist = InverseGammaShadowing(2.0, 1.0)
        p = np.array([0.0, 1e-9, 0.5, 0.999, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = dist.ppf(p)
            assert dist.ppf(1.0) == math.inf and dist.ppf(0.0) == 0.0
        assert x[0] == 0.0 and x[-1] == math.inf
        np.testing.assert_allclose(dist.cdf(x[1:-1]), p[1:-1], rtol=1e-12)
        for bad in (-0.1, 1.5, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ParameterError, match=r"quantile level must lie in \[0, 1\]"):
                dist.ppf(bad)

    @pytest.mark.parametrize("method", ["pdf", "cdf"])
    def test_nan_argument_raises(self, method):
        # NaN once read as a density and a probability of 0
        accessor = getattr(InverseGammaShadowing(2.0, 1.0), method)
        for bad in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ParameterError, match="NaN"):
                accessor(bad)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ParameterError):
            InverseGammaShadowing(1.0, 1.0)
        with pytest.raises(ParameterError):
            InverseGammaShadowing(0.5, 1.0)
        with pytest.raises(ParameterError):
            InverseGammaShadowing(2.0, 0.0)


class TestFading:
    def test_m1_is_exponential(self):
        dist = NakagamiFadingPower(1.0)
        xs = np.linspace(0.01, 8.0, 50)
        assert np.allclose(dist.pdf(xs), np.exp(-xs), rtol=1e-12)

    def test_unit_mean_any_m(self):
        rng = np.random.default_rng(7)
        for m in (0.5, 1.0, 2.7, 6.0):
            dist = NakagamiFadingPower(m)
            assert dist.mean() == 1.0
            assert dist.sample(rng, 200_000).mean() == pytest.approx(1.0, abs=0.01)

    def test_sampler_ks_m3(self):
        dist = NakagamiFadingPower(3.0)
        rng = np.random.default_rng(8)
        assert ks_statistic(dist.sample(rng, 10**6), dist.cdf) < KS_BOUND_1M

    def test_pdf_normalizes(self):
        dist = NakagamiFadingPower(3.0)
        value = sp_integrate.quad(dist.pdf, 0.0, math.inf, epsabs=1e-14, epsrel=1e-9)[0]
        assert value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("method", ["pdf", "cdf"])
    def test_nan_argument_raises(self, method):
        # NaN once gave a density of 0 and a NaN probability
        accessor = getattr(NakagamiFadingPower(2.5), method)
        for bad in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ParameterError, match="NaN"):
                accessor(bad)

    def test_invalid_m_rejected(self):
        with pytest.raises(ParameterError):
            NakagamiFadingPower(0.0)
        with pytest.raises(ParameterError):
            ChannelParams(alpha=2.2, q=2.0, m=-1.0)


class TestTypes:
    def test_gamma_defaults_to_unit_mean(self):
        assert ChannelParams(alpha=2.2, q=2.0).gamma == 1.0
        assert ChannelParams(alpha=2.2, q=5.0).gamma == 4.0
        assert ChannelParams(alpha=2.2, q=5.0, gamma=2.0).gamma == 2.0

    def test_geometry_invariants(self):
        geom = CorridorGeometry(500.0, FixedHeight(100.0))
        assert geom.length == 1000.0
        assert geom.fixed_height == 100.0
        assert geom.max_link_distance() == pytest.approx(math.hypot(100, 500))
        with pytest.raises(ParameterError):
            CorridorGeometry(0.0, FixedHeight(100.0))
        with pytest.raises(ParameterError):
            CorridorGeometry(500.0, UniformHeight(200.0, 100.0))

    def test_variable_height_rejected_for_fixed_only_ops(self):
        geom = CorridorGeometry(500.0, UniformHeight(160.0, 240.0))
        with pytest.raises(ParameterError):
            _ = geom.fixed_height

    def test_height_samplers_respect_support(self):
        rng = np.random.default_rng(9)
        u = UniformHeight(160.0, 240.0).sample(rng, 10_000)
        assert u.min() >= 160.0 and u.max() <= 240.0
        n = NormalHeight(5.0, 10.0).sample(rng, 10_000)  # heavy truncation
        assert n.min() > 0.0

    def test_generated_distances_stay_in_support(self):
        geom = CorridorGeometry(500.0, FixedHeight(100.0))
        rng = np.random.default_rng(10)
        d = LinkDistanceDistribution(100.0, 500.0).sample(rng, 10_000)
        assert d.min() >= 100.0 and d.max() <= geom.max_link_distance() + 1e-9

    @given(st.floats(min_value=-60.0, max_value=60.0))
    @settings(max_examples=50, deadline=None)
    def test_db_round_trip(self, x_db):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-9)


# Each constructor with valid arguments, and the numeric fields to spoil.
CONSTRUCTORS = [
    (ChannelParams, dict(alpha=2.2, q=2.0, gamma=1.0, m=1.0), ["alpha", "q", "gamma", "m"]),
    (CorridorGeometry, dict(R=500.0, height_model=FixedHeight(100.0)), ["R"]),
    (FixedHeight, dict(h=100.0), ["h"]),
    (UniformHeight, dict(low=80.0, high=120.0), ["low", "high"]),
    (NormalHeight, dict(mu=100.0, sigma=10.0), ["mu", "sigma"]),
    (FiniteHPPP, dict(intensity=0.01), ["intensity"]),
    (Disc2D, dict(n=10, radius=500.0), ["radius"]),
    (NakagamiFadingPower, dict(m=1.0), ["m"]),
    (InverseGammaShadowing, dict(q=2.0, gamma=1.0), ["q", "gamma"]),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, field",
    [(cls, field) for cls, _, fields in CONSTRUCTORS for field in fields],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_constructors_reject_non_finite_values(cls, field, value):
    kwargs = dict(next(valid for c, valid, _ in CONSTRUCTORS if c is cls))
    cls(**kwargs)  # the valid arguments construct
    kwargs[field] = value
    with pytest.raises(ParameterError, match="finite"):
        cls(**kwargs)


def test_nan_fading_shape_gives_no_coverage():
    # a nan m once passed every check, and every SIR came out covered
    with pytest.raises(ParameterError):
        empirical_coverage(
            BPP(10), CorridorGeometry(500.0, FixedHeight(100.0)),
            ChannelParams(alpha=2.2, q=2, m=math.nan), [0.0], 1000, seed=1,
        )


def _positive(high):
    return st.floats(min_value=0.0, max_value=high, exclude_min=True)


@st.composite
def _uniform_height(draw):
    low = draw(_positive(1e4))
    return dict(low=low, high=low + draw(st.floats(min_value=0.0, max_value=1e4)))


_COUNTS = st.one_of(st.integers(1, 10**6), st.integers(1, 10**6).map(np.int64))
_HEIGHT_MODELS = st.one_of(
    st.builds(FixedHeight, _positive(1e4)),
    _uniform_height().map(lambda kw: UniformHeight(**kw)),
    st.builds(NormalHeight, _positive(1e4), _positive(1e4)),
)

# Per public constructor: a strategy of valid (finite, in-domain) keyword
# arguments, its numeric fields and its UAV-count fields.
DOMAINS = [
    (ChannelParams, st.fixed_dictionaries(dict(
        alpha=_positive(10.0), q=st.floats(min_value=1.0, max_value=1e3, exclude_min=True),
        gamma=st.none() | _positive(1e3), m=_positive(1e3),
    )), ["alpha", "q", "gamma", "m"], []),
    (CorridorGeometry, st.fixed_dictionaries(dict(R=_positive(1e5), height_model=_HEIGHT_MODELS)),
     ["R"], []),
    (FixedHeight, st.fixed_dictionaries(dict(h=_positive(1e4))), ["h"], []),
    (UniformHeight, _uniform_height(), ["low", "high"], []),
    (NormalHeight, st.fixed_dictionaries(dict(mu=_positive(1e4), sigma=_positive(1e4))),
     ["mu", "sigma"], []),
    (BPP, st.fixed_dictionaries(dict(n=_COUNTS)), [], ["n"]),
    (FiniteHPPP, st.fixed_dictionaries(dict(intensity=_positive(10.0))), ["intensity"], []),
    (Disc2D, st.fixed_dictionaries(dict(n=_COUNTS, radius=_positive(1e5))), ["radius"], ["n"]),
    (NakagamiFadingPower, st.fixed_dictionaries(dict(m=_positive(1e3))), ["m"], []),
    (InverseGammaShadowing, st.fixed_dictionaries(dict(
        q=st.floats(min_value=1.0, max_value=1e3, exclude_min=True), gamma=_positive(1e3),
    )), ["q", "gamma"], []),
]
_NOT_A_COUNT = st.one_of(
    st.floats(), st.booleans(), st.floats().map(np.float64), st.fractions(),
    st.sampled_from([np.True_, "10"]),
)


@pytest.mark.parametrize("cls, valid, numeric, counts", DOMAINS, ids=[d[0].__name__ for d in DOMAINS])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_constructors_hold_their_domain(cls, valid, numeric, counts, data):
    # finite in-domain values construct; a non-finite value in any numeric
    # field, or a count that is not an integer, raises ParameterError
    kwargs = data.draw(valid)
    cls(**kwargs)
    field = data.draw(st.sampled_from(numeric + counts))
    spoiled = dict(kwargs)
    if field in counts:
        spoiled[field] = data.draw(_NOT_A_COUNT)
    else:
        spoiled[field] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    with pytest.raises(ParameterError):
        cls(**spoiled)
