import math

import numpy as np
import pytest

from corridor_cov import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    FiniteHPPP,
    FixedHeight,
    MappingError,
    ParameterError,
    Trace,
    TraceFormatError,
    empirical_coverage,
    synthesize_trace,
    trace_replay,
)

THETAS = np.arange(-10.0, 11.0)


@pytest.fixture(scope="module")
def small_geom():
    return CorridorGeometry(200.0, FixedHeight(200.0))


@pytest.fixture(scope="module")
def small_trace(small_geom, channel):
    # 2 cm spacing keeps the fixture light; the acceptance suite exercises
    # the full 0.5 mm mapping accuracy
    return synthesize_trace(small_geom, channel, spacing=0.02, seed=31)


class TestTraceType:
    def test_round_trip_csv(self, tmp_path, small_trace):
        path = tmp_path / "trace.csv"
        small_trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert np.allclose(loaded.position_m, small_trace.position_m)
        assert np.allclose(loaded.rx_power_dbm, small_trace.rx_power_dbm)
        # a loaded trace's accuracy is half its largest gap
        assert loaded.mapping_accuracy_m == np.diff(loaded.position_m).max() / 2.0

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pos,h,p\n0,1,2\n")
        with pytest.raises(TraceFormatError) as err:
            Trace.from_csv(path)
        assert err.value.line_no == 1

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "position_m,height_m,rx_power_dbm\n0.0,200.0,-50.0\n0.5,oops,-51.0\n"
        )
        with pytest.raises(TraceFormatError) as err:
            Trace.from_csv(path)
        assert err.value.line_no == 3

    def test_decreasing_positions_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "position_m,height_m,rx_power_dbm\n0.0,200.0,-50.0\n-0.5,200.0,-51.0\n"
        )
        with pytest.raises(TraceFormatError):
            Trace.from_csv(path)

    def test_non_increasing_position_reports_its_line(self, tmp_path):
        # blank lines are skipped but still counted: the offending row is line 6
        path = tmp_path / "bad.csv"
        path.write_text(
            "position_m,height_m,rx_power_dbm\n0.0,200.0,-50.0\n\n\n"
            "1.0,200.0,-51.0\n0.5,200.0,-52.0\n"
        )
        with pytest.raises(TraceFormatError) as err:
            Trace.from_csv(path)
        assert err.value.line_no == 6

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_values_rejected(self, column, value):
        columns = [np.array([-0.5, 0.0, 0.5]), np.full(3, 200.0), np.full(3, -50.0)]
        columns[column][1] = value
        with pytest.raises(TraceFormatError, match="not finite"):
            Trace(*columns, mapping_accuracy_m=0.25)

    @pytest.mark.parametrize("accuracy", [np.nan, np.inf, -np.inf])
    def test_non_finite_mapping_accuracy_rejected(self, accuracy):
        # nan and inf once passed the spacing check
        columns = [np.array([-0.5, 0.0, 0.5]), np.full(3, 200.0), np.full(3, -50.0)]
        with pytest.raises(TraceFormatError, match="mapping_accuracy_m is not finite"):
            Trace(*columns, mapping_accuracy_m=accuracy)

    @pytest.mark.parametrize("row", ["nan,200.0,-51.0", "0.0,inf,-51.0", "0.0,200.0,-inf"])
    def test_non_finite_value_reports_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"position_m,height_m,rx_power_dbm\n-0.5,200.0,-50.0\n\n{row}\n")
        with pytest.raises(TraceFormatError, match="finite") as err:
            Trace.from_csv(path)
        assert err.value.line_no == 4

    def test_spacing_must_honor_accuracy(self):
        with pytest.raises(TraceFormatError):
            Trace(
                np.array([0.0, 1.0]),
                np.array([200.0, 200.0]),
                np.array([-50.0, -50.0]),
                mapping_accuracy_m=0.01,
            )

    def test_nearest_mapping_error_bounded(self, small_trace):
        rng = np.random.default_rng(32)
        queries = rng.uniform(small_trace.position_m[0], small_trace.position_m[-1], 10_000)
        idx = small_trace.nearest_index(queries)
        errors = np.abs(small_trace.position_m[idx] - queries)
        half_spacing = np.diff(small_trace.position_m).max() / 2.0
        assert errors.max() <= half_spacing * (1 + 1e-9)
        assert errors.max() <= small_trace.mapping_accuracy_m * (1 + 1e-9)

    def test_out_of_extent_position_reported(self, small_trace):
        with pytest.raises(MappingError, match="250"):
            small_trace.nearest_index(np.array([0.0, 250.0]))


class TestReplay:
    def test_constant_power_trace_gives_deterministic_sir(self, small_geom):
        n_samples = 4001
        pos = np.linspace(-200.0, 200.0, n_samples)
        trace = Trace(
            pos, np.full(n_samples, 200.0), np.full(n_samples, -50.0),
            mapping_accuracy_m=0.05,
        )
        result = trace_replay(
            trace, BPP(10), small_geom, trials=500, theta_db=[-10.0, -9.6, -9.5, -9.0],
            seed=33, m=None,
        )
        # 10 mapped UAVs with equal powers and no fading: SIR = 1/9 = -9.54 dB
        # for every trial, so coverage is a step function around that value
        assert np.allclose(result.coverage.coverage, [1.0, 1.0, 0.0, 0.0])
        assert result.coverage.n_trials == 500

    def test_replay_requires_covering_trace(self, small_trace, channel):
        big_geom = CorridorGeometry(300.0, FixedHeight(200.0))
        with pytest.raises(MappingError):
            trace_replay(small_trace, BPP(10), big_geom, 100, THETAS, seed=34)

    def test_closure_against_direct_simulation(self, small_geom, channel, small_trace):
        # a model-generated trace replayed through the mapping pipeline must
        # reproduce the plain simulator's coverage
        replay = trace_replay(
            small_trace, BPP(10), small_geom, 60_000, THETAS, seed=35, m=1.0
        )
        direct = empirical_coverage(BPP(10), small_geom, channel, THETAS, 60_000, seed=36)
        assert replay.coverage.max_gap(direct) <= 0.015

    def test_closure_hppp(self, small_geom, channel, small_trace):
        lam = 10.0 / small_geom.length
        replay = trace_replay(
            small_trace, FiniteHPPP(lam), small_geom, 60_000, THETAS, seed=37
        )
        direct = empirical_coverage(
            FiniteHPPP(lam), small_geom, channel, THETAS, 60_000, seed=38
        )
        assert replay.coverage.max_gap(direct) <= 0.015

    def test_fromtrace_mode_uses_recorded_powers(self, small_geom, channel, small_trace):
        # fromtrace replay of a clean (fading-free) trace must reproduce the
        # no-fast-fading network: direct simulation with m -> inf
        res_ft = trace_replay(small_trace, BPP(10), small_geom, 60_000, THETAS, seed=40, m=None)
        no_fading = ChannelParams(alpha=2.2, q=2.0, m=1e7)
        direct = empirical_coverage(BPP(10), small_geom, no_fading, THETAS, 60_000, seed=41)
        assert res_ft.coverage.max_gap(direct) <= 0.015
        # and it must differ visibly from the redraw mode (fading applied)
        res_rd = trace_replay(small_trace, BPP(10), small_geom, 60_000, THETAS, seed=42, m=1.0)
        assert res_ft.coverage.max_gap(res_rd.coverage) > 0.02

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
    def test_redraw_rejects_bad_fading_shape(self, small_geom, small_trace, m):
        # m = 0 once raised ZeroDivisionError, m < 0 numpy's "shape < 0", and
        # a nan or infinite m a histogram error that did not name m
        with pytest.raises(ParameterError, match="fading shape m must be positive and finite"):
            trace_replay(small_trace, BPP(10), small_geom, 2000, THETAS, seed=44, m=m)

    def test_one_uav_per_trial_has_no_sir_distribution(self, small_geom, small_trace):
        # a lone UAV has no interference: every SIR is infinite, so the
        # coverage is 1 and no SIR falls in the histogram grid (this raised
        # ParameterError)
        result = trace_replay(small_trace, BPP(1), small_geom, 2000, THETAS, seed=45)
        assert result.sir is None
        assert result.coverage.coverage.tolist() == [1.0] * THETAS.size

    def test_replay_deterministic(self, small_geom, small_trace):
        a = trace_replay(small_trace, BPP(10), small_geom, 5_000, THETAS, seed=43)
        b = trace_replay(small_trace, BPP(10), small_geom, 5_000, THETAS, seed=43)
        assert np.array_equal(a.coverage.coverage, b.coverage.coverage)
        assert np.array_equal(a.sir.density, b.sir.density)


class TestSynthesizeTrace:
    def test_spacing_and_extent(self, small_geom, channel, small_trace):
        assert small_trace.position_m[0] == -200.0
        assert small_trace.position_m[-1] == 200.0
        assert small_trace.spacing == pytest.approx(0.02, rel=1e-6)
        assert small_trace.mapping_accuracy_m == pytest.approx(0.01, rel=1e-6)

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf, 1e9, 2001.0])
    def test_spacing_must_leave_two_samples(self, channel, spacing):
        # on a 1000 m corridor these once raised ZeroDivisionError (0),
        # ValueError (-1, nan) or IndexError (inf, 1e9, 2001: one sample)
        geom = CorridorGeometry(500.0, FixedHeight(100.0))
        with pytest.raises(ParameterError, match="spacing"):
            synthesize_trace(geom, channel, spacing, seed=1)
        assert synthesize_trace(geom, channel, 1999.0, seed=1).position_m.tolist() == [-500.0, 500.0]

    def test_powers_follow_model_scale(self, small_geom, channel, small_trace):
        # median received power should sit near S_med * l(d_med)
        lin = 10 ** (small_trace.rx_power_dbm / 10)
        assert 1e-8 < np.median(lin) < 1e-3
