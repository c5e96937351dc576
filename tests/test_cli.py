import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from corridor_cov import cli, simulator
from conftest import checkout_env


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture()
def trace_csv(tmp_path, channel):
    from corridor_cov import CorridorGeometry, FixedHeight, synthesize_trace

    geom = CorridorGeometry(200.0, FixedHeight(200.0))
    trace = synthesize_trace(geom, channel, spacing=0.05, seed=51)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    return str(path)


@pytest.fixture()
def replay_config(tmp_path):
    path = tmp_path / "replay.ini"
    path.write_text(
        "[geometry]\nr = 200\nheight = 200\n\n"
        "[spatial]\nmodel = bpp\nn = 10\n\n"
        "[run]\ntrials = 5000\nseed = 7\n"
    )
    return str(path)


class TestCoverageCommand:
    def test_theta_sweep_table(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = run_cli(
            [
                "coverage", "--sweep", "theta", "--from", "-10", "--to", "10", "--step", "1",
                "--methods", "exact,mc", "--trials", "200000", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sweep_value,method,coverage,stderr,seed,config_hash,ci_low,ci_high"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 42  # 21 sweep points x 2 methods
        exact = {float(r[0]): float(r[2]) for r in rows if r[1] == "exact"}
        mc = {float(r[0]): float(r[2]) for r in rows if r[1] == "mc"}
        assert len(exact) == len(mc) == 21
        for theta_db in exact:
            assert abs(exact[theta_db] - mc[theta_db]) <= 0.01
        # analytic rows carry no Monte Carlo stderr
        assert all(r[3] == "" for r in rows if r[1] == "exact")
        assert all(r[3] != "" for r in rows if r[1] == "mc")

    def test_mc_rows_carry_a_wilson_interval(self, tmp_path):
        # no threshold above 30 dB is exceeded in 20,000 trials (k = 0): the
        # standard error is 0, the interval is not; analytic rows leave both
        # of its columns blank, and JSON rows carry the same numbers
        argv = ["coverage", "--methods", "exact,mc", "--from", "10", "--to", "40", "--step", "10",
                "--trials", "20000", "--seed", "1"]
        out = tmp_path / "cov.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        header, *lines = out.read_text().strip().splitlines()
        columns = header.split(",")
        rows = [dict(zip(columns, line.split(","))) for line in lines]
        assert all(r["ci_low"] == r["ci_high"] == "" for r in rows if r["method"] == "exact")
        mc = {float(r["sweep_value"]): r for r in rows if r["method"] == "mc"}
        for db in (30.0, 40.0):
            assert float(mc[db]["coverage"]) == float(mc[db]["stderr"]) == 0.0
            assert float(mc[db]["ci_low"]) == 0.0 < float(mc[db]["ci_high"])
            assert float(mc[db]["ci_high"]) == pytest.approx(1.92e-4, rel=1e-3)
        for r in mc.values():
            assert float(r["ci_low"]) <= float(r["coverage"]) < float(r["ci_high"])
        out_json = tmp_path / "cov.json"
        assert run_cli(argv + ["--format", "json", "--out", str(out_json)]) == 0
        got = {(r["method"], r["sweep_value"]): (r["ci_low"], r["ci_high"])
               for r in json.loads(out_json.read_text())["rows"]}
        for (method, v), pair in got.items():
            row = mc[v] if method == "mc" else None
            assert pair == ((None, None) if row is None else (float(row["ci_low"]), float(row["ci_high"])))

    def test_h_sweep_ordering(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run_cli(
            [
                "coverage", "--sweep", "h", "--values=50,200", "--methods", "mc",
                "--trials", "30000", "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        cov = {float(r[0]): float(r[2]) for r in rows}
        assert cov[50.0] > cov[200.0]

    def test_empty_sweep_is_config_error(self):
        assert run_cli(["coverage", "--sweep", "theta", "--from", "5", "--to", "1", "--step", "1"]) == 2

    def test_unknown_method_is_config_error(self):
        assert run_cli(["coverage", "--methods", "telepathy"]) == 2

    @pytest.mark.parametrize("method", ["montecarlo", "single_dominant"])
    def test_undocumented_method_spellings_are_gone(self, method):
        assert run_cli(["coverage", "--methods", method]) == 2

    def test_workers_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "workers.ini"
        cfg.write_text("[run]\nworkers = 2\n")
        assert run_cli(["coverage", "--config", str(cfg)]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("gamma", "1.0"), ("carrier_frequency_hz", "2e9")])
    def test_channel_scale_keys_are_gone(self, tmp_path, capsys, key, value):
        # every output is an SIR statistic, which no common power scale moves
        cfg = tmp_path / "scale.ini"
        cfg.write_text(f"[channel]\n{key} = {value}\n")
        assert run_cli(["coverage", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and key in err

    def test_dominant_covers_hppp_not_disc(self, tmp_path, geom, channel):
        from corridor_cov import hppp_model

        def run(model_lines, out):
            cfg = tmp_path / "spatial.ini"
            cfg.write_text("[spatial]\n" + model_lines)
            return run_cli(
                ["coverage", "--config", str(cfg), "--methods", "dominant",
                 "--sweep", "theta", "--values", "-3", "--out", str(out)]
            )

        out = tmp_path / "hppp.csv"
        assert run("model = hppp\nintensity = 0.01\n", out) == 0
        (row,) = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert row[1] == "dominant"
        assert float(row[2]) == hppp_model(0.01, geom, channel).coverage_dominant(10 ** (-3 / 10))
        # the 2D disc baseline stays simulation only
        assert run("model = disc\n", tmp_path / "disc.csv") == 2

    def test_disc_radius_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "disc.ini"
        cfg.write_text("[spatial]\nmodel = disc\ndisc_radius = 250\n")
        assert run_cli(["coverage", "--config", str(cfg), "--methods", "mc"]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and "disc_radius" in err

    def test_disc_radius_is_geometry_r(self, tmp_path, channel):
        from corridor_cov import CorridorGeometry, Disc2D, FixedHeight

        cfg = tmp_path / "disc.ini"
        cfg.write_text("[geometry]\nr = 300\n\n[spatial]\nmodel = disc\nn = 7\n")
        out = tmp_path / "disc.csv"
        assert run_cli(["coverage", "--config", str(cfg), "--methods", "mc", "--values=-5,0,5",
                        "--trials", "3000", "--seed", "12", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        curve = simulator.empirical_coverage(
            Disc2D(7, 300.0), CorridorGeometry(300.0, FixedHeight(100.0)), channel,
            [-5.0, 0.0, 5.0], 3000, 12,
        )
        assert [float(r[2]) for r in rows] == curve.coverage.tolist()
        assert [float(r[3]) for r in rows] == curve.stderr.tolist()

    def test_n_sweep_sets_the_hppp_mean_count(self, tmp_path, geom, channel):
        # each N point is an HPPP of mean count N, whatever [spatial] intensity says
        from corridor_cov import hppp_model

        cfg = tmp_path / "hppp.ini"
        cfg.write_text("[spatial]\nmodel = hppp\nintensity = 0.01\n")
        out = tmp_path / "n.csv"
        assert run_cli(["coverage", "--config", str(cfg), "--sweep", "N", "--values=5,10,20",
                        "--methods", "exact", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        theta = 10 ** (-3 / 10)
        assert [(float(r[0]), float(r[2])) for r in rows] == [
            (n, hppp_model(n / geom.length, geom, channel).coverage(theta))
            for n in (5.0, 10.0, 20.0)
        ]

    def test_missing_config_file(self):
        assert run_cli(["coverage", "--config", "/nonexistent.ini"]) == 2

    def test_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "coverage", "--sweep", "theta", "--values=-3,0", "--methods", "mc",
            "--trials", "20000", "--seed", "11",
        ]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_hash_tracks_config(self, tmp_path):
        out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ["coverage", "--sweep", "theta", "--values=-3", "--methods", "mc",
                "--trials", "1000"]
        run_cli(base + ["--seed", "1", "--out", str(out1)])
        run_cli(base + ["--seed", "1", "--out", str(out2)])
        run_cli(base + ["--seed", "2", "--out", str(out3)])
        h1 = out1.read_text().strip().splitlines()[1].split(",")[5]
        h2 = out2.read_text().strip().splitlines()[1].split(",")[5]
        h3 = out3.read_text().strip().splitlines()[1].split(",")[5]
        assert h1 == h2
        assert h1 != h3

    def test_json_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["coverage", "--sweep", "theta", "--values=-3", "--methods", "mc",
                "--trials", "5000", "--seed", "5", "--format", "json"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert "generated_at" in d1["metadata"]
        d1["metadata"].pop("generated_at")
        d2["metadata"].pop("generated_at")
        assert d1 == d2  # byte-identical modulo the timestamp field
        assert d1["rows"][0]["coverage"] == pytest.approx(0.51, abs=0.05)

    def test_analytic_json_does_not_depend_on_blas_threads(self, tmp_path):
        # the quadrature's panel sums are BLAS matrix products: the analytic
        # rows must not depend on how many threads the BLAS library runs
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            argv = [sys.executable, "-m", "corridor_cov.cli", "coverage", "--sweep", "theta",
                    "--values=-10,0,10", "--methods", "exact,dominant", "--format", "json",
                    "--out", str(out)]
            env = dict(checkout_env(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(argv, capture_output=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            d = json.loads(out.read_text())
            d["metadata"].pop("generated_at")
            outputs.append(d)
        assert outputs[0] == outputs[1]
        assert len(outputs[0]["rows"]) == 6

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[channel]\nq = 5.0\n\n[run]\nseed = 99\ntrials = 5000\n\n"
            "[sweep]\naxis = theta\nvalues = -3\nmethods = mc\n"
        )
        out = tmp_path / "o.csv"
        assert run_cli(["coverage", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[4] == "1"  # flag wins over file

    @pytest.mark.parametrize(
        "config, flags, named",
        [
            ("[channel]\nm = nan\n", [], "[channel] m="),
            ("[channel]\nalpha = nan\n", [], "[channel] alpha="),
            ("[geometry]\nr = inf\n", [], "[geometry] r="),
            ("[spatial]\nmodel = hppp\nintensity = -inf\n", [], "[spatial] intensity="),
            ("", ["--values=nan", "--methods", "mc"], "sweep values"),
            ("", ["--values=nan", "--methods", "exact"], "sweep values"),
            ("", ["--values=-3,inf", "--methods", "exact,mc"], "sweep values"),
            ("", ["--values=", "--from", "nan"], "[sweep] start="),
            ("", ["--sweep", "h", "--values=100", "--theta-db", "inf"], "[run] theta_db="),
        ],
        ids=["m-nan", "alpha-nan", "r-inf", "intensity-neg-inf", "values-nan-mc",
             "values-nan-exact", "values-inf", "from-nan", "theta-db-inf"],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, config, flags, named):
        cfg = tmp_path / "nonfinite.ini"
        cfg.write_text(config + "\n[run]\ntrials = 1000\n\n[sweep]\nvalues = -3\nmethods = mc\n")
        assert run_cli(["coverage", "--config", str(cfg)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == ""

    def test_zero_batch_size_is_config_error(self, tmp_path, trace_csv, capsys):
        cfg = tmp_path / "batch.ini"
        cfg.write_text(
            "[geometry]\nr = 200\nheight = 200\n\n[run]\ntrials = 1000\nbatch_size = 0\n\n"
            "[height_study]\ncount = 1000\n"
        )
        for argv in (
            ["coverage", "--methods", "mc", "--sweep", "theta", "--values", "-3"],
            ["replay", "--trace", trace_csv],
            ["height-study"],
        ):
            code = run_cli(argv + ["--config", str(cfg)])
            assert code == 2
            captured = capsys.readouterr()
            assert "batch_size" in captured.err
            assert captured.out == ""

    def test_negative_seed_is_config_error(self, tmp_path, trace_csv, capsys):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(
            "[geometry]\nr = 200\nheight = 200\n\n[run]\ntrials = 1000\n\n"
            "[height_study]\ncount = 1000\n"
        )
        for argv in (
            ["coverage", "--methods", "mc", "--sweep", "theta", "--values", "-3"],
            ["replay", "--trace", trace_csv],
            ["height-study"],
            ["height-study", "--trace", trace_csv],
        ):
            code = run_cli(argv + ["--config", str(cfg), "--seed", "-1"])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err.strip().splitlines()[-1] == "error: seed must be >= 0"
            assert captured.out == ""

    def test_seed_above_2_to_the_53_is_kept_exactly(self, tmp_path):
        seed = 2**64 + 1
        out = {}
        for s in (seed, seed - 1):
            out[s] = tmp_path / f"cov{s}.csv"
            assert run_cli(["coverage", "--methods", "mc", "--sweep", "theta", "--values=-3,0",
                            "--trials", "2000", "--seed", str(s), "--out", str(out[s])]) == 0
        rows = {s: [line.split(",") for line in path.read_text().splitlines()[1:]]
                for s, path in out.items()}
        assert {row[4] for row in rows[seed]} == {str(seed)}
        # a seed rounded to a float would be 2**64, the other run's seed
        assert [row[2] for row in rows[seed]] != [row[2] for row in rows[seed - 1]]


class TestReplayCommand:
    def test_missing_trace_is_io_error(self, replay_config):
        assert run_cli(["replay", "--trace", "/no/such/file.csv",
                        "--config", replay_config]) == 4

    def test_unknown_fading_is_config_error_before_the_trace_is_read(
        self, tmp_path, replay_config, capsys
    ):
        cfg = tmp_path / "sideways.ini"
        with open(replay_config) as fh:
            cfg.write_text(fh.read() + "\n[replay]\nfading = sideways\n")
        assert run_cli(["replay", "--trace", "/no/such/file.csv", "--config", str(cfg)]) == 2
        assert "sideways" in capsys.readouterr().err

    @pytest.mark.parametrize("fading, m", [("redraw", 2.5), ("fromtrace", None)])
    def test_fading_sets_the_replay_m(self, tmp_path, trace_csv, replay_config, fading, m):
        # redraw replays at [channel] m, fromtrace at m = None
        from corridor_cov import BPP, CorridorGeometry, FixedHeight, Trace

        cfg = tmp_path / "fading.ini"
        with open(replay_config) as fh:
            cfg.write_text(fh.read() + "\n[channel]\nm = 2.5\n")
        out = tmp_path / "replay.csv"
        assert run_cli(["replay", "--trace", trace_csv, "--config", str(cfg), "--fading", fading,
                        "--from=-3", "--to=3", "--step=3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        geom = CorridorGeometry(200.0, FixedHeight(200.0))
        for policy in (simulator.MAX_POWER, simulator.MIN_DISTANCE):
            result = simulator.trace_replay(
                Trace.from_csv(trace_csv), BPP(10), geom, 5000, [-3.0, 0.0, 3.0], 7,
                policy=policy, m=m,
            )
            got = [float(r[2]) for r in rows if r[1] == f"replay_{policy}"]
            assert got == result.coverage.coverage.tolist()

    def test_malformed_trace_is_io_error(self, tmp_path, replay_config):
        bad = tmp_path / "bad.csv"
        bad.write_text("position_m,height_m,rx_power_dbm\n1.0,200,-50\n0.5,200,-51\n")
        assert run_cli(["replay", "--trace", str(bad), "--config", replay_config]) == 4

    @pytest.mark.parametrize(
        "rows", [["-0.5,200,-50", "nan,200,-51", "0.5,200,-52"],
                 ["-0.5,200,-50", "0.0,nan,-51", "0.5,200,-52"]],
    )
    def test_non_finite_trace_is_io_error(self, tmp_path, rows, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("position_m,height_m,rx_power_dbm\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "replay.ini"
        cfg.write_text("[geometry]\nr = 0.5\nheight = 200\n\n[run]\ntrials = 100\n")
        out = tmp_path / "replay.csv"
        assert run_cli(["replay", "--trace", str(bad), "--config", str(cfg),
                        "--out", str(out)]) == 4
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_theta_sweep_axis_is_config_error(self, tmp_path, trace_csv, replay_config, capsys):
        cfg = tmp_path / "replay_r.ini"
        with open(replay_config) as fh:
            cfg.write_text(fh.read() + "\n[sweep]\naxis = R\nvalues = 250\n")
        out = tmp_path / "replay.csv"
        assert run_cli(["replay", "--trace", trace_csv, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists() and capsys.readouterr().out == ""

    def test_methods_without_mc_is_config_error(self, tmp_path, trace_csv, replay_config, capsys):
        cfg = tmp_path / "replay_exact.ini"
        with open(replay_config) as fh:
            cfg.write_text(fh.read() + "\n[sweep]\naxis = theta\nvalues = -3\nmethods = exact\n")
        out = tmp_path / "replay.csv"
        assert run_cli(["replay", "--trace", trace_csv, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists() and capsys.readouterr().out == ""

    def test_replay_outputs(self, tmp_path, trace_csv, replay_config):
        out = tmp_path / "replay.csv"
        code = run_cli(
            ["replay", "--trace", trace_csv, "--config", replay_config,
             "--out", str(out), "--trials", "5000"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        methods = {line.split(",")[1] for line in lines[1:]}
        assert methods == {"replay_max_power", "replay_min_distance"}
        sir = (tmp_path / "replay_sir_pdf.csv").read_text().strip().splitlines()
        assert sir[0] == "bin_left_db,bin_right_db,density_max_power,density_min_distance"
        dens = np.array([[float(v) for v in line.split(",")] for line in sir[1:]])
        widths = dens[:, 1] - dens[:, 0]
        assert np.sum(dens[:, 2] * widths) == pytest.approx(1.0, rel=1e-9)
        assert np.sum(dens[:, 3] * widths) == pytest.approx(1.0, rel=1e-9)


    def test_one_uav_per_trial_writes_no_sir_table(self, tmp_path, trace_csv, capsys):
        # a lone UAV's SIR is infinite: its coverage rows are 1.0, and with
        # --out no SIR pdf table is written, with a note on stderr
        cfg = tmp_path / "one.ini"
        cfg.write_text("[geometry]\nr = 200\nheight = 200\n\n[spatial]\nmodel = bpp\nn = 1\n\n"
                       "[run]\ntrials = 2000\nseed = 7\n")
        out = tmp_path / "replay.csv"
        assert run_cli(["replay", "--trace", trace_csv, "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert {r[1] for r in rows} == {"replay_max_power", "replay_min_distance"}
        assert all(float(r[2]) == 1.0 for r in rows)
        assert not (tmp_path / "replay_sir_pdf.csv").exists()
        assert "no _sir_pdf.csv is written" in capsys.readouterr().err
        # without --out the rows go to stdout, as for any replay
        assert run_cli(["replay", "--trace", trace_csv, "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[1:] == out.read_text().strip().splitlines()[1:]


class TestHeightStudyCommand:
    def test_synthetic_normal_study(self, tmp_path):
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nr = 200\nheight_model = normal\nheight_mu = 200\nheight_sigma = 15\n\n"
            "[height_study]\ncount = 100000\n\n[run]\ntrials = 40000\n\n"
            "[sweep]\naxis = theta\nstart = -10\nstop = 10\nstep = 2\nmethods = mc\n"
        )
        out = tmp_path / "hs.csv"
        assert run_cli(["height-study", "--config", str(cfg), "--seed", "8",
                        "--out", str(out)]) == 0
        report = json.loads((tmp_path / "hs_report.json").read_text())
        assert 199.0 <= report["fitted_normal"]["mu"] <= 201.0
        assert 14.0 <= report["fitted_normal"]["sigma"] <= 16.0
        assert report["kl_normal"] < report["kl_uniform"]
        assert report["normal_preferred"] is True
        assert report["max_gap_vs_fixed"]["variable_normal"] <= 0.02
        assert report["max_gap_vs_fixed"]["variable_uniform"] <= 0.02
        methods = {line.split(",")[1] for line in out.read_text().strip().splitlines()[1:]}
        assert methods == {"fixed", "variable_normal", "variable_uniform"}

    STUDY = (
        "[geometry]\nr = 200\nheight_model = normal\n\n[height_study]\ncount = 1000\n\n"
        "[run]\ntrials = 2000\nseed = 3\n\n[sweep]\naxis = theta\nvalues = -3,0,3\nmethods = mc\n"
    )

    def test_study_runs_each_model_once(self, tmp_path, caplog):
        # the fixed curve, then the KL study's empirical, normal and uniform
        # runs, whose normal and uniform curves are the variable rows
        cfg = tmp_path / "hs.ini"
        cfg.write_text(self.STUDY)
        caplog.set_level(logging.DEBUG, logger="corridor_cov.simulator")
        assert run_cli(["height-study", "--config", str(cfg), "--out", str(tmp_path / "hs.csv")]) == 0
        runs = [r for r in caplog.records if r.getMessage().startswith("simulate_sir:")]
        assert len(runs) == 4

    def test_variable_rows_are_the_kl_study_curves(self, tmp_path, monkeypatch):
        studies, run_study = [], simulator.height_model_kl_study

        def study(*args, **kwargs):
            studies.append(run_study(*args, **kwargs))
            return studies[-1]

        monkeypatch.setattr(simulator, "height_model_kl_study", study)
        cfg = tmp_path / "hs.ini"
        cfg.write_text(self.STUDY)
        out = tmp_path / "hs.json"
        assert run_cli(["height-study", "--config", str(cfg), "--format", "json",
                        "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        (kl,) = studies
        for method, curve in (("variable_normal", kl.normal_coverage),
                              ("variable_uniform", kl.uniform_coverage)):
            got = [(r["sweep_value"], r["coverage"], r["stderr"]) for r in rows
                   if r["method"] == method]
            assert got == list(zip([-3.0, 0.0, 3.0], curve.coverage, curve.stderr))

    def test_constant_heights_degenerate(self, tmp_path):
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nr = 200\nheight_model = fixed\nheight = 200\n\n"
            "[height_study]\ncount = 1000\n\n[run]\ntrials = 2000\n\n"
            "[sweep]\naxis = theta\nvalues = -3\nmethods = mc\n"
        )
        out = tmp_path / "hs.csv"
        assert run_cli(["height-study", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((tmp_path / "hs_report.json").read_text())
        assert report["source"] == "synthetic:fixed"
        assert report["max_gap_vs_fixed"] == {}
        assert report["fitted_normal"]["sigma"] == pytest.approx(0.0, abs=1e-9)
        assert report["kl_normal"] == 0.0 and report["kl_uniform"] == 0.0

    def test_negative_sigma_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nheight_model = normal\nheight_sigma = -1\n\n[height_study]\ncount = 1000\n"
        )
        assert run_cli(["height-study", "--config", str(cfg)]) == 2
        assert "normal height needs" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["15", "0"])
    def test_negative_count_is_config_error(self, tmp_path, capsys, sigma):
        # sigma = 0 is the constant heights of the fixed model
        model = "fixed" if sigma == "0" else f"normal\nheight_sigma = {sigma}"
        cfg = tmp_path / "hs.ini"
        cfg.write_text(f"[geometry]\nheight_model = {model}\n\n[height_study]\ncount = -5\n")
        assert run_cli(["height-study", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [height_study] count=-5")
        assert captured.out == ""

    def test_source_key_is_gone(self, tmp_path):
        cfg = tmp_path / "hs.ini"
        cfg.write_text("[height_study]\nsource = synthetic\n")
        assert run_cli(["height-study", "--config", str(cfg)]) == 2

    def test_non_theta_sweep_axis_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nr = 200\nheight_model = normal\n\n"
            "[height_study]\ncount = 1000\n\n[run]\ntrials = 2000\n\n"
            "[sweep]\naxis = R\nvalues = 250\nmethods = exact\n"
        )
        out = tmp_path / "hs.csv"
        assert run_cli(["height-study", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists() and not (tmp_path / "hs_report.json").exists()
        assert capsys.readouterr().out == ""

    def test_methods_without_mc_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nr = 200\nheight_model = normal\n\n"
            "[height_study]\ncount = 1000\n\n[run]\ntrials = 2000\n\n"
            "[sweep]\naxis = theta\nvalues = -3\nmethods = exact\n"
        )
        out = tmp_path / "hs.csv"
        assert run_cli(["height-study", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists() and not (tmp_path / "hs_report.json").exists()
        assert capsys.readouterr().out == ""

    def test_rows_do_not_depend_on_cpus(self, tmp_path, set_cpus, thread_pools):
        # 70,000 trials run as two batches, one per thread on 2 CPUs
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nr = 200\nheight_model = fixed\nheight = 200\n\n"
            "[height_study]\ncount = 1000\n\n[run]\ntrials = 70000\n\n"
            "[sweep]\naxis = theta\nvalues = -3\n"
        )
        rows = []
        for cpus in (1, 2):
            set_cpus(cpus)
            out = tmp_path / f"hs{cpus}.csv"
            assert run_cli(["height-study", "--config", str(cfg), "--out", str(out)]) == 0
            rows.append(out.read_text())
        assert thread_pools == [2]
        assert rows[0] == rows[1]

    def test_too_few_samples_is_data_error(self, tmp_path):
        cfg = tmp_path / "hs.ini"
        cfg.write_text("[height_study]\ncount = 10\n")
        assert run_cli(["height-study", "--config", str(cfg)]) == 5

    def test_trace_height_source(self, tmp_path, trace_csv):
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nr = 200\n\n[run]\ntrials = 2000\n\n"
            "[sweep]\naxis = theta\nvalues = -3\nmethods = mc\n"
        )
        out = tmp_path / "hs.csv"
        assert run_cli(["height-study", "--config", str(cfg), "--trace", trace_csv,
                        "--out", str(out)]) == 0
        report = json.loads((tmp_path / "hs_report.json").read_text())
        assert report["source"].startswith("trace:")
        # synthesized trace has fixed 200 m heights -> degenerate sigma
        assert report["fitted_normal"]["mu"] == pytest.approx(200.0, abs=1e-9)

    def test_trace_height_at_or_below_ground_is_data_error(self, tmp_path, capsys, caplog):
        heights = np.random.default_rng(5).normal(200.0, 15.0, 100)
        heights[40] = -5.0
        heights[60] = 0.0
        path = tmp_path / "low.csv"
        positions = np.arange(100) * 0.5
        simulator.Trace(positions, heights, np.full(100, -60.0), 0.25).to_csv(path)
        cfg = tmp_path / "hs.ini"
        cfg.write_text(self.STUDY)
        caplog.set_level(logging.DEBUG, logger="corridor_cov.simulator")
        assert run_cli(["height-study", "--config", str(cfg), "--trace", str(path)]) == 5
        err = capsys.readouterr().err
        assert str(path) in err and "position 20 m" in err and "height -5 m" in err
        assert not [r for r in caplog.records if r.getMessage().startswith("simulate_sir:")]

    @pytest.mark.parametrize(
        "key", ["dist", "mean", "sigma", "low", "high", "r", "kl_trials", "curve_trials"]
    )
    def test_keys_restating_geometry_and_run_are_gone(self, tmp_path, capsys, key):
        # heights come from [geometry] height_*, the corridor from [geometry] r
        # and every Monte Carlo run's trials from [run] trials
        cfg = tmp_path / "hs.ini"
        cfg.write_text(f"[height_study]\n{key} = 1\n")
        assert run_cli(["height-study", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and key in err

    def test_trials_flag_sets_run_trials(self, tmp_path):
        base = (
            "[geometry]\nr = 200\nheight_model = uniform\n\n[height_study]\ncount = 1000\n\n"
            "[sweep]\naxis = theta\nvalues = -3,3\nmethods = mc\n"
        )
        flag, key = tmp_path / "flag.ini", tmp_path / "key.ini"
        flag.write_text(base)
        key.write_text(base + "\n[run]\ntrials = 3000\n")
        out = {}
        for name, argv in (("flag", ["--config", str(flag), "--trials", "3000"]),
                           ("key", ["--config", str(key)])):
            out[name] = tmp_path / f"{name}.csv"
            assert run_cli(["height-study", "--out", str(out[name])] + argv) == 0
        rows = {name: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
                for name, path in out.items()}
        assert rows["flag"] == rows["key"]
        assert {row.split(",")[1] for row in rows["flag"][1:]} == {
            "fixed", "variable_normal", "variable_uniform"
        }
        reports = {name: json.loads((tmp_path / f"{name}_report.json").read_text())
                   for name in out}
        for report in reports.values():
            del report["config_hash"]
        assert reports["flag"] == reports["key"]

    def test_uniform_fit_reaching_the_ground_is_data_error(self, tmp_path, capsys):
        # U(1, 400) heights moment-fit to about [-0.25, 394.9] m
        cfg = tmp_path / "hs.ini"
        cfg.write_text(
            "[geometry]\nheight_model = uniform\nheight_low = 1\nheight_high = 400\n\n"
            "[height_study]\ncount = 2000\n\n[run]\nseed = 1\ntrials = 2000\n\n"
            "[sweep]\nvalues = -3\nmethods = mc\n"
        )
        out = tmp_path / "hs.csv"
        assert run_cli(["height-study", "--config", str(cfg), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("insufficient data: ") and "[-0.253237, 394.915] m" in err
        assert not out.exists()


# the Monte Carlo thread count is the CPU count, so no command takes a worker count
@pytest.mark.parametrize(
    "argv",
    [
        ["height-study", "--workers", "2"],
        ["replay", "--trace", "trace.csv", "--workers", "2"],
        ["coverage", "--workers", "2"],
    ],
)
def test_flags_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest", "--trials", "50000"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL  " not in out


def test_log_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("CORRIDOR_COV_LOG", "debug")
    out = tmp_path / "o.csv"
    assert run_cli(["coverage", "--sweep", "theta", "--values=-3", "--methods", "mc",
                    "--trials", "1000", "--out", str(out)]) == 0


def test_debug_log_line_per_monte_carlo_call():
    # the simulator logs one debug line per call; stdout does not change
    argv = [sys.executable, "-m", "corridor_cov.cli", "coverage", "--sweep", "theta",
            "--values=-3,0", "--methods", "mc", "--trials", "3000", "--seed", "1"]
    runs = {}
    for level in ("warning", "debug"):
        env = dict(checkout_env(), CORRIDOR_COV_LOG=level)
        runs[level] = subprocess.run(argv, capture_output=True, timeout=300, env=env)
        assert runs[level].returncode == 0
    assert runs["debug"].stdout == runs["warning"].stdout
    lines = [
        line for line in runs["debug"].stderr.decode().splitlines()
        if line.startswith("DEBUG corridor_cov.simulator: ")
    ]
    assert len(lines) == 1
    assert lines[0].startswith(
        "DEBUG corridor_cov.simulator: simulate_sir: 3000 trials in 1 batches on 1 threads, "
        "3000 kept, 0 excluded, "
    )
    assert "corridor_cov.simulator" not in runs["warning"].stderr.decode()


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "corridor_cov.cli", "coverage", "--sweep", "theta",
         "--values=-3", "--methods", "mc", "--trials", "2000", "--seed", "1"],
        capture_output=True, text=True, timeout=300, env=checkout_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("sweep_value,method,coverage")
