import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import corridor_cov
from conftest import checkout_env

RETIRED = (
    "EmptyNetworkError",
    "NetworkRealization",
    "SirSample",
    "associate",
    "sample_network",
    "sir_sample",
)

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(corridor_cov.__path__))


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"corridor_cov.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_root_imports_cleanly():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import corridor_cov"],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_import_leaves_out_scipy_interpolate():
    # The received-power interpolants have their own reader.  Importing
    # scipy.interpolate also loads scipy.optimize, linalg, sparse, spatial and
    # fft: about 290 modules, 0.3 s and 25 MiB of every process's peak RSS.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, corridor_cov; print('scipy.interpolate' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_dominant_values_import_nothing():
    # scipy.special.roots_genlaguerre would import scipy.linalg (44 modules
    # and about 5 MiB of peak RSS) for the fading rule's eigenvalues
    script = (
        "import sys, corridor_cov\n"
        "from corridor_cov import ChannelParams, CorridorGeometry, FixedHeight, bpp_model, hppp_model\n"
        "before = set(sys.modules)\n"
        "geom = CorridorGeometry(500.0, FixedHeight(100.0))\n"
        "for m in (1.3, 2.5, 3.0):\n"
        "    channel = ChannelParams(alpha=2.2, q=2.0, m=m)\n"
        "    for model in (bpp_model(10, geom, channel), hppp_model(0.01, geom, channel)):\n"
        "        model.coverage_dominant(1.0), model.coverage_single_dominant(1.0)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=checkout_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name):
    from corridor_cov import simulator

    assert not hasattr(corridor_cov, name)
    assert not hasattr(simulator, name)
    assert name not in simulator.__all__


# Names removed with no caller left: aliases, wrappers and per-model copies.
REMOVED = [
    "analytic._exact_coverage",
    "analytic._conditional_coverage",
    "analytic._FirstSweep",
    "analytic.received_power_pdf",
    "analytic.BppCoverageModel.coverage_curve",
    "analytic.HpppCoverageModel.coverage_curve",
    "core.DistributionHandle",
    "core.carrier_factor_from_frequency",
    "core.SPEED_OF_LIGHT",
    "core.ChannelParams.k_factor",
    "core.shadowing_distribution",
    "core.fading_distribution",
    "core.NakagamiFadingPower.sf",
    "quadrature.IntegralResult.__float__",
    "simulator.sir_distribution",
    "simulator.EmpiricalDistribution.pdf",
    "simulator.EmpiricalDistribution.cdf",
    "simulator.simulate_sir_paired",
    "simulator.variable_height_study",
    "simulator.HeightStudyResult",
]


@pytest.mark.parametrize("path", REMOVED)
def test_removed_names_are_gone(path):
    module, *attrs, name = path.split(".")
    mod = owner = importlib.import_module(f"corridor_cov.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    assert not hasattr(owner, name)
    assert not hasattr(corridor_cov, name)
    assert name not in getattr(mod, "__all__", ())


# Settings that are derived (the thread count is the CPU count) or that no
# caller set: the analytic engine's rules are its module constants.  A bare
# name is a simulator function; any other is module-qualified.
REMOVED_PARAMETERS = [
    ("_map_batches", "workers"),
    ("simulate_sir", "workers"),
    ("empirical_coverage", "workers"),
    ("empirical_coverage", "policy"),
    ("height_model_kl_study", "edges_db"),
    ("trace_replay", "sir_edges_db"),
    ("synthesize_trace", "include_fading"),
    ("trace_replay", "fading_mode"),
    ("simulator.Trace.from_csv", "mapping_accuracy_m"),
    ("kl_divergence", "epsilon"),
    ("analytic._ConditionalLaplace", "config"),
    ("analytic.InterferenceLaplaceBPP", "config"),
    ("analytic.InterferenceLaplaceHPPP", "config"),
    ("analytic._CoverageModel._coverage_dominant_generic", "laguerre_nodes"),
    ("analytic.ReceivedPowerDistribution.normalization", "config"),
    ("analytic._moment_series", "cfg"),
    ("analytic._moment_series", "memo"),
    ("analytic._ConditionalLaplace._series", "memo"),
    ("analytic._ConditionalLaplace._series", "fx0"),
    ("analytic._CoverageModel._conditional_coverage", "memo"),
    ("analytic._CoverageModel._conditional_coverage", "fx0"),
    ("quadrature.integrate", "first"),
    ("quadrature.integrate_batch", "first"),
    ("core.CorridorGeometry.max_link_distance", "h"),
    ("core.ChannelParams", "carrier_factor"),
]


@pytest.mark.parametrize("path, parameter", REMOVED_PARAMETERS)
def test_removed_parameters_are_gone(path, parameter):
    module, *attrs = path.split(".") if "." in path else ("simulator", path)
    obj = importlib.import_module(f"corridor_cov.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert parameter not in inspect.signature(obj).parameters


def test_kl_result_keeps_no_distributions():
    from corridor_cov import simulator

    fields = {f.name for f in dataclasses.fields(simulator.HeightKlResult)}
    assert fields.isdisjoint({"sir_true", "sir_normal", "sir_uniform"})


def test_replay_result_keeps_no_trial_count():
    # the count is the coverage curve's n_trials
    from corridor_cov import simulator

    assert "n_trials" not in {f.name for f in dataclasses.fields(simulator.ReplayResult)}


def test_coverage_curves_carry_no_provenance():
    from corridor_cov import simulator

    assert "provenance" not in {f.name for f in dataclasses.fields(simulator.CoverageCurve)}
    assert "provenance" not in inspect.signature(simulator.coverage_from_sirs).parameters


SHARED_MODEL_METHODS = (
    "coverage", "conditional_coverage", "_conditional_coverage", "max_power_pdf", "max_power_cdf",
    "_outer_bounds", "coverage_dominant", "coverage_single_dominant",
    "residual_mean_interference", "joint_top_two_pdf",
)


def test_both_spatial_models_share_one_coverage():
    from corridor_cov import analytic

    for name in SHARED_MODEL_METHODS:
        assert getattr(analytic.BppCoverageModel, name) is getattr(analytic.HpppCoverageModel, name)
    assert analytic.InterferenceLaplaceBPP._series is analytic.InterferenceLaplaceHPPP._series
    # the per-model classes only validate their arguments and pick a count law
    for cls in (analytic.BppCoverageModel, analytic.HpppCoverageModel,
                analytic.InterferenceLaplaceBPP, analytic.InterferenceLaplaceHPPP):
        assert [name for name, v in vars(cls).items() if callable(v)] == ["__init__"]


# Every attribute covbench/tracer.py patches: a rename would silently stop
# `covbench/run.py --trace 1` from counting that layer.
TRACED = [
    "quadrature.integrate",
    "analytic.InterferenceLaplaceBPP.derivative_series",
    "analytic.InterferenceLaplaceHPPP.derivative_series",
    "analytic.BppCoverageModel.coverage",
    "analytic.BppCoverageModel.coverage_dominant",
    "analytic.BppCoverageModel.coverage_single_dominant",
    "analytic.HpppCoverageModel.coverage",
    *(f"analytic.ReceivedPowerDistribution.{name}"
      for name in ("pdf", "cdf", "ppf", "mean_below", "x_lo", "x_hi")),
    "simulator.empirical_coverage",
    "simulator.simulate_sir",
    "simulator.coverage_from_sirs",
]


@pytest.mark.parametrize("path", TRACED)
def test_traced_names_resolve(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"corridor_cov.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj) or isinstance(obj, property)


def test_semi_infinite_quadrature_is_gone():
    from corridor_cov import quadrature

    assert not hasattr(corridor_cov, "SemiInfiniteMap")
    assert not hasattr(quadrature, "SemiInfiniteMap")
    assert "infinite_map" not in {f.name for f in dataclasses.fields(quadrature.QuadratureConfig)}
