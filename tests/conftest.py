import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from corridor_cov import (
    ChannelParams,
    CorridorGeometry,
    FixedHeight,
    bpp_model,
    hppp_model,
)

# Default operating point used throughout: N=10 UAVs, worst-case fading m=1,
# shadowing shape q=2 with unit mean, alpha=2.2, h=100 m, R=500 m.
DEFAULT_N = 10
DEFAULT_LAMBDA = 10.0 / 1000.0
THETA_GRID_DB = np.arange(-10.0, 11.0)


@pytest.fixture(scope="session")
def geom():
    return CorridorGeometry(500.0, FixedHeight(100.0))


@pytest.fixture(scope="session")
def channel():
    return ChannelParams(alpha=2.2, q=2.0, m=1.0)


@pytest.fixture(scope="session")
def channel_m3():
    return ChannelParams(alpha=2.2, q=2.0, m=3.0)


@pytest.fixture(scope="session")
def model10(geom, channel):
    return bpp_model(DEFAULT_N, geom, channel)


@pytest.fixture(scope="session")
def model3(geom, channel):
    return bpp_model(3, geom, channel)


@pytest.fixture(scope="session")
def hmodel(geom, channel):
    return hppp_model(DEFAULT_LAMBDA, geom, channel)


@pytest.fixture()
def set_cpus(monkeypatch):
    """set_cpus(n) makes the simulator see n CPUs, as `taskset` would."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


@pytest.fixture()
def thread_pools(monkeypatch):
    """The thread count of every pool the simulator starts, in order."""
    from corridor_cov import simulator

    pools = []

    class RecordingPool(simulator.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", RecordingPool)
    return pools


def checkout_env():
    """The environment with this checkout's src first on PYTHONPATH, so that
    a subprocess imports the code under test, not an installed copy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def domain_sample():
    """The module tools/domain_sample.py, imported once."""
    name = "domain_sample"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "tools" / "domain_sample.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov distance between a sample and a CDF callable."""
    samples = np.sort(np.asarray(samples))
    n = len(samples)
    grid = cdf(samples)
    upper = np.abs(np.arange(1, n + 1) / n - grid)
    lower = np.abs(grid - np.arange(0, n) / n)
    return float(max(upper.max(), lower.max()))


def closed_form_cdf_and_moment(dist, x):
    """F(x) and M1(x) = int_0^x p f(p) dp of the received power of `dist` at
    each x, by scipy's quad over the corridor coordinate u of the inverse-
    gamma shadowing's closed forms, with w = (h^2 + u^2)^(-alpha/2):

        F  = (1/R) int_0^R Q(q, gamma w / x) du,
        M1 = (1/R) int_0^R w gamma / (q - 1) Q(q - 1, gamma w / x) du.

    F comes from whichever of int Q and int P = R (1 - F) is smaller, so
    neither tail loses digits.  Independent of the received-power cache.
    """
    h, r, alpha, q, gam = dist.h, dist.R, dist.alpha, dist.q, dist.gam
    edges = [0.0] + [e for e in h * 10.0 ** np.arange(4) if e < r] + [r]

    def w(u):
        return (h * h + u * u) ** (-alpha / 2.0)

    def quad(f):
        return sum(
            integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for a, b in zip(edges[:-1], edges[1:])
        ) / r

    cdf, moment = [], []
    for xi in np.atleast_1d(np.asarray(x, dtype=float)):
        upper = quad(lambda u: special.gammaincc(q, gam * w(u) / xi))
        lower = quad(lambda u: special.gammainc(q, gam * w(u) / xi))
        cdf.append(upper if upper < 0.5 else 1.0 - lower)
        mean = quad(lambda u: w(u) * special.gammaincc(q - 1.0, gam * w(u) / xi))
        moment.append(gam / (q - 1.0) * mean)
    return np.array(cdf), np.array(moment)
