"""Exact coverage over a deterministic sample of the model's domain.

Run from the repository root against the source tree, or anywhere against
an installed package:

    PYTHONPATH=src python3 tools/domain_sample.py --table
    PYTHONPATH=src python3 tools/domain_sample.py --check [--points 40]

The sample is `POINTS` named points, drawn from a fixed seed over the
domain the engine is built for: the BPP and the finite HPPP in turn, a UAV
count (the HPPP's mean count) from 2 to 300, shadowing shape q from 1.05
to 5, path-loss exponent alpha from 2 to 6, corridor half-length over
height R/h from 1 to 500 (h = 100 m), and integer fading shape m from 1 to
8; counts and R/h log-uniform, the rest uniform.  Every point takes exact
coverage at the thresholds `THETA_DB`, on a cold model.

--table evaluates the sample once per initial panel count of the outer
rule in `PANELS`, the counts interleaved per point on fresh models that
share the point's received-power cache (whose build is not timed), and
prints per count: the mean number of outer sweeps per value (outer-integrand
calls, from the engine's debug line), the share of values that take more
than one, the mean outer nodes, the seconds for all values, and the
largest relative move of a value against the shipped count.

--check evaluates the first --points points at the shipped rule and exits
1 on a QuadratureError, on a value outside [0, 1], or on coverage that
rises from one threshold to the next by more than the outer rule's
tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import re
import sys
import time

import numpy as np

from corridor_cov import analytic
from corridor_cov.core import ChannelParams, CorridorGeometry, FixedHeight
from corridor_cov.quadrature import QuadratureError

POINTS = 150
SEED = 20251021
THETA_DB = tuple(float(db) for db in np.linspace(-20.0, 20.0, 7))
HEIGHT = 100.0
PANELS = (8, 10, 12, 16)

_LINE = re.compile(r"(\d+) outer-integrand calls, (\d+) outer nodes")


@dataclasses.dataclass(frozen=True)
class Point:
    name: str
    spatial: str  # "bpp" or "hppp"
    count: float  # the BPP's UAV count, or the HPPP's mean count
    q: float
    alpha: float
    r_over_h: float
    m: int

    def geometry(self):
        return CorridorGeometry(HEIGHT * self.r_over_h, FixedHeight(HEIGHT))

    def channel(self):
        return ChannelParams(alpha=self.alpha, q=self.q, m=float(self.m))

    def model(self):
        """A fresh exact-coverage model at this point."""
        geom, channel = self.geometry(), self.channel()
        if self.spatial == "bpp":
            return analytic.BppCoverageModel(int(self.count), geom, channel)
        return analytic.HpppCoverageModel(self.count / geom.length, geom, channel)


def sample(n=POINTS):
    """The first n points of the sample, in order; each prefix is the same."""
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(n):
        spatial = ("bpp", "hppp")[i % 2]
        count = math.exp(rng.uniform(math.log(2.0), math.log(300.0)))
        count = float(round(count)) if spatial == "bpp" else round(count, 3)
        q = round(rng.uniform(1.05, 5.0), 3)
        alpha = round(rng.uniform(2.0, 6.0), 3)
        r_over_h = float(f"{math.exp(rng.uniform(0.0, math.log(500.0))):.4g}")
        m = int(rng.integers(1, 9))
        name = f"{i:03d}-{spatial}-n{count:g}-q{q:g}-a{alpha:g}-r{r_over_h:g}-m{m}"
        out.append(Point(name, spatial, count, q, alpha, r_over_h, m))
    return out


class _Lines(logging.Handler):
    """The (outer-integrand calls, outer nodes) of every exact debug line."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.work = []

    def emit(self, record):
        found = _LINE.search(record.getMessage())
        if found:
            self.work.append(tuple(map(int, found.groups())))


def evaluate(model, lines):
    """Exact coverage at every `THETA_DB` on model: (values, [(sweeps,
    outer nodes)], seconds); a QuadratureError propagates."""
    del lines.work[:]
    start = time.perf_counter()
    values = [model.coverage(10.0 ** (db / 10.0)) for db in THETA_DB]
    return values, list(lines.work), time.perf_counter() - start


def problems(point, values):
    """What --check rejects in one point's values."""
    cfg = analytic._COVERAGE_QUAD
    out = [f"{point.name}: value {v!r} at {db:g} dB outside [0, 1]"
           for db, v in zip(THETA_DB, values) if not 0.0 <= v <= 1.0]
    for (db0, v0), (db1, v1) in zip(zip(THETA_DB, values), zip(THETA_DB[1:], values[1:])):
        if v1 > v0 + max(cfg.abs_tol, cfg.rel_tol * v0):
            out.append(f"{point.name}: coverage rises from {v0!r} at {db0:g} dB to {v1!r} at {db1:g} dB")
    return out


def table(points, lines):
    shipped = analytic._COVERAGE_QUAD
    runs = {p: {"sweeps": [], "nodes": [], "seconds": 0.0, "values": [], "errors": 0} for p in PANELS}
    try:
        for point in points:
            keep = point.model()
            keep.dist._ensure()  # shared by the models below while keep lives
            for panels in PANELS:
                analytic._COVERAGE_QUAD = dataclasses.replace(shipped, initial_panels=panels)
                run = runs[panels]
                try:
                    values, work, seconds = evaluate(point.model(), lines)
                except QuadratureError:
                    run["errors"] += 1
                    values, work, seconds = [math.nan] * len(THETA_DB), [], 0.0
                run["values"] += values
                run["sweeps"] += [w[0] for w in work]
                run["nodes"] += [w[1] for w in work]
                run["seconds"] += seconds
    finally:
        analytic._COVERAGE_QUAD = shipped
    base = np.array(runs[shipped.initial_panels]["values"])
    print(f"{len(points)} points x {len(THETA_DB)} thresholds; shipped initial panels "
          f"{shipped.initial_panels}")
    print(f"{'panels':>6s} {'mean sweeps':>11s} {'refined':>8s} {'mean nodes':>10s} "
          f"{'seconds':>8s} {'max rel move':>12s} {'errors':>6s}")
    for panels, run in runs.items():
        sweeps = np.array(run["sweeps"])
        values = np.array(run["values"])
        with np.errstate(invalid="ignore", divide="ignore"):
            move = np.nanmax(np.where(base > 0, np.abs(values - base) / base, np.abs(values - base)))
        print(f"{panels:6d} {sweeps.mean():11.3f} {np.mean(sweeps > 1):8.1%} "
              f"{np.mean(run['nodes']):10.1f} {run['seconds']:8.3f} {move:12.2e} {run['errors']:6d}")
    return 0


def check(points, lines):
    failures = []
    seconds = 0.0
    for point in points:
        try:
            values, _, dt = evaluate(point.model(), lines)
        except QuadratureError as exc:
            failures.append(f"{point.name}: {exc}")
            continue
        seconds += dt
        failures += problems(point, values)
    for failure in failures:
        print(failure)
    print(f"{len(points)} points x {len(THETA_DB)} thresholds: {len(failures)} failures, "
          f"{seconds:.2f} s of exact values")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", action="store_true", help="compare initial outer panel counts")
    mode.add_argument("--check", action="store_true", help="check values at the shipped rule")
    parser.add_argument("--points", type=int, default=POINTS, help="the first this many points")
    args = parser.parse_args(argv)
    if not 1 <= args.points <= POINTS:
        parser.error(f"--points must lie in 1..{POINTS}")
    lines = _Lines()
    logger = logging.getLogger(analytic.__name__)
    level = logger.level
    logger.addHandler(lines)
    logger.setLevel(logging.DEBUG)
    try:
        points = sample(args.points)
        return table(points, lines) if args.table else check(points, lines)
    finally:
        logger.removeHandler(lines)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
