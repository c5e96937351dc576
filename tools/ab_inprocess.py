"""In-process A/B timing of the analytic engine of two source trees.

Run from the repository root, with each tree's `src` directory:

    python3 tools/ab_inprocess.py PARENT/src CHANGE/src --rounds 100

The two trees' `corridor_cov` packages are copied under distinct names into
a temporary directory and imported into this one process, which is pinned
to one CPU.  Separate processes on a shared host differ in speed by far more
than a few percent, so a process-level series cannot resolve a change of
that size; here both trees see the same CPU and caches.

Each round runs every case on both trees, the order alternating from round
to round.  The cases are the analytic steps of covbench's workloads
(`covbench/run.py`), each from cold model caches: `bpp-theta`'s 11
thresholds, `hppp-theta`'s 3, `dominant-theta`'s two methods and `r-sweep`'s
3 radii.  Each case is split into steps: the first model's received-power
cache build, its first (cold) value, the mean of its later (warm) values on
the same model, and for `r-sweep` the builds and values of all its radii.

Per step it prints each tree's median time, the median over rounds of the
ratio B / A, its quartiles, the largest relative difference |B - A| / |A|
over the values the step computed in any round ("-" for a step that
computes none), and whether every value of the case in B equals A's bit for
bit.  A change that moves values within tolerance can so still be timed.
Exits 1 when some value differs, else 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _covbench():
    """covbench's run module, for its workloads and operating point."""
    spec = importlib.util.spec_from_file_location("_covbench_run", ROOT / "covbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_trees(sources, tmp):
    """Import each `src` tree's corridor_cov as its own package under tmp."""
    trees = []
    for name, src in zip(("cov_a", "cov_b"), sources):
        package = Path(src) / "corridor_cov"
        if not (package / "__init__.py").is_file():
            sys.exit(f"ab_inprocess: no corridor_cov package under {src}")
        shutil.copytree(package, Path(tmp) / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    for name in ("cov_a", "cov_b"):
        trees.append((importlib.import_module(f"{name}.analytic"), importlib.import_module(f"{name}.core")))
    return trees


def run_case(bench, w, analytic, core):
    """One case from cold model caches: ([(step, seconds)], [(step, value)])."""
    for obj in vars(analytic).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    channel = core.ChannelParams(alpha=bench.ALPHA, q=bench.Q, m=w.m)

    def model(R):
        geom = core.CorridorGeometry(float(R), core.FixedHeight(bench.HEIGHT))
        if w.model == "bpp":
            return analytic.bpp_model(int(w.size), geom, channel)
        return analytic.hppp_model(w.size, geom, channel)

    methods = [m for m in w.methods if m != "mc"]
    steps, values = [], []

    def timed(step, fn):
        t0 = time.perf_counter()
        out = fn()
        steps.append((step, time.perf_counter() - t0))
        return out

    if w.axis == "theta":
        first = timed("build", lambda: model(bench.R_DEFAULT))
        timed("build", lambda: first.dist.cdf(1.0))
        warm = []
        for method in methods:
            for db in w.values:
                theta = 10.0 ** (db / 10.0)
                t0 = time.perf_counter()
                value = getattr(first, analytic._METHODS[method.replace("-", "_")])(theta)
                dt = time.perf_counter() - t0
                if not values:
                    step = "cold value"
                    steps.append((step, dt))
                elif len(methods) > 1:
                    step = f"{method} value, warm"
                    steps.append((step, dt))
                else:
                    step = "warm value (mean)"
                    warm.append(dt)
                values.append((step, value))
        if warm:
            steps.append(("warm value (mean)", statistics.fmean(warm)))
    else:
        theta = 10.0 ** (w.theta_db / 10.0)
        for R in w.values:
            built = timed("builds", lambda: model(R))
            timed("builds", lambda: built.dist.cdf(1.0))
            for method in methods:
                name = analytic._METHODS[method.replace("-", "_")]
                values.append(("cold values", timed("cold values", lambda: getattr(built, name)(theta))))
    totals = {}
    for step, dt in steps:
        totals[step] = totals.get(step, 0.0) + dt
    return list(totals.items()), values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the `src` directory of tree A (the base)")
    parser.add_argument("b", help="the `src` directory of tree B (the change)")
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    bench = _covbench()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        trees = load_trees((args.a, args.b), tmp)
        workloads = list(bench.WORKLOADS.values())
        times = {}  # (case, step) -> ([A seconds], [B seconds])
        equal = {w.name: True for w in workloads}
        gaps = {}  # (case, step) -> the largest relative difference of its values
        for r in range(args.rounds + 1):  # round 0 warms both trees and is not timed
            for w in workloads:
                sides = [None, None]
                for side in ((0, 1) if r % 2 else (1, 0)):
                    gc.collect()
                    sides[side] = run_case(bench, w, *trees[side])
                (steps_a, values_a), (steps_b, values_b) = sides
                equal[w.name] &= [v.hex() for _, v in values_a] == [v.hex() for _, v in values_b]
                for (step, a), (_, b) in zip(values_a, values_b):
                    gap = abs(b - a) / abs(a) if a else abs(b - a)
                    gaps[w.name, step] = max(gaps.get((w.name, step), 0.0), gap)
                if r == 0:
                    continue
                for (step, ta), (_, tb) in zip(steps_a, steps_b):
                    pair = times.setdefault((w.name, step), ([], []))
                    pair[0].append(ta)
                    pair[1].append(tb)

    print(f"{'case':16s} {'step':28s} {'A ms':>9s} {'B ms':>9s} {'B/A':>7s} {'quartiles':>15s} "
          f"{'max rel diff':>12s}  bit-equal")
    for (case, step), (ta, tb) in times.items():
        ratios = [b / a for a, b in zip(ta, tb)]
        q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        gap = f"{gaps[case, step]:.2e}" if (case, step) in gaps else "-"
        print(f"{case:16s} {step:28s} {statistics.median(ta) * 1e3:9.3f} "
              f"{statistics.median(tb) * 1e3:9.3f} {statistics.median(ratios):7.3f} "
              f"{q[0]:7.3f}-{q[2]:<7.3f} {gap:>12s}  {'yes' if equal[case] else 'NO'}")
    return 0 if all(equal.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
