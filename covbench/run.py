"""Coverage-sweep benchmark for corridor-cov.

Run from the repository root:

    python3 covbench/run.py --workload bpp-theta --seed 1 --seconds 20 --trace 0

Each workload is one `corridor-cov coverage` sweep at a fixed operating
point, run closed-loop in this process (one client, default worker count,
Monte Carlo seed = `--seed`).

`--trace 0` measures end to end.  It drives the library calls that the
`coverage` command makes, in the same order, and times each step (the
first model build, each analytic value, the Monte Carlo curve) from
outside.  It repeats the whole sweep, from cold model caches, while another
repetition still fits in `--seconds`.

The speed of a shared host swings by up to 2x within seconds, and over a
run no statistic of wall times removes that.  So steps are timed in "ref"
units: a step's seconds over the median time of a short pure-Python loop
that a background thread times every 10 ms while the step runs (see
`SpeedGauge`).  A change to the library moves a step's time but not the
loop's.  `sweep_ref` sums the median, over the repetitions, of each step's
time in ref units, and `point_ref` is the mean of that median over the
analytic (exact or dominant) values.  `setup_s` is the median wall time of
the cold builds of the first operating point's model and received-power
cache, taken before, during and after the sweeps.  The median wall time of
a sweep goes to standard error.  Every Monte Carlo curve of a run must be bit-identical to
the first (a single sweep draws its curve once more to check this).

`--trace 1` reports per-layer metrics.  It runs one untraced sweep, then
calls `corridor_cov.cli.main` itself with the layer wrappers of `tracer.py`
installed, and checks that the CLI rows equal the untraced values.

Every analytic value is checked against `reference.json` (see
`make_reference.py`), and every Monte Carlo curve against the exact curve.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is
the error rate, which is also printed to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"

# Operating point shared by every workload (ROADMAP default channel).
ALPHA = 2.2
Q = 2.0
HEIGHT = 100.0
R_DEFAULT = 500.0
BATCH_SIZE = 65536

# Error-rate tolerances: exact against the reference, dominant against the
# reference, Monte Carlo against the exact value (acceptance criterion).
EXACT_TOL = 1e-5
DOMINANT_TOL = 1e-3
MC_TOL = 0.01

# The speed gauge's loop (about 0.5 ms), how often it runs, and the fewest
# loop timings a step's time is divided by; see `SpeedGauge`.
GAUGE_LOOP = 5_000
GAUGE_PERIOD_S = 0.01
GAUGE_MIN_SAMPLES = 5

# Cold cache builds timed before and again after the sweeps (each sweep
# adds one more).  Machine speed drifts over seconds to minutes on a
# shared host, so samples from both ends of the run beat one burst.
SETUP_REPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "bpp" (n UAVs) or "hppp" (intensity per meter)
    size: float
    m: float
    axis: str  # "theta" (values in dB) or "R" (values in m, theta fixed)
    values: tuple
    methods: tuple  # CLI spellings, in CLI order; "mc" only on a theta axis
    trials: int = 0
    theta_db: float = -3.0


def _grid(start, stop, step):
    return tuple(float(start + i * step) for i in range(int(round((stop - start) / step)) + 1))


# Why each workload exists is recorded in BENCHMARK.json.  Each sweep takes
# a few seconds, so that one run repeats it several times.
WORKLOADS = {
    w.name: w
    for w in (
        # BPP derivative chain (m=3) over the documented theta range; Monte
        # Carlo is about a third of the sweep.
        Workload("bpp-theta", "bpp", 10, 3.0, "theta", _grid(-20, 20, 4), ("exact", "mc"), 1_000_000),
        # The nested 2D HPPP Laplace integral dominates; HPPP Monte Carlo pads.
        Workload("hppp-theta", "hppp", 0.01, 1.0, "theta", _grid(-6, 6, 6), ("exact", "mc"), 200_000),
        # Non-integer m: only the dominant-interferer approximations apply.
        Workload("dominant-theta", "bpp", 10, 2.5, "theta", (0.0,), ("dominant", "single-dominant")),
        # One received-power cache rebuild per point.
        Workload("r-sweep", "bpp", 10, 1.0, "R", (250.0, 500.0, 1000.0), ("exact",)),
    )
}


def import_library():
    """Import corridor_cov from the checkout's `src`; exit 1 when it is absent."""
    src = ROOT / "src"
    if not (src / "corridor_cov" / "__init__.py").is_file():
        sys.exit(f"covbench: no corridor_cov package under {src}")
    sys.path.insert(0, str(src))
    import corridor_cov  # noqa: F401


# ---------------------------------------------------------------------------
# Workload -> library objects, CLI arguments
# ---------------------------------------------------------------------------


def _objects(w, R):
    from corridor_cov.core import BPP, ChannelParams, CorridorGeometry, FiniteHPPP, FixedHeight

    spatial = BPP(int(w.size)) if w.model == "bpp" else FiniteHPPP(w.size)
    return spatial, CorridorGeometry(float(R), FixedHeight(HEIGHT)), ChannelParams(alpha=ALPHA, q=Q, m=w.m)


def _first_model(w):
    from corridor_cov import analytic

    spatial, geom, channel = _objects(w, w.values[0] if w.axis == "R" else R_DEFAULT)
    if w.model == "bpp":
        return analytic.bpp_model(spatial.n, geom, channel)
    return analytic.hppp_model(spatial.intensity, geom, channel)


def _config_text(w):
    spatial = f"n = {int(w.size)}" if w.model == "bpp" else f"intensity = {w.size!r}"
    return (
        f"[geometry]\nr = {R_DEFAULT!r}\nheight = {HEIGHT!r}\n"
        f"[channel]\nalpha = {ALPHA!r}\nq = {Q!r}\nm = {w.m!r}\n"
        f"[spatial]\nmodel = {w.model}\n{spatial}\n"
        f"[run]\nbatch_size = {BATCH_SIZE}\n"
    )


def _cli_argv(w, seed, config_path):
    argv = [
        "coverage", "--config", str(config_path), "--sweep", w.axis,
        "--values=" + ",".join(repr(v) for v in w.values),
        "--methods", ",".join(w.methods), "--seed", str(seed),
    ]
    if w.trials:
        argv += ["--trials", str(w.trials)]
    if w.axis != "theta":
        argv += ["--theta-db", repr(w.theta_db)]
    return argv


# ---------------------------------------------------------------------------
# Untraced sweep
# ---------------------------------------------------------------------------


def clear_model_caches():
    from corridor_cov import analytic

    for obj in vars(analytic).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def cold_setup(w):
    """Seconds to build the first operating point's model and cache from cold."""
    clear_model_caches()
    t0 = time.perf_counter()
    _first_model(w).dist.cdf(1.0)
    return time.perf_counter() - t0


class SpeedGauge:
    """Gauges machine speed while the sweeps run.

    A background thread times a short pure-Python loop every few
    milliseconds; `loop_s` gives the median loop time over an interval.  The
    process is pinned to one CPU, so the loop measures the CPU the sweep
    runs on.
    """

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(GAUGE_PERIOD_S):
            t0 = time.perf_counter()
            acc = 0
            for i in range(GAUGE_LOOP):
                acc += i * i % 7
            self.seconds.append(time.perf_counter() - t0)
            self.starts.append(t0)

    def __enter__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def loop_s(self, t0, t1):
        """Median loop time over [t0, t1], widened to hold enough samples."""
        if len(self.seconds) < GAUGE_MIN_SAMPLES:
            raise RuntimeError("the speed gauge took too few samples")
        pad = 0.0
        while True:
            i = bisect.bisect_left(self.starts, t0 - pad)
            j = bisect.bisect_right(self.starts, t1 + pad)
            if j - i >= GAUGE_MIN_SAMPLES:
                return statistics.median(self.seconds[i:j])
            pad += GAUGE_PERIOD_S


@dataclass
class SweepPass:
    sweep_s: float = 0.0
    steps: list = field(default_factory=list)  # ("setup" | "analytic" | "mc", start, end), in order
    analytic: dict = field(default_factory=dict)  # (method, x) -> value or None
    mc: object = None  # Monte Carlo coverage curve, when it ran and succeeded
    errors: list = field(default_factory=list)

    def step(self, kind, label, fn):
        """Run and time one step; a failure is recorded, not raised."""
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.append(f"{label}: {exc!r}")
            return None
        finally:
            self.steps.append((kind, t0, time.perf_counter()))


def _analytic_value(p, method, theta, spatial, geom, channel, key):
    from corridor_cov import analytic

    query = analytic.CoverageQuery(theta, spatial, channel, geom, method)
    p.analytic[key] = p.step("analytic", f"{method} at {key[1]!r}", lambda: analytic.coverage_probability(query))


def _mc_curve(w, seed):
    from corridor_cov import simulator

    spatial, geom, channel = _objects(w, R_DEFAULT)
    return simulator.empirical_coverage(
        spatial, geom, channel, list(w.values), w.trials, seed, batch_size=BATCH_SIZE
    )


def run_sweep(w, seed, methods=None):
    """One sweep from cold model caches, in the `coverage` command's call order."""
    import numpy as np
    from corridor_cov.core import db_to_linear

    methods = [m.replace("-", "_") for m in (methods or w.methods)]
    p = SweepPass()
    clear_model_caches()
    t_sweep = time.perf_counter()
    p.step("setup", "setup", lambda: _first_model(w).dist.cdf(1.0))
    if w.axis == "theta":
        spatial, geom, channel = _objects(w, R_DEFAULT)
        theta_lin = db_to_linear(np.array(w.values))
        for method in methods:
            if method == "mc":
                p.mc = p.step("mc", "mc", lambda: _mc_curve(w, seed))
                continue
            for v, th in zip(w.values, theta_lin):
                _analytic_value(p, method, float(th), spatial, geom, channel, (method, v))
    else:
        theta_lin = float(db_to_linear(w.theta_db))
        for value in w.values:
            spatial, geom, channel = _objects(w, value)
            for method in methods:
                _analytic_value(p, method, theta_lin, spatial, geom, channel, (method, value))
    p.sweep_s = time.perf_counter() - t_sweep
    return p


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def load_reference(w):
    with open(REFERENCE) as fh:
        table = json.load(fh)["workloads"][w.name]
    return {(method, x): value for method, pairs in table.items() for x, value in pairs}


def check_pass(w, p, reference):
    """(attempted, failed, problems) for the operations of one sweep."""
    problems = list(p.errors)
    failed = 0
    for (method, x), value in p.analytic.items():
        tol = EXACT_TOL if method == "exact" else DOMINANT_TOL
        if value is None or not 0.0 <= value <= 1.0 or abs(value - reference[(method, x)]) > tol:
            failed += 1
            problems.append(f"{method} at {x!r}: {value}, reference {reference[(method, x)]}")
    ran_mc = any(kind == "mc" for kind, _, _ in p.steps)
    if ran_mc and p.mc is None:
        failed += 1
    elif ran_mc:
        gaps = [abs(c - reference[("exact", v)]) for c, v in zip(p.mc.coverage, w.values)]
        if not all(0.0 <= c <= 1.0 for c in p.mc.coverage) or max(gaps) > MC_TOL:
            failed += 1
            problems.append(f"mc: largest gap to the exact curve {max(gaps):.4g}")
    return len(p.analytic) + ran_mc, failed, problems


def same_curve(a, b):
    import numpy as np

    return (
        a is not None and b is not None
        and np.array_equal(a.coverage, b.coverage) and np.array_equal(a.stderr, b.stderr)
    )


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(w, seed, seconds):
    """Untraced run: (end-to-end metrics, attempted, failed, problems)."""
    reference = load_reference(w)
    with SpeedGauge() as gauge:
        setups = [cold_setup(w) for _ in range(SETUP_REPS)]
        t_begin = time.perf_counter()
        passes = []
        while True:
            passes.append(run_sweep(w, seed))
            if time.perf_counter() - t_begin + passes[-1].sweep_s > seconds:
                break
        curves = [p.mc for p in passes] if "mc" in w.methods else []
        if len(curves) == 1:
            curves.append(_mc_curve(w, seed))
        setups += [cold_setup(w) for _ in range(SETUP_REPS)]

    attempted = failed = 0
    problems = []
    for p in passes:
        a, f, probs = check_pass(w, p, reference)
        attempted, failed, problems = attempted + a, failed + f, problems + probs
    if any(not same_curve(c, curves[0]) for c in curves[1:]):
        problems.append("mc: a second untraced run gave a different curve")

    # The host's speed swings by up to 2x within seconds, so each step is
    # timed in units of the gauge loop's time while the step ran.
    kinds = [kind for kind, _, _ in passes[0].steps]
    refs = [
        statistics.median((t1 - t0) / gauge.loop_s(t0, t1) for _, t0, t1 in col)
        for col in zip(*(p.steps for p in passes))
    ]
    analytic_refs = [r for kind, r in zip(kinds, refs) if kind == "analytic"]
    metrics = {
        "setup_s": _metric(statistics.median(setups + [p.steps[0][2] - p.steps[0][1] for p in passes]), "s"),
        "sweep_ref": _metric(sum(refs), "ref"),
        "point_ref": _metric(statistics.fmean(analytic_refs), "ref"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    sweep_s = statistics.median(p.sweep_s for p in passes)
    print(f"covbench: {len(passes)} passes, median wall sweep {sweep_s:.4g} s", file=sys.stderr)
    return metrics, attempted, failed, problems


def _cli_rows(text):
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        stderr = float(row["stderr"]) if row["stderr"] else None
        rows[(row["method"], float(row["sweep_value"]))] = (float(row["coverage"]), stderr)
    return rows


def _expected_rows(w, p):
    rows = {key: (value, None) for key, value in p.analytic.items()}
    if p.mc is not None:
        for v, c, se in zip(w.values, p.mc.coverage, p.mc.stderr):
            rows[("mc", v)] = (float(c), float(se))
    return rows


def trace(w, seed):
    """Traced run: (per-layer metrics, attempted, failed, problems)."""
    from corridor_cov import cli

    from tracer import Tracer

    reference = load_reference(w)
    cold_setup(w)  # first-call costs of the process land outside both sweeps
    untraced = run_sweep(w, seed)
    attempted, failed, problems = check_pass(w, untraced, reference)

    tracer = Tracer()
    out = io.StringIO()
    with tempfile.TemporaryDirectory(prefix=".covbench-", dir=ROOT) as tmp:
        config = Path(tmp) / f"{w.name}.ini"
        config.write_text(_config_text(w))
        argv = _cli_argv(w, seed, config)
        clear_model_caches()
        with tracer.installed(), contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(argv)
            traced_s = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"corridor-cov {' '.join(argv)} exited with {code}")
    if tracer.quad_nodes == 0 and set(w.methods) != {"mc"}:
        raise RuntimeError("the trace saw no quadrature nodes; a layer wrapper missed its namespace")

    if _cli_rows(out.getvalue()) != _expected_rows(w, untraced):
        problems.append("traced CLI rows differ from the untraced sweep")

    metrics = tracer.metrics(traced_s)
    metrics["trace.overhead_frac"] = _metric(traced_s / untraced.sweep_s - 1.0, "ratio")
    return metrics, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="Monte Carlo seed")
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    w = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed, problems = trace(w, args.seed)
    else:
        metrics, attempted, failed, problems = measure(w, args.seed, args.seconds)

    for problem in problems:
        print(f"covbench: {problem}", file=sys.stderr)
    print(f"covbench: {w.name}: error_rate {failed / attempted:.6g} ({failed}/{attempted})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"covbench: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
