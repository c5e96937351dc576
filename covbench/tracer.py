"""Layer tracer for the coverage benchmark.

The tracer wraps the public functions at each layer boundary of
`corridor_cov` from outside the package, keeps spans in memory and reduces
them to per-layer metrics when the traced run ends.  Nothing in the library
is edited; `install` patches module and class attributes and `uninstall`
puts the originals back.

Layers and the functions that bound them:

- `analytic.cache`: the first public accessor call (`pdf`, `cdf`, `ppf`,
  `mean_below`, `x_lo`, `x_hi`) on each `ReceivedPowerDistribution`, which
  builds its cached splines;
- `analytic.laplace`: `InterferenceLaplace{BPP,HPPP}.derivative_series`;
- `analytic.coverage`: `{Bpp,Hppp}CoverageModel.coverage` (outer integral);
- `analytic.dominant`: `BppCoverageModel.coverage_dominant` and
  `coverage_single_dominant`;
- `quadrature`: `integrate`, wherever a `corridor_cov` module binds it, at
  every nesting level (a counter, not a span);
- `simulator`: `empirical_coverage` (the Monte Carlo phase) with children
  `simulate_sir` (sample) and `coverage_from_sirs` (reduce).

Every quadrature node is attributed to the innermost open analytic span.
All reported layer times are self times: a span's duration minus the spans
it opened.  Quadrature is not a span, so its time stays in its caller.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

CACHE = "analytic.cache"
LAPLACE = "analytic.laplace"
COVERAGE = "analytic.coverage"
DOMINANT = "analytic.dominant"
MC = "simulator.mc"
SAMPLE = "simulator.sample"
REDUCE = "simulator.reduce"

_DIST_METHODS = ("pdf", "cdf", "ppf", "mean_below")
_DIST_PROPERTIES = ("x_lo", "x_hi")

# Share of the traced sweep time the layer parts may miss or double count.
CLOSURE_TOLERANCE = 0.03


@dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    child_s: float = 0.0
    nodes: int = 0

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._built = weakref.WeakSet()
        self._quad_depth = 0
        self.quad_calls = 0
        self.quad_nodes = 0
        self.quad_s = 0.0
        self.unattributed_nodes = 0
        self.clamp_events = 0
        self.trials = 0
        self.kept = 0
        self.peak_alloc_bytes = 0

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.end - sp.start
            self.spans.append(sp)

    # -- wrappers ------------------------------------------------------------

    def _wrap_span(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_integrate(self, fn):
        def integrate(*args, **kwargs):
            outermost = self._quad_depth == 0
            t0 = time.perf_counter()
            self._quad_depth += 1
            try:
                res = fn(*args, **kwargs)
            finally:
                self._quad_depth -= 1
                if outermost:
                    self.quad_s += time.perf_counter() - t0
            self.quad_calls += 1
            self.quad_nodes += res.n_evals
            if self._stack:
                self._stack[-1].nodes += res.n_evals
            else:
                self.unattributed_nodes += res.n_evals
            return res

        return integrate

    def _wrap_first_access(self, fn):
        built = self._built

        def accessor(dist, *args, **kwargs):
            if dist in built:
                return fn(dist, *args, **kwargs)
            built.add(dist)
            with self.span(CACHE):
                return fn(dist, *args, **kwargs)

        return accessor

    def _wrap_laplace(self, fn):
        def derivative_series(lap, s, x0, order, *args, **kwargs):
            for_coverage = bool(self._stack) and self._stack[-1].name == COVERAGE
            with self.span(LAPLACE):
                series = fn(lap, s, x0, order, *args, **kwargs)
            if for_coverage:
                # The conditional coverage the caller forms from this series
                # (same terms, same order); outside [0, 1] it gets clamped.
                acc = 0.0
                for k in range(order + 1):
                    acc += (-s) ** k / math.factorial(k) * series[k]
                if not 0.0 <= acc <= 1.0:
                    self.clamp_events += 1
            return series

        return derivative_series

    def _wrap_mc_phase(self, fn):
        def empirical_coverage(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                with self.span(MC):
                    return fn(*args, **kwargs)
            finally:
                self.peak_alloc_bytes = max(
                    self.peak_alloc_bytes, tracemalloc.get_traced_memory()[1]
                )
                if started:
                    tracemalloc.stop()

        return empirical_coverage

    def _wrap_simulate(self, fn):
        sig = inspect.signature(fn)

        def simulate_sir(*args, **kwargs):
            trials = sig.bind(*args, **kwargs).arguments["trials"]
            with self.span(SAMPLE):
                sirs, excluded = fn(*args, **kwargs)
            self.trials += int(trials)
            self.kept += len(sirs)
            return sirs, excluded

        return simulate_sir

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self):
        from corridor_cov import analytic, quadrature, simulator

        orig = quadrature.integrate
        wrapped = self._wrap_integrate(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.split(".")[0] == "corridor_cov" and getattr(mod, "integrate", None) is orig:
                self._patch(mod, "integrate", wrapped)

        dist = analytic.ReceivedPowerDistribution
        for name in _DIST_METHODS:
            self._patch(dist, name, self._wrap_first_access(getattr(dist, name)))
        for name in _DIST_PROPERTIES:
            self._patch(dist, name, property(self._wrap_first_access(getattr(dist, name).fget)))

        for cls in (analytic.InterferenceLaplaceBPP, analytic.InterferenceLaplaceHPPP):
            self._patch(cls, "derivative_series", self._wrap_laplace(cls.derivative_series))
        for cls in (analytic.BppCoverageModel, analytic.HpppCoverageModel):
            self._patch(cls, "coverage", self._wrap_span(COVERAGE, cls.coverage))
        bpp = analytic.BppCoverageModel
        for name in ("coverage_dominant", "coverage_single_dominant"):
            self._patch(bpp, name, self._wrap_span(DOMINANT, getattr(bpp, name)))

        self._patch(simulator, "empirical_coverage", self._wrap_mc_phase(simulator.empirical_coverage))
        self._patch(simulator, "simulate_sir", self._wrap_simulate(simulator.simulate_sir))
        self._patch(simulator, "coverage_from_sirs", self._wrap_span(REDUCE, simulator.coverage_from_sirs))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -----------------------------------------------------------

    def metrics(self, sweep_s):
        """Per-layer metrics for a traced sweep that took `sweep_s` seconds.

        Raises RuntimeError when the layer parts do not add up to the sweep.
        """
        by_name = defaultdict(list)
        for sp in self.spans:
            by_name[sp.name].append(sp)

        def self_s(name):
            return sum(sp.self_s for sp in by_name[name])

        def nodes(name):
            return sum(sp.nodes for sp in by_name[name])

        top_s = sum(sp.end - sp.start for sp in self.spans if sp.parent is None)
        cli_self_s = sweep_s - top_s
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        # Every metric is reported on every workload.  Counts of a layer that
        # did not run read 0; times are only those of parts that always run,
        # so no reported time is 0.
        put("analytic.cache.builds", len(by_name[CACHE]), "count")
        put("analytic.cache.build_s", self_s(CACHE), "s")
        put("analytic.cache.nodes", nodes(CACHE), "count")
        put("analytic.laplace.calls", len(by_name[LAPLACE]), "count")
        put("analytic.laplace.nodes", nodes(LAPLACE), "count")
        put("analytic.coverage.calls", len(by_name[COVERAGE]), "count")
        put("analytic.coverage.nodes", nodes(COVERAGE), "count")
        put("analytic.coverage.clamp_events", self.clamp_events, "count")
        put("analytic.dominant.calls", len(by_name[DOMINANT]), "count")
        put("analytic.dominant.nodes", nodes(DOMINANT), "count")
        put("analytic.eval_s", sum(self_s(n) for n in (LAPLACE, COVERAGE, DOMINANT)), "s")
        put("quadrature.calls", self.quad_calls, "count")
        put("quadrature.nodes", self.quad_nodes, "count")
        put("quadrature.nodes_per_s", self.quad_nodes / self.quad_s if self.quad_s else 0.0, "1/s")
        put("simulator.trials", self.trials, "count")
        put("simulator.kept_frac", self.kept / self.trials if self.trials else 0.0, "ratio")
        put("simulator.peak_alloc_mb", self.peak_alloc_bytes / 2**20, "MiB")
        put("cli.self_s", cli_self_s, "s")

        parts = sum(self_s(n) for n in (CACHE, LAPLACE, COVERAGE, DOMINANT, SAMPLE, REDUCE))
        gap = abs(parts + cli_self_s - sweep_s)
        if gap > CLOSURE_TOLERANCE * sweep_s:
            raise RuntimeError(
                f"layer times miss {gap:.3f} s of the {sweep_s:.3f} s traced sweep"
            )
        if self.unattributed_nodes:
            raise RuntimeError(
                f"{self.unattributed_nodes} quadrature nodes ran outside every analytic span"
            )
        return out
