"""Independent Monte Carlo engine for the corridor network.

Everything analytic in this package has a simulation twin here: network
realizations under BPP / finite-HPPP / 2D-disc spatial models, max-power and
min-distance association, SIR sampling, empirical coverage curves, KL
comparison of height models, and measurement-trace replay.

Reproducibility: every entry point runs its trials through one batch loop,
`_simulate`, which `_draw_batch` feeds from the channel model or a trace.
The loop runs the trials through `_map_batches` in fixed-size batches;
batch b draws from its own SFC64 generator, seeded by
SeedSequence(seed) with spawn key (b,) (the b-th child of
SeedSequence(seed).spawn), so the same master seed gives bit-identical
results however many threads run the batches.  The seed must be an
integer >= 0 of any number of bits.  Releases before the SFC64 substreams drew
batch b from Philox(key=seed).jumped(b), so their same-seed results
differ.  `sample_heights` draws from SeedSequence(seed) with an empty spawn
key, a stream apart from every batch's.  `_map_batches` runs one
thread per CPU the process may use, and no more than there are batches;
`taskset` limits it.  With CORRIDOR_COV_LOG=debug it logs one line per
call.  Within a batch the number of trials of each UAV count is drawn
first (finite HPPP only, as one multinomial over the Poisson pmf of the
mean count; BPP and Disc2D counts are fixed).  The trials are taken in
order of count, and every per-UAV quantity is drawn as one flat stream with
one value per UAV of the batch, holding the UAVs of those trials one after
another (`_Layout`).  The trials of each count form a dense block, with no
padding.  A BPP or Disc2D batch is one block, and its SIRs are returned in
that order.  A finite-HPPP batch returns the SIRs of its non-empty trials
permuted by a permutation from the batch's order stream (spawn key (b, 1),
see `_Layout.ordered`), so no SIR's place depends on its trial's count.
Releases before the multinomial drew one Poisson count per trial from the
batch stream and sorted the trials by count, so their finite-HPPP
same-seed results differ; BPP, Disc2D and trace-on-BPP results do not.
The per-UAV draws come in a fixed order per entry point:

- `simulate_sir`: positions, shadowing, then fading.  Heights that are not
  fixed come from the batch's height stream, the first child of its
  generator (SeedSequence spawn key (b, 0)), so runs under one seed share
  positions, shadowing and fading whatever the policy or height model:
  coupled comparisons (common random numbers) call it once per model.
  Shadowing is applied at realization time (association measures S * l(d),
  agnostic to fast fading); fading is drawn at SIR time.
- `trace_replay`: positions, then fading ("redraw" mode only); the trace
  supplies the powers and distances (`_draw_batch`).
- `synthesize_trace` draws from batch 0's substream: heights, then
  shadowing.

Shadowing and fading are Gamma draws of `core.sample_gamma`: an integer
shape from 2 to 4 (q = 2 or m = 3, say) takes that many uniforms per
value, and every other shape numpy's standard_gamma.

Memory: the blocks are cut at trial boundaries into pieces of about
`_PIECE_UAVS` UAVs, and the per-UAV work after the whole-batch draws runs
piece by piece.  Gamma draws made piece by piece give the values of one
whole-batch call and leave the stream where it would, so the draw order
above holds.  Besides the per-count trial numbers, these per-UAV arrays
span a batch:

- max-power: one array, which holds the positions, then (from the channel
  model) the squared distances, then the powers; drawn heights add a
  second array until the distances are formed;
- min-distance: the squared distances and the powers.

Everything else (shadowing, fading, faded powers, serving indices, SIRs,
tallies and histogram counts) is per piece, and so is the block of
uniforms that an integer-shape Gamma draw takes them from, of at most
4 * 2**13 values (256 KiB).  Only `simulate_sir` without a grid keeps a
run's SIRs (and, for a finite HPPP, a batch's permutation), to return
them; the other entry points tally each piece.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .core import (
    BPP,
    CorridorGeometry,
    Disc2D,
    FiniteHPPP,
    FixedHeight,
    InverseGammaShadowing,
    ParameterError,
    _is_integer,
    _require,
    db_to_linear,
    linear_to_db,
    sample_gamma,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "GridMismatchError",
    "TraceFormatError",
    "MappingError",
    "CoverageCurve",
    "SirTally",
    "EmpiricalDistribution",
    "ReplayResult",
    "Trace",
    "simulate_sir",
    "empirical_coverage",
    "coverage_from_sirs",
    "height_model_kl_study",
    "HeightKlResult",
    "kl_divergence",
    "fit_normal_height",
    "fit_uniform_height",
    "sample_heights",
    "synthesize_trace",
    "trace_replay",
]

DEFAULT_BATCH_SIZE = 1 << 16

# UAVs per piece of a batch (see `_Layout`): the per-piece arrays of 2**15
# float64 values, 256 KiB each, stay in a 2 MiB L2 cache together.
_PIECE_UAVS = 1 << 15

# The two-sided 95% normal quantile of `coverage_from_sirs`' Wilson interval
_WILSON_Z = 1.959963984540054

MAX_POWER = "max_power"
MIN_DISTANCE = "min_distance"


log = logging.getLogger(__name__)


class GridMismatchError(ValueError):
    """Raised when two empirical distributions do not share a bin grid."""


class TraceFormatError(ValueError):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class MappingError(ValueError):
    """A simulated position cannot be mapped onto the trace."""


def _check_integer(value, name, least):
    """Raise ParameterError naming `name` unless `value` is an integer >= `least`."""
    if not _is_integer(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}")


def _substream(seed, batch_index):
    """The generator of batch `batch_index`: SFC64 seeded by the child of
    SeedSequence(seed) with spawn key (batch_index,), the one that
    SeedSequence(seed).spawn gives at that index."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(batch_index,)))
    )


def sample_heights(height_model, count, seed):
    """`count` heights from `height_model`, as data apart from any
    simulation: drawn by SFC64 on SeedSequence(seed) with an empty spawn
    key, a stream disjoint from every batch's `_substream(seed, b)`."""
    _check_integer(count, "count", 0)
    _check_integer(seed, "seed", 0)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    return np.asarray(height_model.sample(rng, count), dtype=float)


# ---------------------------------------------------------------------------
# Batch engine
# ---------------------------------------------------------------------------


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_batches(entry, fn, trials, batch_size, seed):
    """([result_b for each batch b], kept): fn(rng_b, size_b) returns
    (result_b, kept_b), kept_b being the number of the batch's trials with at
    least one UAV.

    Batch b holds `batch_size` trials (the last one the remainder) and draws
    from `_substream(seed, b)`, so the results do not depend on the thread
    count: min(number of batches, `_cpu_count()`).  Logs one debug line per
    call, naming the calling `entry` point.
    """
    _check_integer(trials, "trials", 1)
    _check_integer(batch_size, "batch_size", 1)
    _check_integer(seed, "seed", 0)
    start = time.perf_counter()
    sizes = [min(batch_size, trials - first) for first in range(0, trials, batch_size)]

    def run(b):
        return fn(_substream(seed, b), sizes[b])

    threads = min(len(sizes), _cpu_count())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(run, range(len(sizes))))
    else:
        batches = [run(b) for b in range(len(sizes))]
    results, kept_per_batch = zip(*batches)
    kept = sum(kept_per_batch)
    log.debug(
        "%s: %d trials in %d batches on %d threads, %d kept, %d excluded, %.3f s",
        entry, trials, len(sizes), threads, kept, trials - kept, time.perf_counter() - start,
    )
    return list(results), kept


def _child(rng, key):
    """Child `key` of the batch generator `rng`: SFC64 on the SeedSequence
    whose spawn key is rng's with `key` appended, the one that rng.spawn
    gives as its `key`-th child.  Key 0 is the height stream, key 1 the
    order stream of a finite-HPPP batch's returned SIRs."""
    seq = rng.bit_generator.seed_seq
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (key,)))
    )


def _poisson_pmf(mu):
    """The Poisson(mu) pmf on 0..K, where K is the first count whose upper
    tail P(N > K) underflows to 0 in double precision, so a multinomial over
    it lumps no tail mass into its last category.  A value is a difference
    of cdf values up to the mean and of upper-tail values above it, so both
    tails keep their relative accuracy and the values sum to 1 within a few
    roundings."""
    K = max(1, math.ceil(mu))
    while special.pdtrc(K, mu) > 0.0:
        K *= 2
    k = np.arange(K + 1)
    tail = special.pdtrc(k, mu)
    k = k[: int(np.argmax(tail == 0.0)) + 1]
    tail = tail[: k.size]
    return np.where(k <= mu, np.diff(special.pdtr(k, mu), prepend=0.0), -np.diff(tail, prepend=1.0))


def _draw_positions(spatial, geom, rng, size, pmf=None):
    """(positions, layout) of one batch of `size` trials: the number of
    trials of each UAV count (see `_Layout`), then the coordinates of all
    the batch's UAVs as one flat array in the layout's order.

    A BPP or Disc2D batch draws no counts.  A finite-HPPP batch draws its
    per-count trial numbers as one multinomial over `pmf`, the
    `_poisson_pmf` of its mean count: the per-count numbers of `size` iid
    Poisson counts follow exactly that multinomial law."""
    if isinstance(spatial, FiniteHPPP):
        n_trials = rng.multinomial(size, pmf)
    elif isinstance(spatial, (BPP, Disc2D)):
        n_trials = np.zeros(spatial.n + 1, dtype=np.int64)
        n_trials[-1] = size
    else:
        raise ParameterError(f"unsupported spatial model {spatial!r}")
    layout = _Layout(n_trials, shuffled=isinstance(spatial, FiniteHPPP))
    if isinstance(spatial, Disc2D):
        # Uniform in the disc: ground radius density 2r/radius^2.
        pos = spatial.radius * np.sqrt(rng.uniform(0.0, 1.0, layout.n_uavs))
    else:
        pos = rng.uniform(-geom.R, geom.R, layout.n_uavs)
    return pos, layout


class _Layout:
    """Count-ordered layout of one batch, cut into pieces.

    `n_trials[c]` of the batch's trials hold c UAVs.  The layout takes the
    trials in order of count, and every flat per-UAV array of the batch
    holds their UAVs one after another: the trials of each count c > 0
    form one contiguous slice, which reshapes without a copy into a dense
    (n_trials[c], c) block.  A BPP or Disc2D batch is one block.  Each
    block is cut at trial boundaries into pieces of at most
    max(_PIECE_UAVS, c) UAVs.  No per-trial array is formed: the per-count
    numbers are the whole layout.
    """

    def __init__(self, n_trials, shuffled):
        self.n_trials = n_trials
        n_uavs = n_trials * np.arange(n_trials.size)
        first_uav = np.cumsum(n_uavs) - n_uavs
        self._blocks = [
            (int(c), int(n_trials[c]), int(first_uav[c])) for c in np.flatnonzero(n_trials[1:]) + 1
        ]
        self.kept = sum(k for _, k, _ in self._blocks)
        self.n_uavs = int(n_uavs.sum())
        # no piece holds more than the batch, or than max(_PIECE_UAVS, c)
        largest_count = self._blocks[-1][0] if self._blocks else 0
        self._largest_piece = min(self.n_uavs, max(_PIECE_UAVS, largest_count))
        self._shuffled = shuffled

    def pieces(self, *flat):
        """Per piece, in the flat order: the dense (rows, c) view of each flat
        per-UAV array (None stays None), then a scratch array of that shape,
        which the next piece reuses."""
        buf = np.empty(self._largest_piece)
        for c, k, start in self._blocks:
            step = max(1, _PIECE_UAVS // c)
            for first in range(0, k, step):
                uavs = slice(start + first * c, start + min(k, first + step) * c)
                views = [None if a is None else a[uavs].reshape(-1, c) for a in flat]
                yield (*views, buf[: uavs.stop - uavs.start].reshape(-1, c))

    def ordered(self, parts, rng):
        """The per-trial values of the non-empty trials, given piece by
        piece, in the order the entry points return them.  A BPP or Disc2D
        batch keeps the layout's order.  A finite-HPPP batch returns
        values[perm], perm = _child(rng, 1).permutation(kept), so that no
        value's place depends on its trial's count; that stream is apart
        from rng's own, so the draws do not depend on whether SIRs are
        returned or tallied."""
        values = np.concatenate(parts) if parts else np.empty(0)
        if self._shuffled:
            values = values[_child(rng, 1).permutation(values.size)]
        return values


def _draw_batch(spatial, geom, source, size, rng, keep_d2, pmf=None):
    """One batch of `size` realizations, drawn as far as association needs:
    (layout, powers, d2), flat per UAV in the order of `layout`.

    Counts (from `pmf`, as in `_draw_positions`) and positions are drawn for the
    whole batch; then, piece by piece, a `ChannelParams` source draws
    shadowing S and gives the powers S * (d^2)^(-alpha/2), and a
    `Trace` draws nothing and gives each UAV the linear power and d2 of its
    nearest sample.  The channel model's heights, if not fixed, come from
    the batch generator's height stream `_child(rng, 0)`, so they leave the
    draws of `rng` as a fixed height (a scalar) does.  The powers are
    written over the positions; `keep_d2` keeps the squared link distances
    as `d2` (None otherwise).
    """
    pos, layout = _draw_positions(spatial, geom, rng, size, pmf)
    if isinstance(source, Trace):
        trace_power = db_to_linear(source.rx_power_dbm)
        trace_d2 = source.position_m**2 + source.height_m**2
        d2 = np.empty_like(pos) if keep_d2 else None
        for x, d, _ in layout.pieces(pos, d2):
            idx = source.nearest_index(x)
            if keep_d2:
                d[...] = trace_d2[idx]
            x[...] = trace_power[idx]
        return layout, pos, d2
    model = geom.height_model
    if isinstance(model, FixedHeight):
        heights = model.h
    else:
        heights = model.sample(_child(rng, 0), pos.shape)
    d2 = pos  # formed in place
    d2 *= d2
    d2 += heights * heights
    powers = np.empty_like(d2) if keep_d2 else d2
    for d, p, scratch in layout.pieces(d2, powers):
        shadowing = sample_gamma(rng, source.q, 1.0 / source.gamma, scratch)
        np.divide(1.0, shadowing, out=shadowing)
        if keep_d2:
            p[...] = d
        p **= -0.5 * source.alpha
        p *= shadowing
    return layout, powers, d2 if keep_d2 else None


def _serving(policy, powers, dist):
    """Index of the serving UAV of each row of a dense block: the strongest
    without fast fading, or the nearest.  `dist` may be the link distances
    or any increasing function of them, such as d^2.  Ties break to the
    lowest index."""
    return np.argmax(powers, axis=1) if policy == MAX_POWER else np.argmin(dist, axis=1)


def _combine_sir(faded, serving):
    """Linear SIR of each row of a dense block of faded received powers,
    served by its UAV `serving`; a row with no interference gets SIR = inf."""
    total = faded.sum(axis=1)
    signal = faded[np.arange(faded.shape[0]), serving]
    interference = np.maximum(total - signal, 0.0)
    return np.divide(
        signal,
        interference,
        out=np.full_like(signal, np.inf),
        where=interference > 0,
    )


def _simulate(spatial, geom, source, m, trials, seed, policy, batch_size, tally):
    """(sirs, n_excluded) from the batch loop of every Monte Carlo entry
    point: batches from `_draw_batch` with the power `source`, each piece
    faded by Nakagami-`m` draws (none if `m` is None), served by `policy`
    and combined into linear SIRs.  `sirs` holds them in trial order or,
    given `tally`, a tally of no samples, their tally on its grids."""
    if policy not in (MAX_POWER, MIN_DISTANCE):
        raise ParameterError(f"unknown association policy {policy!r}")
    pmf = _poisson_pmf(spatial.mean_count(geom)) if isinstance(spatial, FiniteHPPP) else None

    def run(rng, size):
        layout, powers, d2 = _draw_batch(
            spatial, geom, source, size, rng, keep_d2=policy == MIN_DISTANCE, pmf=pmf
        )
        parts = []
        for p, d, scratch in layout.pieces(powers, d2):
            faded = p
            if m is not None:
                faded = sample_gamma(rng, m, 1.0 / m, scratch)
                faded *= p
            sirs = _combine_sir(faded, _serving(policy, p, d))
            parts.append(sirs if tally is None else SirTally.of(sirs, tally.theta_db, tally.hist_db))
        if tally is None:
            return layout.ordered(parts, rng), layout.kept
        return sum(parts, tally), layout.kept

    entry = "trace_replay" if isinstance(source, Trace) else "simulate_sir"
    parts, kept = _map_batches(entry, run, trials, batch_size, seed)
    return np.concatenate(parts) if tally is None else sum(parts, tally), trials - kept


def simulate_sir(
    spatial,
    geom,
    channel,
    trials,
    seed,
    policy=MAX_POWER,
    batch_size=DEFAULT_BATCH_SIZE,
    theta_db=None,
):
    """Linear SIR samples over `trials` network draws.

    Empty HPPP realizations are excluded (the analytic side conditions on a
    non-empty corridor); single-UAV realizations yield SIR = inf.  Returns
    (sirs, n_excluded).  With a dB grid `theta_db`, each batch is reduced as
    it is drawn, and `sirs` is the `SirTally` of the samples on that grid.
    Calls with one seed share positions, shadowing and fading, whatever
    the policy or height model (common random numbers).
    """
    tally = None if theta_db is None else SirTally.of(np.empty(0), _theta_grid(theta_db))
    return _simulate(spatial, geom, channel, channel.m, trials, seed, policy, batch_size, tally)


# ---------------------------------------------------------------------------
# Coverage curves
# ---------------------------------------------------------------------------


@dataclass
class CoverageCurve:
    """Coverage values over a theta grid (dB); a Monte Carlo curve also
    carries each value's binomial standard error and its 95% interval
    [ci_low, ci_high]."""

    theta_db: np.ndarray
    coverage: np.ndarray
    n_trials: int = 0
    stderr: Optional[np.ndarray] = None
    ci_low: Optional[np.ndarray] = None
    ci_high: Optional[np.ndarray] = None

    def max_gap(self, other: "CoverageCurve"):
        if not np.array_equal(self.theta_db, other.theta_db):
            raise GridMismatchError("coverage curves use different theta grids")
        return float(np.max(np.abs(self.coverage - other.coverage)))


@dataclass
class SirTally:
    """Linear SIR samples reduced to what a coverage curve needs: how many
    exceed each threshold of the dB grid `theta_db`.  Given the bin edges
    `hist_db` (dB), `hist` also counts the finite SIRs in each bin; SIRs
    outside the bins are not counted.  len() is the number of samples."""

    theta_db: np.ndarray
    above: np.ndarray
    n: int
    hist_db: Optional[np.ndarray] = None
    hist: Optional[np.ndarray] = None

    @classmethod
    def of(cls, sirs, theta_db, hist_db=None):
        """The tally of the linear SIRs `sirs` on the grids `theta_db` and `hist_db`."""
        theta_db = np.atleast_1d(np.asarray(theta_db, dtype=float))
        above = [np.count_nonzero(sirs > th) for th in db_to_linear(theta_db)]
        hist = None
        if hist_db is not None:
            kept = sirs[np.isfinite(sirs) & (sirs > 0)]
            hist = np.histogram(linear_to_db(kept), bins=hist_db)[0]
        return cls(theta_db, np.array(above, dtype=np.int64), len(sirs), hist_db, hist)

    def __add__(self, other):
        """The tally of the samples of both, on their shared grids."""
        hist = None if self.hist is None else self.hist + other.hist
        return SirTally(self.theta_db, self.above + other.above, self.n + other.n, self.hist_db, hist)

    def __len__(self):
        return self.n


def _theta_grid(theta_db):
    """The dB thresholds `theta_db` as a 1-D float array; raises
    ParameterError unless all are finite.  The entry points check once per
    call, before any draw; `SirTally.of`, which runs per piece, does not."""
    theta_db = np.atleast_1d(np.asarray(theta_db, dtype=float))
    _require(np.isfinite(theta_db).all(), "SIR thresholds theta_db (dB) must be finite")
    return theta_db


def _wilson_interval(k, n):
    """The Wilson score interval of a binomial proportion with k successes
    in n trials (Brown, Cai & DasGupta, Statistical Science 16, 2001):
    (p + z^2/2n -+ z sqrt(p (1 - p) / n + z^2 / 4n^2)) / (1 + z^2/n), p = k/n.
    It is never zero-width: at k = 0 it is [0, z^2 / (n + z^2)], and its
    ends are exactly 0 at k = 0 and 1 at k = n."""
    k = np.asarray(k)
    p = k / n
    z = _WILSON_Z
    z2n = z * z / n
    center = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z / (1.0 + z2n) * np.sqrt(p * (1.0 - p) / n + 0.25 * z2n / n)
    return np.where(k == 0, 0.0, center - half), np.where(k == n, 1.0, center + half)


def coverage_from_sirs(sirs, theta_db):
    """Empirical survival function of the SIR samples on a dB grid, with its
    standard error and Wilson interval (`_wilson_interval`).  `sirs` is an
    array of linear SIRs or their `SirTally` on the same grid."""
    theta_db = _theta_grid(theta_db)
    if not isinstance(sirs, SirTally):
        sirs = SirTally.of(sirs, theta_db)
    elif not np.array_equal(sirs.theta_db, theta_db):
        raise GridMismatchError("the SIR tally uses a different theta grid")
    n = len(sirs)
    if n == 0:
        raise ParameterError("no SIR samples (all realizations empty?)")
    cov = sirs.above / n
    stderr = np.sqrt(cov * (1.0 - cov) / n)
    ci_low, ci_high = _wilson_interval(sirs.above, n)
    return CoverageCurve(theta_db, cov, n_trials=n, stderr=stderr, ci_low=ci_low, ci_high=ci_high)


def empirical_coverage(
    spatial, geom, channel, theta_db, trials, seed, batch_size=DEFAULT_BATCH_SIZE
):
    """Monte Carlo coverage curve under max-power association: fraction of
    SIR samples above each threshold.  Empty HPPP realizations are excluded
    from the denominator; single-UAV realizations count as covered (infinite
    SIR).  Each batch is reduced to threshold counts as it is drawn; the
    SIRs are not kept."""
    tally, _ = simulate_sir(
        spatial, geom, channel, trials, seed, batch_size=batch_size, theta_db=theta_db
    )
    return coverage_from_sirs(tally, theta_db)


# ---------------------------------------------------------------------------
# Height-model studies
# ---------------------------------------------------------------------------


def fit_normal_height(samples):
    """Moment fit of a Normal height model: (mu, sigma)."""
    samples = np.asarray(samples, dtype=float)
    return float(samples.mean()), float(samples.std(ddof=1))


@dataclass(frozen=True)
class _QuantileHeight:
    """Heights quantile(U) of uniforms U from the height stream: models
    sharing that stream map the same U."""

    quantile: Callable

    def sample(self, rng, size):
        return self.quantile(rng.uniform(0.0, 1.0, size))


def _grid_quantile(data):
    """The quantile function u -> np.interp(u, linspace(0, 1, n), data) of
    the sorted `data`, bit for bit for u in [0, 1].  The grid is uniform, so
    u (n - 1) locates each bracket to within one step, and one correction
    each way replaces np.interp's binary search over the n points; the
    value is np.interp's own slope (u - xp[j]) + data[j].  A slope of 0
    past the last point returns data[-1] at u = 1."""
    n = len(data)
    xp = np.linspace(0.0, 1.0, n)
    xp_next = np.append(xp[1:], np.inf)
    slopes = np.append(np.diff(data) / np.diff(xp), 0.0)

    def quantile(u):
        j = (u * (n - 1)).astype(np.intp)
        j -= xp[j] > u
        j += xp_next[j] <= u
        return slopes[j] * (u - xp[j]) + data[j]

    return quantile


@dataclass
class HeightKlResult:
    mu: float
    sigma: float
    uniform_low: float
    uniform_high: float
    kl_normal: float
    kl_uniform: float
    normal_coverage: CoverageCurve
    uniform_coverage: CoverageCurve


def height_model_kl_study(
    spatial,
    R,
    data_heights,
    channel,
    theta_db,
    trials,
    seed,
    batch_size=DEFAULT_BATCH_SIZE,
):
    """KL comparison of fitted Normal vs Uniform height models, and their
    coverage curves on the dB grid `theta_db`.

    Runs `simulate_sir`'s batch loop once per height model under one seed,
    so the three runs share positions, shadowing and fading.  Their heights
    map the same height-stream uniforms through the quantile function of
    (a) the data's empirical distribution, (b) the moment-fitted Normal,
    clamped at 1e-9 m, (c) the moment-fitted Uniform, which draws what
    UniformHeight(lo, hi) draws, bit for bit, when lo > 0.  The coupling
    removes the shared Monte Carlo noise, so the KL values isolate the
    height-model mismatch.  Each piece of a batch is reduced to threshold
    and SIR histogram counts (1 dB bins over -30..30 dB) as it is drawn.
    `data_heights` must hold at least two heights, all finite and positive.
    """
    from scipy.special import ndtri

    theta_db = _theta_grid(theta_db)
    data = np.sort(np.asarray(data_heights, dtype=float))
    _require(
        data.size >= 2 and np.all(np.isfinite(data) & (data > 0)),
        "data_heights must hold at least two heights, all finite and positive",
    )
    mu, sigma = fit_normal_height(data)
    lo, hi = fit_uniform_height(data)
    hist_db = np.arange(-30.0, 30.5, 1.0)
    no_sirs = SirTally.of(np.empty(0), theta_db, hist_db)
    quantiles = {
        "true": _grid_quantile(data),
        "normal": lambda u: np.maximum(mu + sigma * ndtri(u), 1e-9),
        "uniform": lambda u: np.maximum(lo + (hi - lo) * u, 1e-9),
    }

    def sir_tally(quantile):
        geom = CorridorGeometry(R, _QuantileHeight(quantile))
        tally, _ = _simulate(
            spatial, geom, channel, channel.m, trials, seed, MAX_POWER, batch_size, no_sirs
        )
        return tally

    tallies = {key: sir_tally(quantile) for key, quantile in quantiles.items()}
    dists = {key: EmpiricalDistribution.from_counts(t.hist, hist_db) for key, t in tallies.items()}
    return HeightKlResult(
        mu=mu,
        sigma=sigma,
        uniform_low=lo,
        uniform_high=hi,
        kl_normal=kl_divergence(dists["true"], dists["normal"]),
        kl_uniform=kl_divergence(dists["true"], dists["uniform"]),
        normal_coverage=coverage_from_sirs(tallies["normal"], theta_db),
        uniform_coverage=coverage_from_sirs(tallies["uniform"], theta_db),
    )


def fit_uniform_height(samples):
    """Moment fit of a Uniform height model: mean +- sqrt(3) * std."""
    samples = np.asarray(samples, dtype=float)
    mu = samples.mean()
    half = math.sqrt(3.0) * samples.std(ddof=1)
    return float(mu - half), float(mu + half)


# ---------------------------------------------------------------------------
# Empirical distributions and KL divergence
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalDistribution:
    """Histogram density on a fixed bin grid; integrates to 1."""

    edges: np.ndarray
    density: np.ndarray
    n_samples: int = 0

    @classmethod
    def from_counts(cls, counts, edges):
        """The density of per-bin sample counts on the grid `edges`."""
        n = int(counts.sum())
        if n == 0:
            raise ParameterError("no samples fall inside the histogram grid")
        return cls(edges=edges, density=counts / (n * np.diff(edges)), n_samples=n)

    @classmethod
    def from_samples(cls, samples, edges):
        samples = np.asarray(samples, dtype=float)
        edges = np.asarray(edges, dtype=float)
        # np.histogram drops the samples outside the grid
        return cls.from_counts(np.histogram(samples[np.isfinite(samples)], bins=edges)[0], edges)


def kl_divergence(p: EmpiricalDistribution, q: EmpiricalDistribution):
    """KL(p || q) in nats on a shared grid.

    q-bins that are empty where p has mass get an additive 1e-12 so the
    sum stays finite; bins are otherwise untouched, which keeps KL(p, p)
    exactly zero and preserves the Gibbs bound KL >= 0.
    """
    if p.edges.shape != q.edges.shape or not np.allclose(p.edges, q.edges):
        raise GridMismatchError("KL divergence needs a shared bin grid")
    widths = np.diff(p.edges)
    mask = p.density > 0
    qd = np.maximum(q.density[mask], 1e-12)
    return float(np.sum(p.density[mask] * np.log(p.density[mask] / qd) * widths[mask]))


# ---------------------------------------------------------------------------
# Measurement traces and replay
# ---------------------------------------------------------------------------

_TRACE_HEADER = ["position_m", "height_m", "rx_power_dbm"]


@dataclass(frozen=True)
class Trace:
    """A power-versus-position record along the corridor.

    Every value is finite and the positions are strictly increasing;
    nearest-sample mapping error is half the sample spacing, which must not
    exceed the declared accuracy; `from_csv` declares half the largest gap.
    """

    position_m: np.ndarray
    height_m: np.ndarray
    rx_power_dbm: np.ndarray
    mapping_accuracy_m: float = 5e-4

    def __post_init__(self):
        for name in _TRACE_HEADER:
            column = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(column)):
                raise TraceFormatError(f"{name} holds a value that is not finite")
            object.__setattr__(self, name, column)
        if not math.isfinite(self.mapping_accuracy_m):
            raise TraceFormatError("mapping_accuracy_m is not finite")
        pos = self.position_m
        if len(pos) < 2:
            raise TraceFormatError("a trace needs at least two samples")
        if not (len(pos) == len(self.height_m) == len(self.rx_power_dbm)):
            raise TraceFormatError("trace columns have different lengths")
        gaps = np.diff(pos)
        if np.any(gaps <= 0):
            bad = int(np.argmax(gaps <= 0))
            raise TraceFormatError(
                f"positions must be strictly increasing (violated after sample {bad})"
            )
        if gaps.max() / 2.0 > self.mapping_accuracy_m * (1 + 1e-9):
            raise TraceFormatError(
                f"sample spacing {gaps.max():.6g} m cannot honor the declared "
                f"mapping accuracy {self.mapping_accuracy_m:.6g} m"
            )

    @property
    def n_samples(self):
        return len(self.position_m)

    @property
    def spacing(self):
        return float(np.median(np.diff(self.position_m)))

    @classmethod
    def from_csv(cls, path):
        positions, heights, powers = [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != _TRACE_HEADER:
                raise TraceFormatError(
                    f"expected header {','.join(_TRACE_HEADER)!r}", line_no=1
                )
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise TraceFormatError(f"expected 3 fields, got {len(row)}", line_no=line_no)
                try:
                    p, h, z = (float(v) for v in row)
                except ValueError as exc:
                    raise TraceFormatError(str(exc), line_no=line_no) from None
                if not all(map(math.isfinite, (p, h, z))):
                    raise TraceFormatError("values must be finite", line_no=line_no)
                if positions and p <= positions[-1]:
                    raise TraceFormatError("positions must be strictly increasing", line_no=line_no)
                positions.append(p)
                heights.append(h)
                powers.append(z)
        pos = np.array(positions)
        accuracy = float(np.diff(pos).max(initial=0.0) / 2.0)
        return cls(pos, np.array(heights), np.array(powers), accuracy)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_TRACE_HEADER)
            for p, h, z in zip(self.position_m, self.height_m, self.rx_power_dbm):
                writer.writerow([repr(float(p)), repr(float(h)), repr(float(z))])

    def nearest_index(self, positions):
        """Index of the nearest trace sample per position; raises
        MappingError if any position lies outside the trace extent."""
        positions = np.asarray(positions, dtype=float)
        lo, hi = self.position_m[0], self.position_m[-1]
        bad = (positions < lo) | (positions > hi)
        if bad.any():
            offending = float(positions[bad].ravel()[0])
            raise MappingError(
                f"position {offending:.6g} m outside trace extent [{lo:.6g}, {hi:.6g}] m"
            )
        right = np.searchsorted(self.position_m, positions).clip(1, self.n_samples - 1)
        left = right - 1
        pick_right = (self.position_m[right] - positions) <= (positions - self.position_m[left])
        return np.where(pick_right, right, left)


def synthesize_trace(geom, channel, spacing, seed):
    """Model-generated trace without fast fading: one shadowing draw per
    recorded position, powers from the channel model, heights from the
    geometry's height model.  Used for replay closure tests."""
    _check_integer(seed, "seed", 0)
    _require(spacing > 0, "trace spacing must be positive and finite", spacing)
    n = int(round(geom.length / spacing)) + 1
    _require(n >= 2, f"trace spacing {spacing!r} m leaves fewer than two samples on [-R, R]")
    rng = _substream(seed, 0)
    pos = np.linspace(-geom.R, geom.R, n)
    heights = np.asarray(geom.height_model.sample(rng, n), dtype=float)
    shadowing = InverseGammaShadowing(channel.q, channel.gamma).sample(rng, n)
    d2 = pos * pos + heights * heights
    powers = shadowing * d2 ** (-0.5 * channel.alpha)
    return Trace(pos, heights, np.asarray(linear_to_db(powers)), mapping_accuracy_m=(pos[1] - pos[0]) / 2)


@dataclass
class ReplayResult:
    coverage: CoverageCurve
    sir: EmpiricalDistribution | None  # None when no SIR falls in the histogram grid


def trace_replay(
    trace: Trace,
    spatial,
    geom,
    trials,
    theta_db,
    seed,
    policy=MAX_POWER,
    m=1.0,
    batch_size=DEFAULT_BATCH_SIZE,
):
    """Emulate a multi-UAV network from a recorded trace.

    Per trial: draw spatial positions, map each to the nearest trace sample,
    take that sample's power (dBm -> linear); the strongest mapped power
    serves and the rest interfere.  A finite m > 0 draws fresh Nakagami-m
    fading per mapped UAV (matching the simulator's SIR convention); m=None
    uses the recorded powers as they are, i.e. whatever fast fading the
    trace embeds.  The trials run through `simulate_sir`'s batch loop with
    the trace as the power source (see `_draw_batch`); each piece is reduced
    to threshold counts and SIR histogram counts (0.5 dB bins over -40..40
    dB) as it is drawn.  The result's `sir` is None when no SIR falls in that
    grid, as with one UAV per trial, whose SIR is infinite.
    """
    if m is not None:
        _require(m > 0, "fading shape m must be positive and finite", m)
    if trace.position_m[0] > -geom.R or trace.position_m[-1] < geom.R:
        raise MappingError(
            f"trace extent [{trace.position_m[0]:.6g}, {trace.position_m[-1]:.6g}] m "
            f"does not cover the corridor [-{geom.R:.6g}, {geom.R:.6g}] m"
        )
    hist_db = np.arange(-40.0, 40.5, 0.5)
    no_sirs = SirTally.of(np.empty(0), _theta_grid(theta_db), hist_db)
    tally, _ = _simulate(spatial, geom, trace, m, trials, seed, policy, batch_size, no_sirs)
    curve = coverage_from_sirs(tally, tally.theta_db)
    sir = EmpiricalDistribution.from_counts(tally.hist, hist_db) if tally.hist.any() else None
    return ReplayResult(coverage=curve, sir=sir)
