"""Adaptive Gauss-Kronrod quadrature over finite intervals.

All analytic coverage expressions in this package reduce to one- or
two-fold integrals over finite log-power intervals, smooth except for
integrable endpoint singularities (inverse square roots) and sharp
parameter-dependent peaks.  A global adaptive G7/K15 scheme handles both:
Kronrod nodes are strictly interior, so endpoints are never evaluated, and
the panels with the largest error estimates are bisected until the error
budget is met.

There is one adaptive rule: `integrate_batch` integrates a family f(rows, x)
over one interval, evaluating the panels of all rows in one batch per
sweep, and `integrate` is its one-row case.  An integrand may be
vector-valued, returning a (k, nodes) array: the k integrals of a row then
share its panels and each node is evaluated once, which is cheaper than k
scalar rows whenever the components share work (a density lookup, an exp).

Every row starts from the same equal panels, so every first sweep evaluates
a row at the same nodes: the bounds, the initial panel count and the rows of
its chunk fix them.  A caller that integrates one family many times,
changing only a parameter, splits f into its parameter-free `reads` and a
kernel, and passes a `memo` dict that keeps each chunk's panels and reads
sweep by sweep, so later calls compute only the kernel wherever they
evaluate the panels of the call the memo holds: on every first sweep, which
then builds no panel, and on each refinement sweep that bisects the same
panels.

A causal convolution c(u) = int_0^inf K(w) g(u - w) dw of samples on a
uniform grid, cut at both ends, is a third rule: `convolution_rule` folds
Gregory's end weights (`gregory_weights`) into both factors of the
trapezoid sums, `causal_convolution` takes them all as one FFT product, and
`interpolate_uniform` reads the result between the grid points, by a
`lagrange_stencil` that `apply_stencil` can reuse for other samples on the
same grid and positions.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "IntegralResult",
    "integrate",
    "integrate_batch",
    "gregory_weights",
    "convolution_rule",
    "causal_convolution",
    "lagrange_stencil",
    "apply_stencil",
    "interpolate_uniform",
]

# 15-point Kronrod extension of 7-point Gauss-Legendre (QUADPACK dqk15).
_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WGK_CENTER = 0.209482141084728
_WG_HALF = (0.129484966168870, 0.279705391489277, 0.381830050505119)
_WG_CENTER = 0.417959183673469

_NODES = np.array([-x for x in _XGK_HALF] + [0.0] + [x for x in reversed(_XGK_HALF)])
_KRONROD_W = np.array(list(_WGK_HALF) + [_WGK_CENTER] + list(reversed(_WGK_HALF)))
_GAUSS_W = np.zeros(15)
_GAUSS_W[[1, 13]] = _WG_HALF[0]
_GAUSS_W[[3, 11]] = _WG_HALF[1]
_GAUSS_W[[5, 9]] = _WG_HALF[2]
_GAUSS_W[7] = _WG_CENTER
# a panel's 15 node values times this (15, 2) matrix: its Kronrod and Gauss sums
_KRONROD_GAUSS_W = np.column_stack([_KRONROD_W, _GAUSS_W])

# First-sweep nodes per chunk of rows in `integrate_batch`: 64 rows at the
# default 8 panels.  A sweep keeps about ten node-sized temporaries live at
# once.  With glibc's default malloc, chunks of 13,440 nodes and more made
# them fault their pages in afresh on every call, and 11,520 or fewer did
# not; much smaller chunks pay more per-sweep overhead.
_BATCH_NODES = 7680

# Gregory's end corrections: the first coefficients G_1, G_2, ... of
# x / log(1 + x) = 1 + sum_n G_n x^n, which correct the trapezoid rule at a
# cut end by its forward differences (Henrici, Applied and Computational
# Complex Analysis, vol. 2, 1977, sect. 11.12); with p of them the rule's
# error at that end is O(h^(p + 1)).
_GREGORY = (1 / 2, -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480)
# Points of `lagrange_stencil`'s Lagrange polynomial, and its
# denominators prod_{i != j} (j - i).
_LAGRANGE_POINTS = 8
_LAGRANGE_SCALE = np.array([
    math.prod(j - i for i in range(_LAGRANGE_POINTS) if i != j) for j in range(_LAGRANGE_POINTS)
], dtype=float)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel counts of one adaptive rule: a row starts from
    `initial_panels` equal panels and is bisected up to `max_subdivisions`
    panels until its error is within max(abs_tol, rel_tol |value|).  A row
    that converges on its first sweep costs 15 nodes per initial panel, so a
    loose rule over a smooth integrand gains from fewer than the default 8.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    initial_panels: int = 8

    def __post_init__(self):
        # nan passes no `<= 0` check, and an infinite tolerance accepts any error
        if not all(0 < tol < math.inf for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError(
                f"tolerances must be positive and finite, got {self.rel_tol!r}, {self.abs_tol!r}"
            )
        for name in ("max_subdivisions", "initial_panels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    def scaled(self, factor):
        """Config with tolerances tightened by `factor` (used by nested rules)."""
        return replace(self, rel_tol=self.rel_tol * factor, abs_tol=self.abs_tol * factor)


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureError(ArithmeticError):
    """Raised when the requested accuracy cannot be certified.

    Carries the best available estimate so callers can decide whether the
    achieved accuracy is acceptable.
    """

    def __init__(self, message, best_estimate=math.nan, error_estimate=math.inf, level=None):
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.level = level
        if level is not None:
            message = f"[{level}] {message}"
        super().__init__(message)


@dataclass
class IntegralResult:
    value: float
    error: float
    n_evals: int


def _nodes(lo, hi):
    """The 15 Kronrod nodes of each panel [lo, hi], a (panels, 15) array."""
    x = np.multiply.outer(0.5 * (hi - lo), _NODES)
    x += (0.5 * (lo + hi))[:, None]
    return x


def _evaluate_panels(fy, lo, hi):
    """Gauss-Kronrod pair on a batch of panels, given the integrand's values
    fy at their `_nodes`, one per node or a (k, nodes) array for a
    k-component integrand.  Returns (kronrod, err, nev, vector): kronrod and
    err are (k, panels) arrays (k = 1 for a scalar integrand, which `vector`
    tells apart), and nev counts nodes.

    The Kronrod and Gauss sums of all panels and components are one matrix
    product with `_KRONROD_GAUSS_W`, and resasc is one more.

    The error estimate uses the QUADPACK rescaling: on panels where the
    integrand varies strongly (resasc comparable to |K - G|), the estimate
    is inflated towards resasc, which keeps it conservative for integrable
    endpoint singularities where the raw |K - G| difference undershoots.
    """
    half = 0.5 * (hi - lo)
    fy = np.asarray(fy, dtype=float)
    vector = fy.ndim == 2
    fy = fy.reshape(-1, lo.size, len(_NODES))
    with np.errstate(divide="ignore", invalid="ignore"):
        sums = fy @ _KRONROD_GAUSS_W  # (k, panels, 2)
        # Every Kronrod weight is positive, so a non-finite node value leaves
        # its panel's sum non-finite, with the product's warnings off; only
        # then are the nodes scanned.
        if not np.isfinite(sums).all():
            finite = np.isfinite(fy).all(axis=0)
            if not finite.all():
                raise QuadratureError(
                    f"integrand returned a non-finite value at x={_nodes(lo, hi)[~finite][0]!r}",
                )
        kron = sums[..., 0] * half
        raw = sums[..., 1] * half  # the Gauss sums, then |K - G| in place
        np.subtract(kron, raw, out=raw)
        np.abs(raw, out=raw)
        # |f - mean| in place: a fresh temporary of fy's size costs more than the product.
        # Its Kronrod sum goes through the same two-column product as `sums`: a
        # matrix-vector product rounds a panel differently by its position in
        # the batch, so a row's error estimate would depend on its chunk.
        deviation = fy - 0.5 * sums[..., :1]
        resasc = (np.abs(deviation, out=deviation) @ _KRONROD_GAUSS_W)[..., 0] * half
        err = 200.0 * raw
        err /= resasc
        err **= 1.5
        np.minimum(err, 1.0, out=err)
        err *= resasc
    positive = resasc > 0
    if not positive.all():
        np.copyto(err, raw, where=~positive)
    return kron, err, lo.size * len(_NODES), vector


def _adaptive_rows(f, rows, a, b, cfg, reads, memo):
    """The adaptive rule for every row of `rows` at once; returns (values,
    errors, nev, vector), values and errors as (k, rows) arrays.

    Each row starts from `cfg.initial_panels` equal panels, 15 nodes each
    on the first sweep, and stops once the summed error estimate of every
    component c is within max(abs_tol, rel_tol |value_c|).  Panels of all
    unfinished rows are evaluated in one batch per sweep; each row keeps its
    own stop rule, bisection set and subdivision limit.

    A `memo` keeps each sweep's layout and reads by position (see
    `integrate_batch`): the first sweep's entry is tagged with the initial
    panel count, which with the chunk's key fixes its panels, so a call at
    that count takes the held panels, node rows and reads and builds
    nothing; a refinement sweep's entry is tagged with the bytes of its
    panels, which the call forms and compares.  Panels are kept in one
    order, on which the rounding of the per-row sums depends: after each
    sweep, the rows' kept panels by row and decreasing error, then the left
    and the right halves of those it bisects.
    """
    n, panels = len(rows), cfg.initial_panels
    chunk = (a, b, int(rows[0]), n)

    def sweep_reads(sweep, at, layout):
        """The held layout (owner, lo, hi, node rows) and reads of `sweep`
        where its entry is tagged `at`; else those of the panels layout()
        returns, read afresh and held."""
        held = None if memo is None else memo.get(chunk + (sweep,))
        if held is None or held[0] != at:
            owner, lo, hi = layout()
            node_rows = rows[owner].repeat(len(_NODES))
            held = (at, (owner, lo, hi, node_rows), reads(node_rows, _nodes(lo, hi).ravel()))
            if memo is not None:
                memo[chunk + (sweep,)] = held
        return held[1], held[2]

    def first_panels():
        width = (b - a) / panels
        lo = a + width * np.arange(panels)
        hi = lo + width
        hi[-1] = b
        lo, hi = np.repeat(np.array([lo, hi])[:, None], n, axis=1).reshape(2, -1)  # every row's panels
        return np.repeat(np.arange(n), panels), lo, hi  # the local row of each panel

    (owner, lo, hi, node_rows), fixed = sweep_reads(0, panels, first_panels)
    values, errors, n_evals, vector = _evaluate_panels(f(node_rows, *fixed), lo, hi)
    k = len(values)
    component = n * np.arange(k)[:, None]
    out = None
    for sweep in itertools.count(1):
        key = (owner + component).ravel()  # one bin per (component, row)
        total, err = (np.bincount(key, v.ravel(), k * n).reshape(k, n) for v in (values, errors))
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        done = (err <= tol).all(axis=0)
        if out is None:  # the first sweep: every row has its panels
            if done.all():
                return total, err, n_evals, vector
            n_panels = np.full(n, panels)
            out = total, err  # rows not done now are written when they are
        else:
            n_panels = np.bincount(owner, minlength=n)
            done &= n_panels > 0  # rows finished before have no panels
            np.copyto(out[0], total, where=done)
            np.copyto(out[1], err, where=done)
        most = n_panels.max()
        if most >= cfg.max_subdivisions:
            failed = ~done & (n_panels >= cfg.max_subdivisions)
            if failed.any():
                i = np.flatnonzero(failed)[0]
                c = np.argmax(err[:, i] / tol[:, i])
                raise QuadratureError(
                    f"row {rows[i]}{f' component {c}' if vector else ''}: no convergence after "
                    f"{n_panels[i]} subdivisions (error {err[c, i]:.3e} > tolerance {tol[c, i]:.3e})",
                    best_estimate=total[:, i] if vector else total[0, i],
                    error_estimate=err[:, i] if vector else err[0, i],
                )
        # Drop finished rows; order the rest by row, largest error first (in
        # units of its component's budget).
        live = np.flatnonzero(~done[owner])
        if live.size == 0:
            return out[0], out[1], n_evals, vector
        owner = owner[live]
        excess = (errors[:, live] / tol[:, owner]).max(axis=0)
        order = np.lexsort((-excess, owner))
        owner, order = owner[order], live[order]
        errors = errors[:, order]
        head = np.empty(owner.size, dtype=bool)  # each row's first panel
        head[0] = True
        np.not_equal(owner[1:], owner[:-1], out=head[1:])
        # Per row, split every panel where some component is above its fair
        # share of that component's budget (the worst panel if none is), at
        # most as many as the subdivision limit leaves room for; this keeps
        # the number of refinement sweeps small.  A row splits at most the
        # panels it has, so the limit binds only on a row past half of it.
        split = (errors > tol[:, owner] / n_panels[owner]).any(axis=0)
        split |= head & (np.bincount(owner, split, n) == 0)[owner]
        if 2 * most > cfg.max_subdivisions:
            before = np.cumsum(split) - split
            rank = before - before[head][np.cumsum(head) - 1]
            split &= rank < (cfg.max_subdivisions - n_panels)[owner]
        keep = ~split
        bisect, order = order[split], order[keep]
        lo_s, hi_s = lo[bisect], hi[bisect]
        mid = 0.5 * (lo_s + hi_s)
        new_owner = np.concatenate([owner[split], owner[split]])
        new_lo = np.concatenate([lo_s, mid])
        new_hi = np.concatenate([mid, hi_s])
        (*_, node_rows), fixed = sweep_reads(
            sweep, b"".join(v.tobytes() for v in (new_owner, new_lo, new_hi)),
            lambda: (new_owner, new_lo, new_hi),
        )
        new_vals, new_errs, nev, _ = _evaluate_panels(f(node_rows, *fixed), new_lo, new_hi)
        n_evals += nev
        owner = np.concatenate([owner[keep], new_owner])
        lo = np.concatenate([lo[order], new_lo])
        hi = np.concatenate([hi[order], new_hi])
        values = np.concatenate([values[:, order], new_vals], axis=1)
        errors = np.concatenate([errors[:, keep], new_errs], axis=1)


def integrate(f, a, b, config=None, reads=None, memo=None):
    """Integrate a vectorized f (ndarray in, ndarray out) over a finite
    [a, b], a < b: the one-row case of `integrate_batch`, whose `reads` and
    `memo` this takes with the rows left out, f(*reads(x)).  f may return a
    (k, nodes) array, and value and error are then (k,) arrays.  Integrable
    endpoint singularities are allowed: nodes are strictly interior.  Raises
    QuadratureError (carrying the best estimate) on non-convergence.
    """
    row_reads = None if reads is None else lambda rows, x: reads(x)
    res = integrate_batch(lambda rows, *r: f(*r), 1, a, b, config, row_reads, memo)
    value, error = res.value[..., 0], res.error[..., 0]
    if value.ndim == 0:
        value, error = float(value), float(error)
    return IntegralResult(value, error, res.n_evals)


def integrate_batch(f, n_rows, a, b, config=None, reads=None, memo=None):
    """Integrate f(rows, x) over a finite [a, b], a < b, for every row
    0..n_rows-1; `integrate` is the one-row case.

    Many integrals of one family share a single batched adaptive rule: f
    receives an int array of row indices and an equally shaped array of
    nodes.  It returns one value per node, or a (k, nodes) array for k
    integrals of the same row that share the nodes; such a row is finished
    once every component meets its own tolerance, and a panel is bisected
    where any component's error is above its share.  Each row keeps its own
    stop rule, bisection set and subdivision limit, so its value does not
    depend on the other rows or on how they are chunked.  Rows run in chunks
    whose first sweep has at most `_BATCH_NODES` nodes (at least one row per
    chunk), which bounds memory and keeps each sweep's temporaries small.

    With `reads`, the integrand is f(rows, *reads(rows, x)): reads returns a
    tuple of what f needs at the nodes that does not change between calls.
    A `memo` dict, owned by the caller and passed on every call, keeps each
    chunk's sweeps by position, under the key (a, b, first row, row count,
    sweep index), as (tag, layout, reads): the layout is every panel's row,
    lo and hi and every node's row, and the tag is the initial panel count
    for the first sweep, whose panels the key and that count fix, and the
    bytes of its panels for a refinement sweep.  A sweep whose tag matches
    reuses the held layout and reads and computes only f; another tag, as
    after a change of initial_panels, replaces the entry, so the memo holds
    one call's sweeps per chunk.  Reads that depend only on the rows and
    nodes give the same result with or without a memo, bit for bit; f must
    not write into its arguments, which the memo holds.

    Returns an IntegralResult whose value and error are arrays over the
    rows, (k, n_rows) for a k-component f, and whose n_evals counts nodes;
    raises ValueError on infinite, reversed or equal bounds and
    QuadratureError naming the first row that does not converge.
    """
    cfg = config or DEFAULT_CONFIG
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"quadrature needs finite bounds a < b, got [{a!r}, {b!r}]")
    reads = reads or (lambda rows, x: (x,))
    chunk = max(1, _BATCH_NODES // (len(_NODES) * cfg.initial_panels))
    chunks = [
        _adaptive_rows(f, np.arange(start, min(start + chunk, n_rows)), a, b, cfg, reads, memo)
        for start in range(0, n_rows, chunk)
    ]
    if not chunks:
        return IntegralResult(np.empty(0), np.empty(0), 0)
    if len(chunks) == 1:
        values, errors = chunks[0][:2]
    else:
        values, errors = (np.concatenate(parts, axis=1) for parts in zip(*(c[:2] for c in chunks)))
    if not chunks[0][3]:
        values, errors = values[0], errors[0]
    return IntegralResult(values, errors, sum(c[2] for c in chunks))


def nested_integrate_2d(f, outer_bounds, inner_bounds, config=None):
    """Iterated integral of f(x, y) with y-bounds depending on x.

    outer_bounds is (a, b); inner_bounds maps an outer point x to (lo, hi).
    The inner rule runs at a tolerance ten times tighter than the outer one.
    Inner non-convergence is re-raised with a level annotation.  One scalar
    `integrate` per outer node: the reference that the batched
    dominant-interferer integral is checked against.
    """
    cfg = config or DEFAULT_CONFIG
    inner_cfg = cfg.scaled(0.1)

    def outer_integrand(xs):
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            lo, hi = inner_bounds(x)
            try:
                out[i] = integrate(lambda y: f(x, y), lo, hi, inner_cfg).value
            except QuadratureError as exc:
                raise QuadratureError(
                    f"inner integral failed at outer point {x!r}: {exc}",
                    best_estimate=exc.best_estimate,
                    error_estimate=exc.error_estimate,
                    level="inner",
                ) from exc
        return out

    return integrate(outer_integrand, outer_bounds[0], outer_bounds[1], cfg)


def gregory_weights():
    """Weights w_0 .. w_(p-1) that make h sum_(k >= 0) w_k phi(k h), w_k = 1
    past them, Gregory's rule for int_0^inf phi: the trapezoid rule with its
    p = len(`_GREGORY`) end corrections -h G_n Delta^(n-1) phi(0), each
    forward difference written out in the samples.  phi must decay at the
    far end, or be cut there by the same weights reversed."""
    w = np.ones(len(_GREGORY))
    for n, g in enumerate(_GREGORY):  # Delta^n phi_0 = sum_i (-1)^(n-i) C(n, i) phi_i
        for i in range(n + 1):
            w[i] -= g * (-1) ** (n - i) * math.comb(n, i)
    return w


def convolution_rule(signal, step):
    """Gregory's rule for the causal convolutions c_n = int_0^(n step)
    K(w) s(n step - w) dw of a signal sampled at the points k step, which
    starts with a cut: (weights, spectrum, size) for `causal_convolution`.
    The weights, for the kernel samples K(k step), are step times Gregory's
    end weights at w = 0, where the integrand is cut; the spectrum is the
    signal's with the same end weights at its own cut; and size is the
    power of two that holds the convolution without wrap-around."""
    gregory = gregory_weights()
    cut = np.array(signal, dtype=float)
    cut[:gregory.size] *= gregory
    weights = np.full(cut.size, float(step))
    weights[:gregory.size] *= gregory
    size = 1 << (2 * cut.size - 2).bit_length()
    return weights, np.fft.rfft(cut, size), size


def causal_convolution(kernels, spectrum, size):
    """c[..., n] = sum_(k <= n) kernels[..., k] s[n - k] for every n below
    kernels.shape[-1], given spectrum = rfft(s, size) of a signal s of at
    most that many points: one FFT product, without wrap-around while size
    is at least twice the points less one.  Its rounding error is absolute,
    about 1e-16 of the largest terms, not relative to each c[n]."""
    n = kernels.shape[-1]
    return np.fft.irfft(np.fft.rfft(kernels, size) * spectrum, size)[..., :n]


def lagrange_stencil(x, n):
    """The stencil that carries samples at the points i = 0 .. n-1 of a
    uniform grid (n >= 8) to the positions x (a 1D array, in grid units):
    (points, basis), each (positions, 8), the 8 grid points around each x,
    kept on the grid at its ends, and their Lagrange basis polynomials
    prod_(i != j) (x - i) / (j - i) at x.  Each is formed as its prefix and
    suffix products, so a position on a grid point takes that sample
    exactly.  It depends on x and n alone, so one stencil serves any
    samples on the same grid (`apply_stencil`)."""
    k = _LAGRANGE_POINTS
    start = np.clip(np.floor(x).astype(int) - (k // 2 - 1), 0, n - k)
    points = start[:, None] + np.arange(k)
    d = x[:, None] - points
    before, after = np.ones_like(d), np.ones_like(d)
    np.cumprod(d[:, :-1], axis=1, out=before[:, 1:])
    np.cumprod(d[:, :0:-1], axis=1, out=after[:, -2::-1])
    return points, before * after / _LAGRANGE_SCALE


def apply_stencil(values, stencil):
    """values[..., i], samples on the grid of a `lagrange_stencil`,
    interpolated at its positions: a (..., positions) array."""
    points, basis = stencil
    return np.einsum("...pk,pk->...p", values[..., points], basis)


def interpolate_uniform(values, x):
    """values[..., i], samples at the points i = 0 .. n-1 of a uniform grid
    (n >= 8), interpolated at the positions x (a 1D array, in grid units) by
    the Lagrange polynomial on the 8 points around each x
    (`lagrange_stencil`), kept on the grid at its ends."""
    return apply_stencil(values, lagrange_stencil(x, values.shape[-1]))
