"""Exact coverage-probability engine for the corridor network.

Implements, for both spatial models, the chain

    link distance -> path-loss value -> received power S*l(d)
    -> maximum received power (order statistics / void-conditioned Poisson)
    -> conditional interference Laplace transform
    -> coverage probability,

plus the dominant-interferer approximations (second-strongest interferer
kept exactly, the remaining ones replaced by their conditional mean, or
dropped).  Their expectation over the dominant interferer's fading is taken
outside the quadrature: in closed form, the regularized incomplete beta
function I_x(m, m), when the residual is dropped, and by a fixed
generalized Gauss-Laguerre rule when it is replaced by its mean.  At
half-integer m from 3/2 to 15/2, I_x(m, m) is elementary: an arctangent
and its order recurrence, or a non-negative series where that recurrence
would cancel; any other m takes scipy's betainc.  Where 2m is an integer
the rule's terms are e^x Q(m, x) summed by the order recurrence of Q, and
for integer m they are polynomials of degree m - 1, which the
ceil(m/2)-node rule integrates exactly.  Non-integer m takes a 4-node
rule certified against twice its nodes, as a second component of the same
integral on the same panels, and returns the 8-node value; where that pair
disagrees it falls back to 8 nodes against 16, then to 32 against 64.  What
remains is a 2D integral over the top-two received powers; each call of its
outer integrand computes the inner integrals of all its nodes with one
batched rule.

The two spatial models differ only in their UAV count law, through its
probability generating function G: z^n for the BPP, e^(mu (z - 1)) for the
finite HPPP.  The maximum-power density, the outer quantile range, the
Laplace series' weights, the top-two density and the residual mean are all
derivatives of G, so one `_CoverageModel` holds exact and dominant coverage
for either law (`_CountLaw`).  Given the serving power x0, each interferer's
power has the density f truncated to (0, x0), so one 1D moment integral
against f (`_moment_series`) feeds the conditional Laplace transform.

Numerical strategy: the single-UAV received-power pdf, cdf and first moment
are cached as piecewise Chebyshev interpolants of their logarithms in log x
(`ReceivedPowerDistribution`), because they appear inside two further
integral layers and naive nesting would be cubic in quadrature cost.  Every
integral against the received-power density runs in log space so that
distributions spanning many decades cannot alias past the adaptive rule.
Integrals over the same nodes share one vector-valued integrand, so each node
is evaluated once: the cache samples f, F and M1 as one 3-component integral.
Exact coverage's inner moment integrals are one causal convolution per
threshold: at s = m theta / x0 every kernel is a function of theta p / x0
alone, so in log power each row is a theta-only kernel convolved with the
theta-free g(t) = f(e^t) e^t, which the model samples once on a uniform grid;
one FFT product gives every row at every grid point, Gregory's end weights
correct the cuts, and Lagrange polynomials carry the rows to the outer nodes.
The outer rule of exact coverage and both levels of the dominant rule
evaluate the same first-sweep nodes at every theta.  Exact coverage's
outer rule starts from enough panels that a typical value takes that sweep
alone; the dominant rule's values mostly refine the same panels as the
value before.  So the model holds, per rule, what the last value's
integrands read that does not depend on theta, keyed by the bytes of the
nodes read (`_held`), and a later value reads afresh only nodes that the
value before did not evaluate: for exact coverage the reads include the
Lagrange stencils from the first grid to the outer nodes.  Both dominant
methods share one store.
Laplace-transform derivatives are analytic Taylor coefficients: G' is
expanded about F - D in the kernel's non-negative series, a truncated power
series with no subtraction; finite differences are test oracles only.
"""

from __future__ import annotations

import logging
import math
import time
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np
from scipy import special

from .core import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    Disc2D,
    FiniteHPPP,
    InverseGammaShadowing,
    ParameterError,
    SpatialModel,
    _require,
    _require_count,
    _without_nan,
    pathloss_value_pdf,
)
from .quadrature import (QuadratureConfig, QuadratureError, apply_stencil, causal_convolution,
                         convolution_rule, integrate, integrate_batch, lagrange_stencil)

__all__ = [
    "ReceivedPowerDistribution",
    "InterferenceLaplaceBPP",
    "InterferenceLaplaceHPPP",
    "BppCoverageModel",
    "HpppCoverageModel",
    "CoverageQuery",
    "coverage_probability",
    "bpp_model",
    "hppp_model",
]

# Tolerance tiers: pdf caches are built tightest, Laplace inner integrals a
# notch looser, coverage outer integrals looser still (their integrand is a
# conditional probability in [0, 1]), and the dominant-interferer double
# integrals loosest (their acceptance tolerance is two orders above this).
_PDF_QUAD = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-280)
# the literal product-distribution integral has an inverse-root endpoint
# singularity; honest error accounting needs a looser target there
_PDF_EXACT_QUAD = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-280, max_subdivisions=4000)
_LAPLACE_QUAD = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-280)
# Exact coverage's outer rule starts from 12 panels.  On the 1,050 values of
# `tools/domain_sample.py` a second sweep follows on 71% of values from 8,
# 44% from 10, 24% from 12 and 5% from 16; 12 and 16 take about the same
# time, and 12 takes a fifth fewer nodes.
_COVERAGE_QUAD = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9, initial_panels=12)
# The dominant rule starts both of its levels from 3 panels, not 8 (see
# `_coverage_dominant_generic`).
_DOMINANT_QUAD = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-7, initial_panels=3)
# Generalized Gauss-Laguerre nodes for the mean-residual fading expectation
# at non-integer m, where each coverage value is certified against a rule
# with twice as many, and takes that rule's value: the ladder's first rung
# where that pair agrees, else the next.  Integer m takes the ceil(m/2)-node
# rule, which is exact.
_LAGUERRE_LADDER = (4, 8, 32)
_LAGUERRE_DROP = 1e-17
# `_symmetric_beta`: the half-integer m of its elementary form, the range
# the tests hold to betainc (past m = 18.5 x^m turns subnormal while
# I_x(m, m) is still above 1e-300, and 1/(m B(m, m)) ~ 4^m overflows near
# m = 512); the most its recurrence may cancel (the sum of its terms'
# magnitudes over the value), and where the series that replaces it is cut
_BETA_HALF_M = (1.5, 7.5)
_BETA_CANCELLATION = 64.0
_BETA_SERIES_TOL = 1e-17
# The Laguerre rule's terms are formed in row blocks of about `_TERM_BLOCK`
# values, and a rung's rules share one pass where their blocks have a common
# multiple of at most `_FUSED_TERMS` terms (`_laguerre_tails`).
_TERM_BLOCK = 8192
_FUSED_TERMS = 4 * _TERM_BLOCK

# Exact coverage's inner rows (`_CoverageModel._inner_rows`): the uniform
# log-power grid's first spacing, which a value halves while its error
# estimate exceeds `_LAPLACE_QUAD.rel_tol`, and the most points a grid may take.
_GRID_SPACING = 1.0 / 40.0
_GRID_POINTS = 1 << 17

_TAIL_EPS = 1e-13
# Received-power cache: pieces of first-kind Chebyshev points, halved until
# the two trailing coefficients of log f, log F and log M1 are below the
# sampling rule's relative accuracy (a stricter target chases its noise,
# about 1e-11 in log F near F = 1); the last of `_CHEB_ROUNDS` rounds keeps
# every piece, and the build's debug line counts those still above it.
_CHEB_POINTS = 16
_CHEB_PIECES = 8
_CHEB_ROUNDS = 8
_CHEB_TOL = _PDF_QUAD.rel_tol
_CHEB_NODES = np.cos(np.pi * (np.arange(_CHEB_POINTS)[::-1] + 0.5) / _CHEB_POINTS)
# samples -> Chebyshev coefficients -> power coefficients in (s + 1) / 2
_CHEB_FIT = np.linalg.inv(np.polynomial.chebyshev.chebvander(_CHEB_NODES, _CHEB_POINTS - 1))
_CHEB_TO_POWER = np.column_stack([
    np.pad(c, (0, _CHEB_POINTS - c.size)) for c in (
        np.polynomial.Chebyshev.basis(k, [0.0, 1.0]).convert(kind=np.polynomial.Polynomial).coef
        for k in range(_CHEB_POINTS))
])
# The cache's interpolants, stacked in this order, and the most points that
# `_read` evaluates at once.
_LOG_NAMES = ("log_pdf", "log_cdf", "log_m1")
_READ_BLOCK = 2048

log = logging.getLogger(__name__)


def _integrate_at_points(x, integrand, a, b, cfg):
    """int_a^b integrand(x, y) dy at every x > 0 (0 elsewhere), one batched rule.

    Returns the values, shaped like x (with a leading axis of k for an
    integrand that returns k rows), and the number of node evaluations.
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0
    xs = x[pos]
    res = integrate_batch(lambda rows, y: integrand(xs[rows], y), xs.size, a, b, cfg)
    values = np.zeros(res.value.shape[:-1] + x.shape)
    values[..., pos] = res.value
    return values, res.n_evals


class ReceivedPowerDistribution:
    """Distribution of Pr = S * l(d) for one uniformly placed corridor UAV.

    Supported on (0, inf).  `pdf_exact` evaluates the product-distribution
    integral over the path-loss value w = e^v,

        f(x) = int_{w_min}^{w_max} (1/w) f_l(w) f_S(x/w) dw
             = int_{log w_min}^{log w_max} f_l(e^v) f_S(x e^-v) dv,

    by adaptive quadrature in v.  `pdf`, `cdf`, `mean_below` and `ppf` use cached
    piecewise Chebyshev interpolants, in t = log x, of log f, log F and
    log M1, M1(x) = int_0^x p f(p) dp, sampled from closed forms, all three
    from one 3-component integral per sample (`_smooth_integrals`).  These
    are analytic in t, so the interpolants converge geometrically, to about
    1e-11 relative, and agree with one another.  The cache covers the central
    [tail_eps, 1 - tail_eps] quantile range; outside it the pdf is treated
    as zero (total neglected mass < 2e-13).
    """

    def __init__(self, geom: CorridorGeometry, channel: ChannelParams):
        self.h = geom.fixed_height
        self.R = geom.R
        self.alpha = channel.alpha
        self.q = channel.q
        self.gam = channel.gamma
        self.shadowing = InverseGammaShadowing(self.q, self.gam)
        self.w_min = (self.h**2 + self.R**2) ** (-self.alpha / 2.0)
        self.w_max = self.h ** (-self.alpha)
        self._lgamma_q = math.lgamma(self.q)
        self._elementary_q = self.q >= 1.5 and float(2.0 * self.q).is_integer()
        self._cache = None
        self.nodes_read = 0  # points `_log_at` has read, for the coverage debug lines

    # -- exact evaluations ---------------------------------------------------

    def pdf_exact(self, x):
        """Product-distribution integral over v = log w at each x, one batched
        quadrature: in v it spans a few units however many decades of w the
        corridor covers."""
        shadow = self.shadowing

        def integrand(x, v):
            w = np.exp(v)
            return pathloss_value_pdf(w, self.h, self.R, self.alpha) * shadow.pdf(x / w)

        out, _ = _integrate_at_points(
            x, integrand, math.log(self.w_min), math.log(self.w_max), _PDF_EXACT_QUAD
        )
        return float(out) if out.ndim == 0 else out

    def _pdf_smooth(self, x):
        """Same integral after substituting w = d(u)^-alpha, u in [0, R].

        The substitution removes the inverse-square-root endpoint
        singularity of f_l, leaving (1/R) * int_0^R d^a f_S(x d^a) du.
        Used to build the cache; agrees with pdf_exact to quadrature accuracy.
        The pdf component of `_smooth_integrals`, at x > 0.
        """
        out = self._smooth_integrals(x)[0][0]
        return float(out) if out.ndim == 0 else out

    def _smooth_integrals(self, x):
        """(f, F, M1) at each x > 0, a (3, *x.shape) array, as one 3-component
        integral per x of `_smooth_integrand` over [0, R]; and the number of
        node evaluations."""
        values, n_evals = _integrate_at_points(x, self._smooth_integrand, 0.0, self.R, _PDF_QUAD)
        return values / self.R, n_evals

    def _smooth_integrand(self, x, u):
        """Rows g of f, F, M1 = (1/R) int_0^R g du: closed forms of the
        shadowing S at y = x / w, w = d(u)^-alpha, all from z = gamma / y:

            f_S(y) / w = z e1 / x,   P(S <= y) = Q(q, z),
            w E[S; S <= y] = x z / (q - 1) Q(q - 1, z),

        with e1 = z^(q-1) e^-z / Gamma(q) and Q(q, z) = Q(q - 1, z) + e1.
        Where 2q is an integer and q >= 1.5, Q(q - 1, z) is e^-z S(z) by the
        order recurrence (`_scaled_upper_gamma`, taken in logs so that neither
        factor under- or overflows alone) and nothing is subtracted.  Any
        other q takes scipy's Q(q, z) and Q(q - 1, z) = Q(q, z) - e1: scipy's
        Q is up to 25 times slower near order 0, and the subtraction loses at
        most a factor z / (q - 1) in relative accuracy, only where Q is tiny."""
        q = self.q
        z = self.gam * (self.h**2 + u**2) ** (-self.alpha / 2.0) / x
        e1 = np.exp((q - 1.0) * np.log(z) - z - self._lgamma_q)
        out = np.empty((3, z.size))
        if self._elementary_q:
            if q == 2.0:  # S(z) = 1, and exp(log 1 - z) is exp(-z) bit for bit
                below = np.exp(-z)
            else:
                with np.errstate(over="ignore"):
                    scaled = np.minimum(_scaled_upper_gamma(q - 1.0, z), np.finfo(float).max)
                below = np.exp(np.log(scaled) - z)
            out[1] = below + e1
        else:
            out[1] = special.gammaincc(q, z)
            below = out[1] - e1
        out[0] = z * e1 / x
        out[2] = x * z / (q - 1.0) * below
        return out

    # -- cache ---------------------------------------------------------------

    def _build_cache(self):
        start = time.perf_counter()
        t_lo = math.log(self.w_min * self.gam / special.gammainccinv(self.q, _TAIL_EPS))
        t_hi = math.log(self.w_max * self.gam / special.gammaincinv(self.q, _TAIL_EPS))
        left = np.linspace(t_lo, t_hi, _CHEB_PIECES + 1)[:-1]
        width = (t_hi - t_lo) / _CHEB_PIECES  # of every piece sampled in this round
        kept, n_evals = [], 0
        for rounds in range(1, _CHEB_ROUNDS + 1):
            x = np.exp(left[:, None] + 0.5 * width * (_CHEB_NODES + 1.0))
            samples, nev = self._smooth_integrals(x)
            n_evals += nev
            coeffs = np.log(samples).transpose(1, 0, 2) @ _CHEB_FIT.T
            tail = np.abs(coeffs[:, :, -2:]).max(axis=(1, 2))  # coeffs: (piece, function, k)
            done = (tail <= _CHEB_TOL) | (rounds == _CHEB_ROUNDS)
            kept.append((left[done], coeffs[done], tail[done]))
            width /= 2.0
            left = np.concatenate([left[~done], left[~done] + width])
            if left.size == 0:
                break

        left, coeffs, tail = (np.concatenate(parts) for parts in zip(*kept))
        order = np.argsort(left)
        breaks = np.append(left[order], t_hi)
        # power-basis coefficients in t - left, lowest power first: (function, piece, k)
        scale = np.diff(breaks)[:, None, None] ** -np.arange(_CHEB_POINTS)
        power = (coeffs[order] @ _CHEB_TO_POWER.T * scale).transpose(1, 0, 2)
        # `_read`'s tables, indexed by searchsorted(search, t, "right"): a NaN
        # piece below t_lo and another above t_hi (and for NaN), and t = t_hi
        # on the top piece, as scipy's PPoly(extrapolate=False) reads them
        nan = np.full((len(_LOG_NAMES), 1, _CHEB_POINTS), np.nan)
        pieces = (
            np.append(breaks, np.nextafter(t_hi, math.inf)),
            np.concatenate([[np.nan], breaks[:-1], breaks[-2:-1], [np.nan]]),
            np.concatenate([nan, power, power[:, -1:], nan], axis=1),
        )
        t_table = np.linspace(t_lo, t_hi, 4097)
        self._cache = {
            "t_lo": t_lo,
            "t_hi": t_hi,
            "x_lo": math.exp(t_lo),
            "x_hi": math.exp(t_hi),
            "pieces": pieces,
            "t_table": t_table,
            "log_cdf_table": _read(pieces, t_table, ("log_cdf",))[0],
        }
        log.debug(
            "received-power cache: %d pieces, %d rounds, worst trailing coefficient "
            "%.2e, %d pieces above tolerance, %d node evaluations, %.3f s",
            left.size, rounds, tail.max(), np.count_nonzero(~(tail <= _CHEB_TOL)),
            n_evals, time.perf_counter() - start,
        )

    def _ensure(self):
        if self._cache is None:
            self._build_cache()
        return self._cache

    def _interpolated(self, name, x, above):
        """exp of the log-interpolant `name` at each x in (x_lo, x_hi), 0
        below, and above(x) at the x >= x_hi; NaN raises, as it lies in none."""
        c = self._ensure()
        x = _without_nan(x, "received power")
        out = np.zeros(x.shape)
        high = x >= c["x_hi"]
        if high.any():
            out[high] = above(x[high])
        ok = (x > c["x_lo"]) & (x < c["x_hi"])
        if ok.any():
            out[ok] = np.exp(self._log_at(np.log(x[ok]), name)[0])
        return float(out) if out.ndim == 0 else out

    def _log_at(self, t, *names):
        """The interpolants `names` ("log_pdf", "log_cdf", "log_m1") at
        log-abscissae t that all lie strictly inside (t_lo, t_hi), log F
        capped at 0 as in `cdf`: a (len(names), *t.shape) array.  The hot
        loops integrate in t, so their nodes are logs already and lie inside
        the range by construction: this reader takes no exp -> log round
        trip, no masks and no scatter."""
        values = _read(self._ensure()["pieces"], t, names)
        self.nodes_read += np.size(t)
        if "log_cdf" in names:
            i = names.index("log_cdf")
            np.minimum(values[i:i + 1], 0.0, out=values[i:i + 1])
        return values

    # -- cached API ------------------------------------------------------------

    @property
    def x_lo(self):
        return self._ensure()["x_lo"]

    @property
    def x_hi(self):
        return self._ensure()["x_hi"]

    def pdf(self, x):
        return self._interpolated("log_pdf", x, lambda x: 0.0)

    def cdf(self, x):
        """F(x), with log F capped at 0: F <= 1, and the excess the
        interpolant can show just below x_hi (up to about 3e-11 at q = 20,
        alpha = 6, R/h = 500) is the sampling rule's noise near F = 1."""
        return self._interpolated("log_cdf", x, lambda x: 1.0)

    def mean_below(self, x):
        """int_0^x p f(p) dp (first moment of the truncated distribution).

        Above x_hi the mass is below 1e-13, but with heavy shadowing not the
        first moment (at q = 1.05 about a quarter of E[P]), so there M1 is
        integrated from its closed form, as the cache samples it, and at
        x = inf it is its limit E[P] = E[S] E[l]."""
        return self._interpolated("log_m1", x, self._mean_above)

    def _mean_above(self, x):
        """M1 at x >= x_hi (`mean_below`), and at x = inf its limit E[P] =
        E[S] E[l], E[l] = (1/R) int_0^R (h^2 + u^2)^(-alpha/2) du."""
        out = np.empty(x.shape)
        top = np.isinf(x)
        if top.any():
            pathloss = integrate(
                lambda u: (self.h**2 + u**2) ** (-self.alpha / 2.0), 0.0, self.R, _PDF_QUAD
            )
            out[top] = self.shadowing.mean() * pathloss.value / self.R
        if not top.all():
            out[~top] = self._smooth_integrals(x[~top])[0][2]
        return out

    def ppf(self, p):
        """Quantile: two Newton steps on log F(e^t) = log p (slope x f / F) bring
        linear interpolation in a table of log F (below 1e-3 off in t) to
        rounding; levels outside (F(x_lo), F(x_hi)) give x_lo or x_hi."""
        c = self._ensure()
        p = np.asarray(p, dtype=float)
        if not np.all((0 <= p) & (p <= 1)):
            raise ParameterError("quantile level must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            log_p = np.log(p)
        t = np.interp(log_p, c["log_cdf_table"], c["t_table"])
        for _ in range(2):
            log_cdf, log_pdf = _read(c["pieces"], t, ("log_cdf", "log_pdf"))
            step = (log_cdf - log_p) * np.exp(log_cdf - t - log_pdf)
            t = np.clip(t - step, c["t_lo"], c["t_hi"])
        out = np.exp(t)
        return float(out) if out.ndim == 0 else out

    def normalization(self):
        """Adaptive-quadrature check value of int_0^inf pdf_exact (should be 1)."""
        cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-12)
        c = self._ensure()

        def f(t):
            x = np.exp(t)
            return self.pdf_exact(x) * x

        return integrate(f, c["t_lo"], c["t_hi"], cfg).value


def _read(pieces, t, names):
    """The cached interpolants `names` (of `_LOG_NAMES`) at log-abscissae t,
    a (len(names), *t.shape) array, NaN outside [t_lo, t_hi]; `pieces` are
    the cache's search, base and (function, piece, k) coefficient tables.

    Repeats scipy's PPoly arithmetic bit for bit: with s = t - base of t's
    piece, powers z_k = z_(k-1) s from z_0 = 1, and c_k z_k summed from
    k = 0 upward.  All names share the piece search and the powers.  Points
    run in blocks of `_READ_BLOCK` through a (16, block) array of powers and
    a (block, 16) one of coefficients, which stay small enough not to be
    faulted in afresh on every call.  einsum sums each point's 16 terms in
    order as long as the powers of a point are not adjacent in memory, so a
    lone point in the last block is read twice.
    """
    search, base, coef = pieces
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    n = flat.size
    if n % _READ_BLOCK == 1:
        flat = np.append(flat, flat[-1])
    out = np.empty((len(names), flat.size))
    size = min(flat.size, _READ_BLOCK)
    powers = np.empty((_CHEB_POINTS, size))
    powers[0] = 1.0
    terms = np.empty((size, _CHEB_POINTS))
    rows = [_LOG_NAMES.index(name) for name in names]
    for start in range(0, flat.size, size):
        tb = flat[start:start + size]
        z, c = powers[:, :tb.size], terms[:tb.size]
        piece = search.searchsorted(tb, "right")
        s = tb - base.take(piece)
        for k in range(1, _CHEB_POINTS):
            np.multiply(z[k - 1], s, out=z[k])
        for j, row in enumerate(rows):
            # every piece index is in range; "clip" skips take's checked copy
            coef[row].take(piece, axis=0, out=c, mode="clip")
            np.einsum("ik,ki->i", c, z, out=out[j, start:start + tb.size])
    return out[:, :n].reshape(len(names), *t.shape)


# ---------------------------------------------------------------------------
# Shared by both spatial models: the UAV count law, the Taylor-coefficient
# kernel, the conditional Laplace transform and the coverage model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CountLaw:
    """The UAV count N through its probability generating function (PGF)
    G(z) = E[z^N]: a fixed count n (the BPP, G = z^n), or a Poisson count of
    mean mu (the finite HPPP, n = inf, G = e^(mu (z - 1)))."""

    n: float = math.inf
    mu: float = 0.0

    @property
    def p_nonempty(self):
        """1 - G(0) = P(N >= 1)."""
        return -math.expm1(-self.mu) if self.mu else 1.0

    def log_derivative(self, k, y):
        """log G^(k)(y) elementwise, -inf where G^(k) vanishes: log(n! / (n-k)!)
        + (n - k) log y (y floored at 0, 0 log 0 = 0), or k log mu + mu (y - 1).
        Their differences stay finite where F^(n-1) alone would underflow."""
        if self.mu:
            return k * math.log(self.mu) + self.mu * (np.asarray(y) - 1.0)
        if k > self.n:
            return np.full(np.shape(y), -np.inf)
        return _log_falling(self.n, k) + special.xlogy(self.n - k, np.maximum(y, 0.0))

    def derivative_ratio(self, k, y):
        """G^(k+1)(y) / G^(k)(y): (n - k) / y, or mu."""
        return self.mu if self.mu else (self.n - k) / y

    def quantile_levels(self, eps):
        """Levels of F that leave about eps of the maximum power's mass,
        (G(F) - G(0)) / (1 - G(0)), below the first and above the second."""
        mu = self.mu
        if mu:
            upper = 1.0 - eps * (-math.expm1(-mu)) / mu
            try:
                return math.log1p(eps * math.expm1(mu)) / mu, upper
            except OverflowError:  # e^mu > DBL_MAX (mu > 709.78): the same level in log space
                log_term = math.log(eps) + mu + math.log(-math.expm1(-mu))
                return float(np.logaddexp(0.0, log_term)) / mu, upper
        return eps ** (1.0 / self.n), 1.0 - eps / self.n


@lru_cache(maxsize=256)
def _log_falling(n, k):
    """log(n! / (n - k)!), summed exactly rounded."""
    return math.fsum(math.log(n - j) for j in range(k))


@lru_cache(maxsize=64)
def _pochhammer_column(m, order):
    """The factors poch(m, j) / j!, j <= order, of `_moment_series`' rows,
    as a read-only column."""
    coeff = np.array([special.poch(m, j) / math.factorial(j) for j in range(order + 1)])[:, None]
    coeff.flags.writeable = False
    return coeff


def _moment_series(dist, m, s, tau, x0, order):
    """Rows [D, h_1, ..., h_order] at every triple (s_i, tau_i, x0_i) of the
    broadcast arrays s, tau, x0, the Taylor coefficients of

        z -> int_0^{x0} (1 + (s - tau z) p / m)^-m f(p) dp = F(x0) - D + sum_j h_j z^j,
        D   = int_0^{x0} (1 - (1 + s p / m)^-m) f(p) dp,
        h_j = poch(m, j) / j! int_0^{x0} (tau p / m)^j (1 + s p / m)^(-m-j) f(p) dp.

    Every row is >= 0 for tau >= 0.  D is written as -expm1(-m log1p(s p / m)),
    which keeps its relative accuracy at small s p and is exactly 0 at s = 0.

    Every integral runs in log space, and all of them in one `integrate_batch`
    call with one row per point i and the order + 1 kernels as its
    components, so each node t reads log f once (through `dist._log_at`) and
    forms the kernels (`_moment_kernels`) at y = s p / m, r = tau p / (m (1 + y)).
    Row i maps [t_lo, min(log x0_i, t_hi)] affinely onto [0, 1] (times the
    width as the Jacobian), which keeps the adaptive rule's panels and
    bisections; the row is refined until every kernel meets the tolerance,
    so each value matches a scalar `integrate` over the log interval to well
    within it.  Points with an empty interval give 0.  Returns the
    (order + 1, n) array and the number of node evaluations.  Where tau is
    s, tau p / m is y bit for bit, so r is formed as y / (1 + y).
    """
    same = tau is s
    s, tau, x0 = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (s, tau, x0))
    if not s.shape == tau.shape == x0.shape:
        s, tau, x0 = np.broadcast_arrays(s, tau, x0)
    if np.any(x0 <= 0):
        raise ParameterError("conditioning power must be positive")
    cache = dist._ensure()
    t_lo = cache["t_lo"]
    t_hi = np.minimum(np.log(x0), cache["t_hi"])
    live = np.flatnonzero(t_hi > t_lo)
    if live.size == 0:
        return np.zeros((order + 1, x0.size)), 0
    width, s_m = t_hi[live] - t_lo, s[live] / m
    tau_m = s_m if same else tau[live] / m

    def integrand(i, u):
        w = width[i]
        t = t_lo + u * w
        (log_f,) = dist._log_at(t, "log_pdf")
        p = np.exp(t)
        y = s_m.take(i)
        y *= p
        r = (y if same else tau_m.take(i) * p) / (1.0 + y)
        return _moment_kernels(m, y, r, order, np.exp(log_f + t) * w)

    res = integrate_batch(integrand, live.size, 0.0, 1.0, _LAPLACE_QUAD)
    rows = _pochhammer_column(m, order) * res.value
    if live.size == x0.size:
        return rows, res.n_evals
    out = np.zeros((order + 1, x0.size))
    out[:, live] = rows
    return out, res.n_evals


def _moment_kernels(m, y, r, order, scale):
    """The kernels of `_moment_series`' rows before their Pochhammer
    factors, [-expm1(-m log1p y), r (1 + y)^-m, ..., r^order (1 + y)^-m],
    times scale: an (order + 1, y.size) array."""
    log_base = np.log1p(y)
    log_base *= -m
    kern = np.empty((order + 1, y.size))
    np.expm1(log_base, out=kern[0])
    np.negative(kern[0], out=kern[0])
    kern[0] *= scale
    if order:
        np.exp(log_base, out=kern[1])
        kern[1] *= scale
        kern[1] *= r
        for j in range(2, order + 1):
            np.multiply(kern[j - 1], r, out=kern[j])
    return kern


def _clamp(value):
    """value clipped to [0, 1], and a note for the debug line that gives the
    unclipped value when the clip changed it (empty otherwise)."""
    clipped = min(max(value, 0.0), 1.0)
    return clipped, "" if clipped == value else f", clamped from {value!r}"


def _taylor_sum(weights, h):
    """Taylor coefficients up to z^order of sum_r weights[r] h(z)^r, h the
    (order + 1, n) coefficient rows of a series whose constant row is ignored:
    the Toeplitz form of Yu, Zhang, Haenggi & Letaief (IEEE JSAC 2017).  Row
    k of each power is the sum over j of the products power[j] h[k - j], the
    j = k one included, reduced over j as one (k + 1, n) array.  The first
    power is h itself, the zeroth the unit row."""
    h = np.concatenate([np.zeros_like(h[:1]), h[1:]])
    out = np.zeros_like(h)
    out[0] = weights[0]
    if len(weights) == 1:
        return out
    power = h
    out += weights[1] * power
    terms = np.empty_like(h)
    for w in weights[2:]:
        power, previous = np.empty_like(h), power
        for k in range(len(h)):
            np.multiply(previous[: k + 1], h[k::-1], out=terms[: k + 1])
            np.add.reduce(terms[: k + 1], axis=0, out=power[k])
        out += w * power
    return out


class _ConditionalLaplace:
    """Conditional Laplace transform of the aggregate interference given the
    maximum received power x0, for a UAV count with PGF G.  Given x0 the
    other UAVs' powers are i.i.d. with density f truncated to (0, x0) and
    their count has the PGF G'(F z) / G'(F), F = F(x0), so

        L(s | x0) = G'(F - D) / G'(F):  [1 - D / F]^(n-1) (BPP), exp(-mu D) (HPPP),

    with D = D(s) the kernel row of `_moment_series`.  At s - tau z the
    argument is F - D + h(z), so Taylor's theorem for G' about F - D gives
    the non-negative series sum_r G^(r+1)(F - D) / (r! G'(F)) h(z)^r.  Only
    a fixed count floors F - D at 0 where kernel error makes it negative,
    and counts it as floored: z^n needs z >= 0, e^(mu (z - 1)) does not.
    """

    def __init__(self, dist: ReceivedPowerDistribution, law: _CountLaw, m: float):
        if law.n < 2:
            raise ParameterError("interference needs n >= 2 UAVs")
        self.dist = dist
        self.law = law
        self.m = float(m)

    def _series(self, s, tau, x0, order):
        """Taylor coefficients (-tau)^k / k! L^(k)(s | x0), k <= order, of
        z -> L(s - tau z) at every (s_i, tau_i, x0_i); the count of floored
        points; and the number of node evaluations."""
        rows, n_evals = _moment_series(self.dist, self.m, s, tau, x0, order)
        return (*self._taylor(rows, self.dist.cdf(x0), order), n_evals)

    def _taylor(self, rows, fx0, order, log_g1=None):
        """`_series`' coefficients and floored count from the kernel rows
        [D, h_1, ..., h_order] at powers x0 with F(x0) = fx0, and log G'(F)
        = log_g1 where the caller holds it."""
        law = self.law
        if log_g1 is None:
            log_g1 = law.log_derivative(1, fx0)
        if np.any(np.isneginf(log_g1)):
            raise ParameterError("conditioning power x0 has zero mass below it")
        y = fx0 - rows[0]
        floored = np.count_nonzero(y < 0.0) if law.n < math.inf else 0
        weights = [np.exp(law.log_derivative(r + 1, y) - log_g1 - math.lgamma(r + 1))
                   for r in range(min(order, law.n - 1) + 1)]
        return _taylor_sum(weights, rows), floored

    def derivative_series(self, s, x0, order):
        """[L, L', ..., L^(order)] at (s | x0), as floats: L(s | x0) is
        element 0 and its k-th derivative in s element k, for s >= 0, x0 > 0
        and the coverage theorem's orders 0 <= order <= m - 1."""
        _require(s >= 0, "Laplace argument s must be >= 0 and finite", s)
        _require(x0 > 0, "conditioning power must be positive and finite", x0)
        order = int(order)
        if not 0 <= order < self.m:
            raise ParameterError(
                f"derivative order {order} violates the 0 <= k <= m-1 contract (m={self.m})"
            )
        coeffs, _, _ = self._series(np.array([float(s)]), 1.0, np.array([float(x0)]), order)
        return [float((-1) ** k * math.factorial(k) * c) for k, c in enumerate(coeffs[:, 0])]

    def mean_interference(self, x0):
        """E[I | Pr0 = x0] = -dL/ds at s = 0 = G''(F) / G'(F) int_0^{x0} p f(p) dp:
        (n - 1) E[P | P <= x0] for the BPP, mu int_0^{x0} p f(p) dp for the HPPP."""
        _require(x0 > 0, "conditioning power must be positive and finite", x0)
        coeffs, _, _ = self._series(np.array([0.0]), 1.0, np.array([float(x0)]), 1)
        return float(coeffs[1, 0])


def _held(held, read, *nodes):
    """read(*nodes), theta-free reads at the node arrays `nodes`, or what
    held = (this value's store, the last value's) keeps under their bytes;
    kept in this value's, so that a store holds one value's reads."""
    key = tuple(v.tobytes() for v in nodes)
    held[0][key] = out = held[0].get(key) or held[1].get(key) or read(*nodes)
    return out


class _CoverageModel:
    """All analytic quantities for one (UAV count law, geometry, channel)
    triple, conditioned on a non-empty corridor; each count-law quantity is a
    derivative of the count's PGF G.  A subclass picks the law."""

    def __init__(self, law: _CountLaw, geom: CorridorGeometry, channel: ChannelParams):
        self.law = law
        self.channel = channel
        self.m = channel.m
        # the distribution reads alpha, q and gamma, not m: one cache serves every m
        self.dist = _cached_dist(geom, replace(channel, m=1.0))
        self._bounds = {}  # eps -> `_outer_bounds(eps)`
        # per rule, the last value's theta-free reads (`_held`), and exact
        # coverage's density grids (`_grid`)
        self._reads = {"exact": {}, "dominant": {}}
        self._grids = {}

    @cached_property
    def laplace(self) -> _ConditionalLaplace:
        return _ConditionalLaplace(self.dist, self.law, self.m)

    def max_power_pdf(self, x0):
        """Density G'(F(x0)) f(x0) / (1 - G(0)) of the strongest received
        power: n F^(n-1) f for the BPP, the void-conditioned
        mu f e^(mu (F - 1)) / (1 - e^-mu) for the finite HPPP."""
        out = self._max_power_pdf(self.dist.pdf(x0), self.law.log_derivative(1, self.dist.cdf(x0)))
        return float(out) if out.ndim == 0 else out

    def _max_power_pdf(self, f, log_g1):
        """`max_power_pdf` given f(x0) = f and log G'(F(x0)) = log_g1."""
        return np.exp(log_g1) * f / self.law.p_nonempty

    def max_power_cdf(self, x0):
        """(G(F(x0)) - G(0)) / (1 - G(0)): F^n for the BPP,
        (e^(mu F) - 1) / (e^mu - 1) for the finite HPPP."""
        g = np.exp(self.law.log_derivative(0, self.dist.cdf(x0)))
        out = (g - (1.0 - self.law.p_nonempty)) / self.law.p_nonempty
        return float(out) if out.ndim == 0 else out

    def _outer_bounds(self, eps=1e-12):
        """The powers at `law.quantile_levels(eps)`; they do not depend on
        theta, so each eps is looked up once per model."""
        bounds = self._bounds.get(eps)
        if bounds is None:
            levels = np.array(self.law.quantile_levels(eps))
            bounds = self._bounds[eps] = tuple(self.dist.ppf(levels))
        return bounds

    def _conditional_coverage(self, theta, m, x0):
        """P(SIR > theta | serving power x0) at every x0, for integer m: the
        coverage theorem's sum_k (-s)^k / k! L^(k)(s | x0), k < m, at
        s = m theta / x0: the column sum of the Taylor coefficients of
        z -> L(s - s z), each >= 0 because L is completely monotone.  Returns
        the values, the count of floored nodes and the number of node
        evaluations.
        """
        s = m * theta / x0
        coeffs, floored, n_evals = self.laplace._series(s, s, x0, m - 1)
        return coeffs.sum(axis=0), floored, n_evals

    def _outer_reads(self, t):
        """(t, x0, F(x0), f0, log G'(F(x0)), stencil, live) at log powers t:
        the live nodes, those with density and at least 1e-12 of the mass
        below them, their powers, cdf, maximum-power density and log G'(F),
        the `lagrange_stencil` that carries the level-0 grid's rows to them,
        and the live mask.  None of these depends on theta."""
        x0 = np.exp(t)
        log_f, log_cdf = self.dist._log_at(t, "log_pdf", "log_cdf")
        fx0 = np.exp(log_cdf)
        log_g1 = self.law.log_derivative(1, fx0)
        f0 = self._max_power_pdf(np.exp(log_f), log_g1)
        live = (f0 > 0) & (fx0 >= 1e-12)
        t = t[live]
        step, fx = self._grid(0)[:2]
        stencil = lagrange_stencil((t - self.dist._ensure()["t_lo"]) / step, fx.size)
        return t, x0[live], fx0[live], f0[live], log_g1[live], stencil, live

    def _grid(self, level):
        """The theta-free half of exact coverage's inner rows on the grid
        t_k = t_lo + k step, step = `_GRID_SPACING` / 2^level, from the
        cache's t_lo to the interpolation stencil's half past the outer upper
        bound: (step, F at the points, and the `convolution_rule` of
        g(t) = f(e^t) e^t).  g and F are read once per model and level, and
        are 0 and 1 from t_hi on.  Level -1, at twice level 0's spacing, is
        level 0's even points, read with it.  A grid of more than
        `_GRID_POINTS` points raises QuadratureError."""
        if level not in self._grids:
            cache = self.dist._ensure()
            step = _GRID_SPACING * 0.5 ** max(level, 0)
            n = math.ceil((math.log(self._outer_bounds()[1]) - cache["t_lo"]) / step) + 5
            if n > _GRID_POINTS:
                raise QuadratureError(
                    f"the inner grid at spacing {step:.3g} needs {n} points, more than "
                    f"{_GRID_POINTS}", level="inner")
            t = cache["t_lo"] + step * np.arange(n)
            inside = t < cache["t_hi"]
            g, fx = np.zeros(n), np.ones(n)
            log_f, log_cdf = self.dist._log_at(t[inside], "log_pdf", "log_cdf")
            g[inside] = np.exp(log_f + t[inside])
            fx[inside] = np.exp(log_cdf)
            self._grids[max(level, 0)] = (step, fx, *convolution_rule(g, step))
            if level <= 0:
                self._grids[-1] = (2.0 * step, fx[::2], *convolution_rule(g[::2], 2.0 * step))
        return self._grids[level]

    def _inner_rows(self, theta, m, level):
        """Exact coverage's kernel rows [D, h_1, ..., h_(m-1)] of
        `_moment_series`, at s = tau = m theta / x0, for x0 at every point of
        the level's grid (`_grid`).  With p = x0 e^(-w) each kernel is a
        function of y = s p / m = theta e^(-w) alone, so in t = log p each row
        is a causal convolution in w of that kernel with g, Gregory's rule
        at both cuts: at w = 0, where the integrand is cut at p = x0, and at
        t_lo."""
        step, _, weights, spectrum, size = self._grid(level)
        y = theta * np.exp(-step * np.arange(weights.size))
        kernels = _moment_kernels(m, y, y / (1.0 + y), m - 1, weights)
        return _pochhammer_column(m, m - 1) * causal_convolution(kernels, spectrum, size)

    def conditional_coverage(self, theta, x0):
        """P(SIR > theta | Pr0 = x0), for integer m."""
        _require(theta > 0, "theta must be positive and finite (linear scale)", theta)
        _require(x0 > 0, "conditioning power must be positive and finite", x0)
        m = self.channel.require_integer_m()
        cov, _, _ = self._conditional_coverage(theta, m, np.array([x0], dtype=float))
        return float(cov[0])

    def coverage(self, theta):
        """Exact coverage probability P(SIR > theta), theta linear.

        The integral of the conditional coverage against the maximum-power
        density, in log space over the quantile range that carries all but
        ~1e-12 of its mass, by the adaptive rule; nodes without density (or
        with less than 1e-12 mass below them) contribute 0.  The outer rule
        starts from `_COVERAGE_QUAD`'s 12 panels, on which a typical value
        converges in one sweep of 180 nodes.  It reads the same nodes at
        every theta, so the model holds the reads of every outer sweep
        (`_outer_reads`, `_held`), and later values read only the nodes
        that the value before did not evaluate.

        The inner moment rows come from one causal convolution per grid
        (`_inner_rows`), interpolated to the outer nodes by 8-point Lagrange
        polynomials.  Their stencil on the first grid depends on the nodes
        alone, so it is held with the reads; a value on a halved grid forms
        its own.  Every value starts from `_GRID_SPACING` and halves it
        while the rows' largest difference from those at twice the spacing,
        at the shared points of the outer range, exceeds `_LAPLACE_QUAD.rel_tol`
        on the scale on which it moves the conditional coverage, G'(F) /
        G''(F): F(x0) / (n - 1) for the BPP, 1 / mu for the HPPP.  So a warm
        model's value is a fresh model's, bit for bit.  Logs the work done at
        debug level, with the number of nodes whose reads this value computed.
        """
        _require(theta > 0, "theta must be positive and finite (linear scale)", theta)
        m = self.channel.require_integer_m()
        self.laplace  # noqa: B018 -- a 1-UAV BPP raises here, before any quadrature
        lo, hi = self._outer_bounds()
        read = self.dist.nodes_read
        start = time.perf_counter()
        t_lo = self.dist._ensure()["t_lo"]
        coarse, level = self._inner_rows(theta, m, -1), 0
        while True:
            rows = self._inner_rows(theta, m, level)
            step, fx = self._grid(level)[:2]
            shared = slice(math.ceil((math.log(lo) - t_lo) / (2.0 * step)),
                           math.floor((math.log(hi) - t_lo) / (2.0 * step)) + 1)
            gap = np.abs(rows[:, ::2][:, shared] - coarse[:, shared]).max(axis=0)
            estimate = float((gap * self.law.derivative_ratio(1, fx[::2][shared])).max())
            if estimate <= _LAPLACE_QUAD.rel_tol:
                break
            coarse, level = rows, level + 1
        calls = n_rows = floored = 0
        held = {}, self._reads["exact"]

        def conditional(t):
            nonlocal calls, n_rows, floored
            t, x0, fx0, f0, log_g1, stencil, live = _held(held, self._outer_reads, t)
            out = np.zeros(live.shape)
            if level:  # the held stencil is the level-0 grid's
                stencil = lagrange_stencil((t - t_lo) / step, rows.shape[-1])
            coeffs, n_floored = self.laplace._taylor(apply_stencil(rows, stencil), fx0, m - 1, log_g1)
            out[live] = coeffs.sum(axis=0) * f0 * x0
            calls += 1
            n_rows += x0.size * m
            floored += n_floored
            return out

        res = integrate(conditional, math.log(lo), math.log(hi), _COVERAGE_QUAD)
        self._reads["exact"] = held[0]
        value, clamp_note = _clamp(res.value)
        log.debug(
            "exact coverage at theta=%.6g: %d nodes read, %d outer-integrand calls, "
            "%d outer nodes, %d inner rows, %d grid points at spacing %.6g after %d "
            "halvings, estimate %.2e, %d floored, %.3f s%s",
            theta, self.dist.nodes_read - read, calls, res.n_evals, n_rows, rows.shape[1],
            step, level, estimate, floored, time.perf_counter() - start, clamp_note,
        )
        return value

    # -- dominant interferer -------------------------------------------------

    def residual_mean_interference(self, x0, x_i):
        """Conditional mean of the interference below the top two powers
        (x0, x_i): G'''(F) / G''(F) M1(x_i), F = F(x_i), which is (n-2)
        E[P | P <= x_i] (BPP) or mu M1(x_i) (HPPP); elementwise."""
        if self.law.n < 2:
            raise ParameterError("needs n >= 2")
        x_i = np.asarray(x_i, dtype=float)
        if not np.all((0 < x_i) & (x_i <= x0)):
            raise ParameterError("require 0 < x_i <= x0")
        out = self._residual_mean(self.dist.cdf(x_i), self.dist.mean_below(x_i))
        return float(out) if out.ndim == 0 else out

    def _residual_mean(self, fxi, m1):
        """`residual_mean_interference` given F(x_i) = fxi and M1(x_i) = m1."""
        ratio = self.law.derivative_ratio(2, np.maximum(fxi, 1e-250))
        return np.where(fxi > 1e-250, ratio * m1, 0.0)

    def joint_top_two_pdf(self, x0, x_i):
        """Joint density G''(F(x_i)) f(x0) f(x_i) / (1 - G(0)) of the top two
        powers on 0 < x_i < x0 (BPP: n (n-1) f f F^(n-2)); it integrates to
        1 - G'(0) / (1 - G(0)), the rest being a lone serving UAV."""
        x0, x_i = np.asarray(x0, dtype=float), np.asarray(x_i, dtype=float)
        dist = self.dist
        joint = self._joint_top_two(dist.pdf(x0), dist.pdf(x_i), dist.cdf(x_i))
        out = np.where(x_i < x0, joint, 0.0)
        return float(out) if out.ndim == 0 else out

    def _joint_top_two(self, fx0, f_i, fxi):
        """`joint_top_two_pdf` on x_i < x0, given f(x0) = fx0, f(x_i) = f_i
        and F(x_i) = fxi."""
        law = self.law
        return np.exp(law.log_derivative(2, fxi)) * fx0 * f_i / law.p_nonempty

    def _coverage_dominant_generic(self, theta, with_residual_mean):
        """G'(0) / (1 - G(0)), the chance of a lone serving UAV, plus a 2D
        integral over the top-two powers (t0, ti) = log(x0, x_i) of
        E[Q(m, a + b Y)], Y = m H1, a = m theta omega / x0, b = theta x_i / x0
        (omega = 0 drops the residual).

        Each outer-integrand call over t0 integrates ti over [t_lo, t0_i] for
        all its nodes with one batched rule, at a nested rule's inner
        tolerance; row i maps [t_lo, t0_i] affinely onto [0, 1] (the width is
        the Jacobian), which keeps the scalar rule's panels, and every inner
        node ti < t0_i.  f(x0) is read once per row, and f, F and M1 once per
        node, all through `ReceivedPowerDistribution._log_at` at nodes that
        are logs already.

        Both levels start from `_DOMINANT_QUAD`'s 3 panels, not the default
        8.  At this tolerance most rows converge on their first sweep, so at
        BPP 10, m = 2.5, 0 dB a value costs 75 outer and 3,405 inner nodes
        where 8 panels cost 120 and 14,400.  Values moved by at most 5e-12
        for m from 0.5 to 8, N from 2 to 200 and theta from -20 to +20 dB,
        and by 3e-8 at the domain's corners, inside the 1e-7 absolute
        tolerance.  Fewer than 3 panels need refinement sweeps that cost
        more than the nodes they save.

        Only the fading tail's arguments a and b depend on theta, so the
        model holds the reads of every sweep at both levels (`_held`), with
        omega wherever N > 2, an inner sweep's keyed by its outer sweep's
        nodes as well as its own: a later value, of either method, at any
        theta and on every pass of the ladder, forms only a, b and the tail
        on the first sweeps (45 outer nodes and 2,025 of the 3,405 inner
        ones above) and on each refinement sweep that evaluates the nodes of
        the value before, multiplying the same factors in the same order.

        With a residual the fading expectation uses an n-node Laguerre rule:
        ceil(m/2) nodes for integer m, the `_LAGUERRE_LADDER` for any other
        m.  For integer m the rule is exact: the rescaled integrand
        exp(beta z) Q(m, a + beta z) is e^-a times the order recurrence's
        polynomial S(a + beta z) of degree m - 1 <= 2 n - 1, so there is no
        certification.  Otherwise the integrand has two components, the
        fading expectation by 2 n nodes and by n, integrated on the same
        panels in one 2D pass; the two values must agree to the
        `_DOMINANT_QUAD` tolerance of the value returned, the lone UAV's
        chance included, and the first is returned.  A pair that
        disagrees passes to the ladder's next rung, a new 2D pass, and the
        last rung's disagreement raises.  At m = 2.5 the first rung costs
        12 fading terms per inner node (8 nodes and 4, none dropped), where
        the 16/8 rung costs 23 (15 kept, and 8) and the 64/32 pair 59 (35
        and 24 kept).  The kernel forms a rung's rules together
        (`_fading_tails`): one pass of the order recurrence over both rules'
        terms where their row blocks allow it (`_laguerre_tails`), and one
        multiply chain that applies the density, x0, x_i and the width to
        the stacked tails.  Single-dominant's tail is the incomplete beta on
        the whole batch, with no mask (a = 0).  At BPP 10, m = 2.5, 0 dB
        that made a cold dominant value 0.89x and a warm single-dominant one
        0.91x of the rule-by-rule form in one process, with the same bits.
        Logs the work done at debug level, summed over the passes, the
        number of nodes whose reads this value computed, and the rule
        returned.
        """
        _require(theta > 0, "theta must be positive and finite (linear scale)", theta)
        law = self.law
        if law.n < 2:
            raise ParameterError("needs n >= 2")
        start = time.perf_counter()
        m, dist = self.m, self.dist
        integer_m = float(m).is_integer()
        ladder = (math.ceil(m / 2),) if integer_m else _LAGUERRE_LADDER
        lo, hi = self._outer_bounds(1e-10)
        t_lo, t_hi = math.log(lo), math.log(hi)
        with_residual_mean = with_residual_mean and law.n > 2
        certified = with_residual_mean and not integer_m
        inner_cfg = _DOMINANT_QUAD.scaled(0.1)
        held, read = ({}, self._reads["dominant"]), dist.nodes_read
        outer_nodes = rows = inner_nodes = 0

        def outer_reads(t0):  # x0, f(x0) and the inner rows' widths; no theta
            return np.exp(t0), np.exp(dist._log_at(t0, "log_pdf")[0]), t0 - t_lo

        def outer(t0):
            nonlocal rows, inner_nodes
            x0, fx0, width = _held(held, outer_reads, t0)

            def inner_reads(_, r, u):
                """x0_r, x_i, omega, the top-two density and the width at
                nodes u of rows r; no theta, and the outer nodes t0 only key
                them.  omega is read wherever N > 2, as the held reads serve
                both methods; it is 0.0 at N = 2."""
                x0_r, w = x0[r], width[r]
                ti = t_lo + u * w
                xi = np.exp(ti)
                if law.n > 2:
                    f_i, fxi, m1 = np.exp(dist._log_at(ti, "log_pdf", "log_cdf", "log_m1"))
                    omega = self._residual_mean(fxi, m1)
                else:
                    f_i, fxi = np.exp(dist._log_at(ti, "log_pdf", "log_cdf"))
                    omega = 0.0
                return x0_r, xi, omega, self._joint_top_two(fx0[r], f_i, fxi), w

            def kernel(r, u):
                x0_r, xi, omega, joint, w = _held(held, inner_reads, t0, r, u)
                b = theta * xi / x0_r
                if with_residual_mean:
                    tails = _fading_tails(m, m * theta * omega / x0_r, b, rules)
                else:  # a = 0 (the held omega serves both methods), and one rule
                    tails = _symmetric_beta(m, b)[None]
                return tails * joint * x0_r * xi * w

            res = integrate_batch(kernel, x0.size, 0.0, 1.0, inner_cfg)
            rows += x0.size
            inner_nodes += res.n_evals
            return res.value

        alone = float(np.exp(law.log_derivative(1, 0.0))) / law.p_nonempty
        for n_nodes in ladder:
            rules = (2 * n_nodes, n_nodes) if certified else (n_nodes,)  # read by `kernel`
            res = integrate(outer, t_lo, t_hi, _DOMINANT_QUAD)
            outer_nodes += res.n_evals
            value, gap = res.value[0], abs(res.value[0] - res.value[-1])
            tol = max(_DOMINANT_QUAD.abs_tol, _DOMINANT_QUAD.rel_tol * abs(alone + value))
            if gap <= tol:
                break
        else:
            raise QuadratureError(
                f"{n_nodes}- and {rules[0]}-node fading rules disagree "
                f"({res.value[1]:.10g} vs {value:.10g}, tolerance {tol:.3e})",
                best_estimate=value,
                error_estimate=gap,
                level="fading",
            )
        self._reads["dominant"] = held[0]
        value, clamp_note = _clamp(float(alone + value))
        log.debug(
            "dominant coverage at theta=%.6g: %d nodes read, residual %s, %d outer nodes, "
            "%d inner rows, %d inner node evaluations, %d/%d Laguerre nodes kept, certified %s, "
            "%.3f s%s",
            theta, dist.nodes_read - read,
            "mean" if with_residual_mean else "dropped", outer_nodes, rows, inner_nodes,
            _gen_laguerre_rule(m, rules[0])[0].size if with_residual_mean else 0,
            rules[0] if with_residual_mean else 0, "yes" if certified else "no",
            time.perf_counter() - start, clamp_note,
        )
        return value

    def coverage_dominant(self, theta):
        """Dominant-interferer coverage: second-strongest interferer exact,
        the rest replaced by their conditional mean.  Valid for any m > 0."""
        return self._coverage_dominant_generic(theta, with_residual_mean=True)

    def coverage_single_dominant(self, theta):
        """Single-dominant-interferer coverage (residual interference dropped)."""
        return self._coverage_dominant_generic(theta, with_residual_mean=False)


def _fading_term_bound(m, z):
    """Upper bound B(z) on exp(beta z) Q(m, a + beta z) for a >= 0 and
    0 < beta < 1, the g of the mean-residual Laguerre rule.

    Q decreases, so the term is at most e^y Q(m, y), y = beta z < z, and
    e^y Q(m, y) = int_0^inf (y + s)^(m-1) e^-s ds / Gamma(m).  For m <= 1
    that is at most 1; for m > 1, (y + s)^(m-1) <= 2^max(m-2, 0) (y^(m-1) + s^(m-1))
    gives B(z) = 2^max(m-2, 0) (1 + z^(m-1) / Gamma(m)).
    """
    if m <= 1:
        return np.ones_like(z)
    return 2.0 ** max(m - 2.0, 0.0) * (1.0 + z ** (m - 1.0) / special.gamma(m))


@lru_cache(maxsize=64)
def _gen_laguerre_rule(m, n_nodes):
    """Nodes and weights for int_0^inf z^(m-1) e^-z g(z) dz / Gamma(m) with
    0 <= g <= `_fading_term_bound`: the n-node generalized Gauss-Laguerre
    rule without its largest nodes whose summed w_k B(z_k) is at most
    `_LAGUERRE_DROP`, which bounds what they could add."""
    z, w = _gen_laguerre_roots(n_nodes, m - 1.0)
    w = w / special.gamma(m)
    tail = np.cumsum((w * _fading_term_bound(m, z))[::-1])[::-1]
    keep = tail > _LAGUERRE_DROP
    return z[keep], w[keep]


def _gen_laguerre_roots(n, alpha):
    """The n-node generalized Gauss-Laguerre rule of weight z^alpha e^-z,
    bit for bit what scipy.special's `roots_genlaguerre` returns, without
    the `scipy.linalg` import of its eigensolver.

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Jacobi matrix of the Laguerre recurrence, improved by one Newton
    step on L_n; the weights are 1 / (L_(n-1) L_n') there, each factor
    scaled by the geometric middle of its range so that the product neither
    overflows nor underflows, and normalized to sum to Gamma(alpha + 1)."""
    mu0 = special.gamma(alpha + 1.0)
    if n == 1:
        return np.array([alpha + 1.0]), np.array([mu0])
    k = np.arange(n, dtype=float)
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = 2.0 * k + alpha + 1.0
    jacobi.flat[n :: n + 1] = -np.sqrt(k[1:] * (k[1:] + alpha))
    z = np.linalg.eigvalsh(jacobi)
    y = special.eval_genlaguerre(n, alpha, z)
    dy = (n * y - (n + alpha) * special.eval_genlaguerre(n - 1, alpha, z)) / z
    z -= y / dy
    fm = special.eval_genlaguerre(n - 1, alpha, z)
    for f in (fm, dy):
        logs = np.log(np.abs(f))
        f /= np.exp((logs.max() + logs.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= mu0 / w.sum()
    return z, w


def _scaled_upper_gamma(m, x):
    """S(x) = e^x Q(m, x) for 2m a positive integer, by the order recurrence
    Q(f + 1, x) = Q(f, x) + x^f e^-x / Gamma(f + 1): with m = k + f, f in {1/2, 1},

        S(x) = e^x Q(f, x) + sum_{j<k} x^(f+j) / Gamma(f + j + 1),

    where e^x Q(1, x) = 1 and e^x Q(1/2, x) = erfcx(sqrt x).  Every term is
    >= 0, so nothing cancels, and S grows only like x^(m-1), so it cannot
    overflow.  The sum and the terms are updated in place (x is never
    written), each term formed from the last as term x / (f + j), and the
    term past the last added is not formed: the same bits as forming each
    afresh."""
    k = math.ceil(m) - 1
    f = m - k
    if f == 1.0:
        out, term = np.ones_like(x), x
    else:
        term = np.sqrt(x)
        out = special.erfcx(term)
        term *= 2.0 / math.sqrt(math.pi)
    for j in range(1, k + 1):
        out += term
        if j < k:
            term = np.multiply(term, x, out=None if term is x else term)
            term /= f + j
    return out


def _laguerre_tail(m, a, b, z, w):
    """T(a, b) = E[Q(m, a + b Y)], Y ~ Gamma(m, 1), at 1D arrays a > 0, b > 0
    by the Laguerre rule (z, w) of weight z^(m-1) e^-z / Gamma(m): the
    one-rule case of `_laguerre_tails`.

    With z = (1+b) y the Gamma weight becomes z^(m-1) e^-z times
    exp(beta z) Q(m, a + beta z), beta = b/(1+b), which grows at most
    polynomially: T = (1+b)^-m sum_k w_k exp(beta z_k) Q(m, a + beta z_k).
    Where 2m is an integer each term is e^-a S(a + beta z_k)
    (`_scaled_upper_gamma`), with e^-a taken once per row; for any other m
    it is exp(beta z_k) times scipy's Q.  The terms are formed in blocks of
    `_TERM_BLOCK // z.size` rows, which keeps memory flat, and each block's
    sums are one matrix-vector product.
    """
    return _laguerre_tails(m, a, b, [(z, w)])[0]


def _laguerre_tails(m, a, b, rules):
    """`_laguerre_tail` by every Laguerre rule (z, w) of `rules`: a
    (len(rules), a.size) array.

    Each rule's sums are taken in the row blocks it takes alone,
    `_TERM_BLOCK // z.size` rows, because a BLAS dot product rounds a row
    by where it lies in its block: another blocking can move sums in their
    last bits.  Where those blocks have a least common multiple of at most
    `_FUSED_TERMS` terms (2,048 rows of 12 on the 8/4 rung; 1,024 rows of
    24 on the 16/8 rung from m = 2.7), the rules' terms are formed side by
    side in row blocks of that size, by one `_scaled_upper_gamma` (or
    gammaincc) call each, and every rule's sums are taken on its own
    columns.  Other rungs run one rule at a time: there the common block is
    the whole batch, and its larger temporaries made cold values at
    m = 2.5 on the 16/8 and 64/32 rungs 1.05x and 1.15x slower than one
    rule at a time.  e^-a (1+b)^-m scales the stacked sums in one pass.
    """
    steps = [max(1, _TERM_BLOCK // z.size) for z, _ in rules]
    cols = [0, *accumulate(z.size for z, _ in rules)]
    block = math.lcm(*steps)
    if block * cols[-1] > _FUSED_TERMS:
        return np.concatenate([_laguerre_tails(m, a, b, [rule]) for rule in rules])
    elementary = float(2.0 * m).is_integer()
    z = np.concatenate([z for z, _ in rules])
    beta = (b / (1.0 + b))[:, None]
    sums = np.empty((len(rules), a.size))
    for i in range(0, a.size, block):
        bz = beta[i : i + block] * z
        if elementary:
            bz += a[i : i + block, None]
            terms = _scaled_upper_gamma(m, bz)
        else:
            terms = special.gammaincc(m, a[i : i + block, None] + bz)
            terms *= np.exp(bz, out=bz)
        for k, ((_, w), step) in enumerate(zip(rules, steps)):
            rule = terms[:, cols[k] : cols[k + 1]]
            for j in range(0, rule.shape[0], step):
                sums[k, i + j : i + j + step] = rule[j : j + step] @ w
    scale = (1.0 + b) ** -m
    return np.exp(-a) * scale * sums if elementary else scale * sums


def _symmetric_beta(m, b):
    """I_x(m, m), the regularized incomplete beta function, at x = 1/(1+b)
    for a 1D array b >= 0, b = inf included.

    At half-integer m = k + 1/2 from 3/2 to 15/2 (`_BETA_HALF_M`) it is
    elementary (DLMF 8.17), formed from b, never from x rounded, and nothing
    subtracts more than a factor `_BETA_CANCELLATION` of the value:
    I_x(1/2, 1/2) = (2/pi) arctan(1/sqrt b), well conditioned for every b,
    plus the k steps of I_x(a+1, a+1) = I_x(a, a) + (x y)^a (x - y) /
    (a B(a, a)), y = b/(1+b).  For x >= 1/2 each step adds; below 1/2 each
    subtracts, and where the sum of magnitudes exceeds `_BETA_CANCELLATION`
    times the result, the value is the non-negative series (x y)^m /
    (m B(m, m)) sum_j (2m)_j / (m+1)_j x^j, which converges fast there (the
    crossover lies below x = 0.22 for m <= 7.5) and is cut where its next
    term falls below `_BETA_SERIES_TOL` at the largest such x.

    Any other m, integer m and m = 1/2 included, takes scipy's betainc at x,
    and below m = 1, where b < 1, 1 - betainc at y = b/(1+b) = 1 - x.
    """
    low, high = _BETA_HALF_M
    if not (float(m - 0.5).is_integer() and low <= m <= high):
        out = special.betainc(m, m, 1.0 / (1.0 + b))
        if m < 1:  # there x rounded near 1 loses relative accuracy; y does not
            out[b < 1] = 1.0 - special.betainc(m, m, b[b < 1] / (1.0 + b[b < 1]))
        return out
    # b = inf (x = 0) as the largest float, where the value is 0 as well:
    # the forms below would read inf / inf
    b = np.minimum(b, np.finfo(float).max)
    ob = 1.0 + b
    root = np.sqrt(b)
    half = (2.0 / math.pi) * np.arctan2(1.0, root)  # I_x(1/2, 1/2)
    r = root / ob  # sqrt(x y)
    coef = 2.0 / math.pi  # 1 / (a B(a, a)) at a = 1/2, then up to a = m
    term = coef * r * ((1.0 - b) / ob)  # the step from a to a + 1
    steps = np.zeros(b.shape)
    for a in np.arange(0.5, m - 0.5):
        steps += term
        ratio = 2.0 * (2.0 * a + 1.0) / (a + 1.0)
        coef *= ratio
        term *= ratio * r * r
    out = half + steps
    series = _BETA_CANCELLATION * out < half + np.abs(steps)
    if series.any():
        x = 1.0 / ob[series]
        x_max, coeffs = float(x.max()), [1.0]  # coeffs[j] = (2m)_j / (m+1)_j
        while coeffs[-1] * x_max ** (len(coeffs) - 1) > _BETA_SERIES_TOL:
            j = len(coeffs) - 1
            coeffs.append(coeffs[-1] * (2.0 * m + j) / (m + 1.0 + j))
        total = np.full(x.size, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            total *= x
            total += c
        out[series] = coef * r[series] ** (2.0 * m) * total
    return out


def _fading_tail_expectation(m, a, b, n_nodes):
    """T(a, b) = E[Q(m, a + b Y)] for Y ~ Gamma(m, 1), elementwise over
    broadcast arrays a >= 0, b > 0, by the trimmed `n_nodes` rule; Q is the
    regularized upper incomplete gamma function.  The one-rule case of
    `_fading_tails`."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = _fading_tails(m, a.ravel(), b.ravel(), (n_nodes,))[0].reshape(a.shape)
    return float(out) if out.ndim == 0 else out


def _fading_tails(m, a, b, rules):
    """T(a, b) of `_fading_tail_expectation` at 1D arrays a >= 0, b > 0 by
    each trimmed rule of `rules` (node counts): a (len(rules), a.size) array.

    a = 0: T = P(G0 > b G1) for i.i.d. Gamma(m, 1) G0, G1, which is the
    regularized incomplete beta function I_{1/(1+b)}(m, m)
    (`_symmetric_beta`: elementary at half-integer m from 3/2 to 15/2,
    scipy's betainc otherwise), the same for every rule.  a > 0:
    `_laguerre_tails`, the rules together.  Where every a is 0 or every a
    is above 0 (the mean residual wherever F(x_i) > 1e-250), one of them
    takes the whole batch, with no mask or scatter; otherwise each takes
    its own elements, and neither is called without elements.
    """
    shifted = a > 0
    if not shifted.any():
        return np.repeat(_symmetric_beta(m, b)[None], len(rules), axis=0)
    rules = [_gen_laguerre_rule(m, n) for n in rules]
    if shifted.all():
        return _laguerre_tails(m, a, b, rules)
    out = np.empty((len(rules), a.size))
    out[:, ~shifted] = _symmetric_beta(m, b[~shifted])
    out[:, shifted] = _laguerre_tails(m, a[shifted], b[shifted], rules)
    return out


class InterferenceLaplaceBPP(_ConditionalLaplace):
    """The BPP's conditional Laplace transform, n UAVs: G(z) = z^n."""

    def __init__(self, dist: ReceivedPowerDistribution, n: int, m: float):
        _require_count(n, "the BPP Laplace transform")
        super().__init__(dist, _CountLaw(n=int(n)), m)


class InterferenceLaplaceHPPP(_ConditionalLaplace):
    """The finite HPPP's conditional Laplace transform, mean UAV count mu: G(z) = e^(mu (z - 1))."""

    def __init__(self, dist: ReceivedPowerDistribution, mean_count, m: float):
        _require(mean_count > 0, "the mean UAV count must be positive and finite", mean_count)
        super().__init__(dist, _CountLaw(mu=float(mean_count)), m)


class BppCoverageModel(_CoverageModel):
    """All analytic BPP quantities for one (n, geometry, channel) triple."""

    def __init__(self, n: int, geom: CorridorGeometry, channel: ChannelParams):
        _require_count(n, "the BPP coverage model")
        self.n = int(n)
        super().__init__(_CountLaw(n=self.n), geom, channel)


class HpppCoverageModel(_CoverageModel):
    """All analytic finite-HPPP quantities for one (intensity, geometry,
    channel) triple; everything is conditioned on a non-empty corridor."""

    def __init__(self, intensity, geom: CorridorGeometry, channel: ChannelParams):
        _require(intensity > 0, "intensity must be positive and finite", intensity)
        self.mu = float(intensity) * geom.length  # mean UAV count
        super().__init__(_CountLaw(mu=self.mu), geom, channel)


# ---------------------------------------------------------------------------
# Model caches and the query API
# ---------------------------------------------------------------------------


# Every distribution that some model or `_cached_dist` still holds, so that
# all models of one (geometry, channel) share one cache while any of them
# lives, however many other pairs the LRU has seen since; once nothing holds
# a distribution, it is dropped here too.
_live_dists = weakref.WeakValueDictionary()


@lru_cache(maxsize=32)
def _cached_dist(geom, channel):
    dist = _live_dists.get((geom, channel))
    if dist is None:
        dist = _live_dists[geom, channel] = ReceivedPowerDistribution(geom, channel)
    return dist


# typed: a key equal to the int n, such as 10.0 or True, must reach the
# model's check of n, not the model cached for n
@lru_cache(maxsize=32, typed=True)
def bpp_model(n, geom, channel) -> BppCoverageModel:
    return BppCoverageModel(n, geom, channel)


@lru_cache(maxsize=32)
def hppp_model(intensity, geom, channel) -> HpppCoverageModel:
    return HpppCoverageModel(intensity, geom, channel)


_METHODS = {"exact": "coverage", "dominant": "coverage_dominant",
            "single_dominant": "coverage_single_dominant"}


@dataclass(frozen=True)
class CoverageQuery:
    """A coverage-probability request: threshold theta is LINEAR here;
    dB-to-linear conversion happens at the I/O boundary."""

    theta: float
    spatial: SpatialModel
    channel: ChannelParams
    geom: CorridorGeometry
    method: str = "exact"  # exact | dominant | single_dominant, for BPP and HPPP

    def __post_init__(self):
        _require(self.theta > 0, "theta must be positive and finite (linear scale)", self.theta)
        if self.method not in _METHODS:
            raise ParameterError(f"unknown method {self.method!r}")


def coverage_probability(query: CoverageQuery) -> float:
    """Dispatch a CoverageQuery to the matching analytic engine.  A
    QuadratureError is re-raised naming the method and theta, with the
    original's estimates and level; its level tag is written once."""
    spatial = query.spatial
    if isinstance(spatial, BPP):
        model = bpp_model(spatial.n, query.geom, query.channel)
    elif isinstance(spatial, FiniteHPPP):
        model = hppp_model(spatial.intensity, query.geom, query.channel)
    elif isinstance(spatial, Disc2D):
        raise ParameterError("the 2D disc baseline has no analytic engine; use method mc")
    else:
        raise ParameterError(f"unsupported spatial model {spatial!r}")
    try:
        return getattr(model, _METHODS[query.method])(query.theta)
    except QuadratureError as exc:
        reason = str(exc).removeprefix(f"[{exc.level}] ")
        raise QuadratureError(
            f"coverage method {query.method!r} failed at theta={query.theta!r}: {reason}",
            best_estimate=exc.best_estimate,
            error_estimate=exc.error_estimate,
            level=exc.level,
        ) from exc
