"""Domain types and channel building blocks for the UAV corridor model.

The corridor is a line segment at height h spanning [-R, R] above a ground
receiver at the origin.  Links combine power-law path loss, inverse-gamma
shadowing (heavy-tailed, shape q, scale gamma) and Nakagami-m small-scale
fading whose power gain is Gamma(m, 1/m) with unit mean.

All types are immutable; samplers take an explicit numpy Generator owned by
the caller, so everything here is safe to use from concurrent workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

__all__ = [
    "ParameterError",
    "FixedHeight",
    "UniformHeight",
    "NormalHeight",
    "HeightModel",
    "CorridorGeometry",
    "ChannelParams",
    "BPP",
    "FiniteHPPP",
    "Disc2D",
    "SpatialModel",
    "db_to_linear",
    "linear_to_db",
    "path_loss",
    "link_distance_pdf",
    "link_distance_cdf",
    "pathloss_value_pdf",
    "pathloss_value_cdf",
    "LinkDistanceDistribution",
    "InverseGammaShadowing",
    "NakagamiFadingPower",
    "sample_gamma",
]


class ParameterError(ValueError):
    """A parameter violates its documented domain."""


def _require(ok, message, *values):
    """Raise ParameterError(message) unless `ok` holds and every value is
    finite: nan passes no `x <= bound` check, and inf passes most."""
    if not (ok and all(map(math.isfinite, values))):
        raise ParameterError(message)


def _without_nan(x, what):
    """x as a float array; ParameterError if any entry is NaN, which lies in
    no support and would otherwise read as a density or probability of 0."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ParameterError(f"{what} must not be NaN")
    return x


def _is_integer(n):
    """A Python or numpy integer, not a bool or a float."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _require_count(n, what):
    """Raise ParameterError unless the UAV count `n` is an integer >= 1."""
    if not _is_integer(n) or n < 1:
        raise ParameterError(f"{what} needs an integer UAV count n >= 1, got {n!r}")


def db_to_linear(value_db):
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value):
    return 10.0 * np.log10(np.asarray(value, dtype=float))


# ---------------------------------------------------------------------------
# Height models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedHeight:
    h: float

    def __post_init__(self):
        _require(self.h > 0, "fixed height must be positive and finite", self.h)

    def mean(self):
        return self.h

    def sample(self, rng, size=None):
        return np.full(size, self.h) if size is not None else self.h


@dataclass(frozen=True)
class UniformHeight:
    low: float
    high: float

    def __post_init__(self):
        _require(0 < self.low <= self.high, "uniform height needs finite 0 < low <= high",
                 self.low, self.high)

    def mean(self):
        return 0.5 * (self.low + self.high)

    def sample(self, rng, size=None):
        if self.high == self.low:
            return np.full(size, self.low) if size is not None else self.low
        return rng.uniform(self.low, self.high, size)


@dataclass(frozen=True)
class NormalHeight:
    """Normal height, truncated to h > 0 by rejection (the removed mass is
    negligible whenever sigma << mu)."""

    mu: float
    sigma: float

    def __post_init__(self):
        _require(self.mu > 0 and self.sigma > 0, "normal height needs finite mu > 0 and sigma > 0",
                 self.mu, self.sigma)

    def mean(self):
        return self.mu

    def sample(self, rng, size=None):
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        out = rng.normal(self.mu, self.sigma, n)
        bad = out <= 0
        while bad.any():
            out[bad] = rng.normal(self.mu, self.sigma, bad.sum())
            bad = out <= 0
        if scalar:
            return float(out[0])
        return out.reshape(size)


HeightModel = Union[FixedHeight, UniformHeight, NormalHeight]


# ---------------------------------------------------------------------------
# Geometry, channel, spatial models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorridorGeometry:
    """Corridor of half-length R (the segment spans [-R, R]) above the
    receiver at the origin."""

    R: float
    height_model: HeightModel

    def __post_init__(self):
        _require(self.R > 0, "corridor half-length R must be positive and finite", self.R)

    @property
    def length(self):
        return 2.0 * self.R

    @property
    def fixed_height(self):
        """Height h for fixed-height analysis; rejects variable-height models."""
        if not isinstance(self.height_model, FixedHeight):
            raise ParameterError(
                "this operation requires a fixed-height corridor; got "
                f"{type(self.height_model).__name__}"
            )
        return self.height_model.h

    def max_link_distance(self):
        return math.hypot(self.fixed_height, self.R)


@dataclass(frozen=True)
class ChannelParams:
    """Path-loss exponent alpha, shadowing shape q and scale gamma, fading
    shape m.

    gamma=None resolves to q - 1, which normalizes the shadowing mean to 1 so
    that path loss is the only deterministic driver of mean power.  The SIR
    is invariant to gamma (a common scale on all links cancels), so this
    choice only matters for absolute-power outputs.  A path-loss constant K
    (power gain K d^-alpha) is the shadowing scale K gamma, since K S is
    inverse-gamma with that scale.
    """

    alpha: float
    q: float
    gamma: float | None = None
    m: float = 1.0

    def __post_init__(self):
        _require(self.alpha > 0, "path-loss exponent alpha must be positive and finite", self.alpha)
        _require(self.q > 1, "shadowing shape q must be finite and exceed 1 (finite mean)", self.q)
        if self.gamma is None:
            object.__setattr__(self, "gamma", float(self.q - 1.0))
        _require(self.gamma > 0, "shadowing scale gamma must be positive and finite", self.gamma)
        _require(self.m > 0, "fading shape m must be positive and finite", self.m)

    def require_integer_m(self):
        m = int(round(self.m))
        if abs(self.m - m) > 1e-12 or m < 1:
            raise ParameterError(
                f"the exact coverage engine needs integer m >= 1, got m={self.m}"
            )
        return m


@dataclass(frozen=True)
class BPP:
    """Fixed count of UAVs placed independently and uniformly on the corridor."""

    n: int

    def __post_init__(self):
        _require_count(self.n, "BPP")


@dataclass(frozen=True)
class FiniteHPPP:
    """Homogeneous Poisson process on the corridor, `intensity` UAVs per meter."""

    intensity: float

    def __post_init__(self):
        _require(self.intensity > 0, "HPPP intensity must be positive and finite", self.intensity)

    def mean_count(self, geom):
        return self.intensity * geom.length


@dataclass(frozen=True)
class Disc2D:
    """Baseline: UAVs uniform in a 2D disc of the given radius above the
    receiver (ground distance density 2r/radius^2)."""

    n: int
    radius: float

    def __post_init__(self):
        _require_count(self.n, "Disc2D")
        _require(self.radius > 0, "disc radius must be positive and finite", self.radius)


SpatialModel = Union[BPP, FiniteHPPP, Disc2D]


# ---------------------------------------------------------------------------
# Path loss
# ---------------------------------------------------------------------------


def path_loss(d, params: ChannelParams):
    """Power gain d^(-alpha)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ParameterError("path loss needs a positive distance")
    out = d ** (-params.alpha)
    return float(out) if out.ndim == 0 else out


def link_distance_pdf(d, h, R):
    """Density of the receiver-UAV distance d = sqrt(u^2 + h^2), u ~ U(-R, R):
    f(d) = d / (R sqrt(d^2 - h^2)) on [h, sqrt(h^2 + R^2)]."""
    if h <= 0 or R <= 0:
        raise ParameterError("need h > 0 and R > 0")
    d = np.asarray(d, dtype=float)
    d_max = math.hypot(h, R)
    inside = (d > h) & (d < d_max)
    out = np.zeros_like(d)
    dd = d[inside]
    out[inside] = dd / (R * np.sqrt(dd * dd - h * h))
    return float(out) if out.ndim == 0 else out


def link_distance_cdf(d, h, R):
    """CDF sqrt(d^2 - h^2) / R, clamped to [0, 1] outside the support."""
    if h <= 0 or R <= 0:
        raise ParameterError("need h > 0 and R > 0")
    d = np.asarray(d, dtype=float)
    val = np.sqrt(np.clip(d * d - h * h, 0.0, None)) / R
    out = np.clip(val, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


class LinkDistanceDistribution:
    """Distance between the receiver and one uniformly placed corridor UAV."""

    def __init__(self, h, R):
        if h <= 0 or R <= 0:
            raise ParameterError("need h > 0 and R > 0")
        self.h = float(h)
        self.R = float(R)
        self.d_max = math.hypot(h, R)

    def pdf(self, x):
        return link_distance_pdf(x, self.h, self.R)

    def cdf(self, x):
        return link_distance_cdf(x, self.h, self.R)

    def sample(self, rng, size=None):
        u = rng.uniform(-self.R, self.R, size)
        return np.hypot(u, self.h)

    def mean(self):
        # (1/R) * int_0^R sqrt(u^2 + h^2) du, closed form.
        h, R = self.h, self.R
        return 0.5 * (self.d_max + h * h * math.asinh(R / h) / R)


def pathloss_value_pdf(x, h, R, alpha):
    """Density of the path-loss value l(d) = d^(-alpha):

        f(x) = x^(-(alpha+2)/alpha) / (alpha R sqrt(x^(-2/alpha) - h^2))

    supported on [(h^2+R^2)^(-alpha/2), h^(-alpha)].  The upper endpoint has
    an integrable inverse-square-root singularity.
    """
    if h <= 0 or R <= 0 or alpha <= 0:
        raise ParameterError("need h > 0, R > 0, alpha > 0")
    x = np.asarray(x, dtype=float)
    lo = (h * h + R * R) ** (-alpha / 2.0)
    hi = h ** (-alpha)
    inside = (x > lo) & (x < hi)
    out = np.zeros_like(x)
    xs = x[inside]
    out[inside] = xs ** (-(alpha + 2.0) / alpha) / (
        alpha * R * np.sqrt(_ground_distance_sq(xs / hi, h, alpha))
    )
    return float(out) if out.ndim == 0 else out


def pathloss_value_cdf(x, h, R, alpha):
    """P[l(d) <= x] = 1 - sqrt(x^(-2/alpha) - h^2) / R on the support."""
    if h <= 0 or R <= 0 or alpha <= 0:
        raise ParameterError("need h > 0, R > 0, alpha > 0")
    x = np.asarray(x, dtype=float)
    lo = (h * h + R * R) ** (-alpha / 2.0)
    hi = h ** (-alpha)
    out = np.where(x >= hi, 1.0, 0.0)
    inside = (x > lo) & (x < hi)
    xs = x[inside]
    out[inside] = 1.0 - np.sqrt(_ground_distance_sq(xs / hi, h, alpha)) / R
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _ground_distance_sq(ratio, h, alpha):
    """u^2 = x^(-2/alpha) - h^2 at ratio = x / h^-alpha < 1, as h^2 expm1(-(2/alpha)
    log ratio), which stays positive up to the top of the support, where the
    difference cancels to 0 or below."""
    return h * h * np.expm1((-2.0 / alpha) * np.log(ratio))


# ---------------------------------------------------------------------------
# Shadowing and fading
# ---------------------------------------------------------------------------

# Integer gamma shapes from 2 up to this one are drawn from uniforms (see
# `sample_gamma`).  With SFC64 on one x86_64 CPU that took about 13, 19 and
# 20-25 ns per value at shapes 2, 3 and 4, against 32-35 ns for numpy's
# standard_gamma, and the two drew within about 10% of each other at shape
# 5 (BENCH_19.json).
_ERLANG_MAX_SHAPE = 4
# Values per block of uniforms, so that a call of any size holds at most
# _ERLANG_MAX_SHAPE * _ERLANG_BLOCK uniforms (256 KiB) at once.
_ERLANG_BLOCK = 1 << 13


def sample_gamma(rng, shape, scale, out):
    """Gamma(shape, scale) values drawn into `out`, a C-contiguous float64
    array, which is returned.

    An integer shape k from 2 to _ERLANG_MAX_SHAPE is drawn exactly, as
    -scale * log((1 - U_1) ... (1 - U_k)) (the Erlang identity), where the
    k uniforms of each value come one after another from rng.random; every
    factor lies in (0, 1], so the log is finite.  Every other shape draws
    scale * rng.standard_gamma(shape), the values of rng.gamma.  Either way,
    successive calls give the values of one call for all of them, and leave
    the stream where that call would.
    """
    if not (2 <= shape <= _ERLANG_MAX_SHAPE and float(shape).is_integer()):
        rng.standard_gamma(shape, out=out)
        out *= scale
        return out
    k = int(shape)
    flat = out.reshape(-1)
    block = np.empty(k * min(flat.size, _ERLANG_BLOCK))
    for first in range(0, flat.size, _ERLANG_BLOCK):
        prod = flat[first : first + _ERLANG_BLOCK]
        u = rng.random(out=block[: k * prod.size]).reshape(-1, k)
        np.subtract(1.0, u, out=u)
        np.multiply(u[:, 0], u[:, 1], out=prod)
        for j in range(2, k):
            prod *= u[:, j]
    np.log(out, out=out)
    out *= -scale
    return out


class InverseGammaShadowing:
    """Inverse-gamma shadowing gain: pdf gamma^q / (Gamma(q) x^(q+1)) exp(-gamma/x).

    Sampling uses the reciprocal of a Gamma(q, 1/gamma) draw of
    `sample_gamma`, which is exact.
    The mean gamma/(q-1) exists only for q > 1 (enforced); the variance is
    infinite for q <= 2, so sample means converge slowly there.
    """

    def __init__(self, q, gamma):
        _require(q > 1, "inverse-gamma shape q must be finite and exceed 1", q)
        _require(gamma > 0, "inverse-gamma scale must be positive and finite", gamma)
        self.q = float(q)
        self.gamma = float(gamma)
        self._log_norm = self.q * math.log(self.gamma) - math.lgamma(self.q)

    def pdf(self, x):
        x = _without_nan(x, "shadowing gain")
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = np.exp(self._log_norm - (self.q + 1.0) * np.log(xp) - self.gamma / xp)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = _without_nan(x, "shadowing gain")
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = special.gammaincc(self.q, self.gamma / x[pos])
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, size=None):
        g = sample_gamma(rng, self.q, 1.0 / self.gamma, np.empty(() if size is None else size))
        return 1.0 / g[()]  # a scalar when size is None

    def mean(self):
        return self.gamma / (self.q - 1.0)

    def mode(self):
        return self.gamma / (self.q + 1.0)

    def median(self):
        return self.gamma / special.gammainccinv(self.q, 0.5)

    def ppf(self, p):
        """Quantile gamma / Q^-1(q, p): 0 at p = 0 and inf at p = 1."""
        p = np.asarray(p, dtype=float)
        if not np.all((0 <= p) & (p <= 1)):
            raise ParameterError("quantile level must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.gamma / special.gammainccinv(self.q, p)
        return float(out) if out.ndim == 0 else out


class NakagamiFadingPower:
    """Nakagami-m fading power gain: Gamma(m, 1/m), unit mean; m=1 is Exp(1).
    Sampling uses `sample_gamma`."""

    def __init__(self, m):
        _require(m > 0, "fading shape m must be positive and finite", m)
        self.m = float(m)
        self._log_norm = self.m * math.log(self.m) - math.lgamma(self.m)

    def pdf(self, x):
        x = _without_nan(x, "fading power")
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = np.exp(self._log_norm + (self.m - 1.0) * np.log(xp) - self.m * xp)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = _without_nan(x, "fading power")
        out = special.gammainc(self.m, self.m * np.clip(x, 0.0, None))
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, size=None):
        g = sample_gamma(rng, self.m, 1.0 / self.m, np.empty(() if size is None else size))
        return g[()]  # a scalar when size is None

    def mean(self):
        return 1.0
