import dataclasses
import math
import re

import numpy as np
import pytest

from corridor_cov import (
    QuadratureConfig,
    QuadratureError,
    integrate,
    link_distance_pdf,
)
from corridor_cov import quadrature
from corridor_cov.quadrature import integrate_batch, nested_integrate_2d

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)


# Self-test corpus: (f, a, b, truth)
CORPUS = [
    (lambda x: x, 0.0, 1.0, 0.5),
    (lambda x: x**7 - 3 * x**2, -1.0, 2.0, (2.0**8 - 1.0) / 8 - (2.0**3 + 1.0)),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
]


@pytest.mark.parametrize("f,a,b,truth", CORPUS)
def test_corpus_values(f, a, b, truth):
    res = integrate(f, a, b, QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13))
    assert res.value == pytest.approx(truth, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("f,a,b,truth", CORPUS)
def test_error_estimate_bounds_true_error(f, a, b, truth):
    res = integrate(f, a, b, QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12))
    assert abs(res.value - truth) <= res.error + 1e-12


def test_link_distance_density_normalizes():
    # corridor link-distance density; d -> h is an inverse-root singularity,
    # and d*d - h*h loses ~8 digits near it, so 1e-8 is the float floor here.
    h, R = 100.0, 500.0
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, max_subdivisions=4000)
    res = integrate(lambda d: link_distance_pdf(d, h, R), h, math.hypot(h, R), cfg)
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_infinite_reversed_and_equal_bounds_rejected():
    for a, b in [(0.0, math.inf), (-math.inf, math.inf), (2.0, 0.0), (1.0, 1.0)]:
        with pytest.raises(ValueError, match="finite bounds a < b"):
            integrate(lambda x: np.exp(-np.abs(x)), a, b)


def test_nonconvergence_carries_best_estimate():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=12)
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg)
    assert math.isfinite(err.value.best_estimate)
    assert abs(err.value.best_estimate - 2.0) < 0.05
    assert err.value.error_estimate > 0


def test_nested_2d_triangle():
    res = nested_integrate_2d(lambda x, y: np.ones_like(y), (0.0, 1.0), lambda x: (0.0, x))
    assert res.value == pytest.approx(0.5, rel=1e-9)


def test_inner_failure_annotated():
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=16)
    with pytest.raises(QuadratureError) as err:
        nested_integrate_2d(
            lambda x, y: 1.0 / np.sqrt(y), (0.0, 1.0), lambda x: (0.0, 1.0), cfg
        )
    assert err.value.level == "inner"
    assert "inner" in str(err.value)


def test_nonintegrable_pole_rejected():
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=200)
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, cfg)


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def _gaussian_peaks(n):
    """Peaks of width 1e-1 down to 1e-4, each just off a Kronrod node of the
    initial panels so the narrow ones are seen; deeper refinement per row."""
    widths = np.geomspace(1e-1, 1e-4, n)
    centers = (np.arange(n) % 8 + 0.5) / 8 + 0.3 * widths
    return lambda rows, x: np.exp(-0.5 * ((x - centers[rows]) / widths[rows]) ** 2)


def test_integrate_batch_matches_integrate_row_by_row():
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-280)
    n = 2 * (quadrature._BATCH_NODES // (15 * cfg.initial_panels)) + 44  # more than two chunks of rows
    f = _gaussian_peaks(n)
    batch = integrate_batch(f, n, 0.0, 1.0, cfg)
    single = [integrate(lambda x, i=i: f(np.full(x.shape, i), x), 0.0, 1.0, cfg) for i in range(n)]
    assert len({r.n_evals for r in single}) > 3  # rows refine to different depths
    assert batch.n_evals == sum(r.n_evals for r in single)
    ref = np.array([r.value for r in single])
    assert np.all(ref > 0)
    np.testing.assert_allclose(batch.value, ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(batch.error, [r.error for r in single], rtol=1e-12, atol=0)


def test_integrate_batch_failure_names_row():
    def f(rows, x):
        return np.where(rows == 5, 1.0 / np.sqrt(x), 1.0)

    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=12)
    with pytest.raises(QuadratureError, match="row 5") as err:
        integrate_batch(f, 9, 0.0, 1.0, cfg)
    assert abs(err.value.best_estimate - 2.0) < 0.05


def _three_components(n):
    """A peak, its first moment and a smooth decay per row: components with
    different refinement needs that share the row's nodes."""
    peaks = _gaussian_peaks(n)
    return [peaks, lambda rows, x: x * peaks(rows, x), lambda rows, x: np.exp(-x * (1.0 + rows))]


def test_vector_integrand_matches_its_scalar_runs():
    n = 40
    comps = _three_components(n)
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-280)
    joint = integrate_batch(lambda rows, x: np.array([g(rows, x) for g in comps]), n, 0.0, 1.0, cfg)
    assert joint.value.shape == joint.error.shape == (3, n)
    scalar = [integrate_batch(g, n, 0.0, 1.0, cfg) for g in comps]
    assert joint.n_evals <= sum(r.n_evals for r in scalar)
    for c, ref in enumerate(scalar):
        for i in range(n):
            assert joint.value[c, i] == pytest.approx(ref.value[i], rel=2 * cfg.rel_tol, abs=0), (c, i)
            assert joint.error[c, i] <= cfg.rel_tol * abs(joint.value[c, i]), (c, i)
    one = integrate(lambda x: np.array([g(np.full(x.shape, 7), x) for g in comps]), 0.0, 1.0, cfg)
    assert one.value.shape == one.error.shape == (3,)
    np.testing.assert_allclose(one.value, joint.value[:, 7], rtol=1e-13, atol=0)


@pytest.mark.parametrize("vector", [False, True])
def test_integrate_batch_does_not_depend_on_chunking(monkeypatch, vector):
    n = 150
    if vector:
        comps = _three_components(n)
        f = lambda rows, x: np.array([g(rows, x) for g in comps])  # noqa: E731
    else:
        f = _gaussian_peaks(n)
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-280)
    runs = []
    for rows in (1, 64, n):  # one row per chunk, three chunks, one chunk
        monkeypatch.setattr(quadrature, "_BATCH_NODES", rows * 15 * cfg.initial_panels)
        runs.append(integrate_batch(f, n, 0.0, 1.0, cfg))
    for res in runs[1:]:
        assert np.array_equal(res.value, runs[0].value)
        assert np.array_equal(res.error, runs[0].error)
        assert res.n_evals == runs[0].n_evals


def _refining_and_settled(n, vector):
    """Odd rows a peak, the narrow ones of which refine; even rows a cubic,
    which every panel integrates exactly, so they stop after the first
    sweep."""
    peaks = _gaussian_peaks(n)

    def f(rows, x):
        cubic = (1.0 + rows) * x**3
        row = np.where(rows % 2 == 1, peaks(rows, x), cubic)
        return np.array([row, x * row, cubic]) if vector else row

    return f


@pytest.mark.parametrize("chunk_rows", [1, 7, 64])
@pytest.mark.parametrize("vector", [False, True])
def test_first_sweep_hook_matches_the_plain_rule(monkeypatch, vector, chunk_rows):
    # Every chunk's first sweep takes its layout from the hook `_first_sweep`,
    # a pure function of the bounds, the chunk's row count and the initial
    # panel count, cached as read-only arrays: the cached layout gives the
    # uncached rule's value, error and node count bit for bit, every chunk
    # of one shape is handed the same nodes, on every call, and other
    # bounds, row counts or panel counts get a layout of their own.
    n = 150
    g = _refining_and_settled(n, vector)
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-280)
    monkeypatch.setattr(quadrature, "_BATCH_NODES", chunk_rows * 15 * cfg.initial_panels)
    cached, seen, layouts = quadrature._first_sweep, [], {}

    def f(rows, x):
        seen.append(x)
        return g(rows, x)

    for b, config in ((1.0, cfg), (0.5, cfg), (1.0, dataclasses.replace(cfg, initial_panels=4))):
        monkeypatch.setattr(quadrature, "_first_sweep", cached.__wrapped__)
        plain = integrate_batch(g, n, 0.0, b, config)
        monkeypatch.setattr(quadrature, "_first_sweep", cached)
        rows = quadrature._BATCH_NODES // (15 * config.initial_panels)
        chunks = [min(rows, n - start) for start in range(0, n, rows)]
        for _ in range(2):
            seen.clear()
            res = integrate_batch(f, n, 0.0, b, config)
            assert np.array_equal(res.value, plain.value)
            assert np.array_equal(res.error, plain.error)
            assert res.n_evals == plain.n_evals
            assert not any(x.flags.writeable for x in seen)
            firsts = [x for x in seen if any(x is cached(0.0, b, size, config.initial_panels)[4]
                                             for size in chunks)]
            assert len(firsts) == len(chunks) < len(seen)
        layouts.update({(b, size, config.initial_panels): cached(0.0, b, size, config.initial_panels)
                        for size in chunks})
    nodes = [layout[4] for layout in layouts.values()]
    assert len(layouts) >= 3 and len({id(x) for x in nodes}) == len(nodes)
    assert not any(np.array_equal(x, y) for i, x in enumerate(nodes) for y in nodes[:i])


def test_integrand_cannot_write_into_its_arguments():
    # The rule hands f read-only rows and nodes, on every sweep, since the
    # first sweep's are shared by later calls: writing into them raises
    # instead of changing what a later call integrates.
    def scaled(x):
        x *= 2.0
        return x

    def shifted(rows, x):
        rows += 1
        return x

    with pytest.raises(ValueError, match="read-only"):
        integrate(scaled, 0.0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        integrate_batch(shifted, 3, 0.0, 1.0)
    writeable = []

    def singular(x):
        writeable.append(x.flags.writeable)
        return 1.0 / np.sqrt(x)

    assert integrate(singular, 0.0, 1.0).value == pytest.approx(2.0)
    assert len(writeable) > 1 and not any(writeable)
    assert integrate(lambda x: x, 0.0, 1.0).value == pytest.approx(0.5)


def test_vector_integrand_failure_names_row_and_component():
    def f(rows, x):
        return np.array([np.ones_like(x), np.where(rows == 5, 1.0 / np.sqrt(x), 1.0)])

    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=12)
    with pytest.raises(QuadratureError, match="row 5 component 1") as err:
        integrate_batch(f, 9, 0.0, 1.0, cfg)
    assert abs(err.value.best_estimate[1] - 2.0) < 0.05


@pytest.mark.parametrize("panels", [0, -1, 2.0, 2.5, True, "3", None])
def test_initial_panels_must_be_a_positive_integer(panels):
    with pytest.raises(ValueError, match="initial_panels"):
        QuadratureConfig(initial_panels=panels)
    assert QuadratureConfig(initial_panels=np.int64(3)).initial_panels == 3


@pytest.mark.parametrize("limit", [0, -1, 2.0, 2.5, True, "3", None])
def test_max_subdivisions_must_be_a_positive_integer(limit):
    with pytest.raises(ValueError, match="max_subdivisions"):
        QuadratureConfig(max_subdivisions=limit)
    assert QuadratureConfig(max_subdivisions=np.int64(3)).max_subdivisions == 3


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_tolerances_must_be_positive_and_finite(name, tol):
    # nan once constructed and bisected to max_subdivisions before failing;
    # an infinite tolerance accepted the first sweep whatever its error
    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        QuadratureConfig(**{name: tol})


def test_initial_panels_survive_scaling():
    cfg = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-7, max_subdivisions=50, initial_panels=3)
    inner = cfg.scaled(0.1)
    assert (inner.initial_panels, inner.max_subdivisions) == (3, 50)
    assert inner.rel_tol == pytest.approx(1e-5) and inner.abs_tol == pytest.approx(1e-8)
    assert QuadratureConfig().initial_panels == 8


@pytest.mark.parametrize("panels", [1, 3, 8])
def test_first_sweep_has_15_nodes_per_initial_panel(panels):
    # a cubic is integrated exactly by every panel, so each row stops after
    # its first sweep
    cfg = QuadratureConfig(initial_panels=panels)
    res = integrate_batch(lambda rows, x: (1.0 + rows) * x**3, 4, 0.0, 2.0, cfg)
    assert res.n_evals == 4 * 15 * panels
    np.testing.assert_allclose(res.value, 4.0 * np.arange(1, 5), rtol=1e-14)
    assert integrate(lambda x: x**3, 0.0, 2.0, cfg).n_evals == 15 * panels


def _literal_panels(fy, half):
    """The panel kernel written out as broadcast products and per-row sums:
    Kronrod and Gauss values, the QUADPACK error estimate, and sum |w f| per
    panel (the scale of the sums' rounding)."""
    kron = (fy * quadrature._KRONROD_W).sum(axis=-1) * half
    gauss = (fy * quadrature._GAUSS_W).sum(axis=-1) * half
    mean = kron / (2.0 * half)
    resasc = (np.abs(fy - mean[..., None]) * quadrature._KRONROD_W).sum(axis=-1) * half
    err = np.abs(kron - gauss)
    scale = resasc > 0
    err[scale] = resasc[scale] * np.minimum(1.0, (200.0 * err[scale] / resasc[scale]) ** 1.5)
    return kron, err, (np.abs(fy) * quadrature._KRONROD_W).sum(axis=-1) * half


@pytest.mark.parametrize("k", [1, 3])
def test_panel_kernel_matches_its_literal_form(k):
    rng = np.random.default_rng(k)
    lo = np.sort(rng.uniform(-5.0, 5.0, 200))
    hi = lo + rng.uniform(1e-6, 2.0, lo.size)
    # node values of both signs over 20 decades, and on every other panel a
    # smooth exponential whose Kronrod and Gauss sums nearly agree, so that
    # the error estimates span both branches of the rescaling
    fy = rng.choice([-1.0, 1.0], (k, lo.size, 15)) * 10.0 ** rng.uniform(-10, 10, (k, lo.size, 15))
    fy[:, ::2] = np.exp(rng.uniform(-1, 1, (k, 1, 1)) * quadrature._NODES)
    values = fy.reshape(k, -1)

    kron, err, nev, vector = quadrature._evaluate_panels(values if k > 1 else values[0], lo, hi)
    assert (nev, vector) == (15 * lo.size, k > 1)
    ref_kron, ref_err, scale = _literal_panels(fy, 0.5 * (hi - lo))
    assert np.all(np.abs(kron - ref_kron) <= 1e-15 * scale)
    resolved = ref_err > 1e-12 * np.abs(ref_kron)
    assert 0 < resolved.sum() < resolved.size
    np.testing.assert_allclose(err[resolved], ref_err[resolved], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("k", [1, 3])
def test_panel_kernel_names_the_first_non_finite_node(k):
    lo = np.linspace(0.0, 1.0, 5)[:-1]
    hi = lo + 0.25
    x = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * quadrature._NODES
    values = np.ones((k, x.size))
    values[k - 1, 2 * 15 + 9] = np.inf
    values[0, 3 * 15 + 1] = np.nan
    with pytest.raises(QuadratureError, match=re.escape(f"x={x[2, 9]!r}")):
        quadrature._evaluate_panels(values if k > 1 else values[0], lo, hi)


def test_gregory_rule_integrates_low_degree_polynomials_exactly():
    # Gregory's end weights at both cuts of [0, 1]: the rule's error at each
    # end is O(h^(terms + 1)), and a polynomial of degree below the number
    # of terms has no error term at all
    w = quadrature.gregory_weights()
    h, n = 1 / 40, 41
    weights = np.ones(n)
    weights[: w.size] *= w
    weights[n - w.size :] *= w[::-1]
    x = h * np.arange(n)
    for degree in range(w.size):
        assert h * (weights * x**degree).sum() == pytest.approx(1 / (degree + 1), rel=1e-14, abs=0.0)
    # and a smooth function converges at that order
    errors = []
    for h in (1 / 8, 1 / 16):
        k = np.arange(int(40 / h))
        ones = np.ones(k.size)
        ones[: w.size] = w
        errors.append(abs(h * (ones * np.exp(-h * k)).sum() - 1.0))
    assert errors[1] < errors[0] / 2 ** w.size


def test_causal_convolution_matches_the_direct_sum():
    rng = np.random.default_rng(3)
    kernels, signal = rng.random((3, 50)), rng.random(50)
    size = 128
    got = quadrature.causal_convolution(kernels, np.fft.rfft(signal, size), size)
    want = np.array([np.convolve(k, signal)[:50] for k in kernels])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_uniform_interpolation_is_exact_for_degree_seven():
    # the 8-point Lagrange polynomial reproduces degree 7, at the grid's
    # ends too, and a position on a grid point takes that sample bit for bit
    grid = np.arange(30.0)
    poly = np.polynomial.Polynomial([0.3, -1.0, 0.5, 0.2, -0.05, 0.01, -0.001, 2e-5])
    values = np.array([poly(grid), 2.0 * poly(grid)])
    x = np.array([0.0, 0.25, 3.5, 17.9, 28.5, 29.0])
    got = quadrature.interpolate_uniform(values, x)
    np.testing.assert_allclose(got, [poly(x), 2.0 * poly(x)], rtol=1e-10)
    on_points = quadrature.interpolate_uniform(values, grid[[0, 5, 29]])
    assert np.array_equal(on_points, values[:, [0, 5, 29]])
