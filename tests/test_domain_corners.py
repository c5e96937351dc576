"""The corners of the documented parameter domain: every analytic method
returns a value in [0, 1] and raises no QuadratureError at UAV counts 2 and
300, q 1.05 and 5, alpha 2 and 6, R/h 1 and 500, and -20 and +20 dB."""

import itertools

import pytest

from corridor_cov import ChannelParams, CorridorGeometry, FixedHeight, analytic

H = 100.0
# (method, fading shapes): exact coverage needs an integer m; the dominant
# approximations take any m > 0, so they run at non-integer corners
METHODS = [
    ("coverage", (1.0, 8.0)),
    ("coverage_dominant", (0.5, 7.5)),
    ("coverage_single_dominant", (0.5, 7.5)),
]


@pytest.fixture(autouse=True, scope="module")
def fresh_model_caches():
    # the grid fills `_cached_dist` with the corners' received-power caches,
    # which later tests do not use
    yield
    for cache in (analytic._cached_dist, analytic.bpp_model, analytic.hppp_model):
        cache.cache_clear()


def model(kind, count, r, channel):
    geom = CorridorGeometry(r, FixedHeight(H))
    if kind == "bpp":
        return analytic.BppCoverageModel(count, geom, channel)
    return analytic.HpppCoverageModel(count / geom.length, geom, channel)


# HPPP at mean count 2 with q = 5 and m = 0.5 once raised in the dominant
# rule's fading ladder at 16-20 dB.
@pytest.mark.parametrize("count", [2, 300])
@pytest.mark.parametrize("kind", ["bpp", "hppp"])
def test_every_method_is_a_probability_at_the_corners(kind, count):
    values = 0
    for q, alpha, r_over_h in itertools.product((1.05, 5.0), (2.0, 6.0), (1.0, 500.0)):
        for method, shapes in METHODS:
            for m in shapes:
                channel = ChannelParams(alpha=alpha, q=q, m=m)
                coverage = getattr(model(kind, count, r_over_h * H, channel), method)
                for theta_db in (-20.0, 20.0):
                    value = coverage(10 ** (theta_db / 10))
                    assert 0.0 <= value <= 1.0, (q, alpha, r_over_h, method, m, theta_db, value)
                    values += 1
    assert values == 96
