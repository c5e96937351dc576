"""tools/domain_sample.py: its points are fixed and inside the domain, and
--check rejects what it should."""

import logging
import math

from conftest import domain_sample

tool = domain_sample()


def test_the_sample_is_fixed_and_inside_the_domain():
    points = tool.sample()
    assert len(points) == tool.POINTS == len({p.name for p in points})
    assert tool.sample(12) == points[:12]
    assert [p.spatial for p in points[:4]] == ["bpp", "hppp", "bpp", "hppp"]
    for p in points:
        assert 2 <= p.count <= 300 and (p.spatial == "hppp" or p.count == int(p.count))
        assert 1.05 <= p.q <= 5 and 2 <= p.alpha <= 6 and 1 <= p.r_over_h <= 500
        assert p.m in range(1, 9)
    assert tool.THETA_DB[0] == -20.0 and tool.THETA_DB[-1] == 20.0


def test_check_rejects_values_outside_the_unit_interval_and_rises():
    (point,) = tool.sample(1)
    falling = [1.0 - k / 10 for k in range(len(tool.THETA_DB))]
    assert tool.problems(point, falling) == []
    # a rise within the outer rule's tolerance is rounding, not a rise
    flat = [0.5] * len(falling)
    flat[1] += 1e-12
    assert tool.problems(point, flat) == []
    rising = falling[:2] + [falling[1] + 1e-3] + falling[3:]
    assert ["rises" in msg for msg in tool.problems(point, rising)] == [True]
    outside = [1.0 + 1e-9] + falling[1:-1] + [math.nan]
    assert len(tool.problems(point, outside)) == 2


def test_check_passes_on_the_first_points(capsys):
    # and leaves the engine's logger as it found it
    logger = logging.getLogger("corridor_cov.analytic")
    state = (logger.level, list(logger.handlers))
    assert tool.main(["--check", "--points", "4"]) == 0
    assert "0 failures" in capsys.readouterr().out
    assert (logger.level, logger.handlers) == state
