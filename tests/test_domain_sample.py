"""tools/domain_sample.py: its points are fixed and inside the domain, and
--check rejects what it should."""

import logging
import math

from conftest import domain_sample

from corridor_cov import analytic

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
    exact, dominant = analytic._COVERAGE_QUAD, analytic._DOMINANT_QUAD
    falling = [1.0 - k / 10 for k in range(len(tool.THETA_DB))]
    assert tool.problems("p", falling, exact) == []
    # a rise within the rule's tolerance is rounding, not a rise: at 1e-5,
    # 1e-8 is within the dominant rule's, not within the exact outer rule's
    flat = [0.5] * len(falling)
    flat[1] += 1e-12
    assert tool.problems("p", flat, exact) == []
    low = [1e-5] * len(falling)
    low[1] += 1e-8
    assert tool.problems("p", low, dominant) == []
    assert ["p: coverage rises" in msg for msg in tool.problems("p", low, exact)] == [True]
    rising = falling[:2] + [falling[1] + 1e-3] + falling[3:]
    for cfg in (exact, dominant):
        assert ["rises" in msg for msg in tool.problems("p", rising, cfg)] == [True]
    outside = [1.0 + 1e-9] + falling[1:-1] + [math.nan]
    assert len(tool.problems("p", outside, exact)) == 2


def test_check_rejects_warm_values_that_differ_from_fresh_ones(monkeypatch, capsys):
    # single-dominant values, the third method on a warm model, moved by
    # one ulp on every call but a model's first; every method runs at the
    # point's thresholds, the dominant ones at m - 1/2
    ran = []
    single = analytic._CoverageModel.coverage_single_dominant

    def drifting(self, theta):
        ran.append(self.m)
        value = single(self, theta)
        warm, self.warm = getattr(self, "warm", False), True
        return math.nextafter(value, -1.0) if warm else value

    monkeypatch.setattr(analytic._CoverageModel, "coverage_single_dominant", drifting)
    assert tool.main(["--check", "--points", "1"]) == 1
    (point,) = tool.sample(1)
    assert set(ran) == {point.m - 0.5}
    lines = capsys.readouterr().out.splitlines()
    warm = [line for line in lines if "on a warm model" in line]
    assert len(warm) == len(tool.THETA_DB) - 1 == len(lines) - 1
    assert all(line.startswith(f"{point.name} coverage_single_dominant: ") for line in warm)


def test_check_passes_on_the_first_points(monkeypatch, capsys):
    # exact coverage at m and both dominant methods at m - 1/2, their warm
    # values equal to fresh ones; and leaves the engine's logger as it
    # found it
    ran = set()

    def spy(name):
        method = getattr(analytic._CoverageModel, name)

        def spied(self, theta):
            ran.add((name, self.m))
            return method(self, theta)

        return spied

    for name in ("coverage", "coverage_dominant", "coverage_single_dominant"):
        monkeypatch.setattr(analytic._CoverageModel, name, spy(name))
    logger = logging.getLogger("corridor_cov.analytic")
    state = (logger.level, list(logger.handlers))
    assert tool.main(["--check", "--points", "4"]) == 0
    assert "0 failures" in capsys.readouterr().out
    assert (logger.level, logger.handlers) == state
    assert ran == {(name, p.m - below) for p in tool.sample(4) for name, below in (
        ("coverage", 0.0), ("coverage_dominant", 0.5), ("coverage_single_dominant", 0.5))}
