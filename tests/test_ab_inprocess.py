"""tools/ab_inprocess.py runs two source trees in one process; here one
tree against itself, and against a copy whose exact rule is tighter.  No
timing is asserted."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = {"bpp-theta", "hppp-theta", "dominant-theta", "r-sweep"}


def ab(a, b, rounds):
    """(exit code, {case: every value bit-equal}, {(case, step): largest
    relative difference, None for a step without values}) of the harness."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(a), str(b), "--rounds", str(rounds)],
        capture_output=True, text=True, timeout=600,
    )
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert rows, proc.stdout + proc.stderr
    equal, gaps = {}, {}
    for row in rows:
        equal[row[0]] = equal.get(row[0], True) and row[-1] == "yes"
        step = " ".join(row[1:-6])
        gaps[row[0], step] = None if row[-2] == "-" else float(row[-2])
    return proc.returncode, equal, gaps


def test_a_tree_against_itself_is_bit_equal():
    code, equal, gaps = ab(ROOT / "src", ROOT / "src", 2)
    assert code == 0 and equal == dict.fromkeys(CASES, True)
    assert gaps[("bpp-theta", "build")] is None
    assert {gap for gap in gaps.values() if gap is not None} == {0.0}


def test_a_changed_value_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "corridor_cov", tmp_path / "corridor_cov")
    analytic = tmp_path / "corridor_cov" / "analytic.py"
    text = analytic.read_text()
    rule = "_COVERAGE_QUAD = QuadratureConfig(rel_tol=1e-6,"
    assert rule in text
    # a rule tight enough to refine some first sweep of bpp-theta's values
    analytic.write_text(text.replace(rule, "_COVERAGE_QUAD = QuadratureConfig(rel_tol=1e-10,"))
    code, equal, gaps = ab(ROOT / "src", tmp_path, 1)
    assert code == 1 and not equal["bpp-theta"] and equal["dominant-theta"]
    # a tighter outer rule moves the exact values by far less than its tolerance
    assert 0.0 < gaps[("bpp-theta", "warm value (mean)")] < 1e-6
    assert gaps[("dominant-theta", "single-dominant value, warm")] == 0.0
