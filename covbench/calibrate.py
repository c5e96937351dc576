"""Check the tracer's quadrature counts against hand-counted figures.

Run from the repository root:

    python3 covbench/calibrate.py

At the default operating point (N=10, lambda=0.01 /m, alpha=2.2, q=2,
h=100 m, R=500 m, theta=-3 dB) the traced node counts must equal counts
taken by wrapping `integrate` directly.  A mismatch means a layer wrapper
missed a namespace that binds `integrate`.  The expected figures belong to
the quadrature rules and tolerances of the commit that added this script;
a change to those rules changes them, and its author updates the table.
Exits 1 on a mismatch.
"""

from __future__ import annotations

import sys

from run import ALPHA, HEIGHT, Q, R_DEFAULT, import_library

# Nodes of one received-power cache build, and of one coverage value at
# -3 dB with the cache already built.
CACHE_BUILD = 1_289_400
COVERAGE = {
    "BPP m=1": 51_960,
    "HPPP m=1": 1_706_880,
    "HPPP m=3": 5_159_550,
}


def main():
    import_library()
    from corridor_cov import analytic
    from corridor_cov.core import ChannelParams, CorridorGeometry, db_to_linear, FixedHeight

    from tracer import Tracer

    geom = CorridorGeometry(R_DEFAULT, FixedHeight(HEIGHT))
    theta = float(db_to_linear(-3.0))
    cases = {
        "BPP m=1": lambda: analytic.BppCoverageModel(10, geom, ChannelParams(alpha=ALPHA, q=Q, m=1.0)),
        "HPPP m=1": lambda: analytic.HpppCoverageModel(0.01, geom, ChannelParams(alpha=ALPHA, q=Q, m=1.0)),
        "HPPP m=3": lambda: analytic.HpppCoverageModel(0.01, geom, ChannelParams(alpha=ALPHA, q=Q, m=3.0)),
    }
    rows = []
    tracer = Tracer()
    with tracer.installed():
        for name, make in cases.items():
            model = make()
            before = tracer.quad_nodes
            model.dist.cdf(1.0)
            rows.append((f"{name} cache build", tracer.quad_nodes - before, CACHE_BUILD))
            before = tracer.quad_nodes
            model.coverage(theta)
            rows.append((f"{name} coverage", tracer.quad_nodes - before, COVERAGE[name]))

    bad = 0
    for name, got, want in rows:
        bad += got != want
        print(f"{name:22s} {got:>10,d} nodes (expected {want:,d}){'' if got == want else '  MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
