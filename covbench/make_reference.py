"""Regenerate `reference.json`: the analytic values of every workload.

Run from the repository root:

    python3 covbench/make_reference.py

Every benchmark run checks its exact values against these to 1e-5 and its
dominant-interferer values to 1e-3.  Regenerate only when the mathematics
is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, WORKLOADS, import_library, run_sweep


def main():
    import_library()
    table = {}
    for w in WORKLOADS.values():
        analytic = [m for m in w.methods if m != "mc"]
        p = run_sweep(w, seed=0, methods=analytic)
        if p.errors:
            sys.exit(f"{w.name}: {p.errors}")
        pairs = {}
        for (method, x), value in p.analytic.items():
            pairs.setdefault(method, []).append([x, value])
        table[w.name] = pairs
        print(f"{w.name}: {len(p.analytic)} values in {p.sweep_s:.1f} s", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"generated_by": "covbench/make_reference.py", "workloads": table}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
