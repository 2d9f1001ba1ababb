#!/usr/bin/env python3
"""Rewrite reference_digests.json: content digests of the first units of seed 0.

    python3 perfbench/pin.py

Run from the root of a source checkout, only when a report's content is
meant to change; the benchmark fails any seed-0 unit whose digest differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_UNITS = {"enum7_connected": 16, "g6_n8to10": 12, "gnp1000": 4}
SEED = 0


def main() -> int:
    import child

    os.environ["OPENBLAS_NUM_THREADS"] = child.BLAS_THREADS  # before numpy loads
    import run
    import verify
    import workloads

    tl = child.import_turanlab(os.path.dirname(HERE))
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_work", f"pin-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    units = {}
    try:
        for workload, count in PINNED_UNITS.items():
            units[workload] = []
            for k in range(count):
                unit = workloads.make_unit(workload, SEED, k, workdir)
                _, report = child.run_unit(tl.scanner, unit)
                problems = verify.invariants(report, unit.expected_processed,
                                             tl.ScanOptions().top_k)
                problems += verify.reproduce(report, tl)[2]
                if problems:
                    print(f"{workload} unit {k}: {problems[:3]}", file=sys.stderr)
                    return 1
                units[workload].append(verify.content_digest(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run.remove_if_empty(os.path.dirname(workdir))
    with open(os.path.join(HERE, "reference_digests.json"), "w", encoding="ascii") as fh:
        json.dump({"seed": SEED, "units": units}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
