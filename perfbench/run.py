#!/usr/bin/env python3
"""Run one workload of the curvflow benchmark and print its metrics.

    python3 perfbench/run.py --workload explicit_n128 --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository: it imports curvflow from the
checkout's src/ directory and from nowhere else, and exits with code 1 when
that directory is missing.  BLAS is pinned to one thread.

The second-to-last line of standard output is a report (machine, behaviour
fingerprint, per-pass times, misses); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("explicit_n128", "multistart_n128", "imex_2d", "grid_1m")
BLAS_THREADS = "1"


def load_curvflow() -> None:
    """Put the checkout's src/ first on the path and import curvflow from it."""
    if not (SRC / "curvflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvflow

    if Path(curvflow.__file__).resolve().parent != SRC / "curvflow":
        raise SystemExit(f"error: curvflow imported from {curvflow.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads its BLAS
    load_curvflow()
    import measure

    run = measure.traced if args.trace else measure.measure
    result, report = run(args.workload, args.seed, args.seconds)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": measure.machine(), **report}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
