#!/usr/bin/env python3
"""Record the golden fingerprints that tests/test_golden.py compares against.

Each case is a run (or a single call) whose every output bit is pinned:
the step count and stop reason, r_inf and the final f as float.hex, and
the sha256 of the final field's bytes and of the trace CSV.  The file also
stores the numpy and scipy versions and numpy's CPU dispatch targets,
since a different build may round differently; the test fails naming them
on a mismatch.

    PYTHONPATH=src python3 scripts/record_golden.py    # rewrite tests/golden.json

A change that moves a case re-records it and names the case, with its
change in steps and in ulps of r_inf, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from curvflow.flow import FlowConfig, normalize, run_flow, write_trace_csv
from curvflow.gauss import run_gauss_flow
from curvflow.manifold import build_torus_grid
from curvflow.spectral import lambda1, lognormal_field

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden.json"
TWO_PI = 2.0 * math.pi


def environment() -> dict:
    """What the recorded bits depend on besides curvflow itself."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_dispatch": sorted(t for t in __cpu_dispatch__ if __cpu_features__.get(t)),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(result) -> dict:
    csv = io.StringIO()
    write_trace_csv(result.trace, csv)
    return {
        "steps": result.final.step,
        "stop": result.stop,
        "r_inf": float.hex(result.r_infinity),
        "f": float.hex(result.trace[-1].f),
        "field_sha256": _sha(result.final.u.tobytes()),
        "trace_sha256": _sha(csv.getvalue().encode()),
    }


def _circle128():
    man = build_torus_grid([128], [TWO_PI])
    return man, man.coordinates[:, 0]


def _torus32():
    man = build_torus_grid([32, 32], [TWO_PI, TWO_PI])
    return man, man.coordinates[:, 0]


def explicit_thm2() -> dict:
    """run --preset thm2: psi = -1 from the seed-0 log-normal start."""
    man, _ = _circle128()
    return _run(run_flow(man, -np.ones(128), lognormal_field(man, 0), FlowConfig()))


def explicit_thm3() -> dict:
    """run --preset thm3: psi = 0 from the bump 1 + 0.5 cos x."""
    man, x = _circle128()
    return _run(run_flow(man, np.zeros(128), 1.0 + 0.5 * np.cos(x), FlowConfig()))


def imex_thm2() -> dict:
    """thm2 with the imex scheme at dt 1e-3."""
    man, _ = _circle128()
    cfg = FlowConfig(scheme="imex", dt0=1e-3)
    return _run(run_flow(man, -np.ones(128), lognormal_field(man, 0), cfg))


def imex_torus32() -> dict:
    """Acceptance 07's torus run: imex at dt 1e-3 on the 32 x 32 torus."""
    man, x = _torus32()
    cfg = FlowConfig(scheme="imex", dt0=1e-3)
    return _run(run_flow(man, -1.0 + 0.3 * np.cos(x), lognormal_field(man, 0), cfg))


def gauss_torus32() -> dict:
    """Acceptance 09's log-conformal run on the 32 x 32 torus."""
    man, x = _torus32()
    cfg = FlowConfig(dt0=2e-5, tol_f=1e-300, t_max=1e9, max_steps=10_000, trace_every=500)
    return _run(run_gauss_flow(man, 0.3 * np.cos(x), np.zeros(man.node_count), cfg))


def lambda1_cos() -> dict:
    """The ground eigenpair of -Lap + cos x on the 128-circle."""
    man, x = _circle128()
    res = lambda1(man, np.cos(x))
    return {"steps": res.iterations, "lambda1": float.hex(res.lambda1),
            "residual": float.hex(res.residual),
            "field_sha256": _sha(res.eigenfunction.tobytes())}


def normalize_lognormal() -> dict:
    """normalize of the seed-0 log-normal field at p = 3."""
    man, _ = _circle128()
    return {"field_sha256": _sha(normalize(man, lognormal_field(man, 0), 3.0).tobytes())}


CASES = {f.__name__: f for f in (explicit_thm2, explicit_thm3, imex_thm2, imex_torus32,
                                 gauss_torus32, lambda1_cos, normalize_lognormal)}


def main() -> int:
    record = {"environment": environment(),
              "cases": {name: case() for name, case in CASES.items()}}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
