#!/usr/bin/env python3
"""Record the golden fingerprints that tests/test_golden.py compares against.

Each case is a run (or a single call) whose every output bit is pinned:
the step count and stop reason, r_inf and the final f as float.hex, and
the sha256 of the final field's bytes and of the trace CSV.  The cli_*
cases run curvflow.cli.main in process and pin its exit code, its stdout
and the sha256 of what it wrote to --out.  The file also
stores the numpy and scipy versions and numpy's CPU dispatch targets,
since a different build may round differently; the test fails naming them
on a mismatch.  It runs with one BLAS thread, as the tests do: OpenBLAS
splits a ddot of more than 10,000 terms across threads.

    PYTHONPATH=src python3 scripts/record_golden.py    # rewrite tests/golden.json

It prints one line for each case that differs from the file it replaces:
the change in steps, in ulps of each float.hex value (r_inf, lambda1, f,
...), and which hashes changed.  Unchanged cases print nothing.  A change
that moves a case re-records it and names the case, with its change in
steps and in ulps of r_inf, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import struct
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as tests/conftest.py sets it, before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # noqa: E402

from curvflow import cli  # noqa: E402
from curvflow.elliptic import newton_constrained  # noqa: E402
from curvflow.flow import FlowConfig, normalize, run_flow, write_trace_csv  # noqa: E402
from curvflow.gauss import run_gauss_flow  # noqa: E402
from curvflow.manifold import build_torus_grid, load_off_mesh, product  # noqa: E402
from curvflow.spectral import estimate_Y, lambda1, lognormal_field  # noqa: E402

TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(TESTS))
from conftest import make_icosphere, write_off  # noqa: E402  (the tests' mesh generator)

GOLDEN = TESTS / "golden.json"
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


def _cube8():
    """The 8^3 torus of side 2 pi."""
    return build_torus_grid([8] * 3, [TWO_PI] * 3)


def _icosphere(depth: int, z: float = 1.0):
    """icosphere(depth) with z scaled, written as OFF and read back by load_off_mesh."""
    verts, faces = make_icosphere(depth)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.off"
        write_off(path, verts * np.array([1.0, 1.0, z]), faces)
        return load_off_mesh(str(path))


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


def explicit_icosphere3() -> dict:
    """psi = -1 on icosphere(3) from the seed-0 log-normal start."""
    man = _icosphere(3)
    return _run(run_flow(man, -np.ones(man.node_count), lognormal_field(man, 0), FlowConfig()))


def explicit_flat_icosphere3() -> dict:
    """psi = -1 on icosphere(3) with z scaled by 0.3, whose S has negative weights."""
    man = _icosphere(3, z=0.3)
    return _run(run_flow(man, -np.ones(man.node_count), lognormal_field(man, 0), FlowConfig()))


def imex_s2_times_s1() -> dict:
    """S^2(icosphere 2) x S^1(5) at p = 5, c = 8, psi = 2: the stable constant of test_critical."""
    man = product(_icosphere(2), build_torus_grid([16], [5.0]))
    cfg = FlowConfig(scheme="imex", dt0=1e-2, p=5.0, c=8.0, t_max=200.0)
    return _run(run_flow(man, np.full(man.node_count, 2.0), lognormal_field(man, (0, 0)), cfg))


def imex_cube8() -> dict:
    """imex on 8^3 at p = 5, c = 8, psi = 0.3 from the seed-0 log-normal start."""
    man = _cube8()
    cfg = FlowConfig(scheme="imex", dt0=1e-2, p=5.0, c=8.0, t_max=200.0)
    return _run(run_flow(man, np.full(man.node_count, 0.3), lognormal_field(man, 0), cfg))


def estimate_Y_cube8() -> dict:
    """estimate_Y from 2 starts on 8^3 at p = 5, c = 8, psi = 2.5, with its default cfg."""
    man = _cube8()
    return {"Y": float.hex(estimate_Y(man, np.full(man.node_count, 2.5), 8.0, 5.0, n_starts=2))}


def newton_icosphere3() -> dict:
    """newton_constrained at psi = -1, p = 3, c = 1 on icosphere(3) from the seed-0 start."""
    man = _icosphere(3)
    res = newton_constrained(man, -np.ones(man.node_count), 1.0, 3.0, lognormal_field(man, 0))
    return {"steps": res.iterations, "r_inf": float.hex(res.r),
            "residual": float.hex(res.residual), "field_sha256": _sha(res.u.tobytes())}


def lognormal_icosphere3() -> dict:
    """The seed-0 log-normal field on icosphere(3)."""
    return {"field_sha256": _sha(lognormal_field(_icosphere(3), 0).tobytes())}


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


def _cli(*argv: str) -> dict:
    """cli.main(argv) in process, with --out (but for eigen) in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        path = Path(tmp) / "out.csv"
        code = cli.main([*argv] if argv[0] == "eigen" else [*argv, "--out", str(path)])
        written = _sha(path.read_bytes()) if path.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "out_sha256": written}


_T = f"{TWO_PI!r}"
# Every subcommand, both presets (thm3 for its start field) under a flag that
# overrides them, every budget flag set at once, --max-steps 0, --c auto, and
# a positivity failure's exit 2; each runs in well under a second.
CLI_CASES = {
    "cli_run_thm2_max_steps": ("run", "--preset", "thm2", "--max-steps", "2000"),
    "cli_run_thm2_zero_steps": ("run", "--preset", "thm2", "--max-steps", "0"),
    "cli_run_thm3_start": ("run", "--preset", "thm3", "--max-steps", "3000"),
    "cli_oracle_thm3": ("oracle", "--preset", "thm3", "--max-steps", "3000"),
    "cli_eigen_thm2": ("eigen", "--preset", "thm2"),
    "cli_eigen_c2": ("eigen", "--torus", f"64:{_T}", "--psi", "cos(x1)", "--c", "2"),
    "cli_gauss_torus16": ("gauss", "--torus", f"16:{_T},16:{_T}", "--psi", "0.3*cos(x1)",
                          "--tmax", "0.5"),
    "cli_sweep_circle32": ("sweep", "--torus", f"32:{_T}", "--psi", "-1", "--starts", "2",
                           "--seed", "7", "--tmax", "5"),
    "cli_run_every_budget_flag": ("run", "--torus", f"64:{_T}", "--psi", "-1 + 0.3*cos(x1)",
                                  "--p", "4", "--c", "2", "--scheme", "imex", "--dt0", "5e-3",
                                  "--safety", "0.5", "--tmax", "3", "--max-steps", "500",
                                  "--tol-f", "1e-12", "--tol-res", "1e-9", "--trace-every", "7",
                                  "--seed", "3"),
    "cli_run_cube8_c_auto": ("run", "--torus", f"8:{_T},8:{_T},8:{_T}", "--psi", "0.3",
                             "--p", "5", "--c", "auto", "--scheme", "imex", "--max-steps", "20"),
    "cli_run_positivity": ("run", "--torus", f"64:{_T}", "--psi", "-1", "--seed", "1",
                           "--dt0", "10", "--safety", "50"),
}


CASES = {f.__name__: f for f in (explicit_thm2, explicit_thm3, imex_thm2, imex_torus32,
                                 gauss_torus32, lambda1_cos, normalize_lognormal,
                                 explicit_icosphere3, explicit_flat_icosphere3,
                                 imex_s2_times_s1, newton_icosphere3, lognormal_icosphere3,
                                 imex_cube8, estimate_Y_cube8)}
CASES.update({name: functools.partial(_cli, *argv) for name, argv in CLI_CASES.items()})


def _ordinal(x: float) -> int:
    """x's rank among the doubles: the difference of two ranks is their distance in ulps."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & (2**63 - 1))


def _change(key: str, before, after) -> str:
    if key.endswith("_sha256"):
        return f"{key.removesuffix('_sha256')} hash changed"
    if key == "steps" and before is not None:
        return f"steps {after - before:+d}"
    try:
        return f"{key} {_ordinal(float.fromhex(after)) - _ordinal(float.fromhex(before)):+d} ulps"
    except (TypeError, ValueError):  # not a float.hex pair: a stop reason, a missing key
        return f"{key} {before} -> {after}"


def moves(old: dict, new: dict) -> list[str]:
    """One line per case that is new, gone or differs between two "cases" tables."""
    lines = [f"{name}: removed" for name in old if name not in new]
    for name, case in new.items():
        if name not in old:
            lines.append(f"{name}: new case")
        elif case != old[name]:
            was = old[name]
            changes = [_change(k, was.get(k), v) for k, v in case.items() if was.get(k) != v]
            lines.append(f"{name}: " + ", ".join(changes))
    return lines


def main() -> int:
    old = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else {}
    record = {"environment": environment(),
              "cases": {name: case() for name, case in CASES.items()}}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    for line in moves(old, record["cases"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
