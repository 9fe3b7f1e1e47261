"""The four workloads of the curvflow benchmark.

Each workload has a set-up (manifolds, potentials, start fields) and a solve
pass made of checked public calls of curvflow.  Every call is checked
against the oracle the acceptance tests use, with the same tolerances, and
leaves a behaviour fingerprint: steps and stop reason of every run, the
repr of r_inf and of the final f, and solver iteration counts.

The workload seed reaches the initial-field generators only.  Sizes live in
a Sizes record: FULL is the benchmark, TINY is for the self-tests.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from curvflow import flow as flowmod
from curvflow.elliptic import newton_constrained
from curvflow.flow import FlowConfig, read_trace_csv, trace_column, write_trace_csv
from curvflow.gauss import run_gauss_flow
from curvflow.manifold import build_torus_grid, integrate
from curvflow.psiexpr import evaluate, parse
from curvflow.spectral import estimate_Y, lambda1, lognormal_field

from ledger import Ledger

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

# Oracle values and tolerances, as in tests/test_acceptance.py.  On the
# circle of length 2 pi with psi = -1 and p = 3 the flow limit is the
# constant (2 pi)^(-1/4) with r = -sqrt(2 pi), at every resolution.
THM2_R = -math.sqrt(TWO_PI)
THM2_U = TWO_PI ** -0.25
THM2_TOL = 1e-5
THM3_R_MAX = 1e-8
NEWTON_U_TOL = 1e-6
NEWTON_R_TOL = 1e-8
GAUSS_DRIFT_TOL = 1e-6
LAMBDA1_TOL = 1e-10
Y_BOUND_TOL = 1e-8
GRID_DRIFT_TOL = 1e-13

PRESET = FlowConfig()  # the run presets: explicit, dt0 1e-2, tol_f 1e-10, tol_res 1e-8
LEAN = FlowConfig(scheme="explicit", tol_f=1e-12, tol_res=1e-7, t_max=60.0)
GRID_PSI = "-1 + 0.3*cos(x1)"


@dataclass(frozen=True)
class Sizes:
    circle_n: int = 128
    thm2_starts: int = 2
    gauss_n: int = 32
    gauss_steps: int = 10_000
    y_starts: int = 3
    torus_n: int = 32
    grid_n: int = 1000
    grid_steps: int = 10
    imex_dt: float = 1e-3


FULL = Sizes()
TINY = Sizes(circle_n=16, gauss_n=8, gauss_steps=200, y_starts=1,
             torus_n=8, grid_n=24, grid_steps=5, imex_dt=1e-2)


@dataclass
class Pass:
    """Outcome of one solve pass."""

    raw_wall: float  # seconds inside curvflow calls
    steps: int
    rows: int
    attempted: int
    misses: list[str]
    fingerprint: dict[str, Any]
    keep: dict[str, Any]  # states and results the traced run probes
    speed: float = 1.0  # reference seconds per wall second during the pass

    @property
    def wall(self) -> float:
        """Time inside curvflow calls, in reference seconds."""
        return self.raw_wall * self.speed


# ---------------------------------------------------------------- checks


def flow_fingerprint(res) -> dict[str, Any]:
    return {"steps": res.final.step, "stop": res.stop,
            "r_inf": repr(res.r_infinity), "f": repr(res.trace[-1].f)}


def flow_counts(res) -> dict[str, float]:
    return {"steps": res.final.step, "rows": len(res.trace)}


def check_thm2(res) -> str | None:
    gap_r = abs(res.r_infinity - THM2_R)
    gap_u = float(np.max(np.abs(res.final.u - THM2_U)))
    if res.stop != "Converged" or gap_r > THM2_TOL or gap_u > THM2_TOL:
        return f"stop {res.stop}, r gap {gap_r:.2e}, field gap {gap_u:.2e}"
    return None


def check_thm3(res) -> str | None:
    if res.stop != "Converged" or res.r_infinity > THM3_R_MAX:
        return f"stop {res.stop}, r_inf {res.r_infinity:.2e}"
    return None


def check_imex_monotone(res) -> str | None:
    rs = trace_column(res.trace, "r")
    excess = np.diff(rs) - 8.0 * EPS * (1.0 + np.abs(rs[:-1]))
    if excess.size and excess.max() > 0:
        return f"r rose by {excess.max():.2e} beyond 8 eps"
    return None


def check_explicit_monotone(res) -> str | None:
    rs = trace_column(res.trace, "r")
    dts = trace_column(res.trace, "dt")
    allowance = 10.0 * dts[1:] ** 2 * np.abs(rs[:-1]) + 8.0 * EPS * (1.0 + np.abs(rs[:-1]))
    excess = np.diff(rs) - allowance
    if excess.size and excess.max() > 0:
        return f"r rose by {excess.max():.2e} beyond the explicit allowance"
    return None


def check_gauss(res) -> str | None:
    drift = float(np.max(np.abs(trace_column(res.trace, "norm_err"))))
    return f"relative area drift {drift:.2e}" if drift > GAUSS_DRIFT_TOL else None


# ------------------------------------------------------- shared operations


def run_flow_op(L: Ledger, label, man, psi, u0, cfg, check, fp):
    res = L.call("flow.run_flow", label, lambda: flowmod.run_flow(man, psi, u0, cfg),
                 check, flow_counts)
    if res is not None:
        L.steps += res.final.step
        L.rows += len(res.trace)
        fp[label] = flow_fingerprint(res)
    return res


def csv_op(L: Ledger, label, res, fp) -> None:
    """Write the trace as CSV, read it back; the round trip must be exact."""

    def roundtrip():
        buf = io.StringIO()
        with L.span("flow.write_trace_csv") as counts:
            write_trace_csv(res.trace, buf)
            counts["rows"] = len(res.trace)
        text = buf.getvalue()
        counts["bytes"] = len(text.encode())
        return counts["bytes"], read_trace_csv(io.StringIO(text))

    out = L.call("flow.trace_csv", label, roundtrip,
                 lambda o: None if o[1] == res.trace else "trace CSV did not round-trip")
    if out is not None:
        fp[label] = {"rows": len(out[1]), "bytes": out[0]}


def newton_op(L: Ledger, label, man, psi, fin, fp, expect=None) -> None:
    """Newton from a flow state; it must land on expect = (u, r), by default
    the state itself (a flow limit barely moves)."""
    u_ref, r_ref = expect if expect is not None else (fin.u, fin.r)

    def check(nw):
        du = float(np.max(np.abs(nw.u - u_ref)))
        dr = abs(nw.r - r_ref)
        if du > NEWTON_U_TOL or dr > NEWTON_R_TOL:
            return f"field move {du:.2e}, r move {dr:.2e}"
        return None

    nw = L.call("elliptic.newton_constrained", label,
                lambda: newton_constrained(man, psi, fin.c, fin.p, fin.u), check,
                lambda nw: {"iters": nw.iterations})
    if nw is not None:
        fp[label] = {"iters": nw.iterations, "r": repr(nw.r)}


def gauss_op(L: Ledger, label, man, psi, steps, fp) -> None:
    cfg = FlowConfig(scheme="explicit", dt0=2e-5, tol_f=1e-300, t_max=1e9,
                     max_steps=steps, trace_every=500)
    res = L.call("gauss.run_gauss_flow", label,
                 lambda: run_gauss_flow(man, psi, np.zeros(man.node_count), cfg),
                 check_gauss, flow_counts)
    if res is not None:
        L.steps += res.final.step
        L.rows += len(res.trace)
        fp[label] = flow_fingerprint(res)


def lambda1_op(L: Ledger, label, man, psi, a, fp):
    e = L.call("spectral.lambda1", label, lambda: lambda1(man, psi, 1.0),
               lambda e: None if abs(e.lambda1 - a) <= LAMBDA1_TOL
               else f"lambda1 {e.lambda1!r}, expected {a}",
               lambda e: {"iters": e.iterations})
    if e is not None:
        fp[label] = {"iters": e.iterations, "lambda1": repr(e.lambda1)}
    return e


@contextmanager
def watch_run_flow(L: Ledger, seen: list):
    """Record (and span) every run_flow call made inside the block.

    estimate_Y runs its starts through curvflow.flow.run_flow; this is how
    the benchmark sees their steps without touching the package.
    """
    inner = flowmod.run_flow

    def watched(*args, **kwargs):
        with L.span("flow.run_flow") as counts:
            res = inner(*args, **kwargs)
            counts.update(flow_counts(res))
        seen.append(res)
        return res

    flowmod.run_flow = watched
    try:
        yield
    finally:
        flowmod.run_flow = inner


def psi_of(L: Ledger, text: str, man) -> np.ndarray:
    spec = parse(text)
    with L.span("psiexpr.evaluate"):
        return evaluate(spec, man)


def torus(L: Ledger, counts, lengths):
    with L.span("manifold.build_torus_grid"):
        return build_torus_grid(counts, lengths)


def lognormal(L: Ledger, man, seed) -> np.ndarray:
    with L.span("spectral.lognormal_field"):
        return lognormal_field(man, seed)


def smooth_field(man, seed) -> np.ndarray:
    """exp(0.3 g), g the mean of four seeded low Fourier modes: smooth and
    positive, with no linear solve (lognormal_field would need one of size N)."""
    rng = np.random.default_rng(seed)
    x = man.coordinates
    g = np.zeros(man.node_count)
    for _ in range(4):
        k = rng.integers(1, 4, size=x.shape[1]).astype(float)
        g += np.cos(x @ k + rng.uniform(0.0, TWO_PI))
    return np.exp(0.3 * g / 4)


# ---------------------------------------------------------------- workloads


def setup_explicit(s: Sizes, seed: int, L: Ledger) -> dict:
    man = torus(L, [s.circle_n], [TWO_PI])
    g = torus(L, [s.gauss_n, s.gauss_n], [TWO_PI, TWO_PI])
    return {
        "man": man,
        "psi2": psi_of(L, "-1", man),
        "psi3": psi_of(L, "0", man),
        "thm2_u0": [lognormal(L, man, (seed, i)) for i in range(s.thm2_starts)],
        # the thm3 preset start, which takes no seed
        "bump": 1.0 + 0.5 * np.cos(man.coordinates[:, 0]),
        "gauss_man": g,
        "gauss_psi": psi_of(L, "0.3*cos(x1)", g),
    }


def solve_explicit(env: dict, s: Sizes, seed: int, L: Ledger) -> tuple[dict, dict]:
    man, fp, keep = env["man"], {}, {}
    runs = [(f"thm2[{i}]", env["psi2"], u0, check_thm2)
            for i, u0 in enumerate(env["thm2_u0"])]
    runs.append(("thm3_bump", env["psi3"], env["bump"], check_thm3))
    for label, psi, u0, check in runs:
        res = run_flow_op(L, label, man, psi, u0, PRESET, check, fp)
        if res is None:
            continue
        keep.setdefault("flow", res)
        keep.setdefault("circle", (man, psi, res.final))
        csv_op(L, label + ".csv", res, fp)
        newton_op(L, label + ".newton", man, psi, res.final, fp)
    gauss_op(L, "gauss", env["gauss_man"], env["gauss_psi"], s.gauss_steps, fp)
    return fp, keep


def setup_multistart(s: Sizes, seed: int, L: Ledger) -> dict:
    man = torus(L, [s.circle_n], [TWO_PI])
    return {"man": man, "psis": [(a, psi_of(L, str(a), man)) for a in (-1, 0, 1)]}


def solve_multistart(env: dict, s: Sizes, seed: int, L: Ledger) -> tuple[dict, dict]:
    man, fp = env["man"], {}
    lam = {}
    for a, psi in env["psis"]:
        e = lambda1_op(L, f"lambda1[a={a:+d}]", man, psi, a, fp)
        lam[a] = e.lambda1 if e is not None else float(a)
    psi = env["psis"][0][1]
    bound = lam[-1] * man.volume ** 0.5 - Y_BOUND_TOL  # lambda1 V^((p-1)/(p+1)), p = 3

    def check(y):
        return None if bound <= y < 0 else f"Y {y!r} outside [{bound!r}, 0)"

    seen: list = []
    with watch_run_flow(L, seen):
        y = L.call("spectral.estimate_Y", "estimate_Y",
                   lambda: estimate_Y(man, psi, 1.0, 3.0, n_starts=s.y_starts,
                                      seed=seed, cfg=LEAN),
                   check, lambda y: {"starts": s.y_starts})
    if y is not None and not seen:
        # estimate_Y no longer runs its starts one by one through run_flow
        # (an ensemble path, say): count the solo path's steps instead,
        # outside the timed calls, from the same documented start fields.
        seen = [flowmod.run_flow(man, psi, lognormal_field(man, (seed, i)), LEAN)
                for i in range(s.y_starts)]
    for res in seen:
        L.steps += res.final.step
        L.rows += len(res.trace)
    if y is not None:
        fp["estimate_Y"] = {"Y": repr(y), "starts": [flow_fingerprint(r) for r in seen]}
    keep = {"flow": seen[0], "circle": (man, psi, seen[0].final)} if seen else {}
    return fp, keep


def imex_cfg(s: Sizes) -> FlowConfig:
    return FlowConfig(scheme="imex", dt0=s.imex_dt)


def setup_imex(s: Sizes, seed: int, L: Ledger) -> dict:
    man = torus(L, [s.circle_n], [TWO_PI])
    tor = torus(L, [s.torus_n, s.torus_n], [TWO_PI, TWO_PI])
    return {
        "man": man, "psi": psi_of(L, "-1", man), "u0": lognormal(L, man, (seed, 0)),
        "torus": tor, "torus_psi": psi_of(L, GRID_PSI, tor),
        "torus_u0": lognormal(L, tor, (seed, 1)),
    }


def solve_imex(env: dict, s: Sizes, seed: int, L: Ledger) -> tuple[dict, dict]:
    fp, keep = {}, {}
    res = run_flow_op(L, "imex_thm2", env["man"], env["psi"], env["u0"], imex_cfg(s),
                      check_imex_monotone, fp)
    if res is not None:
        keep["flow"] = res
        keep["circle"] = (env["man"], env["psi"], res.final)
    tor, tpsi = env["torus"], env["torus_psi"]
    res = run_flow_op(L, "imex_torus", tor, tpsi, env["torus_u0"], imex_cfg(s),
                      check_imex_monotone, fp)
    if res is not None:
        keep["torus"] = (tor, tpsi, res.final)
        newton_op(L, "imex_torus.newton", tor, tpsi, res.final, fp)
    return fp, keep


def grid_cfg(s: Sizes) -> FlowConfig:
    """A fixed step budget: tolerances no run can meet."""
    return FlowConfig(tol_f=1e-300, tol_res=1e-300, t_max=1e9, max_steps=s.grid_steps)


def setup_grid(s: Sizes, seed: int, L: Ledger) -> dict:
    man = torus(L, [s.grid_n, s.grid_n], [TWO_PI, TWO_PI])
    return {"man": man, "psi": psi_of(L, GRID_PSI, man), "u0": smooth_field(man, seed)}


def solve_grid(env: dict, s: Sizes, seed: int, L: Ledger) -> tuple[dict, dict]:
    man, fp = env["man"], {}

    def check(res):
        drift = abs(integrate(man, res.final.u ** (res.final.p + 1.0)) - 1.0)
        return check_explicit_monotone(res) or (
            f"constraint drift {drift:.2e}" if drift > GRID_DRIFT_TOL else None)

    res = run_flow_op(L, "grid", man, env["psi"], env["u0"], grid_cfg(s), check, fp)
    keep = {"flow": res, "primary": (man, env["psi"], res.final)} if res is not None else {}
    return fp, keep


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Sizes, int, Ledger], dict]
    solve: Callable[[dict, Sizes, int, Ledger], tuple[dict, dict]]
    first_run: Callable[[dict, Sizes, int], Any]  # the workload's first run_flow


WORKLOADS = {
    "explicit_n128": Workload(
        setup_explicit, solve_explicit,
        lambda env, s, seed: flowmod.run_flow(env["man"], env["psi2"], env["thm2_u0"][0], PRESET)),
    "multistart_n128": Workload(
        setup_multistart, solve_multistart,
        lambda env, s, seed: flowmod.run_flow(env["man"], env["psis"][0][1],
                                              lognormal_field(env["man"], (seed, 0)), LEAN)),
    "imex_2d": Workload(
        setup_imex, solve_imex,
        lambda env, s, seed: flowmod.run_flow(env["man"], env["psi"], env["u0"], imex_cfg(s))),
    "grid_1m": Workload(
        setup_grid, solve_grid,
        lambda env, s, seed: flowmod.run_flow(env["man"], env["psi"], env["u0"], grid_cfg(s))),
}


def solve_pass(name: str, env: dict, s: Sizes, seed: int, tracing: bool = False) -> tuple[Pass, Ledger]:
    """One solve pass.  Only a traced pass keeps states for the probes, so
    that untraced passes hold no memory past their end."""
    L = Ledger(tracing)
    fp, keep = WORKLOADS[name].solve(env, s, seed, L)
    keep.setdefault("primary", keep.get("circle"))
    return Pass(L.busy, L.steps, L.rows, L.attempted, L.misses, fp,
                keep if tracing else {}), L
