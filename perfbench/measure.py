"""Measure one workload: end-to-end metrics untraced, per-layer metrics traced.

A run sets the workload up several times (setup_s is the median), then
repeats the solve pass while another pass still fits in the time budget
(wall_s is the median pass).  The traced run alternates untraced and
traced passes, then times single calls of each module's public functions
on states taken from the workload's own run.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy

from curvflow import flow as flowmod
from curvflow.flow import adaptive_dt, make_flow_state
from curvflow.manifold import build_torus_grid, dirichlet_energy, integrate, laplacian_apply
from curvflow.spectral import estimate_Y, lognormal_field

import workloads as W
from ledger import Ledger
from speed import SpeedProbe

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 100

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "manifold.integrate.us": "us",
    "manifold.laplacian_apply.us": "us",
    "manifold.dirichlet_energy.us": "us",
    "manifold.laplacian_apply.gbps_computed": "GB/s",
    "manifold.build_torus_grid.s": "s",
    "flow.step_explicit.us": "us",
    "flow.normalize.us": "us",
    "flow.rayleigh_r.us": "us",
    "flow.pseudo_scalar_curvature.us": "us",
    "flow.run_flow.us_per_step": "us",
    "flow.step_imex.us": "us",
    "flow.step_imex.us_32x32": "us",
    "flow.write_trace_csv.us_per_row": "us",
    "flow.trace_csv.bytes": "B",
    "flow.run_flow.alloc_peak_mb": "MB",
    "gauss.run_gauss_flow.us_per_step": "us",
    "elliptic.newton_constrained.ms": "ms",
    "elliptic.newton.iters": "count",
    "elliptic.newton.ms_per_iter": "ms",
    "spectral.lambda1.ms": "ms",
    "spectral.lambda1.iters": "count",
    "spectral.estimate_Y.s_per_start": "s",
    "spectral.lognormal_field.ms": "ms",
    "psiexpr.evaluate.us": "us",
    "flow.steps": "count",
    "flow.trace_rows": "count",
    "bench.trace_overhead_frac": "ratio",
}


# ----------------------------------------------------------------- machine


def _llc() -> str:
    """Size of the highest-level cache the OS reports for cpu0."""
    best = (0, "unknown")
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _blas(module) -> str:
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def machine() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "llc": _llc(),
        "gbps_note": "gbps_computed = bytes computed from array sizes / time; "
                     "not DRAM bandwidth (arrays may sit in the LLC)",
    }


# --------------------------------------------------------------- repetition


def setup_many(name: str, s: W.Sizes, seed: int, probe: SpeedProbe, tracing: bool = False):
    """Set the workload up several times; keep the last set-up.

    Returns the set-up, the raw set-up times, the speed factor over all
    set-ups (one set-up can be shorter than the probe's interval) and the
    set-ups' ledgers."""
    times, ledgers, env = [], [], None
    mark = probe.mark()
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS)):
        env = None  # free the previous set-up before building the next
        gc.collect()
        L = Ledger(tracing)
        t0 = time.perf_counter()
        env = W.WORKLOADS[name].setup(s, seed, L)
        times.append(time.perf_counter() - t0)
        ledgers.append(L)
    return env, times, probe.factor(mark), ledgers


def run_pass(name: str, env: dict, s: W.Sizes, seed: int, probe: SpeedProbe,
             tracing: bool = False) -> tuple[W.Pass, Ledger]:
    """One solve pass, with the machine speed measured during it."""
    mark = probe.mark()
    p, L = W.solve_pass(name, env, s, seed, tracing)
    p.speed = probe.factor(mark)
    return p, L


def repeat(run_once: Callable[[], list], seconds: float) -> list:
    """Call run_once (which returns a list of passes) while another call still fits."""
    out: list = []
    spent = last = 0.0
    while not out or spent + last <= seconds:
        t0 = time.perf_counter()
        out.extend(run_once())
        last = time.perf_counter() - t0
        spent += last
    return out


def _consistent(passes) -> bool:
    return all(p.fingerprint == passes[0].fingerprint for p in passes)


def _summary(passes, setup_times, setup_speed) -> dict[str, Any]:
    return {
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "pass_raw_walls_s": [p.raw_wall for p in passes],
        "pass_speed_factors": [p.speed for p in passes],
        "setup_reps": len(setup_times),
        "setup_raw_median_s": statistics.median(setup_times),
        "setup_speed_factor": setup_speed,
        "steps_per_pass": passes[0].steps,
        "fingerprint": passes[0].fingerprint,
        "fingerprint_repeats": _consistent(passes),
        "misses": sorted({m for p in passes for m in p.misses}),
    }


def measure(name: str, seed: int, seconds: float, s: W.Sizes = W.FULL):
    """End-to-end metrics with tracing off.  Returns (result, report)."""
    with SpeedProbe() as probe:
        env, setup_times, setup_speed, _ = setup_many(name, s, seed, probe)
        passes = repeat(lambda: [run_pass(name, env, s, seed, probe)[0]], seconds)
    wall = statistics.median(p.wall for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.misses) for p in passes)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_times) * setup_speed, "s"),
        "steps_per_s": (passes[0].steps / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    report = _summary(passes, setup_times, setup_speed)
    return _result(attempted, failed, _consistent(passes), metrics), report


def _result(attempted, failed, consistent, metrics) -> dict[str, Any]:
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


# ------------------------------------------------------------------ tracing


def per_call_us(fn: Callable[[], Any], budget: float = 0.25, chunks: int = 5) -> float:
    """Median over chunks of the time per call, in microseconds."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= budget / chunks or n >= 1 << 20:
            break
        n *= 2
    samples = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def _reference_circle(s: W.Sizes):
    """The thm2 circle with a near-constant field, for probes a workload
    cannot run at its own size."""
    man = build_torus_grid([s.circle_n], [W.TWO_PI])
    psi = -np.ones(man.node_count)
    u = 1.0 + 0.01 * np.cos(man.coordinates[:, 0])
    return man, psi, make_flow_state(man, psi, flowmod.normalize(man, u, 3.0))


def _reference_torus(s: W.Sizes):
    man = build_torus_grid([s.torus_n, s.torus_n], [W.TWO_PI, W.TWO_PI])
    x = man.coordinates
    psi = -1.0 + 0.3 * np.cos(x[:, 0])
    u = 1.0 + 0.01 * np.cos(x[:, 0]) * np.cos(x[:, 1])
    return man, psi, make_flow_state(man, psi, flowmod.normalize(man, u, 3.0))


def _median_setup_span(ledgers, span: str, per_call: bool) -> float | None:
    vals = []
    for L in ledgers:
        agg = L.totals().get(span)
        if agg:
            vals.append(agg["seconds"] / (agg["calls"] if per_call else 1))
    return statistics.median(vals) if vals else None


def _per_call_metrics(primary, circle, torus) -> dict[str, float]:
    """Single calls of the per-step functions, on states from the workload."""
    man, psi, st = primary
    u = st.u
    m = {
        "manifold.integrate.us": per_call_us(lambda: integrate(man, u)),
        "manifold.laplacian_apply.us": per_call_us(lambda: laplacian_apply(man, u)),
        "manifold.dirichlet_energy.us": per_call_us(lambda: dirichlet_energy(man, u)),
    }
    S = man.stiffness
    lap_bytes = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes + 5 * u.nbytes
    m["manifold.laplacian_apply.gbps_computed"] = lap_bytes / m["manifold.laplacian_apply.us"] / 1e3
    dt = adaptive_dt(man, st, 0.25, 1e-2)
    m["flow.step_explicit.us"] = per_call_us(lambda: flowmod.step_explicit(man, psi, st, dt))
    m["flow.normalize.us"] = per_call_us(lambda: flowmod.normalize(man, u, st.p))
    m["flow.rayleigh_r.us"] = per_call_us(lambda: flowmod.rayleigh_r(man, u, psi, st.c, st.p))
    m["flow.pseudo_scalar_curvature.us"] = per_call_us(
        lambda: flowmod.pseudo_scalar_curvature(man, u, psi, st.c, st.p))
    cm, cpsi, cst = circle
    m["flow.step_imex.us"] = per_call_us(lambda: flowmod.step_imex(cm, cpsi, cst, 1e-3))
    tm, tpsi, tst = torus
    m["flow.step_imex.us_32x32"] = per_call_us(lambda: flowmod.step_imex(tm, tpsi, tst, 1e-3))
    return m


def _probe_missing_calls(spans, probes: Ledger, s: W.Sizes, seed: int, circle,
                         reference: bool, flow, fp, notes) -> dict[str, dict]:
    """Run once each top-level call the workload does not make, on the
    circle (gauss on the 32x32 torus), so every workload reports every
    metric.  Returns the workload's spans merged with the probes'."""
    cm, cpsi, cst = circle
    if "gauss.run_gauss_flow" not in spans:
        g = build_torus_grid([s.gauss_n, s.gauss_n], [W.TWO_PI, W.TWO_PI])
        W.gauss_op(probes, "probe.gauss", g, 0.3 * np.cos(g.coordinates[:, 0]),
                   s.gauss_steps, fp)
        notes["gauss"] = f"probe on a {s.gauss_n}x{s.gauss_n} torus"
    if "elliptic.newton_constrained" not in spans:
        # from a flow limit Newton barely moves; from the reference field it
        # must reach the thm2 limit
        W.newton_op(probes, "probe.newton", cm, cpsi, cst, fp,
                    expect=(W.THM2_U, W.THM2_R) if reference else None)
        notes["newton"] = "probe from the circle state"
    if "spectral.lambda1" not in spans:
        W.lambda1_op(probes, "probe.lambda1", cm, cpsi, -1, fp)
        notes["lambda1"] = "probe on the circle, psi = -1"
    if "spectral.estimate_Y" not in spans:
        probes.call("spectral.estimate_Y", "probe.estimate_Y",
                    lambda: estimate_Y(cm, cpsi, 1.0, 3.0, n_starts=1, seed=seed, cfg=W.LEAN),
                    lambda y: None if y < 0 else f"Y {y!r} not negative",
                    lambda y: {"starts": 1})
        notes["estimate_Y"] = "probe: one LEAN start on the circle, psi = -1"
    if "flow.write_trace_csv" not in spans:
        W.csv_op(probes, "probe.csv", flow, fp)
        notes["write_trace_csv"] = "probe on the workload's first trace"
    return {**probes.totals(), **spans}


def _span_metrics(spans) -> dict[str, float]:
    def per(span: str, count: str) -> float:
        return spans[span]["seconds"] / spans[span][count]

    newton = spans["elliptic.newton_constrained"]
    return {
        "flow.run_flow.us_per_step": per("flow.run_flow", "steps") * 1e6,
        "flow.write_trace_csv.us_per_row": per("flow.write_trace_csv", "rows") * 1e6,
        "flow.trace_csv.bytes": spans["flow.write_trace_csv"]["bytes"],
        "gauss.run_gauss_flow.us_per_step": per("gauss.run_gauss_flow", "steps") * 1e6,
        "elliptic.newton_constrained.ms": per("elliptic.newton_constrained", "calls") * 1e3,
        "elliptic.newton.iters": newton["iters"] / newton["calls"],
        # a probe from an exact limit takes 0 iterations
        "elliptic.newton.ms_per_iter": newton["seconds"] * 1e3 / max(newton["iters"], 1),
        "spectral.lambda1.ms": per("spectral.lambda1", "calls") * 1e3,
        "spectral.lambda1.iters": spans["spectral.lambda1"]["iters"] / spans["spectral.lambda1"]["calls"],
        "spectral.estimate_Y.s_per_start": per("spectral.estimate_Y", "starts"),
    }


def traced(name: str, seed: int, seconds: float, s: W.Sizes = W.FULL):
    """Per-layer metrics.  Returns (result, report)."""
    plain: list = []
    traced_passes: list = []
    ledgers: list[Ledger] = []

    def pair():
        plain.append(run_pass(name, env, s, seed, probe)[0])
        if traced_passes:  # only the last traced pass is probed; free the one before
            traced_passes[-1].keep = {}
        p, ledger = run_pass(name, env, s, seed, probe, tracing=True)
        traced_passes.append(p)
        ledgers.append(ledger)
        return [plain[-1], p]

    # The speed probe's timer stays off for the single-call timings below.
    with SpeedProbe() as probe:
        env, setup_times, setup_speed, setup_ledgers = setup_many(
            name, s, seed, probe, tracing=True)
        passes = repeat(pair, seconds)
    last = traced_passes[-1]
    notes: dict[str, str] = {}
    circle, torus = last.keep.get("circle"), last.keep.get("torus")
    if circle is None:
        circle = _reference_circle(s)
        notes["circle"] = f"reference circle N={s.circle_n}, near-constant field"
    if torus is None:
        torus = _reference_torus(s)
        notes["torus"] = f"reference {s.torus_n}x{s.torus_n} torus, near-constant field"
    primary = last.keep.get("primary") or circle
    notes["primary"] = f"N={primary[0].node_count}, state from the workload's own run"

    m = _per_call_metrics(primary, circle, torus)
    probes = Ledger(tracing=True)
    fp: dict[str, Any] = {}
    spans = _probe_missing_calls(ledgers[-1].totals(), probes, s, seed, circle,
                                 "circle" in notes, last.keep.get("flow"), fp, notes)
    m.update(_span_metrics(spans))
    m["manifold.build_torus_grid.s"] = _median_setup_span(
        setup_ledgers, "manifold.build_torus_grid", per_call=False)
    m["psiexpr.evaluate.us"] = _median_setup_span(
        setup_ledgers, "psiexpr.evaluate", per_call=True) * 1e6
    lg = _median_setup_span(setup_ledgers, "spectral.lognormal_field", per_call=True)
    if lg is None:
        lg = per_call_us(lambda: lognormal_field(circle[0], (seed, 0)), budget=0.1) / 1e6
        notes["lognormal_field"] = "probe on the circle"
    m["spectral.lognormal_field.ms"] = lg * 1e3
    m["flow.steps"] = last.steps
    m["flow.trace_rows"] = last.rows
    m["bench.trace_overhead_frac"] = (statistics.median(p.wall for p in traced_passes)
                                      / statistics.median(p.wall for p in plain) - 1.0)

    # Allocation peak of the workload's first run_flow, in a run of its own:
    # tracemalloc slows the calls it watches, so it stays out of the passes.
    gc.collect()
    tracemalloc.start()
    try:
        W.WORKLOADS[name].first_run(env, s, seed)
        m["flow.run_flow.alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    attempted = sum(p.attempted for p in passes) + probes.attempted
    failed = sum(len(p.misses) for p in passes) + len(probes.misses)
    report = _summary(passes, setup_times, setup_speed)
    report["misses"] = sorted(set(report["misses"]) | set(probes.misses))
    report["probe_fingerprint"] = fp
    report["layer_notes"] = notes
    report["spans"] = spans
    metrics = {k: (m[k], unit) for k, unit in LAYER_UNITS.items()}
    return _result(attempted, failed, _consistent(passes), metrics), report
