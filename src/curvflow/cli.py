"""Command-line front end.

Subcommands:
    run     evolve the constrained flow, print a summary, optionally dump the trace
    eigen   ground eigenvalue of the potential's Schroedinger-type operator
    oracle  flow limit vs the constrained Newton solver, optionally dump the trace
    gauss   two-dimensional log-conformal flow
    sweep   multistart relaxation; per-start CSV rows and the best energy

Exit codes: 0 on a completed run (Converged / TmaxReached / MaxSteps),
2 when a flow dies of positivity failure (sweep: when any start does,
after printing every row), 1 on usage, parse or input errors.  The
CURVFLOW_LOG environment variable (quiet|info|debug) sets log verbosity.
Identical command line, seed and BLAS thread count give byte-identical
trace files (OpenBLAS splits a dot of over 10,000 terms across threads;
OPENBLAS_NUM_THREADS=1 pins the count).

A flag not given keeps its FlowConfig default (gauss: --dt0 1e-3).
--preset NAME stands for the flag values in PRESETS[NAME]; flags given
on the command line win over them, and a preset that fixes the manifold
takes no --torus or --off.  gauss takes no --preset: every preset is 1-D.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from contextlib import nullcontext
from functools import reduce

import numpy as np

from . import elliptic, flow, gauss, spectral
from .errors import CurvFlowError
from .manifold import DiscreteManifold, build_torus_grid, load_off_mesh, product
from .psiexpr import evaluate, parse

__all__ = ["main", "PRESETS"]


class CliUsageError(CurvFlowError):
    pass


# Frozen presets.  Each is the flag values it stands for, keyed by argparse
# dest, and thm3 also names its start field as an expression over x1..xn
# (other runs start from the seeded log-normal field).  thm2: strictly
# negative constant potential, where the flow settles at the constant field
# with r_inf = -sqrt(volume) for p = 3.  thm3: zero potential, where r decays
# exponentially to zero.  Both live on the circle of circumference 2*pi with
# 128 nodes and keep FlowConfig's default p and c.
_CIRCLE = f"128:{2.0 * math.pi!r}"  # repr parses back to 2*pi exactly
PRESETS = {
    "thm2": {"torus": _CIRCLE, "psi": "-1"},
    "thm3": {"torus": _CIRCLE, "psi": "0", "start": "1 + 0.5*cos(x1)"},
}


class _Stderr(logging.StreamHandler):
    """Writes each record to sys.stderr as it is when the record is emitted."""

    stream = property(lambda self: sys.stderr, lambda self, value: None)


def _setup_logging() -> None:
    """Set the curvflow logger's level from CURVFLOW_LOG on every call, and give it one
    stderr handler; the root logger is left as it is."""
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("CURVFLOW_LOG", "quiet").lower()
    if name not in level:
        raise CliUsageError(f"CURVFLOW_LOG must be quiet|info|debug, got {name!r}")
    log = logging.getLogger("curvflow")
    log.setLevel(level[name])
    if not any(isinstance(h, _Stderr) for h in log.handlers):
        handler = _Stderr()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise CliUsageError(message)


def _add_problem_args(p: argparse.ArgumentParser, presets: bool = True) -> None:
    """The manifold and potential flags; --preset only where a preset, a circle, can run."""
    p.add_argument("--torus", help="periodic grid as N:L[,N:L...]; with --off, the mesh times it")
    p.add_argument("--off", help="path to an OFF surface mesh")
    if presets:
        p.add_argument("--preset", choices=sorted(PRESETS), help="frozen named flag values")
    p.add_argument("--psi", help="potential expression over x1..xn")


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    """The step, time and trace flags that run, oracle, sweep and gauss share;
    each dest is its FlowConfig field."""
    p.add_argument("--dt0", type=float)
    p.add_argument("--safety", type=float)
    p.add_argument("--tmax", type=float, dest="t_max", metavar="TMAX")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--tol-f", type=float)
    p.add_argument("--tol-res", type=float)
    p.add_argument("--out", help="write the trace CSV here (sweep: its per-start rows)")
    p.add_argument("--trace-every", type=int)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    _add_problem_args(p)
    p.add_argument("--p", type=float, help="nonlinearity exponent (> 1)")
    p.add_argument("--c", help="diffusion coefficient, or 'auto' for 4(n-1)/(n-2) (n >= 3)")
    p.add_argument("--scheme", choices=["explicit", "imex"])
    _add_budget_args(p)
    p.add_argument("--seed", type=_seed, default=0)


def build_manifold(args) -> DiscreteManifold:
    """--off's mesh, --torus's grid, or with both their product."""
    if not (args.torus or args.off):
        via = "--torus, --off or --preset" if "preset" in args else "--torus or --off"
        raise CliUsageError(f"specify a manifold via {via}")
    factors = [load_off_mesh(args.off)] if args.off else []
    pairs = []
    for item in args.torus.split(",") if args.torus else []:
        bits = item.split(":")
        if len(bits) != 2:
            raise CliUsageError(f"bad --torus component {item!r}, expected N:L")
        try:
            pairs.append((int(bits[0]), float(bits[1])))
        except ValueError as exc:
            raise CliUsageError(f"bad --torus component {item!r}: {exc}") from exc
    if pairs:
        factors.append(build_torus_grid(*zip(*pairs)))
    return reduce(product, factors)


def resolve_c(raw: str, man: DiscreteManifold) -> float:
    if raw.strip().lower() == "auto":
        if man.dim < 3:
            raise CliUsageError(
                f"--c auto needs manifold dimension >= 3, got {man.dim}"
            )
        return flow.default_c(man.dim)
    try:
        value = float(raw)
    except ValueError as exc:
        raise CliUsageError(f"bad --c value {raw!r}") from exc
    if not (value > 0 and math.isfinite(value)):
        raise CliUsageError("--c must be positive and finite")
    return value


def resolve_problem(args) -> tuple[DiscreteManifold, np.ndarray, flow.FlowConfig]:
    """Manifold, psi and FlowConfig of a subcommand: the config takes each field
    whose flag was given (c through resolve_c) and keeps its default for the rest."""
    man = build_manifold(args)
    if args.psi is None:
        fix = " (or a --preset that fixes it)" if "preset" in args else ""
        raise CliUsageError(f"specify --psi{fix}")
    psi = evaluate(parse(args.psi), man)
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(flow.FlowConfig)}
    if given["c"] is not None:
        given["c"] = resolve_c(given["c"], man)
    return man, psi, flow.FlowConfig(**{k: v for k, v in given.items() if v is not None})


def _output(path: str | None):
    """--out opened for writing (None without it) before the flow runs, so an
    unwritable path fails before any step; a run that raises leaves an empty file."""
    if not path:
        return nullcontext()
    return open(path, "w", encoding="utf-8", newline="\n")


def _traced(path: str | None, run) -> flow.FlowResult:
    """run() with --out opened first; the trace of its result is written there."""
    with _output(path) as out:
        result = run()
        if out:
            flow.write_trace_csv(result.trace, out)
    return result


def _flow_run(args) -> tuple[DiscreteManifold, np.ndarray, flow.FlowConfig, flow.FlowResult]:
    """The flow of run and oracle: from the preset's start field or the seeded
    log-normal field, with its trace written to --out."""
    man, psi, cfg = resolve_problem(args)
    start = getattr(args, "start", None)
    u0 = evaluate(parse(start), man) if start else spectral.lognormal_field(man, args.seed)
    return man, psi, cfg, _traced(args.out, lambda: flow.run_flow(man, psi, u0, cfg))


def _decay_rate(result: flow.FlowResult) -> str:
    rate = result.decay_rate
    return "" if rate is None else f" decay_rate={rate:.10g}"


def _summary(result: flow.FlowResult) -> str:
    last = result.trace[-1]
    return (f"stop={result.stop} r_inf={result.r_infinity:.10g} "
            f"f={last.f:.6g} res={last.res_linf:.6g} steps={result.final.step}"
            + _decay_rate(result))


def cmd_run(args) -> int:
    _, _, _, result = _flow_run(args)
    print(_summary(result))
    return 2 if result.stop == flow.STOP_POSITIVITY else 0


def cmd_eigen(args) -> int:
    man, psi, cfg = resolve_problem(args)
    res = spectral.lambda1(man, psi, c=cfg.c)
    print(f"lambda1={res.lambda1:.12g} residual={res.residual:.3e} "
          f"iterations={res.iterations}")
    return 0


def cmd_oracle(args) -> int:
    man, psi, cfg, result = _flow_run(args)
    if result.stop == flow.STOP_POSITIVITY:
        print(_summary(result))
        return 2
    newt = elliptic.newton_constrained(man, psi, cfg.c, cfg.p, result.final.u)
    u_gap = float(np.max(np.abs(newt.u - result.final.u)))
    r_gap = abs(newt.r - result.final.r)
    print(f"stop={result.stop} r_flow={result.r_infinity:.10g} "
          f"r_newton={newt.r:.10g} u_gap={u_gap:.3e} r_gap={r_gap:.3e} "
          f"newton_iterations={newt.iterations}" + _decay_rate(result))
    return 0


def cmd_gauss(args) -> int:
    man, psi, cfg = resolve_problem(args)
    u0 = np.zeros(man.node_count)
    result = _traced(args.out, lambda: gauss.run_gauss_flow(man, psi, u0, cfg))
    last = result.trace[-1]
    print(f"stop={result.stop} r={result.r_infinity:.10g} f={last.f:.6g} "
          f"area_drift={last.norm_err:.3e} steps={last.step}")
    return 0


def cmd_sweep(args) -> int:
    man, psi, cfg = resolve_problem(args)
    starts = spectral.relax_many(man, psi, cfg, args.starts, args.seed)
    lines = ["start,r_final,E_final,stop"]
    best = math.inf
    failed = False
    with _output(args.out) as out:
        for i, (result, E) in enumerate(starts):
            lines.append(f"{i},{result.final.r:.16e},{E:.16e},{result.stop}")
            best = min(best, E)
            failed = failed or result.stop == flow.STOP_POSITIVITY
        (out or sys.stdout).write("\n".join(lines) + "\n")
    print(f"Y_psi_upper={best:.12g}")
    return 2 if failed else 0


def _build_parser() -> _Parser:
    top = _Parser(prog="curvflow", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve the constrained flow")
    _add_run_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eigen = sub.add_parser("eigen", help="ground eigenvalue of the potential")
    _add_problem_args(p_eigen)
    p_eigen.add_argument("--c")
    p_eigen.set_defaults(func=cmd_eigen)

    p_oracle = sub.add_parser("oracle", help="flow limit vs constrained Newton")
    _add_run_args(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gauss = sub.add_parser("gauss", help="two-dimensional log-conformal flow")
    _add_problem_args(p_gauss, presets=False)
    _add_budget_args(p_gauss)
    p_gauss.set_defaults(func=cmd_gauss, dt0=1e-3)

    p_sweep = sub.add_parser("sweep", help="multistart relaxation sweep")
    _add_run_args(p_sweep)
    p_sweep.add_argument("--starts", type=int, default=8)
    p_sweep.set_defaults(func=cmd_sweep)
    return top


def _parse_args(argv: list[str] | None):
    """argv parsed, then --preset's values set where argv left a value unset."""
    args = _build_parser().parse_args(argv)
    preset = PRESETS.get(getattr(args, "preset", None), {})
    if preset.keys() & {"torus", "off"} and (args.torus or args.off):
        raise CliUsageError("--preset already fixes the manifold")
    for name, value in preset.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = _parse_args(argv)
        return args.func(args)
    except (CurvFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
