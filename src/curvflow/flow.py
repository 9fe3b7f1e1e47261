"""Norm-preserving curvature-driven flow on a discrete manifold.

The evolving positive node field u obeys

    u_t = u^{1-p} (c Lap(u) - psi u) + r(t) u,
    r(t) = (c \\int |grad u|^2 + \\int psi u^2) / \\int u^{p+1},

which keeps \\int u^{p+1} dv = 1 along exact trajectories and drives the
scalar invariant R = u^{-p} (-c Lap(u) + psi u) toward the constant r.
Two steppers are provided: an explicit Euler update (with an adaptive
stability-based dt) and a semi-implicit update of the fast-diffusion form
w = u^p (Newton inner solves, stable at much larger dt).  Every accepted
step is followed by projection back onto the unit-constraint manifold; the
pre-projection drift is recorded per step as `norm_err` since its size is
a direct consistency check of the scheme.

Quantities logged per trace row: r, the drift, u and R extrema, the decay
functional f = \\int (R - r)^2 u^{p+1} dv (which satisfies dr/dt = -2 f
along exact trajectories) and the stationarity residual in max norm.

_drive is the package's one run loop: run_flow and gauss.run_gauss_flow
hand it a stepper, and it owns stopping, budgets, dt halving and thinning.

The run loop and both public steppers go through private kernels:
_settle checks an update once and projects it, forming u^{p+1} once per
normalization pass; _diagnose reuses that power for R, f and the
residual; the imex Newton matrix is written into a sparsity pattern built
once per run.  The kernels repeat the arithmetic of the public helpers
(normalize, rayleigh_r, pseudo_scalar_curvature, make_flow_state,
f_diagnostic) operation for operation, so a run is bit-identical to one
composed from those helpers, which remain the reference the tests check
the kernels against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import (
    ConfigError,
    CurvFlowError,
    IllConditionedInitialData,
    NewtonNoConvergence,
    NonPositiveField,
    SizeMismatch,
    StepRejectedPositivity,
    ZeroDenominator,
)
from .manifold import DiscreteManifold, dirichlet_energy, integrate, laplacian_apply

__all__ = [
    "FlowState",
    "FlowConfig",
    "TraceRecord",
    "FlowResult",
    "pseudo_scalar_curvature",
    "rayleigh_r",
    "normalize",
    "make_flow_state",
    "step_explicit",
    "step_imex",
    "adaptive_dt",
    "sigma_shift",
    "f_diagnostic",
    "run_flow",
    "write_trace_csv",
    "read_trace_csv",
    "trace_column",
    "default_c",
]

log = logging.getLogger("curvflow.flow")

STOP_CONVERGED = "Converged"
STOP_MAX_STEPS = "MaxSteps"
STOP_TMAX = "TmaxReached"
STOP_POSITIVITY = "PositivityFailure"


def default_c(n: int) -> float:
    """Dimension-dependent diffusion constant 4(n-1)/(n-2), defined for n >= 3."""
    if n < 3:
        raise ValueError(f"default coefficient requires dimension >= 3, got {n}")
    return 4.0 * (n - 1) / (n - 2)


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the flow: field, clock, exponents and the cached r.

    norm_err is the pre-projection constraint drift of the step that
    produced this state (0 for initial states); it is carried here so the
    run loop can log it without re-deriving the un-projected field.
    """

    u: np.ndarray
    t: float
    step: int
    p: float
    c: float
    r: float
    norm_err: float = 0.0


@dataclass
class FlowConfig:
    """Run parameters.

    p and c live here as well: run_flow builds its own states and has no
    other channel for them.  For explicit stepping dt0 caps the adaptive
    step; for imex it is the actual step size.
    """

    scheme: str = "explicit"
    dt0: float = 1e-2
    safety: float = 0.25
    tol_f: float = 1e-10
    tol_res: float = 1e-8
    t_max: float = 100.0
    max_steps: int = 1_000_000
    max_halvings: int = 40
    trace_every: int = 1
    p: float = 3.0
    c: float = 1.0

    def validate(self) -> "FlowConfig":
        if self.scheme not in ("explicit", "imex"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        for name in ("dt0", "safety", "tol_f", "tol_res", "t_max"):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive")
        if self.max_steps < 0 or self.max_halvings < 0:
            raise ConfigError("max_steps and max_halvings must be nonnegative")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be >= 1")
        if not (self.p > 1):
            raise ConfigError("p must exceed 1")
        if not (self.c > 0):
            raise ConfigError("c must be positive")
        return self


@dataclass(frozen=True)
class TraceRecord:
    step: int
    t: float
    dt: float
    r: float
    norm_err: float
    u_min: float
    u_max: float
    f: float
    R_min: float
    R_max: float
    res_linf: float


TRACE_HEADER = "step,t,dt,r,norm_err,u_min,u_max,f,R_min,R_max,res_linf"
_TRACE_FIELDS = TRACE_HEADER.split(",")


@dataclass
class FlowResult:
    final: FlowState
    trace: list[TraceRecord]
    stop: str
    r_infinity: float
    decay_rate: float | None = None


def _positive_field(man: DiscreteManifold, u: np.ndarray, name: str = "u") -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (man.node_count,):
        raise SizeMismatch(f"{name} has shape {u.shape}, expected ({man.node_count},)")
    if not np.all(u > 0):
        raise NonPositiveField(f"{name} must be strictly positive everywhere")
    return u


def pseudo_scalar_curvature(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> np.ndarray:
    """R = u^{-p} (-c Lap(u) + psi u), the scalar invariant the flow equalizes."""
    u = _positive_field(man, u)
    psi = np.asarray(psi, dtype=float)
    lap = laplacian_apply(man, u)
    return u ** (-p) * (-c * lap + psi * u)


def rayleigh_r(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> float:
    """(c u^T S u + \\int psi u^2) / \\int u^{p+1}.

    Equals the u^{p+1}-weighted mean of R; the Dirichlet part is evaluated
    edge-wise so the value stays accurate (and nonnegative for psi >= 0)
    even when u is within roundoff of a constant.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (man.node_count,):
        raise SizeMismatch(f"u has shape {u.shape}, expected ({man.node_count},)")
    psi = np.asarray(psi, dtype=float)
    denom = integrate(man, u ** (p + 1.0))
    if denom == 0 or not math.isfinite(denom):
        raise ZeroDenominator(f"constraint integral is {denom}")
    num = c * dirichlet_energy(man, u) + integrate(man, psi * u * u)
    return num / denom


def normalize(man: DiscreteManifold, u: np.ndarray, p: float) -> np.ndarray:
    """Scale u so the constraint integral \\int u^{p+1} dv equals 1.

    Two correction passes: the second removes the O(eps) residue the
    rounded (p+1)-th root leaves behind, putting the result within a few
    ulps of the constraint surface.
    """
    u = _positive_field(man, u)
    for _ in range(2):
        s = integrate(man, u ** (p + 1.0))
        if s == 0 or not math.isfinite(s):
            raise ZeroDenominator(f"constraint integral is {s}")
        u = u / s ** (1.0 / (p + 1.0))
    return u


def make_flow_state(
    man: DiscreteManifold,
    psi: np.ndarray,
    u: np.ndarray,
    t: float = 0.0,
    step: int = 0,
    p: float = 3.0,
    c: float = 1.0,
    norm_err: float = 0.0,
) -> FlowState:
    """Bundle a field into a FlowState with its Rayleigh quotient cached."""
    u = _positive_field(man, u)
    r = rayleigh_r(man, u, psi, c, p)
    return FlowState(u=u, t=float(t), step=int(step), p=float(p), c=float(c), r=r,
                     norm_err=float(norm_err))


def _diagnose(
    man: DiscreteManifold, psi: np.ndarray, state: FlowState, upw: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """R, f and the stationarity residual of a state, given upw = u^{p+1}.

    Same arithmetic as pseudo_scalar_curvature and f_diagnostic, without
    re-validating the field.
    """
    u, p = state.u, state.p
    lap = -(man.stiffness @ u) / man.mass
    R = u ** (-p) * (-state.c * lap + psi * u)
    dev = R - state.r
    f = float(np.dot(man.mass, dev * dev * upw))
    res = float(np.abs(upw / u * dev).max())  # u^p (R - r)
    return R, f, res


def _settle(
    man: DiscreteManifold,
    psi: np.ndarray,
    state: FlowState,
    dt: float,
    unew: np.ndarray,
    scheme: str,
) -> tuple[FlowState, np.ndarray, float]:
    """Check an accepted update of `state` and project it onto the constraint.

    Reproduces normalize, the drift check and make_flow_state operation
    for operation, but checks the update once and forms u^{p+1} once per
    projection pass.  Returns (state, u^{p+1}, u.min()); the middle one
    is what _diagnose needs.
    """
    m = float(unew.min())
    if m <= 0.0:
        raise StepRejectedPositivity(f"{scheme} step dt={dt:.3e} lost positivity")
    if math.isnan(m):
        raise NonPositiveField("u must be strictly positive everywhere")
    p, mass = state.p, man.mass
    q = p + 1.0
    e = 1.0 / q
    u, u_min, upw = unew, m, unew**q
    s = float(np.dot(mass, upw))
    norm_err = s - 1.0
    for _ in range(2):
        if s == 0 or not math.isfinite(s):
            raise ZeroDenominator(f"constraint integral is {s}")
        k = s**e
        u = u / k
        u_min = u_min / k  # rounding is monotone, so this is exactly u.min()
        upw = u**q
        s = float(np.dot(mass, upw))
    drift = s - 1.0
    if abs(drift) > 1e-13:
        raise CurvFlowError(f"projection left constraint drift {drift:.3e}")
    if s == 0 or not math.isfinite(s):
        raise ZeroDenominator(f"constraint integral is {s}")
    ei, ej, w = man._edges
    d = u[ei] - u[ej]
    r = (state.c * float(np.dot(w, d * d)) + float(np.dot(mass, psi * u * u))) / s
    new = FlowState(u=u, t=float(state.t + dt), step=state.step + 1, p=p, c=state.c, r=r,
                    norm_err=norm_err)
    return new, upw, u_min


def _explicit_update(
    man: DiscreteManifold,
    psi: np.ndarray,
    state: FlowState,
    dt: float,
    R: np.ndarray,
) -> tuple[FlowState, np.ndarray, float]:
    # u^{1-p}(c Lap u - psi u) = -R u, so the update is u (1 + dt (r - R))
    return _settle(man, psi, state, dt, state.u * (1.0 + dt * (state.r - R)), "explicit")


def step_explicit(
    man: DiscreteManifold, psi: np.ndarray, state: FlowState, dt: float
) -> FlowState:
    """One explicit Euler step followed by projection onto the constraint."""
    psi = np.asarray(psi, dtype=float)
    R = pseudo_scalar_curvature(man, state.u, psi, state.c, state.p)
    return _explicit_update(man, psi, state, dt, R)[0]


def _imex_operator(man: DiscreteManifold, psi: np.ndarray, c: float) -> sparse.csr_matrix:
    # A u = -(c Lap u - psi u) * mass  (weak form of the stiff part)
    return (c * man.stiffness + sparse.diags(man.mass * psi)).tocsr()


class _JacobianPattern:
    """The imex Newton matrix diag(M) + pdt A diag(du/dw), assembled once.

    Its CSC slots are A's entries plus every diagonal entry, so one
    pattern serves every dt and every Newton iterate of a run; fill only
    rewrites the values, in place, so each fill overwrites the matrix the
    previous one returned.  The result equals the sparse-algebra sum slot
    for slot unless an entry rounds to exactly 0, which that sum would
    have dropped from its pattern.
    """

    def __init__(self, A: sparse.csr_matrix):
        n = A.shape[0]
        idx = np.arange(n)
        coo = A.tocoo()
        self.matrix = sparse.csc_matrix(
            (np.concatenate([coo.data, np.zeros(n)]),
             (np.concatenate([coo.row, idx]), np.concatenate([coo.col, idx]))),
            shape=A.shape,
        )
        self._a = self.matrix.data.copy()  # A's values, 0 where A has no entry
        self._col = np.repeat(idx, np.diff(self.matrix.indptr))
        self._diag = np.flatnonzero(self.matrix.indices == self._col)  # ordered by column

    def fill(self, mass: np.ndarray, pdt: float, dudw: np.ndarray) -> sparse.csc_matrix:
        # same rounding as diags(mass) + pdt * (A @ diags(dudw)), entry by entry
        vals = self.matrix.data
        np.multiply(self._a, dudw[self._col], out=vals)
        vals *= pdt
        vals[self._diag] += mass
        return self.matrix


def _imex_update(
    man: DiscreteManifold,
    psi: np.ndarray,
    state: FlowState,
    dt: float,
    A: sparse.csr_matrix,
    jac: _JacobianPattern,
    newton_tol: float = 1e-12,
    newton_max_iter: int = 50,
) -> tuple[FlowState, np.ndarray, float]:
    p = state.p
    mass = man.mass
    w_old = state.u**p
    # (w+ - w)/dt = p (c Lap u+ - psi u+ + r w)  with u+ = (w+)^{1/p}, r
    # frozen; the chain-rule factor p keeps this on the same clock as the
    # u-form of the flow, so both schemes discretize one ODE
    pdt = p * dt
    target = w_old * (1.0 + pdt * state.r)
    scale = max(1.0, float(np.abs(target).max()))
    w = w_old.copy()
    for _ in range(newton_max_iter):
        u = w ** (1.0 / p)
        F = w + pdt * (A @ u) / mass - target
        if float(np.abs(F).max()) <= newton_tol * scale:
            break
        dudw = (1.0 / p) * w ** (1.0 / p - 1.0)
        delta = spsolve(jac.fill(mass, pdt, dudw), -mass * F)
        w = w + delta
        if w.min() <= 0.0:
            raise StepRejectedPositivity(f"imex Newton iterate lost positivity at dt={dt:.3e}")
    else:
        raise NewtonNoConvergence(
            f"imex inner Newton did not reach {newton_tol:.1e} in {newton_max_iter} iterations"
        )
    # u = w^{1/p} of the converged iterate
    return _settle(man, psi, state, dt, u, "imex")


def step_imex(
    man: DiscreteManifold, psi: np.ndarray, state: FlowState, dt: float
) -> FlowState:
    """One semi-implicit step of the fast-diffusion form w = u^p.

    The diffusion/potential part is treated implicitly in u+ (Newton on
    w+), the constraint-coupling term r w explicitly with r frozen at the
    step start; projection as in step_explicit.
    """
    psi = np.asarray(psi, dtype=float)
    _positive_field(man, state.u)
    A = _imex_operator(man, psi, state.c)
    return _imex_update(man, psi, state, dt, A, _JacobianPattern(A))[0]


def _stable_dt(
    man: DiscreteManifold, u_min: float, p: float, c: float, safety: float,
    dt_max: float | None,
) -> float:
    dt = safety * u_min ** (p - 1.0) * man._min_mass / (c * man._max_stiffness_diagonal)
    if dt_max is not None:
        dt = min(dt, dt_max)
    return max(dt, 1e-12)


def adaptive_dt(
    man: DiscreteManifold,
    state: FlowState,
    safety: float,
    dt_max: float | None = None,
) -> float:
    """Stability-limited explicit step: safety * min(u^{p-1}) * min(mass) / (c max S_ii).

    Clamped to [1e-12, dt_max]; dt_max is the configured dt0 when called
    from the run loop.
    """
    umin = float(state.u.min())
    if umin <= 0:
        raise NonPositiveField("state field must be positive")
    return _stable_dt(man, umin, state.p, state.c, safety, dt_max)


def sigma_shift(R0: np.ndarray) -> float:
    """max(1 - min R(0), 1): shifting R(t) by this keeps it >= 1 initially."""
    R0 = np.asarray(R0, dtype=float)
    return float(max(1.0 - R0.min(), 1.0))


def f_diagnostic(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> float:
    """Decay functional f = \\int (R - r)^2 u^{p+1} dv; zero exactly at stationary states."""
    psi = np.asarray(psi, dtype=float)
    R = pseudo_scalar_curvature(man, u, psi, c, p)
    r = rayleigh_r(man, u, psi, c, p)
    return integrate(man, (R - r) ** 2 * np.asarray(u, dtype=float) ** (p + 1.0))


def _fit_decay_rate(trace: Sequence[TraceRecord], psi: np.ndarray) -> float | None:
    """Least-squares slope of log r over the trailing half of the trace.

    Only meaningful for the zero-potential flow, where r is the (positive)
    Dirichlet energy and decays exponentially; returns None whenever the
    fit is not defined.
    """
    if np.any(np.asarray(psi) != 0.0):
        return None
    tail = trace[len(trace) // 2 :]
    if len(tail) < 5:
        return None
    rs = np.array([rec.r for rec in tail])
    ts = np.array([rec.t for rec in tail])
    if np.any(rs <= 0) or ts[-1] <= ts[0]:
        return None
    slope = np.polyfit(ts, np.log(rs), 1)[0]
    return float(-slope)


class _Stepper:
    """run_flow's stepper for _drive; the scheme is picked once, here.  The
    explicit step reuses the u_min and R that the trace row also shows."""

    def __init__(self, man: DiscreteManifold, psi: np.ndarray, state: FlowState,
                 cfg: FlowConfig):
        self.man, self.psi = man, psi
        self._enter(state, state.u ** (state.p + 1.0), float(state.u.min()))
        self.sigma = sigma_shift(self.R)
        p, c = state.p, state.c
        if cfg.scheme == "imex":
            A = _imex_operator(man, psi, c)
            jac = _JacobianPattern(A)
            self._update = lambda st, dt, R: _imex_update(man, psi, st, dt, A, jac)
            self._dt = lambda u_min: cfg.dt0
        else:
            self._update = lambda st, dt, R: _explicit_update(man, psi, st, dt, R)
            self._dt = lambda u_min: _stable_dt(man, u_min, p, c, cfg.safety, cfg.dt0)

    def _enter(self, state: FlowState, upw: np.ndarray, u_min: float) -> None:
        self.state, self.t, self.step, self.u_min = state, state.t, state.step, u_min
        self.R, self.f, self.res = _diagnose(self.man, self.psi, state, upw)
        self.R_min = float(self.R.min())

    def dt(self) -> float:
        return self._dt(self.u_min)

    def advance(self, dt: float) -> None:
        # a rejected step raises inside _update, before any attribute changes
        self._enter(*self._update(self.state, dt, self.R))
        sigma = self.sigma
        if self.R_min + sigma < 1.0 - 1e-6 * sigma:
            log.warning(
                "shifted-curvature bound grazed at step %d: min R + sigma = %.6e",
                self.step, self.R_min + sigma,
            )

    def record(self, dt: float) -> TraceRecord:
        state = self.state
        return TraceRecord(
            step=state.step,
            t=state.t,
            dt=dt,
            r=state.r,
            norm_err=state.norm_err,
            u_min=self.u_min,
            u_max=float(state.u.max()),
            f=self.f,
            R_min=self.R_min,
            R_max=float(self.R.max()),
            res_linf=self.res,
        )


def _drive(cfg: FlowConfig, stepper) -> tuple[list[TraceRecord], str]:
    """The run loop: step until converged, out of budget, or out of halvings.

    Returns (trace, stop).  The stepper exposes t, step, f and res of its
    current state, dt(), advance(dt), which raises StepRejectedPositivity
    and keeps its state when dt is too large, and record(dt), the trace row
    of its current state.  Rows are kept for step 0, every trace_every-th
    step and the final state.
    """
    trace = [stepper.record(0.0)]
    last_dt = 0.0
    while True:
        if stepper.f <= cfg.tol_f and stepper.res <= cfg.tol_res:
            stop = STOP_CONVERGED
            break
        if stepper.step >= cfg.max_steps:
            stop = STOP_MAX_STEPS
            break
        remaining = cfg.t_max - stepper.t
        if remaining <= 1e-14 * cfg.t_max:
            stop = STOP_TMAX
            break
        dt = min(stepper.dt(), remaining)
        for _ in range(cfg.max_halvings + 1):
            try:
                stepper.advance(dt)
                break
            except StepRejectedPositivity:
                dt *= 0.5
        else:
            stop = STOP_POSITIVITY
            break
        last_dt = dt
        if stepper.step % cfg.trace_every == 0:
            trace.append(stepper.record(dt))

    if trace[-1].step != stepper.step:
        trace.append(stepper.record(last_dt))
    return trace, stop


def run_flow(
    man: DiscreteManifold,
    psi: np.ndarray,
    u0: np.ndarray,
    cfg: FlowConfig,
) -> FlowResult:
    """Drive the flow from u0 until stationarity, a time/step budget, or failure.

    Convergence means f <= tol_f and res_linf <= tol_res simultaneously.
    Steps that lose positivity are retried with halved dt up to
    cfg.max_halvings times; exhausting the halvings ends the run with
    stop = "PositivityFailure" (the partial trace is still returned).
    """
    cfg.validate()
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (man.node_count,):
        raise SizeMismatch(f"psi has shape {psi.shape}, expected ({man.node_count},)")
    u = normalize(man, u0, cfg.p)
    if u.min() < 1e-10:
        raise IllConditionedInitialData(
            f"normalized initial field has min {u.min():.3e} < 1e-10"
        )
    stepper = _Stepper(man, psi, make_flow_state(man, psi, u, 0.0, 0, cfg.p, cfg.c), cfg)
    trace, stop = _drive(cfg, stepper)
    return FlowResult(
        final=stepper.state,
        trace=trace,
        stop=stop,
        r_infinity=stepper.state.r,
        decay_rate=_fit_decay_rate(trace, psi),
    )


def write_trace_csv(trace: Iterable[TraceRecord], fh: IO[str]) -> None:
    """Emit the trace with the fixed header, %.16e reals and LF line endings."""
    fh.write(TRACE_HEADER + "\n")
    for rec in trace:
        vals = [str(rec.step)] + [
            format(getattr(rec, name), ".16e") for name in _TRACE_FIELDS[1:]
        ]
        fh.write(",".join(vals) + "\n")


def read_trace_csv(fh: IO[str]) -> list[TraceRecord]:
    header = fh.readline().strip()
    if header != TRACE_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    out = []
    for line in fh:
        parts = line.strip().split(",")
        out.append(
            TraceRecord(int(parts[0]), *[float(x) for x in parts[1:]])
        )
    return out


def trace_column(trace: Sequence[TraceRecord], name: str) -> np.ndarray:
    """Extract one trace field as an array (handy for tests and scripts)."""
    return np.array([getattr(rec, name) for rec in trace], dtype=float)
