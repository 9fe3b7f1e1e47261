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
along exact trajectories) and the stationarity residual in max norm.  A
run's rows form a Trace, stored as one float64 buffer; FlowResult.trace
and read_trace_csv give one, and a TraceRecord is built per row read.

_drive is the package's one run loop: run_flow and gauss.run_gauss_flow
hand it a stepper, and it owns stopping, budgets, dt halving and thinning.
A stepper keeps its state as plain attributes, and the run builds its one
FlowState (GaussState) once, at the end.  Every per-step min and max is
manifold._min or _max, the reduction's value at a third of its fixed cost at
N = 128.  Every run is one start; spectral.relax_many runs its starts
through run_flow one by one, in order.

Each formula of the flow is written once, as a private kernel on arrays that
are already validated: R (_curvature), the checked constraint integral
(_integral), the projection (_project: two passes, stopping at an identity
pass; entry points copy), and f with the residual (_diagnose), each on one (N,)
field.  The public helpers validate and call them, and the run loop's _settle
is built from them, so a run composes the arithmetic the helpers expose.  The
operator -c Lap + psi comes from the manifold module, as its strong form
(_apply) and as its quadratic form over a given denominator (_quotient), and so
does the SPD solve of each imex Newton step: the Newton system is solved in its
symmetric form, and a step whose matrix is not SPD is rejected like one that
loses positivity, so the run loop halves its dt.  Newton is inexact: each
correction is solved only to the forcing tolerance _FORCING times what the exit
test max |F| <= _NEWTON_TOL max(1, |target|) could need of it, never tighter
than the solver's 1e-13 and never looser than 1e-2; the exit test itself checks
the true F.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CurvFlowError,
    IllConditionedInitialData,
    InnerSolverFailure,
    NewtonNoConvergence,
    NonPositiveField,
    StepRejectedPositivity,
    ZeroDenominator,
)
from .manifold import (
    _PCG_RTOL, DiscreteManifold, _apply, _check_field, _max, _min, _quotient, _solve,
)

__all__ = [
    "FlowState",
    "FlowConfig",
    "TraceRecord",
    "Trace",
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

# the imex inner Newton: tolerance on max |F| relative to max(1, |target|)
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
# margin of each correction's solve below the exit test (the forcing term)
_FORCING = 1e-3
# dt halvings of one step before a run stops with PositivityFailure
_MAX_HALVINGS = 40
# a time left within this fraction of dt past one step (the rounding of the
# clock) joins that step instead of becoming a step of its own
_SLIVER = 1e-6


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
    trace_every: int = 1
    p: float = 3.0
    c: float = 1.0

    def validate(self) -> "FlowConfig":
        if self.scheme not in ("explicit", "imex"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        for name in ("dt0", "safety", "tol_f", "tol_res", "t_max"):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive")
        for name in ("tol_f", "tol_res", "t_max", "p", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be nonnegative")
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
_WIDTH = len(_TRACE_FIELDS)
# one CSV row in one operation; "%.16e" % x gives the bytes of format(x, ".16e")
_CSV_ROW = "%d" + ",%.16e" * (_WIDTH - 1) + "\n"


class Trace(Sequence[TraceRecord]):
    """Read-only trace rows in one float64 buffer, in TRACE_HEADER order, the
    step exact up to 2**53.  A row is built as a TraceRecord when read, a
    slice is a Trace, and a Trace equals a Trace or list with the same rows."""

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self._buf = array("d", [getattr(rec, k) for rec in records for k in _TRACE_FIELDS])

    def _rows(self) -> Iterator[tuple[float, ...]]:
        return zip(*[iter(self._buf)] * _WIDTH)

    def _table(self) -> np.ndarray:
        # a view: hold it only briefly, since the buffer cannot grow under it
        return np.frombuffer(self._buf, dtype=np.float64).reshape(-1, _WIDTH)

    def __len__(self) -> int:
        return len(self._buf) // _WIDTH

    def __getitem__(self, i: int | slice) -> TraceRecord | Trace:
        rows = self._table()[i]
        if isinstance(i, slice):
            out = Trace()
            out._buf.frombytes(rows.tobytes())
            return out
        step, *vals = rows.tolist()
        return TraceRecord(int(step), *vals)

    def __iter__(self) -> Iterator[TraceRecord]:
        return (TraceRecord(int(step), *vals) for step, *vals in self._rows())

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return self._buf == other._buf
        return list(self) == other if isinstance(other, list) else NotImplemented


@dataclass
class FlowResult:
    """A run's final state, its Trace, why it stopped, and r at the end."""

    final: FlowState
    trace: Trace
    stop: str
    r_infinity: float
    decay_rate: float | None = None


def _positive_field(man: DiscreteManifold, u: np.ndarray) -> np.ndarray:
    u = _check_field(man, u, "u")
    if not np.all(u > 0):
        raise NonPositiveField("u must be strictly positive everywhere")
    return u


def _curvature(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> np.ndarray:
    """R = u^{-p} (-c Lap(u) + psi u)."""
    return u ** (-p) * _apply(man, u, psi, c)


def _integral(mass: np.ndarray, u: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """(\\int u^{p+1} dv, u^{p+1}); zero or non-finite raises ZeroDenominator."""
    upw = u ** (p + 1.0)
    s = float(upw.dot(mass))
    if not 0 < abs(s) < math.inf:  # NaN fails too
        raise ZeroDenominator(f"constraint integral is {s}")
    return s, upw


def _project(
    mass: np.ndarray, u: np.ndarray, u_min: float, p: float
) -> tuple[np.ndarray, float, np.ndarray, float, float]:
    """Scale u onto \\int u^{p+1} dv = 1 in two passes, carrying u_min = u.min().

    The second pass removes the O(eps) residue the rounded (p+1)-th root
    leaves behind; a scale k of exactly 1.0 ends the loop, as u / k is then u.
    Returns (u, u.min(), u^{p+1}, the integral before, after); u may be the input.
    """
    e = 1.0 / (p + 1.0)
    s, upw = _integral(mass, u, p)
    before = s
    for _ in range(2):
        k = s**e
        if k == 1.0:
            break
        u = u / k
        u_min = u_min / k  # rounding is monotone, so this is exactly u.min()
        s, upw = _integral(mass, u, p)
    return u, u_min, upw, before, s


def _diagnose(
    man: DiscreteManifold, psi: np.ndarray, u: np.ndarray, c: float, p: float, r: float,
    upw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """R, R - r, f = \\int (R - r)^2 u^{p+1} dv and the stationarity residual
    max |u^p (R - r)|, given upw = u^{p+1}."""
    R = _curvature(man, u, psi, c, p)
    dev = R - r
    return R, dev, float((dev * dev * upw).dot(man.mass)), _max(abs(upw / u * dev))


def pseudo_scalar_curvature(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> np.ndarray:
    """R = u^{-p} (-c Lap(u) + psi u), the scalar invariant the flow equalizes."""
    return _curvature(man, _positive_field(man, u), _check_field(man, psi, "psi"), c, p)


def rayleigh_r(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> float:
    """(c u^T S u + \\int psi u^2) / \\int u^{p+1}, the u^{p+1}-weighted mean of R."""
    u = _check_field(man, u, "u")
    psi = _check_field(man, psi, "psi")
    return _quotient(man, u, psi, c, _integral(man.mass, u, p)[0])


def normalize(man: DiscreteManifold, u: np.ndarray, p: float) -> np.ndarray:
    """Scale u so the constraint integral \\int u^{p+1} dv equals 1 within a few ulps."""
    u = _positive_field(man, u)
    out = _project(man.mass, u, float(u.min()), p)[0]
    return out.copy() if out is u else out


def make_flow_state(
    man: DiscreteManifold,
    psi: np.ndarray,
    u: np.ndarray,
    t: float = 0.0,
    step: int = 0,
    p: float = 3.0,
    c: float = 1.0,
) -> FlowState:
    """Bundle a copy of a field into a FlowState with its Rayleigh quotient cached."""
    u = _positive_field(man, u).copy()  # the caller's array may change; the cached r may not
    r = rayleigh_r(man, u, psi, c, p)
    return FlowState(u=u, t=float(t), step=int(step), p=float(p), c=float(c), r=r)


def f_diagnostic(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> float:
    """Decay functional f = \\int (R - r)^2 u^{p+1} dv; zero exactly at stationary states."""
    u = _positive_field(man, u)
    psi = _check_field(man, psi, "psi")
    s, upw = _integral(man.mass, u, p)
    return _diagnose(man, psi, u, c, p, _quotient(man, u, psi, c, s), upw)[2]


def _settle(
    man: DiscreteManifold, psi: np.ndarray, unew: np.ndarray, dt: float, p: float, c: float,
    scheme: str,
) -> tuple[np.ndarray, float, float, np.ndarray, float]:
    """Check an accepted update and project it onto the constraint.

    Checks the update once and forms u^{p+1} once per projection pass.
    Returns (u, r, norm_err, u^{p+1}, u.min()); the fourth is what
    _diagnose needs.
    """
    m = _min(unew)
    if m <= 0.0:
        raise StepRejectedPositivity(f"{scheme} step dt={dt:.3e} lost positivity")
    if math.isnan(m):
        raise NonPositiveField("u must be strictly positive everywhere")
    u, u_min, upw, before, s = _project(man.mass, unew, m, p)
    drift = s - 1.0
    if abs(drift) > 1e-13:
        raise CurvFlowError(f"projection left constraint drift {drift:.3e}")
    return u, _quotient(man, u, psi, c, s), before - 1.0, upw, u_min


def _stepped(state: FlowState, dt: float, u: np.ndarray, r: float, norm_err: float, *_):
    """The FlowState one step of dt after `state`, from what _settle returns."""
    return FlowState(u=u, t=state.t + dt, step=state.step + 1, p=state.p, c=state.c,
                     r=r, norm_err=norm_err)


def _explicit_update(
    man: DiscreteManifold, psi: np.ndarray, u: np.ndarray, dev: np.ndarray, dt: float,
    p: float, c: float,
) -> tuple[np.ndarray, float, float, np.ndarray, float]:
    # u^{1-p}(c Lap u - psi u) = -R u, so the update is u (1 + dt (r - R)), the same
    # bits as 1 + -dt dev; from 32768 nodes up numpy adds into that temporary in place
    return _settle(man, psi, u * (1.0 + -dt * dev), dt, p, c, "explicit")


def step_explicit(
    man: DiscreteManifold, psi: np.ndarray, state: FlowState, dt: float
) -> FlowState:
    """One explicit Euler step followed by projection onto the constraint."""
    psi, u, dt = _check_field(man, psi, "psi"), _positive_field(man, state.u), float(dt)
    dev = _curvature(man, u, psi, state.c, state.p) - state.r
    return _stepped(state, dt, *_explicit_update(man, psi, u, dev, dt, state.p, state.c))


def _imex_update(
    man: DiscreteManifold, psi: np.ndarray, u: np.ndarray, r: float, dt: float, p: float, c: float
) -> tuple[np.ndarray, float, float, np.ndarray, float]:
    mass = man.mass
    w_old = u**p
    # (w+ - w)/dt = p (c Lap u+ - psi u+ + r w)  with u+ = (w+)^{1/p}, r
    # frozen; the chain-rule factor p keeps this on the same clock as the
    # u-form of the flow, so both schemes discretize one ODE
    pdt = p * dt
    target = w_old * (1.0 + pdt * r)
    scale = max(1.0, _max(np.abs(target)))
    pdt_psi, neg_mass = pdt * psi, -mass
    w = w_old.copy()
    for _ in range(_NEWTON_MAX_ITER):
        u = w ** (1.0 / p)
        F = w + pdt * _apply(man, u, psi, c) - target
        F_max = _max(np.abs(F))
        if F_max <= _NEWTON_TOL * scale:
            break
        rtol = max(_PCG_RTOL, min(1e-2, _FORCING * _NEWTON_TOL * scale / F_max))
        # J = diag(M) + pdt A diag(du/dw) with A = c S + diag(M psi); in
        # y = (du/dw) delta, J delta = -M F is the symmetric
        # (pdt A + diag(M / (du/dw))) y = -M F, with 1 / (du/dw) = p u^{p-1}
        dwdu = p * u ** (p - 1.0)
        try:
            y = _solve(man, pdt * c, mass * (pdt_psi + dwdu), neg_mass * F, None, rtol)
        except InnerSolverFailure as exc:
            # not SPD at this dt; as dt -> 0 the matrix tends to diag(M / (du/dw))
            raise StepRejectedPositivity(f"imex Newton matrix at dt={dt:.3e}: {exc}") from exc
        w = w + y * dwdu
        if _min(w) <= 0.0:
            raise StepRejectedPositivity(f"imex Newton iterate lost positivity at dt={dt:.3e}")
    else:
        raise NewtonNoConvergence(
            f"imex inner Newton did not reach {_NEWTON_TOL:.1e} "
            f"in {_NEWTON_MAX_ITER} iterations"
        )
    # u = w^{1/p} of the converged iterate
    return _settle(man, psi, u, dt, p, c, "imex")


def step_imex(
    man: DiscreteManifold, psi: np.ndarray, state: FlowState, dt: float
) -> FlowState:
    """One semi-implicit step of the fast-diffusion form w = u^p.

    The diffusion/potential part is treated implicitly in u+ (Newton on
    w+), the constraint-coupling term r w explicitly with r frozen at the
    step start; projection as in step_explicit.
    """
    psi, u, dt = _check_field(man, psi, "psi"), _positive_field(man, state.u), float(dt)
    return _stepped(state, dt, *_imex_update(man, psi, u, state.r, dt, state.p, state.c))


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
    umin = _min(state.u)
    if not umin > 0:  # NaN fails too
        raise NonPositiveField("state field must be positive")
    return _stable_dt(man, umin, state.p, state.c, safety, dt_max)


def sigma_shift(R0: np.ndarray) -> float:
    """max(1 - min R(0), 1): shifting R(t) by this keeps it >= 1 initially."""
    R0 = np.asarray(R0, dtype=float)
    return float(max(1.0 - R0.min(), 1.0))


def _fit_decay_rate(trace: Trace, psi: np.ndarray) -> float | None:
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
    rs, ts = trace_column(tail, "r"), trace_column(tail, "t")
    if np.any(rs <= 0) or ts[-1] <= ts[0]:
        return None
    slope = np.polyfit(ts, np.log(rs), 1)[0]
    return float(-slope)


class _Stepper:
    """run_flow's stepper for _drive; the scheme is picked once, here.  Its
    state is plain attributes; run_flow builds the one FlowState at the end.
    The explicit step reuses the u_min, R and R - r that the trace row and f
    take.  The first graze of the shifted-curvature bound is a warning, later
    ones are debug lines, so a grazing run does not flood stderr."""

    def __init__(self, man: DiscreteManifold, psi: np.ndarray, u0: np.ndarray,
                 cfg: FlowConfig):
        """The stepper at u0 normalized; psi is checked already."""
        p, c = float(cfg.p), float(cfg.c)
        u0 = _positive_field(man, u0)
        # normalize and make_flow_state, keeping the u^{p+1} and u.min() they discard
        u, u_min, upw, _, s = _project(man.mass, u0, float(u0.min()), p)
        u = u.copy() if u is u0 else u  # u0 may be normalized already
        if u_min < 1e-10:
            raise IllConditionedInitialData(f"normalized initial field has min {u_min:.3e} < 1e-10")
        self.man, self.psi, self.p, self.c, self.t, self.step = man, psi, p, c, 0.0, 0
        self._enter(u, _quotient(man, u, psi, c, s), 0.0, upw, u_min)
        self.sigma = sigma_shift(self.R)
        self._graze_level = logging.WARNING
        # closures never over self, which would keep every stepper until the cycle collector runs
        if cfg.scheme == "imex":
            self._update = lambda u, r, dev, dt: _imex_update(man, psi, u, r, dt, p, c)
            self._dt = lambda u_min: cfg.dt0
        else:
            self._update = lambda u, r, dev, dt: _explicit_update(man, psi, u, dev, dt, p, c)
            self._dt = lambda u_min: _stable_dt(man, u_min, p, c, cfg.safety, cfg.dt0)

    def _enter(self, u: np.ndarray, r: float, norm_err: float, upw: np.ndarray, u_min: float):
        self.u, self.r, self.norm_err, self.u_min = u, r, norm_err, u_min
        self.R, self.dev, self.f, self.res = _diagnose(self.man, self.psi, u, self.c, self.p,
                                                       r, upw)
        if not (self.f < math.inf and self.res < math.inf):  # NaN fails too
            raise CurvFlowError(f"f = {self.f}, res = {self.res}: not finite at step {self.step}")
        self.R_min = _min(self.R)

    def dt(self) -> float:
        return self._dt(self.u_min)

    def advance(self, dt: float) -> None:
        # a rejected step raises inside _update, before any attribute changes
        new = self._update(self.u, self.r, self.dev, dt)
        self.t, self.step = self.t + dt, self.step + 1
        self._enter(*new)
        sigma = self.sigma
        if self.R_min + sigma < 1.0 - 1e-6 * sigma:
            log.log(
                self._graze_level,
                "shifted-curvature bound grazed at step %d: min R + sigma = %.6e",
                self.step, self.R_min + sigma,
            )
            self._graze_level = logging.DEBUG

    def record(self, dt: float) -> tuple[float, ...]:
        return (self.step, self.t, dt, self.r, self.norm_err, self.u_min, _max(self.u),
                self.f, self.R_min, _max(self.R), self.res)


def _drive(cfg: FlowConfig, stepper) -> tuple[Trace, str]:
    """The run loop: step until converged, out of budget, or out of halvings.

    Returns (trace, stop).  The stepper exposes t, step, f and res of its
    current state, dt(), advance(dt), which raises StepRejectedPositivity
    and keeps its state when dt is too large, and record(dt), the values of
    the trace row of its current state.  Rows are kept for step 0, every
    trace_every-th step and the final state.
    """
    tol_f, tol_res, max_steps, t_max = cfg.tol_f, cfg.tol_res, cfg.max_steps, cfg.t_max
    trace_every = cfg.trace_every
    trace = Trace()
    append = trace._buf.extend
    append(stepper.record(0.0))
    last_dt = 0.0
    while True:
        if stepper.f <= tol_f and stepper.res <= tol_res:
            stop = STOP_CONVERGED
            break
        if stepper.step >= max_steps:
            stop = STOP_MAX_STEPS
            break
        remaining = t_max - stepper.t
        if remaining <= 1e-14 * t_max:
            stop = STOP_TMAX
            break
        dt = stepper.dt()
        if remaining <= dt * (1.0 + _SLIVER):
            dt = remaining
        for _ in range(_MAX_HALVINGS + 1):
            try:
                stepper.advance(dt)
                break
            except StepRejectedPositivity:
                dt *= 0.5
        else:
            stop = STOP_POSITIVITY
            break
        last_dt = dt
        if stepper.step % trace_every == 0:
            append(stepper.record(dt))

    if trace._buf[-_WIDTH] != stepper.step:
        append(stepper.record(last_dt))
    return trace, stop


def run_flow(
    man: DiscreteManifold,
    psi: np.ndarray,
    u0: np.ndarray,
    cfg: FlowConfig,
) -> FlowResult:
    """Drive the flow from u0 until stationarity, a time/step budget, or failure.

    Convergence means f <= tol_f and res_linf <= tol_res simultaneously.
    Steps that lose positivity (or whose imex Newton matrix is not SPD) are
    retried with halved dt up to _MAX_HALVINGS times; exhausting the
    halvings ends the run with stop = "PositivityFailure" (the partial
    trace is still returned).
    """
    cfg.validate()
    psi = _check_field(man, psi, "psi")
    # overflow surfaces as a non-finite integral, f or residual, each of
    # which raises; one context for the run, not one per kernel call
    with np.errstate(over="ignore", invalid="ignore"):
        s = _Stepper(man, psi, u0, cfg)
        trace, stop = _drive(cfg, s)
    final = FlowState(u=s.u, t=s.t, step=s.step, p=s.p, c=s.c, r=s.r, norm_err=s.norm_err)
    return FlowResult(final=final, trace=trace, stop=stop, r_infinity=s.r,
                      decay_rate=_fit_decay_rate(trace, psi))


def write_trace_csv(trace: Iterable[TraceRecord], fh: IO[str]) -> None:
    """Emit any iterable of TraceRecord with the fixed header, %.16e reals and
    LF line endings, formatting each row in one operation."""
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    fh.write(TRACE_HEADER + "\n")
    fh.writelines(map(_CSV_ROW.__mod__, trace._rows()))


def read_trace_csv(fh: IO[str]) -> Trace:
    """Parse a trace CSV; a malformed row raises ValueError naming its line."""
    header = fh.readline().strip()
    if header != TRACE_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    trace = Trace()
    for lineno, line in enumerate(fh, 2):
        parts = line.split(",")
        try:
            if len(parts) != _WIDTH or abs(int(parts[0])) > 2**53:
                raise ValueError(f"want {_WIDTH} fields, the step an integer up to 2**53")
            trace._buf.extend(map(float, parts))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    return trace


def trace_column(trace: Sequence[TraceRecord], name: str) -> np.ndarray:
    """Copy one trace column out as a float64 array (handy for tests and scripts)."""
    if name not in _TRACE_FIELDS:
        raise AttributeError(f"trace has no column {name!r}")
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    return trace._table()[:, _TRACE_FIELDS.index(name)].copy()
