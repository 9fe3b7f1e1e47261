"""Log-conformal curvature flow on two-dimensional manifolds.

Here the unknown is the conformal exponent: the metric weight is e^{2u}
and u may take any real sign.  The flow

    u_t = e^{-2u} (Lap(u) - psi) + r,      r = \\int psi dv / \\int e^{2u} dv,

drives the curvature-like quantity K = e^{-2u} (-Lap(u) + psi) toward the
constant r.  With this r the total weighted area \\int e^{2u} dv is a
first integral of the exact dynamics (the Laplacian integrates to zero),
so no projection is applied: the recorded area drift is itself the
consistency signal.  Trace rows reuse the flow schema with norm_err
holding the relative area drift and the R columns holding K extrema.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import CurvFlowError, DimensionMismatch
from .flow import FlowConfig, FlowResult, _drive
from .manifold import (
    DiscreteManifold, _check_field, _laplacian, _max, _min, integrate, laplacian_apply,
)

__all__ = ["GaussState", "k_psi", "gauss_r", "run_gauss_flow"]

log = logging.getLogger("curvflow.gauss")


@dataclass(frozen=True)
class GaussState:
    u: np.ndarray
    t: float
    step: int
    r: float


def _check_2d(man: DiscreteManifold) -> None:
    if man.dim != 2:
        raise DimensionMismatch(f"defined for 2-dimensional manifolds, got dim {man.dim}")


def _curvature(lap: np.ndarray, psi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K = (-Lap(u) + psi) / w, given Lap(u) and w = e^{2u}."""
    return (-lap + psi) / w


def k_psi(man: DiscreteManifold, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """K = (-Lap(u) + psi) / e^{2u}, as the trace has it; psi itself at u = 0."""
    _check_2d(man)
    u = _check_field(man, u, "u")
    psi = _check_field(man, psi, "psi")
    return _curvature(laplacian_apply(man, u), psi, np.exp(2.0 * u))


def gauss_r(man: DiscreteManifold, u: np.ndarray, psi: np.ndarray) -> float:
    """\\int psi dv / \\int e^{2u} dv, the area-preserving choice of constant."""
    _check_2d(man)
    u = _check_field(man, u, "u")
    psi = _check_field(man, psi, "psi")
    return integrate(man, psi) / integrate(man, np.exp(2.0 * u))


class _GaussStepper:
    """run_gauss_flow's stepper for flow._drive; u may take any real sign."""

    def __init__(self, man: DiscreteManifold, psi: np.ndarray, u: np.ndarray,
                 cfg: FlowConfig):
        self.man, self.psi, self.u = man, psi, u
        self.t, self.step = 0.0, 0
        self.psi_total = integrate(man, psi)
        self._diagnose()
        self.area0 = self.area
        self._dt0, self._smax = cfg.dt0, man._max_stiffness_diagonal
        self._safe_mass = cfg.safety * man._min_mass

    def _diagnose(self) -> None:
        man, u = self.man, self.u
        w = np.exp(2.0 * u)
        self.area = integrate(man, w)
        self.r = r = self.psi_total / self.area
        lap = _laplacian(man, u)
        self.K = K = _curvature(lap, self.psi, w)
        dev = K - r
        self.f = float(man.mass.dot(dev * dev * w))
        self.res = _max(abs(lap - self.psi + r * w))
        if not (self.f < math.inf and self.res < math.inf):  # NaN fails too
            raise CurvFlowError(f"f = {self.f}, res = {self.res}: not finite at step {self.step}")

    def dt(self) -> float:
        stable = self._safe_mass * float(np.exp(2.0 * _min(self.u))) / self._smax
        return min(self._dt0, stable)

    def advance(self, dt: float) -> None:
        # e^{-2u} (Lap u - psi) + r = r - K
        u = self.u + dt * (self.r - self.K)
        if not np.isfinite(u).all():
            raise CurvFlowError(f"flow blew up at step {self.step + 1}")
        self.u, self.t, self.step = u, self.t + dt, self.step + 1
        self._diagnose()

    def record(self, dt: float) -> tuple[float, ...]:
        u, K = self.u, self.K
        return (self.step, self.t, dt, self.r, (self.area - self.area0) / self.area0,
                _min(u), _max(u), self.f, _min(K), _max(K), self.res)


def run_gauss_flow(
    man: DiscreteManifold,
    psi: np.ndarray,
    u0: np.ndarray,
    cfg: FlowConfig,
) -> FlowResult:
    """Explicit flow of the conformal exponent; any real u0 is accepted.

    Steps at min(dt0, safety * min(mass) * e^{2 min u} / max S_ii) and
    stops, through flow._drive, when f = \\int (K - r)^2 e^{2u} dv <= tol_f
    and the residual max |Lap u - psi + r e^{2u}| <= tol_res, or when a
    budget runs out.  The area integral is never renormalized.
    """
    cfg.validate()
    _check_2d(man)
    u = _check_field(man, u0, "u0").copy()
    psi = _check_field(man, psi, "psi")
    # overflow ends the run as CurvFlowError, from a non-finite u, f or
    # residual, so numpy's warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = _GaussStepper(man, psi, u, cfg)
        log.info(
            "normalizing term r = (total psi %.6e) / evolving area; this choice "
            "conserves the area integral (start %.6e)", s.psi_total, s.area0,
        )
        trace, stop = _drive(cfg, s)
    # built once from the stepper's plain attributes, not on every step
    final = GaussState(u=s.u, t=s.t, step=s.step, r=s.r)
    return FlowResult(final=final, trace=trace, stop=stop, r_infinity=s.r)
