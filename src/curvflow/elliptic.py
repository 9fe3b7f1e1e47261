"""Constrained stationary solver for the flow's limit equation.

Solves, for (u, r) with u > 0,

    -c Lap(u) + psi u = r u^p,      \\int u^{p+1} dv = 1,

by a damped Newton iteration on the pair.  Multiplying the field equations
by the mass vector makes the (N+1)-dimensional bordered Jacobian symmetric:
the border column -M u^p is (up to the factor p+1) the transpose of the
constraint row, so one sparse symmetric indefinite solve per iteration
suffices.  Its block c S + diag(M (psi - p r u^{p-1})) is the package's one
assembled form of -c Lap + psi.  This path shares no time-stepping code or
solver with the flow module and serves as its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import NewtonNoConvergence, NonPositiveField, PositivityLost, ZeroDenominator
from .manifold import DiscreteManifold, _apply, _check_field, _quotient, integrate

__all__ = ["NewtonResult", "newton_constrained", "residual_linf"]

_TOL = 1e-12  # Newton's target for max(|field defect|_inf, |constraint|)
_MAX_ITER = 50  # Newton iterations before NewtonNoConvergence


@dataclass
class NewtonResult:
    u: np.ndarray
    r: float
    iterations: int
    residual: float
    fnorm_history: list[float] = field(default_factory=list)


def residual_linf(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float, r: float
) -> float:
    """Max-norm of the stationary defect -c Lap(u) + psi u - r u^p."""
    u = _check_field(man, u, "u")
    psi = _check_field(man, psi, "psi")
    defect = _apply(man, u, psi, c) - r * u**p
    return float(np.max(np.abs(defect)))


def _fnorm(F1: np.ndarray, F2: float) -> float:
    return max(float(np.max(np.abs(F1))), abs(F2))


def newton_constrained(
    man: DiscreteManifold,
    psi: np.ndarray,
    c: float,
    p: float,
    u_init: np.ndarray,
) -> NewtonResult:
    """Damped Newton for the constrained stationary pair (u, r).

    The multiplier starts from the Rayleigh quotient of u_init.  Steps are
    halved until the combined residual max(|field defect|_inf, |constraint|)
    decreases and the iterate stays positive; running out of halvings with
    positivity as the obstacle raises PositivityLost, anything else that
    stalls (or exceeding _MAX_ITER) raises NewtonNoConvergence.
    """
    u = _check_field(man, u_init, "u_init").copy()  # returned as is when converged already
    if not np.all(u > 0):
        raise NonPositiveField("u_init must be strictly positive")
    psi = _check_field(man, psi, "psi")
    mass = man.mass

    denom = integrate(man, u ** (p + 1.0))
    if denom == 0 or not math.isfinite(denom):
        raise ZeroDenominator(f"constraint integral of u_init is {denom}")
    r = _quotient(man, u, psi, c, denom)
    cS = c * man.stiffness

    def residuals(u, r):
        F1 = _apply(man, u, psi, c) - r * u**p
        F2 = integrate(man, u ** (p + 1.0)) - 1.0
        return F1, F2

    F1, F2 = residuals(u, r)
    fnorm = _fnorm(F1, F2)
    history = [fnorm]

    for it in range(_MAX_ITER):
        if fnorm <= _TOL:
            return NewtonResult(u=u, r=r, iterations=it, residual=fnorm,
                                fnorm_history=history)
        # symmetric bordered system, with A = c S + diag(M psi):
        #   [ A - p r M diag(u^{p-1})   -M u^p ] [du]   [ -M F1      ]
        #   [ (-M u^p)^T                  0    ] [dr] = [ F2 / (p+1) ]
        g = mass * u**p
        Ahat = cS + sparse.diags(mass * (psi - p * r * u ** (p - 1.0)))
        K = sparse.bmat(
            [[Ahat, -g.reshape(-1, 1)], [-g.reshape(1, -1), None]], format="csc"
        )
        rhs = np.concatenate([-mass * F1, [F2 / (p + 1.0)]])
        sol = spsolve(K, rhs)
        du, dr = sol[:-1], sol[-1]

        lam = 1.0
        accepted = False
        positivity_blocked = True
        while lam >= 2.0**-30:
            u_try = u + lam * du
            if u_try.min() <= 0.0:
                lam *= 0.5
                continue
            positivity_blocked = False
            r_try = r + lam * dr
            F1_try, F2_try = residuals(u_try, r_try)
            fnorm_try = _fnorm(F1_try, F2_try)
            if fnorm_try < fnorm:
                u, r = u_try, float(r_try)
                F1, F2, fnorm = F1_try, F2_try, fnorm_try
                history.append(fnorm)
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if positivity_blocked:
                raise PositivityLost(
                    f"Newton direction leaves the positive cone at iteration {it}"
                )
            raise NewtonNoConvergence(
                f"damping stalled at iteration {it} with residual {fnorm:.3e}"
            )

    if fnorm <= _TOL:
        return NewtonResult(u=u, r=r, iterations=_MAX_ITER, residual=fnorm,
                            fnorm_history=history)
    raise NewtonNoConvergence(
        f"residual {fnorm:.3e} after {_MAX_ITER} iterations (tol {_TOL:.1e})"
    )
