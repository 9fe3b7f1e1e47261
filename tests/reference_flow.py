"""The flow's formulas written out plainly, from numpy and the manifold
primitives only: the independent copy the tests check curvflow.flow's
kernels, its public helpers and spectral.energy_E against, bit for bit.

Each function evaluates in the same order of operations as the package
does, so equality is exact; nothing here is imported from curvflow.flow.
"""

from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from curvflow.manifold import dirichlet_energy, integrate, laplacian_apply


def curvature(man, u, psi, c, p):
    """R = u^{-p} (-c Lap(u) + psi u)."""
    return u ** (-p) * (-c * laplacian_apply(man, u) + psi * u)


def rayleigh(man, u, psi, c, p):
    """r = (c \\int |grad u|^2 + \\int psi u^2) / \\int u^{p+1}."""
    return (c * dirichlet_energy(man, u) + integrate(man, psi * u * u)) / integrate(
        man, u ** (p + 1.0))


def normalize(man, u, p):
    """Two passes of u / (\\int u^{p+1})^{1/(p+1)}."""
    for _ in range(2):
        u = u / integrate(man, u ** (p + 1.0)) ** (1.0 / (p + 1.0))
    return u


def decay(man, u, psi, c, p):
    """f = \\int (R - r)^2 u^{p+1}."""
    return integrate(man, (curvature(man, u, psi, c, p) - rayleigh(man, u, psi, c, p)) ** 2
                     * u ** (p + 1.0))


def residual(man, u, psi, c, p):
    """max |u^p (R - r)|, with u^p formed as u^{p+1} / u, as the trace's res_linf is."""
    dev = curvature(man, u, psi, c, p) - rayleigh(man, u, psi, c, p)
    return float(np.max(np.abs(u ** (p + 1.0) / u * dev)))


def energy(man, u, psi, c, p):
    """E = (c \\int |grad u|^2 + \\int psi u^2) / (\\int |u|^{p+1})^{2/(p+1)}."""
    return (c * dirichlet_energy(man, u) + integrate(man, psi * u * u)) / integrate(
        man, np.abs(u) ** (p + 1.0)) ** (2.0 / (p + 1.0))


def settle(man, psi, c, p, t, step, dt, unew):
    """The accepted update unew projected, with everything a trace row shows."""
    u = normalize(man, unew, p)
    assert abs(integrate(man, u ** (p + 1.0)) - 1.0) <= 1e-13
    return SimpleNamespace(
        u=u, t=t + dt, step=step + 1, r=rayleigh(man, u, psi, c, p),
        norm_err=integrate(man, unew ** (p + 1.0)) - 1.0,
        R=curvature(man, u, psi, c, p), f=decay(man, u, psi, c, p),
        res=residual(man, u, psi, c, p),
    )


def explicit(man, psi, c, p, u, t, step, dt):
    """u (1 + dt (r - R)), then settled."""
    R = curvature(man, u, psi, c, p)
    unew = u * (1.0 + dt * (rayleigh(man, u, psi, c, p) - R))
    return settle(man, psi, c, p, t, step, dt, unew)


def newton_matrix(A, mass, pdt, dudw):
    """diags(M) + pdt A diags(du/dw), assembled with sparse algebra."""
    return (sparse.diags(mass) + pdt * (A @ sparse.diags(dudw))).tocsc()


def imex(man, psi, c, p, u, t, step, dt):
    """Newton on w+ + p dt (A u+)/M = w (1 + p dt r) with u+ = (w+)^{1/p}, then settled."""
    A = (c * man.stiffness + sparse.diags(man.mass * psi)).tocsr()
    mass = man.mass
    w_old = u**p
    pdt = p * dt
    target = w_old * (1.0 + pdt * rayleigh(man, u, psi, c, p))
    scale = max(1.0, float(np.max(np.abs(target))))
    w = w_old.copy()
    for _ in range(50):
        F = w + pdt * (A @ w ** (1.0 / p)) / mass - target
        if float(np.max(np.abs(F))) <= 1e-12 * scale:
            break
        dudw = (1.0 / p) * w ** (1.0 / p - 1.0)
        w = w + spsolve(newton_matrix(A, mass, pdt, dudw), -mass * F)
    return settle(man, psi, c, p, t, step, dt, w ** (1.0 / p))


def stable_dt(man, u, p, c, safety, dt_max):
    """safety min(u)^{p-1} min(M) / (c max S_ii), clamped to [1e-12, dt_max]."""
    dt = safety * u.min() ** (p - 1.0) * man.mass.min() / (c * man.stiffness.diagonal().max())
    if dt_max is not None:
        dt = min(dt, dt_max)
    return max(dt, 1e-12)
