"""Spectral quantities attached to the potential: ground eigenpair, the
scale-invariant energy, and a flow-based upper estimate of its infimum.

lambda1 solves the generalized symmetric problem

    (c S + M diag(psi)) v = lambda M v

for its smallest eigenvalue by inverse iteration with the fixed shift
min(psi) - max(1, 1e-12 |min psi|) (which makes the shifted operator
c S + diag(M (psi - shift)) positive definite).  Nothing here assembles the
operator: inner solves go through the manifold's Jacobi-PCG solve from the
current iterate, to its default tolerance 1e-13, and lambda and the
residual are its edge-form quotient and strong form.  The energy

    E(u) = (c \\int |grad u|^2 + \\int psi u^2) / (\\int |u|^{p+1})^{2/(p+1)}

is zero-homogeneous; its infimum over positive fields shares the sign of
lambda1.  relax_many relaxes seeded log-normal random fields with the
flow and yields each result and final energy in start order; estimate_Y
brackets the infimum from above by the least of them, and raises at the
first start that loses positivity.  relax_many draws all its start fields
at the first pull, through one smoother, and runs each start through
flow.run_flow only when it is pulled.  The estimate is an upper bound by
construction, which is why the CLI labels it Y_psi_upper.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import flow as flowmod
from .errors import (
    ConfigError,
    CurvFlowError,
    EigenNoConvergence,
    InvalidDimension,
    ZeroDenominator,
)
from .manifold import (DiscreteManifold, _apply, _check_field, _quotient, _smoother, _solve,
                       integrate)

__all__ = [
    "EigenResult",
    "lambda1",
    "energy_E",
    "relax_many",
    "estimate_Y",
    "y_sphere_constant",
    "lognormal_field",
]


@dataclass
class EigenResult:
    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


# inverse iteration: strong-form residual target and iteration cap
_EIG_TOL = 1e-10
_EIG_MAX_ITER = 500


def lambda1(man: DiscreteManifold, psi: np.ndarray, c: float = 1.0) -> EigenResult:
    """Smallest eigenvalue and positive normalized eigenfunction.

    Residual reported (and tested against _EIG_TOL) is the strong form
    |(-c Lap + psi) u1 - lambda u1|_inf / max(1, |lambda|) with u1
    normalized to \\int u1^2 dv = 1.  For a constant psi, lambda is within
    1 ulp of it on circles; on the 32^2 torus it can be 2-4 ulps off at
    |psi| >= 1e150.
    """
    psi = _check_field(man, psi, "psi")
    mass = man.mass
    # a gap of 1, or of 1e-12 |min psi| where 1 is lost in min psi's rounding
    low = float(psi.min())
    gap = max(1.0, 1e-12 * abs(low))
    shift = low - gap
    d = mass * (psi - shift) / gap  # c S / gap + diag(d) is SPD; x stays near v at any |psi|

    v = np.full(man.node_count, 1.0 / math.sqrt(man.volume))
    lam = _quotient(man, v, psi, c, float(np.dot(mass, v * v)))
    for it in range(1, _EIG_MAX_ITER + 1):
        x = _solve(man, c / gap, d, mass * v, x0=v / max((lam - shift) / gap, 1e-3))
        nrm = math.sqrt(float(np.dot(x, mass * x)))
        if nrm == 0.0 or not math.isfinite(nrm):
            raise EigenNoConvergence("inverse iteration collapsed to zero")
        v = x / nrm
        lam = _quotient(man, v, psi, c, float(np.dot(mass, v * v)))  # Rayleigh quotient
        strong = _apply(man, v, psi, c) - lam * v
        res = float(np.max(np.abs(strong))) / max(1.0, abs(lam))
        if res <= _EIG_TOL:
            if integrate(man, v) < 0:
                v = -v
            if v.min() <= 0:
                raise EigenNoConvergence("ground eigenfunction is not positive")
            return EigenResult(lambda1=lam, eigenfunction=v, iterations=it, residual=res)
    raise EigenNoConvergence(
        f"residual {res:.3e} after {_EIG_MAX_ITER} inverse iterations (tol {_EIG_TOL:.1e})"
    )


def energy_E(
    man: DiscreteManifold, u: np.ndarray, psi: np.ndarray, c: float, p: float
) -> float:
    """Scale-invariant energy; equals the Rayleigh r on the constraint surface."""
    u = _check_field(man, u, "u")
    psi = _check_field(man, psi, "psi")
    denom = integrate(man, np.abs(u) ** (p + 1.0)) ** (2.0 / (p + 1.0))
    if denom == 0:
        raise ZeroDenominator("energy of the zero field")
    return _quotient(man, u, psi, c, denom)


_AMPLITUDE = 0.4
_CORR_FRACTION = 0.125


def lognormal_field(man: DiscreteManifold, seed) -> np.ndarray:
    """Positive random field exp(_AMPLITUDE g), g a smooth unit-variance Gaussian.

    g is white noise pushed twice through the screened-Poisson smoother
    (M + ell^2 S)^{-1} M with correlation length ell = _CORR_FRACTION times
    the bounding-box diameter, then standardized against the mass
    weighting.  Deterministic in the seed (tuples make substreams).  The
    smoother is manifold._smoother: on a product of small factors it is
    diagonal in the factors' eigenbases, and the fields agree with SuperLU's
    to rounding (within 1e-12 relative); elsewhere it is one SuperLU
    factorization.
    """
    return _lognormal_fields(man, [seed])[0]


def _lognormal_fields(man: DiscreteManifold, seeds: list) -> list[np.ndarray]:
    """lognormal_field of each seed, all through one smoother; every seed
    is checked before the smoother is built."""
    rngs = []
    for seed in seeds:
        try:
            rngs.append(np.random.default_rng(seed))
        except (TypeError, ValueError) as exc:  # numpy's messages: non-integer, negative
            raise ConfigError(f"bad seed {seed!r}: {exc}") from exc
    solve = _smoother(man, _CORR_FRACTION * man.bbox_diameter)  # serves every pass of every field
    vol = man.volume
    fields = []
    for rng in rngs:
        g = rng.standard_normal(man.node_count)
        for _ in range(2):
            g = solve(man.mass * g)
        g = g - integrate(man, g) / vol
        std = math.sqrt(max(integrate(man, g * g) / vol, 1e-300))
        fields.append(np.exp(_AMPLITUDE * (g / std)))
    return fields


def relax_many(
    man: DiscreteManifold,
    psi: np.ndarray,
    cfg: flowmod.FlowConfig,
    n_starts: int,
    seed: int = 0,
) -> Iterator[tuple[flowmod.FlowResult, float]]:
    """Relax n_starts seeded log-normal fields with the flow and yield
    (FlowResult, E of its final field) for each start in order.

    Nothing runs before the first start is pulled.  The first pull draws
    every start's field through one smoother, which factors M + ell^2 S
    once, or on a product reuses each factor's cached eigenbasis; start i
    draws from substream (seed, i).  Each start then runs through
    flow.run_flow when it is pulled, so pulling start i has run starts 0..i
    only.  Every start is yielded, whatever its stop; a start whose run
    raises raises when it is pulled.  E uses cfg's p and c, the ones the
    flow ran with.
    """
    if n_starts < 1:
        raise ConfigError("n_starts must be >= 1")
    psi = np.asarray(psi, dtype=float)

    def starts():  # nested, so n_starts is checked before any start is pulled
        fields = _lognormal_fields(man, [(seed, i) for i in range(n_starts)])
        for u0 in fields:
            # through the module attribute, so a patched run_flow sees each start
            result = flowmod.run_flow(man, psi, u0, cfg)
            yield result, energy_E(man, result.final.u, psi, cfg.c, cfg.p)

    return starts()


def estimate_Y(
    man: DiscreteManifold,
    psi: np.ndarray,
    c: float,
    p: float,
    n_starts: int = 8,
    seed: int = 0,
    cfg: flowmod.FlowConfig | None = None,
) -> float:
    """Upper estimate of inf E over positive fields: the least final energy
    of relax_many's starts.  cfg defaults to imex at dt0 1e-3 up to t = 200;
    a given cfg must carry this p and c, since the flow runs with its own.

    Runs that merely hit the time or step budget still count (any positive
    field bounds inf E).  A positivity failure aborts at the first failing
    start: its last field is positive too, but cfg could not relax it, and
    its energy would weaken the estimate without a word; no later start
    runs.
    """
    if cfg is None:
        cfg = flowmod.FlowConfig(scheme="imex", dt0=1e-3, t_max=200.0, p=p, c=c)
    elif (cfg.p, cfg.c) != (p, c):
        raise ConfigError(f"cfg has p={cfg.p}, c={cfg.c}; estimate_Y got p={p}, c={c}")
    best = math.inf
    for i, (result, E) in enumerate(relax_many(man, psi, cfg, n_starts, seed)):
        if result.stop == flowmod.STOP_POSITIVITY:
            raise CurvFlowError(f"relaxation from start {i} lost positivity")
        best = min(best, E)
    return best


def y_sphere_constant(n: int) -> float:
    """n(n-1) omega_n^{2/n} with omega_n the volume of the unit n-sphere."""
    if n < 3:
        raise InvalidDimension(f"sphere constant defined for n >= 3, got {n}")
    omega = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return n * (n - 1) * omega ** (2.0 / n)
