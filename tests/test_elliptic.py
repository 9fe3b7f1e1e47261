import numpy as np
import pytest

from curvflow import elliptic
from curvflow.elliptic import newton_constrained, residual_linf
from curvflow.errors import (
    NewtonNoConvergence,
    NonPositiveField,
    PositivityLost,
    SizeMismatch,
    ZeroDenominator,
)
from curvflow.flow import FlowConfig, rayleigh_r, run_flow
from curvflow.manifold import build_torus_grid
from curvflow.spectral import lognormal_field

from conftest import TWO_PI

SQRT_2PI = np.sqrt(TWO_PI)


def test_exact_constant_start(circle64):
    V = circle64.volume
    u_init = np.full(64, V**-0.25)
    res = newton_constrained(circle64, 2.0 * np.ones(64), 1.0, 3.0, u_init)
    assert res.iterations <= 2
    # a start that is converged already comes back as a new array
    assert res.u is not u_init
    assert res.r == pytest.approx(2.0 * np.sqrt(V), rel=1e-12)
    np.testing.assert_allclose(res.u, V**-0.25, rtol=1e-12)
    assert res.residual <= 1e-12


def test_generic_constant_start(circle64):
    V = circle64.volume
    for s in (1.0, 0.7):
        res = newton_constrained(circle64, 2.0 * np.ones(64), 1.0, 3.0, np.full(64, s))
        assert res.iterations <= 10
        assert res.r == pytest.approx(2.0 * np.sqrt(V), rel=1e-12)
        np.testing.assert_allclose(res.u, V**-0.25, rtol=1e-11)


def test_rough_start_quadratic_tail(circle64):
    res = newton_constrained(circle64, -np.ones(64), 1.0, 3.0, lognormal_field(circle64, 5))
    assert res.residual <= 1e-12
    assert res.r == pytest.approx(-SQRT_2PI, rel=1e-10)
    tail = res.fnorm_history[-3:]
    for a, b in zip(tail, tail[1:]):
        assert b <= 1e3 * a**1.5


def test_newton_agrees_with_flow_limit(circle64):
    psi = -np.ones(64)
    cfg = FlowConfig(scheme="explicit", tol_f=1e-10, tol_res=1e-8, t_max=100.0)
    flow = run_flow(circle64, psi, lognormal_field(circle64, 3), cfg)
    assert flow.stop == "Converged"
    res = newton_constrained(circle64, psi, 1.0, 3.0, flow.final.u)
    assert res.iterations <= 5
    assert np.max(np.abs(res.u - flow.final.u)) <= 1e-6
    assert abs(res.r - flow.r_infinity) <= 1e-8


def test_newton_on_torus_nonconstant_psi(torus2d):
    man = torus2d
    n = man.node_count
    psi = -1.0 + 0.3 * np.cos(man.coordinates[:, 0])
    res = newton_constrained(man, psi, 1.0, 3.0, lognormal_field(man, 0))
    assert res.residual <= 1e-12
    assert residual_linf(man, res.u, psi, 1.0, 3.0, res.r) <= 1e-11
    assert res.u.shape == (n,)
    assert res.u.min() > 0
    # solution is genuinely nonconstant and r sits below the psi mean line
    assert res.u.max() / res.u.min() > 1.01
    assert res.r < 0


def test_positivity_lost(circle64, monkeypatch):
    monkeypatch.setattr(elliptic, "_MAX_ITER", 200)
    u0 = np.ones(64)
    u0[10] = 1e6
    with pytest.raises(PositivityLost):
        newton_constrained(circle64, -np.ones(64), 1.0, 3.0, u0)


def test_no_convergence_budget(circle64, monkeypatch):
    monkeypatch.setattr(elliptic, "_MAX_ITER", 1)
    with pytest.raises(NewtonNoConvergence):
        newton_constrained(circle64, -np.ones(64), 1.0, 3.0, lognormal_field(circle64, 5))


def test_degenerate_inputs(circle64):
    with pytest.raises(NonPositiveField):
        newton_constrained(circle64, -np.ones(64), 1.0, 3.0, np.zeros(64))
    with pytest.raises(ZeroDenominator):
        newton_constrained(circle64, -np.ones(64), 1.0, 3.0, np.full(64, 1e-100))
    with pytest.raises(SizeMismatch):
        newton_constrained(circle64, -np.ones(64), 1.0, 3.0, np.ones(65))
    with pytest.raises(SizeMismatch):
        residual_linf(circle64, np.ones(65), -np.ones(64), 1.0, 3.0, 0.0)


@pytest.mark.parametrize("shape", [(64, 1), (65,)])
def test_misshaped_psi_rejected(circle64, shape):
    # an (N, 1) psi would broadcast against (N,) fields into a wrong number
    u = 1.0 + 0.1 * np.cos(circle64.coordinates[:, 0])
    psi = np.ones(shape)
    with pytest.raises(SizeMismatch):
        residual_linf(circle64, u, psi, 1.0, 3.0, 0.5)
    with pytest.raises(SizeMismatch):
        newton_constrained(circle64, psi, 1.0, 3.0, u)


def test_residual_exact_constant(circle64):
    V = circle64.volume
    u = np.full(64, V**-0.25)
    assert residual_linf(circle64, u, -np.ones(64), 1.0, 3.0, -np.sqrt(V)) <= 1e-12


def test_residual_linear_in_perturbation(circle64):
    V = circle64.volume
    u0 = np.full(64, V**-0.25)
    r0 = -np.sqrt(V)
    x = circle64.coordinates[:, 0]
    psi = -np.ones(64)
    vals = [
        residual_linf(circle64, u0 + d * np.cos(x), psi, 1.0, 3.0, r0)
        for d in (1e-5, 1e-4, 1e-3)
    ]
    assert vals[1] / vals[0] == pytest.approx(10.0, rel=1e-2)
    assert vals[2] / vals[1] == pytest.approx(10.0, rel=3e-2)


def test_residual_matches_flow_trace(circle64):
    psi = -np.ones(64)
    cfg = FlowConfig(scheme="explicit", tol_f=1e-10, t_max=1.0)
    res = run_flow(circle64, psi, lognormal_field(circle64, 7), cfg)
    state = res.final
    direct = residual_linf(circle64, state.u, psi, state.c, state.p, state.r)
    assert direct == pytest.approx(res.trace[-1].res_linf, rel=1e-10)


def test_residual_vanishes_at_rayleigh_pair_only_when_stationary(circle64):
    # generic field: residual is far from zero even with the optimal scalar r
    u = lognormal_field(circle64, 11)
    psi = -np.ones(64)
    r = rayleigh_r(circle64, u, psi, 1.0, 3.0)
    assert residual_linf(circle64, u, psi, 1.0, 3.0, r) > 1e-3
