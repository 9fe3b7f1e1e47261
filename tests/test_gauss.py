import logging

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from curvflow.errors import DimensionMismatch, SizeMismatch
from curvflow.flow import FlowConfig, trace_column
from curvflow.gauss import gauss_r, k_psi, run_gauss_flow
from curvflow.manifold import integrate, laplacian_apply


def stationary_oracle(man, psi, area0, tol=1e-12, max_iter=50):
    # Newton for Lap(u) = psi - r e^{2u} with \int e^{2u} dv = area0,
    # solved on the pair (u, r) through the mass-weighted bordered system
    S = man.stiffness
    M = man.mass
    u = np.zeros(man.node_count)
    r = integrate(man, psi) / area0
    for _ in range(max_iter):
        w = np.exp(2.0 * u)
        F1 = -(S @ u) - M * psi + r * M * w
        F2 = integrate(man, w) - area0
        if max(np.max(np.abs(F1)), abs(F2)) <= tol:
            return u, r
        J = sparse.bmat(
            [
                [-S + 2.0 * r * sparse.diags(M * w), (M * w).reshape(-1, 1)],
                [2.0 * (M * w).reshape(1, -1), None],
            ],
            format="csc",
        )
        sol = spsolve(J, -np.concatenate([F1, [F2]]))
        u = u + sol[:-1]
        r = r + sol[-1]
    raise AssertionError("oracle did not converge")


def test_k_zero_exponent(torus2d):
    psi = np.cos(torus2d.coordinates[:, 0])
    np.testing.assert_array_equal(k_psi(torus2d, np.zeros(torus2d.node_count), psi), psi)


def test_k_constant_exponent(torus2d):
    n = torus2d.node_count
    psi = 0.7 * np.ones(n)
    out = k_psi(torus2d, np.full(n, 0.3), psi)
    np.testing.assert_allclose(out, np.exp(-0.6) * 0.7, rtol=1e-12)


def test_k_is_what_the_trace_shows(torus2d):
    # k_psi and the stepper share one arithmetic, so the extrema of K at the
    # final state equal the trace's R columns bit for bit
    psi = 0.3 * np.cos(torus2d.coordinates[:, 0])
    res = run_gauss_flow(torus2d, psi, np.zeros(torus2d.node_count),
                         FlowConfig(dt0=2e-3, max_steps=50))
    K = k_psi(torus2d, res.final.u, psi)
    assert (K.min(), K.max()) == (res.trace[-1].R_min, res.trace[-1].R_max)


def test_k_analytic_cosine(torus2d):
    # u = 0.1 cos x1 has Lap u = -0.1 cos x1 on the flat torus
    x1 = torus2d.coordinates[:, 0]
    u = 0.1 * np.cos(x1)
    psi = 0.4 * np.ones(torus2d.node_count)
    want = np.exp(-0.2 * np.cos(x1)) * (0.1 * np.cos(x1) + psi)
    assert np.max(np.abs(k_psi(torus2d, u, psi) - want)) < 1e-3


def test_requires_two_dimensions(circle64):
    z = np.zeros(64)
    with pytest.raises(DimensionMismatch):
        k_psi(circle64, z, z)
    with pytest.raises(DimensionMismatch):
        gauss_r(circle64, z, z)
    with pytest.raises(DimensionMismatch):
        run_gauss_flow(circle64, z, z, FlowConfig())


def test_field_shapes(torus2d):
    z = np.zeros(torus2d.node_count)
    with pytest.raises(SizeMismatch):
        k_psi(torus2d, z[:-1], z)
    with pytest.raises(SizeMismatch):
        gauss_r(torus2d, z, z[:-1])


def test_r_zero_exponent_is_mean(torus2d):
    n = torus2d.node_count
    psi = 0.7 + 0.3 * np.cos(torus2d.coordinates[:, 0])
    want = integrate(torus2d, psi) / torus2d.volume
    assert gauss_r(torus2d, np.zeros(n), psi) == pytest.approx(want, rel=1e-14)
    assert gauss_r(torus2d, np.zeros(n), np.zeros(n)) == 0.0


def test_r_on_mesh(octahedron):
    n = octahedron.node_count
    assert gauss_r(octahedron, np.zeros(n), np.ones(n)) == pytest.approx(1.0, rel=1e-12)


def test_constant_fixed_point(torus2d):
    n = torus2d.node_count
    cfg = FlowConfig(scheme="explicit", dt0=1e-3, t_max=1.0, tol_f=1e-12)
    res = run_gauss_flow(torus2d, 0.4 * np.ones(n), np.zeros(n), cfg)
    assert res.stop == "Converged"
    assert res.final.step == 0
    assert np.max(np.abs(res.final.u)) <= 1e-12
    assert res.r_infinity == pytest.approx(0.4, rel=1e-12)


def test_area_conserved_and_r_constant(torus2d):
    n = torus2d.node_count
    psi = 0.5 + 0.3 * np.cos(torus2d.coordinates[:, 0])
    cfg = FlowConfig(
        scheme="explicit", dt0=2e-5, tol_f=1e-300, t_max=1e9,
        max_steps=10_000, trace_every=500,
    )
    res = run_gauss_flow(torus2d, psi, np.zeros(n), cfg)
    assert res.stop == "MaxSteps"
    drift = trace_column(res.trace, "norm_err")
    assert np.max(np.abs(drift)) <= 1e-6
    rs = trace_column(res.trace, "r")
    assert np.ptp(rs) <= 1e-6 * abs(rs[0])
    # r always equals total psi over current area
    area0 = torus2d.volume
    for rec in res.trace:
        assert rec.r == pytest.approx(
            integrate(torus2d, psi) / (area0 * (1.0 + rec.norm_err)), rel=1e-12
        )


def test_flow_limit_matches_stationary_oracle(torus2d):
    n = torus2d.node_count
    psi = 0.05 * np.cos(torus2d.coordinates[:, 0])
    cfg = FlowConfig(scheme="explicit", dt0=5e-3, tol_f=1e-22, t_max=60.0)
    res = run_gauss_flow(torus2d, psi, np.zeros(n), cfg)
    assert res.stop == "Converged"
    # compare at the area the flow actually ended with: the O(dt) area
    # drift is tested separately and would otherwise show up as a uniform
    # offset between the two solutions
    area_fin = integrate(torus2d, np.exp(2.0 * res.final.u))
    assert area_fin == pytest.approx(torus2d.volume, rel=1e-5)
    u_star, r_star = stationary_oracle(torus2d, psi, area_fin)
    assert abs(res.r_infinity - r_star) <= 1e-8
    assert np.max(np.abs(res.final.u - u_star)) <= 1e-6
    # the limit solves the stationary equation pointwise
    defect = laplacian_apply(torus2d, res.final.u) - psi + res.r_infinity * np.exp(2.0 * res.final.u)
    assert np.max(np.abs(defect)) <= 1e-8


def test_run_logs_normalization_reading(torus2d, caplog):
    n = torus2d.node_count
    cfg = FlowConfig(scheme="explicit", dt0=1e-3, t_max=0.01, tol_f=1e-300)
    with caplog.at_level(logging.INFO, logger="curvflow.gauss"):
        run_gauss_flow(torus2d, np.ones(n), np.zeros(n), cfg)
    assert any("conserves the area integral" in rec.message for rec in caplog.records)


def test_stop_needs_the_residual_tolerance_too(torus2d):
    # f starts near 0.2, inside tol_f = 1, but the residual is 0.1: the run
    # must go on until res_linf <= tol_res as well
    n = torus2d.node_count
    psi = 0.1 * np.cos(torus2d.coordinates[:, 0])
    cfg = FlowConfig(scheme="explicit", dt0=5e-3, tol_f=1.0, t_max=100.0)
    res = run_gauss_flow(torus2d, psi, np.zeros(n), cfg)
    assert res.trace[0].f <= cfg.tol_f
    assert res.trace[0].res_linf > cfg.tol_res
    assert res.stop == "Converged"
    assert res.final.step > 0
    assert res.trace[-1].res_linf <= cfg.tol_res


def test_trace_thinning_keeps_first_and_final_rows(torus2d):
    n = torus2d.node_count
    psi = 0.3 * np.cos(torus2d.coordinates[:, 0])
    cfg = FlowConfig(scheme="explicit", dt0=1e-3, tol_f=1e-300, max_steps=100, trace_every=7)
    res = run_gauss_flow(torus2d, psi, np.zeros(n), cfg)
    assert res.stop == "MaxSteps"
    assert [rec.step for rec in res.trace] == list(range(0, 100, 7)) + [100]
    assert res.trace[-1].t == res.final.t
    assert res.trace[-1].dt == pytest.approx(1e-3)
