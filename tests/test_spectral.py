import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse
from scipy.sparse.linalg import spsolve

from curvflow import flow as flowmod
from curvflow import manifold, spectral
from curvflow.errors import (
    ConfigError,
    CurvFlowError,
    IllConditionedInitialData,
    InvalidDimension,
    SizeMismatch,
    ZeroDenominator,
)
from curvflow.flow import (
    STOP_CONVERGED,
    STOP_MAX_STEPS,
    STOP_POSITIVITY,
    STOP_TMAX,
    FlowConfig,
)
from curvflow.manifold import build_torus_grid, integrate, product
from curvflow.spectral import (
    _AMPLITUDE,
    _CORR_FRACTION,
    energy_E,
    estimate_Y,
    lambda1,
    lognormal_field,
    relax_many,
    y_sphere_constant,
)

from conftest import TWO_PI, circle

SQRT_2PI = np.sqrt(TWO_PI)
# relaxation budget used by the estimate tests: the explicit scheme with a
# residual tolerance loose enough to finish in seconds at N = 64
LEAN = FlowConfig(scheme="explicit", tol_f=1e-12, tol_res=1e-7, t_max=60.0)


def test_lambda1_constant_potential(circle128):
    for a in (-1.0, 0.0, 2.5):
        res = lambda1(circle128, a * np.ones(128), 1.0)
        assert res.lambda1 == pytest.approx(a, abs=1e-10)
        np.testing.assert_allclose(res.eigenfunction, TWO_PI**-0.5, atol=1e-8)


@pytest.mark.parametrize("mesh", ["circle128", "torus2d"])
@pytest.mark.parametrize("c", [1.0, 8.0])
@pytest.mark.parametrize("a", [-1.0, 0.3, 1.0, 1e16, -1e16])
def test_lambda1_of_a_constant_potential_to_the_ulp(mesh, c, a, request):
    # the eigenfunction is constant and c S kills it, so lambda1 = a exactly;
    # the edge-form Rayleigh quotient keeps c S out of the rounding.  At
    # |a| = 1e16, a - 1 rounds back to a: the shift's gap must grow with |a|
    man = request.getfixturevalue(mesh)
    res = lambda1(man, np.full(man.node_count, a), c)
    assert abs(res.lambda1 - a) <= 2 * np.spacing(abs(a))


@pytest.mark.parametrize("mesh, ulps", [("circle128", 2), ("torus2d", 4)])
@pytest.mark.parametrize("c", [1.0, 8.0])
@pytest.mark.parametrize("a", [1e200, -1e200, 1e300, -1e300])
def test_lambda1_of_a_huge_constant_potential(mesh, ulps, c, a, request):
    # unscaled, the first iterate is about v / gap and its x^T M x underflows
    # to zero; solved divided by the gap, it stays v.  The eigenfunction comes
    # out exactly constant, so what is left is the quotient's two dot
    # products, which over the torus's 1024 equal terms round by up to 4 ulps
    man = request.getfixturevalue(mesh)
    res = lambda1(man, np.full(man.node_count, a), c)
    assert res.iterations == 1
    assert np.ptp(res.eigenfunction) == 0.0
    assert abs(res.lambda1 - a) <= ulps * np.spacing(abs(a))


def test_lambda1_against_dense_solver():
    man = circle(512)
    psi = np.cos(man.coordinates[:, 0])
    A = (man.stiffness + sparse.diags(man.mass * psi)).toarray()
    M = np.diag(man.mass)
    dense = sla.eigh(A, M, eigvals_only=True, subset_by_index=[0, 0])[0]
    res = lambda1(man, psi, 1.0)
    assert res.lambda1 == pytest.approx(dense, abs=1e-8)
    assert res.residual <= 1e-10


@pytest.mark.parametrize("mesh", ["octahedron", "torus2d"])
def test_lambda1_against_dense_solver_in_2d(mesh, request):
    man = request.getfixturevalue(mesh)
    x, y = man.coordinates[:, 0], man.coordinates[:, 1]
    psi = np.cos(x) + 0.5 * np.sin(2.0 * y)
    c = 1.7
    A = (c * man.stiffness + sparse.diags(man.mass * psi)).toarray()
    dense = sla.eigh(A, np.diag(man.mass), eigvals_only=True, subset_by_index=[0, 0])[0]
    res = lambda1(man, psi, c)
    assert res.lambda1 == pytest.approx(dense, abs=1e-8)
    assert res.residual <= 1e-10
    assert res.eigenfunction.min() > 0


def test_lambda1_eigenfunction_contract(circle256):
    psi = np.cos(circle256.coordinates[:, 0])
    res = lambda1(circle256, psi, 1.0)
    assert res.eigenfunction.min() > 0
    assert integrate(circle256, res.eigenfunction**2) == pytest.approx(1.0, abs=1e-12)


def test_lambda1_is_rayleigh_lower_bound(circle128):
    psi = np.cos(circle128.coordinates[:, 0])
    lam = lambda1(circle128, psi, 1.0).lambda1
    rng = np.random.default_rng(17)
    from curvflow.manifold import dirichlet_energy

    for _ in range(100):
        v = rng.standard_normal(128)
        quot = (dirichlet_energy(circle128, v) + integrate(circle128, psi * v * v)) / integrate(
            circle128, v * v
        )
        assert quot >= lam - 1e-8


def test_lambda1_shape_check(circle64):
    with pytest.raises(SizeMismatch):
        lambda1(circle64, np.zeros(65), 1.0)


def test_energy_homogeneity(circle128):
    u = lognormal_field(circle128, 21)
    psi = np.cos(circle128.coordinates[:, 0])
    a = energy_E(circle128, u, psi, 1.0, 3.0)
    b = energy_E(circle128, 7.3 * u, psi, 1.0, 3.0)
    assert b == pytest.approx(a, rel=1e-12)


def test_energy_constant_field(circle128):
    for a in (-1.0, 0.5):
        e = energy_E(circle128, np.full(128, 3.7), a * np.ones(128), 1.0, 3.0)
        assert e == pytest.approx(a * SQRT_2PI, rel=1e-12)


def test_energy_of_ground_state_negative(circle128):
    res = lambda1(circle128, -np.ones(128), 1.0)
    assert energy_E(circle128, res.eigenfunction, -np.ones(128), 1.0, 3.0) < 0


def test_energy_zero_field(circle64):
    with pytest.raises(ZeroDenominator):
        energy_E(circle64, np.zeros(64), np.ones(64), 1.0, 3.0)


def test_estimate_constant_potential_minimizer(circle64):
    # for a <= 1/2 on this circle the constant is the energy minimizer; the
    # estimate lands on it to far better than the contracted 1e-6
    for a in (-1.0, 0.0, 0.3):
        y = estimate_Y(circle64, a * np.ones(64), 1.0, 3.0, n_starts=2, seed=0, cfg=LEAN)
        assert y == pytest.approx(a * SQRT_2PI, abs=1e-6)


def test_estimate_argument_checks(circle64):
    with pytest.raises(ValueError):
        estimate_Y(circle64, np.zeros(64), 1.0, 3.0, n_starts=0)
    with pytest.raises(ConfigError):  # at the call, before any start is pulled
        relax_many(circle64, np.zeros(64), LEAN, 0)


def test_estimate_Y_rejects_cfg_with_other_p_or_c(circle64):
    # the flow would relax cfg's problem, not the one E is taken for
    for cfg in (FlowConfig(p=5.0), FlowConfig(c=2.0)):
        with pytest.raises(ConfigError):
            estimate_Y(circle64, -np.ones(64), 1.0, 3.0, n_starts=1, cfg=cfg)


def _bits(values):
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_same_run(got, want):
    rows = [[getattr(rec, name) for name in flowmod._TRACE_FIELDS] for rec in got.trace]
    want_rows = [[getattr(rec, name) for name in flowmod._TRACE_FIELDS] for rec in want.trace]
    assert np.array_equal(_bits(rows), _bits(want_rows))
    assert np.array_equal(_bits(got.final.u), _bits(want.final.u))
    assert got.stop == want.stop
    assert _bits(got.r_infinity) == _bits(want.r_infinity)
    assert got.decay_rate == want.decay_rate  # None, or a float fitted from equal traces


def _assert_solo_runs(man, psi, cfg, n_starts, seed):
    """relax_many's results and energies equal run_flow's from each start alone."""
    pairs = list(relax_many(man, psi, cfg, n_starts, seed=seed))
    assert len(pairs) == n_starts
    for i, (res, E) in enumerate(pairs):
        solo = flowmod.run_flow(man, psi, lognormal_field(man, (seed, i)), cfg)
        _assert_same_run(res, solo)
        assert _bits(E) == _bits(energy_E(man, solo.final.u, psi, cfg.c, cfg.p))
    return [res for res, _ in pairs]


def test_relax_many_yields_each_start_in_order(circle64, monkeypatch):
    psi = np.cos(circle64.coordinates[:, 0])
    inner = flowmod.run_flow
    # every start goes through the module's run_flow, so a patched one sees it
    for scheme, n_starts in (("explicit", 1), ("explicit", 2), ("explicit", 3), ("imex", 3)):
        cfg = FlowConfig(scheme=scheme, dt0=1e-3, t_max=0.5, p=2.5, c=0.7)
        seen = []

        def watched(*args):
            seen.append(inner(*args))
            return seen[-1]

        monkeypatch.setattr(flowmod, "run_flow", watched)
        starts = relax_many(circle64, psi, cfg, n_starts, seed=3)
        assert seen == []  # nothing runs before the first start is pulled
        pairs = list(starts)
        assert len(seen) == n_starts and all(res is s for (res, _), s in zip(pairs, seen))
        monkeypatch.undo()
        _assert_solo_runs(circle64, psi, cfg, n_starts, seed=3)


def test_relax_many_factors_the_smoother_once(circle64, monkeypatch):
    calls = []
    inner = manifold.splu

    def counted(a):
        calls.append(a.shape)
        return inner(a)

    monkeypatch.setattr(manifold, "splu", counted)
    pairs = list(relax_many(circle64, -np.ones(64), FlowConfig(t_max=0.01), 4, seed=2))
    assert len(pairs) == 4 and calls == [(64, 64)]


def test_relax_many_on_a_product_diagonalizes_each_factor_once(monkeypatch):
    man = build_torus_grid([8, 9, 10], [TWO_PI, 5.0, 3.0])
    calls = []
    inner = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return inner(a)

    def no_splu(a):
        raise AssertionError("a product's smoother factored M + ell^2 S")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(manifold, "splu", no_splu)
    cfg = FlowConfig(scheme="imex", dt0=1e-2, t_max=0.05)
    for _ in range(2):  # the second call finds every eigenbasis cached on its factor
        pairs = list(relax_many(man, -np.ones(man.node_count), cfg, 4, seed=2))
        assert len(pairs) == 4 and calls == [(8, 8), (9, 9), (10, 10)]


def test_equal_torus_sides_share_one_eigenbasis(monkeypatch):
    calls = []
    inner = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return inner(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert lognormal_field(build_torus_grid([8] * 3, [TWO_PI] * 3), 0).min() > 0
    assert calls == [(8, 8)]


def test_a_product_with_a_factor_past_the_cap_factors_the_smoother(monkeypatch):
    man = product(circle(manifold._EIGH_MAX_NODES + 1), circle(3))
    calls = []
    inner = manifold.splu

    def counted(a):
        calls.append(a.shape)
        return inner(a)

    def no_eigh(a):
        raise AssertionError("a factor past the cap was diagonalized")

    monkeypatch.setattr(manifold, "splu", counted)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert lognormal_field(man, 1).min() > 0 and calls == [(man.node_count,) * 2]


# Starts that stop at different steps, for different reasons: max_steps
# between their step counts (MaxSteps and Converged), a t_max between their
# times to convergence (TmaxReached and Converged), and steps far too large
# (explicit: halvings, then PositivityFailure at 48-98 steps; imex: Newton
# matrices that are not SPD, halved until they are, so every start ends at
# t_max after the same 36 steps).
MIXED = {
    "explicit-max-steps": (-1.0, FlowConfig(tol_f=1e-12, tol_res=1e-7, max_steps=4845),
                           {STOP_CONVERGED, STOP_MAX_STEPS}),
    "explicit-t-max": (-1.0, FlowConfig(tol_f=1e-12, tol_res=1e-7, t_max=2.118),
                       {STOP_CONVERGED, STOP_TMAX}),
    "explicit-doomed": (-1.0, FlowConfig(dt0=10.0, safety=50.0, t_max=10.0),
                        {STOP_POSITIVITY}),
    "imex-max-steps": ("cos", FlowConfig(scheme="imex", tol_f=1e-12, tol_res=1e-7,
                                         max_steps=325), {STOP_CONVERGED, STOP_MAX_STEPS}),
    "imex-t-max": ("cos", FlowConfig(scheme="imex", tol_f=1e-12, tol_res=1e-7, t_max=3.25),
                   {STOP_CONVERGED, STOP_TMAX}),
    "imex-doomed": (-1.0, FlowConfig(scheme="imex", dt0=10.0, t_max=10.0), {STOP_TMAX}),
}


@pytest.mark.parametrize("case", sorted(MIXED))
def test_relax_many_equals_solo_runs_as_starts_leave(case, circle64):
    a, cfg, stops = MIXED[case]
    psi = np.cos(circle64.coordinates[:, 0]) if a == "cos" else a * np.ones(64)
    results = _assert_solo_runs(circle64, psi, cfg, 4, seed=0)
    assert all(res.final.u.base is None for res in results)  # each final field owns its data
    assert {res.stop for res in results} == stops
    if case == "imex-doomed":  # all stop at t_max after 36 steps, the first one halved
        assert all(res.trace[1].dt < cfg.dt0 for res in results)
    else:
        assert len({res.final.step for res in results}) > 1


def test_a_start_that_raises_raises_in_its_turn(circle64, monkeypatch):
    psi = -np.ones(64)
    good = lognormal_field(circle64, 1)
    flat = good.copy()
    flat[3] = 1e-12  # normalizes to a min below 1e-10
    monkeypatch.setattr(spectral, "_lognormal_fields", lambda man, seeds: [good, flat, good])
    starts = relax_many(circle64, psi, LEAN, 3)
    _assert_same_run(next(starts)[0], flowmod.run_flow(circle64, psi, good, LEAN))
    with pytest.raises(IllConditionedInitialData):
        next(starts)


def test_positivity_failure_is_yielded_by_relax_many_and_aborts_estimate_Y(circle64, monkeypatch):
    # steps far too large for the explicit scheme: every start loses
    # positivity within a few hundred steps, with a positive last field
    doomed = FlowConfig(dt0=10.0, safety=50.0, t_max=10.0)
    calls, built = [], []  # run_flow calls, and the runs set up (one _Stepper each)
    inner = flowmod.run_flow

    def counted(*args):
        calls.append(args)
        return inner(*args)

    class Counted(flowmod._Stepper):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(flowmod, "run_flow", counted)
    monkeypatch.setattr(flowmod, "_Stepper", Counted)
    pulled = relax_many(circle64, -np.ones(64), doomed, 2, seed=0)
    starts = []
    for i in range(2):  # start i runs only when it is pulled
        starts.append(next(pulled))
        assert len(calls) == len(built) == i + 1
    assert [res.stop for res, _ in starts] == [STOP_POSITIVITY] * 2
    assert all(res.final.u.min() > 0 and np.isfinite(E) for res, E in starts)
    calls.clear()
    built.clear()
    with pytest.raises(CurvFlowError, match="start 0 lost positivity"):
        estimate_Y(circle64, -np.ones(64), 1.0, 3.0, n_starts=2, seed=0, cfg=doomed)
    assert len(calls) == len(built) == 1  # the abort at start 0 leaves start 1 unrun


def test_sphere_constant_reference_values():
    # closed-form n(n-1)*omega_n^{2/n}, omega_3 = 2 pi^2, omega_4 = 8 pi^2/3
    assert y_sphere_constant(3) == pytest.approx(43.82323271625065, rel=1e-15)
    assert y_sphere_constant(4) == pytest.approx(61.56239184776948, rel=1e-15)
    assert y_sphere_constant(3) == pytest.approx(6.0 * (2.0 * np.pi**2) ** (2.0 / 3.0), rel=1e-14)
    assert y_sphere_constant(4) == pytest.approx(12.0 * (8.0 * np.pi**2 / 3.0) ** 0.5, rel=1e-14)


def test_sphere_constant_monotone_positive():
    vals = [y_sphere_constant(n) for n in range(3, 11)]
    assert all(np.isfinite(v) and v > 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(InvalidDimension):
        y_sphere_constant(2)


def test_lognormal_field_contract(circle128):
    a = lognormal_field(circle128, 5)
    b = lognormal_field(circle128, 5)
    c = lognormal_field(circle128, 6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() > 0
    t1 = lognormal_field(circle128, (3, 0))
    t2 = lognormal_field(circle128, (3, 1))
    assert not np.array_equal(t1, t2)


def _spsolve_field(man, seed):
    """lognormal_field from two spsolve calls, each factoring the assembled smoother anew."""
    g = np.random.default_rng(seed).standard_normal(man.node_count)
    ell = _CORR_FRACTION * man.bbox_diameter
    helm = (sparse.diags(man.mass) + ell * ell * man.stiffness).tocsc()
    for _ in range(2):
        g = spsolve(helm, man.mass * g)
    g = g - integrate(man, g) / man.volume
    return np.exp(_AMPLITUDE * (g / np.sqrt(integrate(man, g * g) / man.volume)))


def test_lognormal_field_on_a_mesh(icosphere3):
    man = icosphere3
    u = lognormal_field(man, 4)
    assert u.min() > 0
    np.testing.assert_array_equal(u, lognormal_field(man, 4))
    assert np.array_equal(u, _spsolve_field(man, 4))


@pytest.mark.parametrize("mesh", ["cube8", "s2_times_s1"])
def test_lognormal_field_on_a_product(mesh, icosphere2):
    man = (build_torus_grid([8] * 3, [TWO_PI] * 3) if mesh == "cube8"
           else product(icosphere2, build_torus_grid([16], [5.0])))
    u = lognormal_field(man, 4)
    np.testing.assert_array_equal(u, lognormal_field(man, 4))
    want = _spsolve_field(man, 4)
    assert np.max(np.abs(u - want) / want) <= 1e-12


def test_lognormal_field_smooth(circle256):
    # the smoother kills grid-scale roughness: neighbor increments stay
    # well below the field's overall spread
    u = lognormal_field(circle256, 9)
    jumps = np.abs(np.diff(np.log(u)))
    spread = np.log(u).max() - np.log(u).min()
    assert jumps.max() < 0.1 * spread


@pytest.mark.parametrize("seed", [-1, (-1, 0), (0, -1), 1.5, "a"])
def test_lognormal_field_rejects_negative_seed(circle64, seed):
    with pytest.raises(ConfigError):
        lognormal_field(circle64, seed)


def test_estimate_Y_rejects_negative_seed(circle64):
    with pytest.raises(ConfigError):
        estimate_Y(circle64, -np.ones(64), 1.0, 3.0, n_starts=1, seed=-1, cfg=LEAN)
