import dataclasses
import gc
import io
import logging
import math
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from curvflow import flow
from curvflow.elliptic import newton_constrained
from curvflow.gauss import run_gauss_flow
from curvflow.errors import (
    ConfigError,
    IllConditionedInitialData,
    NonPositiveField,
    SizeMismatch,
    StepRejectedPositivity,
    ZeroDenominator,
)
from curvflow.flow import (
    STOP_CONVERGED,
    STOP_MAX_STEPS,
    STOP_POSITIVITY,
    STOP_TMAX,
    TRACE_HEADER,
    FlowConfig,
    adaptive_dt,
    default_c,
    f_diagnostic,
    make_flow_state,
    normalize,
    pseudo_scalar_curvature,
    rayleigh_r,
    read_trace_csv,
    run_flow,
    sigma_shift,
    step_explicit,
    step_imex,
    trace_column,
    write_trace_csv,
)
from curvflow.manifold import integrate
from curvflow.spectral import energy_E, lambda1, lognormal_field

import reference_flow as ref
from conftest import TWO_PI, circle

SQRT_2PI = math.sqrt(TWO_PI)
EPS = np.finfo(float).eps
# 2^15-node reference value of the energy quotient of normalize(2 + cos x)
# on the 2*pi circle with zero potential, c = 1, p = 3; the analytic value
# pi/sqrt(56.75*pi) = 0.23528378791622642 differs by the reference grid's
# own O(h^2) error of 3e-9
RAYLEIGH_BUMP_REF = 0.2352837871953338


def smooth_state(man, psi, amp=0.3, p=3.0, c=1.0):
    x = man.coordinates[:, 0]
    u0 = normalize(man, 1.0 + amp * np.cos(x), p)
    return make_flow_state(man, psi, u0, p=p, c=c)


def test_default_c():
    assert default_c(3) == pytest.approx(8.0)
    assert default_c(4) == pytest.approx(6.0)
    assert default_c(5) == pytest.approx(16.0 / 3.0)
    with pytest.raises(ValueError):
        default_c(2)


def test_curvature_constant_field(circle64):
    man = circle64
    p = 3.0
    u = np.full(64, man.volume ** (-1.0 / (p + 1.0)))
    for a in (-1.0, 0.0, 2.0):
        R = pseudo_scalar_curvature(man, u, a * np.ones(64), 1.0, p)
        want = a * man.volume ** ((p - 1.0) / (p + 1.0))
        np.testing.assert_allclose(R, want, rtol=0, atol=1e-12)


def test_curvature_analytic_bump(circle256):
    # u = 2 + cos x, psi = 0: R = -u''/u^3 = cos x / (2 + cos x)^3
    man = circle256
    x = man.coordinates[:, 0]
    u = 2.0 + np.cos(x)
    R = pseudo_scalar_curvature(man, u, np.zeros(256), 1.0, 3.0)
    want = np.cos(x) / (2.0 + np.cos(x)) ** 3
    assert np.max(np.abs(R - want)) < 1e-3


def test_curvature_rejects_nonpositive(circle64):
    u = np.ones(64)
    u[5] = -1.0
    with pytest.raises(NonPositiveField):
        pseudo_scalar_curvature(circle64, u, np.zeros(64), 1.0, 3.0)


def test_rayleigh_constant(circle128):
    man = circle128
    u = np.full(128, man.volume**-0.25)
    assert rayleigh_r(man, u, np.ones(128), 1.0, 3.0) == pytest.approx(
        SQRT_2PI, rel=1e-13
    )
    assert rayleigh_r(man, np.ones(128), np.zeros(128), 1.0, 3.0) == 0.0


def test_rayleigh_against_reference_grid():
    for n, tol in ((256, 3e-5), (1024, 2e-6)):
        man = circle(n)
        u = normalize(man, 2.0 + np.cos(man.coordinates[:, 0]), 3.0)
        r = rayleigh_r(man, u, np.zeros(n), 1.0, 3.0)
        assert r == pytest.approx(RAYLEIGH_BUMP_REF, abs=tol)


def test_rayleigh_matches_curvature_average(circle128):
    # r equals the u^{p+1}-weighted mean of R
    man = circle128
    u = lognormal_field(man, 9)
    psi = np.cos(man.coordinates[:, 0])
    from curvflow.manifold import integrate

    r = rayleigh_r(man, u, psi, 1.0, 3.0)
    R = pseudo_scalar_curvature(man, u, psi, 1.0, 3.0)
    weighted = integrate(man, R * u**4.0) / integrate(man, u**4.0)
    assert r == pytest.approx(weighted, rel=1e-12)


def test_rayleigh_zero_denominator(circle64):
    with pytest.raises(ZeroDenominator):
        rayleigh_r(circle64, np.zeros(64), np.zeros(64), 1.0, 3.0)


def test_normalize_constant(circle128):
    out = normalize(circle128, np.ones(128), 3.0)
    np.testing.assert_allclose(out, TWO_PI**-0.25, rtol=1e-15)


def test_normalize_idempotent_and_scale_free(circle128):
    from curvflow.manifold import integrate

    u = lognormal_field(circle128, 2)
    n1 = normalize(circle128, u, 3.0)
    # normalizing again stops at the identity pass and hands back a copy
    before, n2 = n1.copy(), normalize(circle128, n1, 3.0)
    assert n2 is not n1 and n2.tobytes() == n1.tobytes()
    n2[0] = 7.0
    assert n1.tobytes() == before.tobytes()
    np.testing.assert_allclose(normalize(circle128, 5.0 * u, 3.0), n1, rtol=1e-14)
    assert abs(integrate(circle128, n1**4.0) - 1.0) <= 1e-15


def test_run_from_a_normalized_start_does_not_hand_back_the_start(circle64):
    u0 = normalize(circle64, lognormal_field(circle64, 1), 3.0)
    res = run_flow(circle64, -np.ones(64), u0, FlowConfig(max_steps=0))
    assert res.final.step == 0
    assert res.final.u is not u0 and res.final.u.tobytes() == u0.tobytes()


def test_normalize_rejects_nonpositive(circle64):
    u = np.ones(64)
    u[0] = 0.0
    with pytest.raises(NonPositiveField):
        normalize(circle64, u, 3.0)


def test_state_caches_rayleigh(circle64):
    psi = -np.ones(64)
    u = normalize(circle64, lognormal_field(circle64, 4), 3.0)
    st_ = make_flow_state(circle64, psi, u)
    assert st_.r == rayleigh_r(circle64, u, psi, 1.0, 3.0)


def test_state_keeps_its_own_copy_of_the_field(circle64):
    psi = -np.ones(64)
    u = normalize(circle64, np.ones(64), 3.0)
    st_ = make_flow_state(circle64, psi, u)
    r, saved = st_.r, u.copy()
    u[0] = 5.0
    assert st_.u is not u and np.array_equal(st_.u, saved)
    assert st_.r == r == rayleigh_r(circle64, st_.u, psi, 1.0, 3.0)


def test_explicit_constant_fixed_point(circle64):
    psi = -np.ones(64)
    state = make_flow_state(circle64, psi, normalize(circle64, np.ones(64), 3.0))
    out = step_explicit(circle64, psi, state, 1e-2)
    assert np.max(np.abs(out.u - state.u)) < 1e-14
    assert out.step == 1
    assert out.t == pytest.approx(1e-2)


def test_explicit_step_preserves_constraint(circle128):
    from curvflow.manifold import integrate

    psi = -np.ones(128)
    state = make_flow_state(circle128, psi, normalize(circle128, lognormal_field(circle128, 3), 3.0))
    out = step_explicit(circle128, psi, state, 1e-4)
    assert abs(integrate(circle128, out.u**4.0) - 1.0) <= 1e-13
    assert abs(out.norm_err) <= 10 * 1e-4**2 * (1 + abs(state.r)) ** 2


def test_explicit_rejects_positivity_loss(circle64):
    psi = -np.ones(64)
    state = make_flow_state(circle64, psi, normalize(circle64, lognormal_field(circle64, 1), 3.0))
    with pytest.raises(StepRejectedPositivity):
        step_explicit(circle64, psi, state, 10.0)


def test_dissipation_rate_small_dt(circle64):
    # (r(u+) - r(u))/dt approaches -2 f(u)
    psi = -np.ones(64)
    state = smooth_state(circle64, psi)
    f0 = f_diagnostic(circle64, state.u, psi, 1.0, 3.0)
    dt = 1e-5
    out = step_explicit(circle64, psi, state, dt)
    drdt = (out.r - state.r) / dt
    assert drdt == pytest.approx(-2.0 * f0, rel=5e-2)


def test_imex_constant_fixed_point(circle64):
    psi = 2.0 * np.ones(64)
    state = make_flow_state(circle64, psi, normalize(circle64, np.ones(64), 3.0))
    out = step_imex(circle64, psi, state, 1e-2)
    assert np.max(np.abs(out.u - state.u)) < 1e-12


def test_imex_explicit_agreement_second_order(circle64):
    psi = -np.ones(64)
    state = smooth_state(circle64, psi)
    gaps = []
    for dt in (1e-4, 5e-5, 2.5e-5):
        ue = step_explicit(circle64, psi, state, dt)
        ui = step_imex(circle64, psi, state, dt)
        gaps.append(float(np.max(np.abs(ui.u - ue.u))))
    assert 3.5 < gaps[0] / gaps[1] < 4.5
    assert 3.5 < gaps[1] / gaps[2] < 4.5
    assert all(gap <= 100.0 * dt**2 for gap, dt in zip(gaps, (1e-4, 5e-5, 2.5e-5)))


def test_imex_stable_beyond_explicit_bound(circle64):
    psi = -np.ones(64)
    state = make_flow_state(circle64, psi, normalize(circle64, lognormal_field(circle64, 0), 3.0))
    dt_exp = adaptive_dt(circle64, state, 1.0)
    for _ in range(20):
        state = step_imex(circle64, psi, state, 10.0 * dt_exp)
    assert state.u.min() > 0


def test_adaptive_dt_properties(circle64):
    psi = np.zeros(64)
    state = make_flow_state(circle64, psi, normalize(circle64, lognormal_field(circle64, 6), 3.0))
    base = adaptive_dt(circle64, state, 0.2)
    assert adaptive_dt(circle64, state, 0.4) == pytest.approx(2.0 * base, rel=1e-12)
    shrunk = make_flow_state(circle64, psi, 0.5 * state.u)
    assert adaptive_dt(circle64, shrunk, 0.2) == pytest.approx(0.25 * base, rel=1e-12)
    assert adaptive_dt(circle64, state, 0.2, dt_max=base / 7.0) == base / 7.0
    assert adaptive_dt(circle64, state, 1e-30) == 1e-12


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.0, -1.0])
def test_adaptive_dt_rejects_a_field_that_is_not_positive(bad):
    # a NaN in u is not positive either, for adaptive_dt as for step_explicit
    man = circle(8)
    u = np.ones(8)
    u[5] = bad
    state = flow.FlowState(u=u, t=0.0, step=0, p=3.0, c=1.0, r=0.0)
    with pytest.raises(NonPositiveField):
        adaptive_dt(man, state, 0.25)
    with pytest.raises(NonPositiveField):
        step_explicit(man, np.zeros(8), state, 1e-3)


def test_explicit_long_run_no_rejection(circle64):
    # 1e5 explicit steps at the adaptive step size survive without a
    # positivity rejection, through both the rough transient and the
    # long stretch at the rounding floor
    psi = np.zeros(64)
    cfg = FlowConfig(
        scheme="explicit",
        dt0=1e-2,
        tol_f=1e-300,
        tol_res=1e-300,
        t_max=1e9,
        max_steps=100_000,
        trace_every=1000,
    )
    res = run_flow(circle64, psi, lognormal_field(circle64, 0), cfg)
    assert res.stop == STOP_MAX_STEPS
    assert res.final.step == 100_000
    assert res.final.u.min() > 0


def test_run_constant_start_converges_immediately(circle64):
    cfg = FlowConfig()
    res = run_flow(circle64, 1.5 * np.ones(64), np.full(64, 0.7), cfg)
    assert res.stop == STOP_CONVERGED
    assert res.final.step == 0
    assert len(res.trace) == 1
    assert res.r_infinity == pytest.approx(1.5 * SQRT_2PI, rel=1e-12)


def test_run_negative_potential_limit(circle64):
    cfg = FlowConfig(scheme="explicit", tol_f=1e-12, t_max=50.0)
    res = run_flow(circle64, -np.ones(64), lognormal_field(circle64, 0), cfg)
    assert res.stop == STOP_CONVERGED
    assert res.r_infinity == pytest.approx(-SQRT_2PI, abs=1e-6)
    np.testing.assert_allclose(res.final.u, TWO_PI**-0.25, atol=1e-6)
    assert res.decay_rate is None  # only fitted for zero potential


def test_run_trace_monotone_r(circle64):
    cfg = FlowConfig(scheme="explicit", tol_f=1e-12, t_max=50.0)
    res = run_flow(circle64, -np.ones(64), lognormal_field(circle64, 8), cfg)
    rows = res.trace
    for prev, cur in zip(rows, rows[1:]):
        # slack of a few ulps of r: at the rounding floor the quotient
        # evaluation itself wiggles while 10 dt^2 f underflows
        assert cur.r - prev.r <= 10.0 * cur.dt**2 * prev.f + 4e-15 * (1.0 + abs(prev.r))


def test_run_curvature_lower_bounds(circle64):
    psi = -np.ones(64)
    cfg = FlowConfig(scheme="explicit", tol_f=1e-12, t_max=50.0)
    res = run_flow(circle64, psi, lognormal_field(circle64, 12), cfg)
    R0_min = res.trace[0].R_min
    sigma = max(1.0 - R0_min, 1.0)
    floor = min(R0_min, 0.0)
    tol = 1e-4 * (1.0 + abs(R0_min))
    for rec in res.trace:
        assert rec.R_min >= floor - tol
        assert rec.R_min + sigma >= 1.0 - tol
    # r is bounded below by the volume-weighted ground eigenvalue
    lam = lambda1(circle64, psi, 1.0).lambda1
    r_floor = min(0.0, lam * circle64.volume**0.5)
    assert min(trace_column(res.trace, "r")) >= r_floor - 1e-8


def test_run_sign_flip_persists(circle128):
    # gradient-dominated start: r(0) > 0 even though the potential is -1
    x = circle128.coordinates[:, 0]
    u0 = 1.0 + 0.7 * np.cos(3.0 * x)
    cfg = FlowConfig(scheme="explicit", tol_f=1e-12, t_max=50.0)
    res = run_flow(circle128, -np.ones(128), u0, cfg)
    rs = trace_column(res.trace, "r")
    assert rs[0] > 0
    assert res.stop == STOP_CONVERGED
    first_neg = int(np.argmax(rs < 0))
    assert rs[first_neg] < 0
    assert np.all(rs[first_neg:] < 0)


def test_run_zero_potential_decay(circle64):
    x = circle64.coordinates[:, 0]
    cfg = FlowConfig(scheme="explicit", tol_f=1e-10, tol_res=1e-8, t_max=100.0)
    res = run_flow(circle64, np.zeros(64), 1.0 + 0.5 * np.cos(x), cfg)
    assert res.stop == STOP_CONVERGED
    assert res.r_infinity <= 1e-8
    assert res.decay_rate is not None
    # slowest mode decays at 2 c ubar^{1-p} k^2 = 2 sqrt(2 pi) on this grid
    assert res.decay_rate == pytest.approx(2.0 * SQRT_2PI, rel=2e-2)


def test_run_tmax_stop(circle64):
    cfg = FlowConfig(scheme="explicit", tol_f=1e-300, tol_res=1e-300, t_max=0.01)
    res = run_flow(circle64, np.zeros(64), lognormal_field(circle64, 5), cfg)
    assert res.stop == STOP_TMAX
    assert res.final.t == pytest.approx(0.01, rel=1e-10)


def test_run_does_not_end_on_a_sliver_step(circle128):
    # after 2,000 steps of 1e-5 the clock's rounding leaves 6.5e-16 before
    # t_max; that remainder joins the last step instead of a 2,001st
    cfg = FlowConfig(scheme="imex", dt0=1e-5, t_max=0.02, tol_f=1e-300, tol_res=1e-300)
    res = run_flow(circle128, -np.ones(128), lognormal_field(circle128, 0), cfg)
    assert res.stop == STOP_TMAX
    assert res.final.step == 2000
    assert trace_column(res.trace[1:], "dt").min() >= 1e-9 * cfg.dt0


def test_run_positivity_failure_stop(circle64, monkeypatch):
    monkeypatch.setattr(flow, "_MAX_HALVINGS", 0)
    cfg = FlowConfig(scheme="explicit", dt0=10.0, safety=50.0, t_max=10.0)
    res = run_flow(circle64, -np.ones(64), lognormal_field(circle64, 1), cfg)
    assert res.stop == STOP_POSITIVITY
    assert len(res.trace) >= 1  # partial trace survives


def test_sigma_bound_graze_warns_once_per_run(caplog):
    # dt far beyond the stable bound: nearly every step grazes the shifted
    # curvature bound before the run dies of positivity failure
    man = circle(32)
    cfg = FlowConfig(dt0=10.0, safety=50.0, t_max=10.0)
    for i in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="curvflow.flow"):
            res = run_flow(man, -np.ones(32), lognormal_field(man, (0, i)), cfg)
        grazes = [rec.levelno for rec in caplog.records if "grazed" in rec.getMessage()]
        sigma = sigma_shift([res.trace[0].R_min])
        n = sum(rec.R_min + sigma < 1.0 - 1e-6 * sigma for rec in res.trace[1:])
        assert res.stop == STOP_POSITIVITY and n > 1
        assert grazes == [logging.WARNING] + [logging.DEBUG] * (n - 1)


def test_run_rejects_ill_conditioned_start(circle64):
    u0 = np.ones(64)
    u0[0] = 1e-14
    with pytest.raises(IllConditionedInitialData):
        run_flow(circle64, np.zeros(64), u0, FlowConfig())


def test_run_trace_every_thinning(circle64):
    cfg = FlowConfig(scheme="explicit", tol_f=1e-12, t_max=50.0, trace_every=25)
    res = run_flow(circle64, -np.ones(64), lognormal_field(circle64, 0), cfg)
    steps = [rec.step for rec in res.trace]
    assert steps[0] == 0
    assert steps[-1] == res.final.step
    assert all(s % 25 == 0 for s in steps[:-1])


class _ScriptedStepper:
    """A stepper for flow._drive that proposes a fixed dt and rejects any
    step longer than dt_ok, as a step that loses positivity would."""

    def __init__(self, dt, dt_ok):
        self.t, self.step, self.f, self.res = 0.0, 0, 1.0, 1.0
        self._dt, self._dt_ok = dt, dt_ok

    def dt(self):
        return self._dt

    def advance(self, dt):
        if dt > self._dt_ok:
            raise StepRejectedPositivity(f"dt={dt} rejected")
        self.t += dt
        self.step += 1

    def record(self, dt):
        return (self.step, self.t, dt, *[0.0] * 8)


def test_drive_halves_clips_and_keeps_the_final_row():
    cfg = FlowConfig(t_max=0.95, trace_every=4)
    trace, stop = flow._drive(cfg, _ScriptedStepper(dt=0.3, dt_ok=0.2))
    assert stop == STOP_TMAX
    # five steps of 0.3 halved once, then the 0.2 left before t_max, unhalved
    assert [rec.step for rec in trace] == [0, 4, 6]
    assert trace[1].dt == 0.15
    assert trace[-1].dt == pytest.approx(0.2)
    assert trace[-1].t == pytest.approx(0.95)


def test_drive_stops_when_halvings_run_out(monkeypatch):
    monkeypatch.setattr(flow, "_MAX_HALVINGS", 2)
    trace, stop = flow._drive(FlowConfig(), _ScriptedStepper(dt=1.0, dt_ok=0.2))
    assert stop == STOP_POSITIVITY
    assert [rec.step for rec in trace] == [0]
    # one more halving lets every step through, at 1/8 of the proposed dt
    monkeypatch.setattr(flow, "_MAX_HALVINGS", 3)
    stepper = _ScriptedStepper(dt=1.0, dt_ok=0.2)
    trace, stop = flow._drive(FlowConfig(max_steps=2), stepper)
    assert stop == STOP_MAX_STEPS
    assert [rec.dt for rec in trace] == [0.0, 0.125, 0.125]


def test_sigma_shift_values():
    assert sigma_shift(np.array([-3.0, 0.0, 2.0])) == 4.0
    assert sigma_shift(np.array([5.0, 7.0])) == 1.0


def test_f_diagnostic_basics(circle64):
    u = normalize(circle64, np.ones(64), 3.0)
    assert f_diagnostic(circle64, u, 2.0 * np.ones(64), 1.0, 3.0) == pytest.approx(0.0, abs=1e-25)
    rough = normalize(circle64, lognormal_field(circle64, 7), 3.0)
    assert f_diagnostic(circle64, rough, np.cos(circle64.coordinates[:, 0]), 1.0, 3.0) >= 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(scheme="leapfrog").validate()
    with pytest.raises(ValueError):
        FlowConfig(dt0=-1.0).validate()
    with pytest.raises(ValueError):
        FlowConfig(p=1.0).validate()
    with pytest.raises(ValueError):
        FlowConfig(c=0.0).validate()
    with pytest.raises(ValueError):
        FlowConfig(trace_every=0).validate()
    # a non-finite tolerance, exponent or coefficient never reaches a run
    for name in ("tol_f", "tol_res", "t_max", "p", "c"):
        for value in (math.inf, math.nan):
            with pytest.raises(ConfigError, match=name):
                FlowConfig(**{name: value}).validate()
    with pytest.raises(ConfigError):
        FlowConfig(max_steps=-1).validate()
    with pytest.raises(ConfigError):  # inf <= 1e-14 * inf would stop it at step 0
        FlowConfig(t_max=math.inf).validate()
    FlowConfig().validate()


def test_trace_csv_roundtrip(circle64):
    cfg = FlowConfig(scheme="explicit", tol_f=1e-10, t_max=5.0)
    res = run_flow(circle64, -np.ones(64), lognormal_field(circle64, 0), cfg)
    buf = io.StringIO()
    write_trace_csv(res.trace, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == TRACE_HEADER
    assert "\r" not in text
    # every real is printed in scientific notation with 17 significant digits
    for token in lines[1].split(",")[1:]:
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", token), token
    back = read_trace_csv(io.StringIO(text))
    assert len(back) == len(res.trace)
    for a, b in zip(res.trace, back):
        assert a == b


def test_trace_deterministic(circle64):
    cfg = FlowConfig(scheme="imex", dt0=1e-2, tol_f=1e-10, t_max=5.0)
    outs = []
    for _ in range(2):
        res = run_flow(circle64, -np.ones(64), lognormal_field(circle64, 3), cfg)
        buf = io.StringIO()
        write_trace_csv(res.trace, buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_trace_column(circle64):
    cfg = FlowConfig(scheme="explicit", tol_f=1e-10, t_max=5.0)
    res = run_flow(circle64, -np.ones(64), lognormal_field(circle64, 0), cfg)
    rs = trace_column(res.trace, "r")
    assert rs.shape == (len(res.trace),)
    assert rs[0] == res.trace[0].r
    with pytest.raises(AttributeError):
        trace_column(res.trace, "nope")


# rows at the edges of the %.16e format: signed zero, the least subnormal,
# the largest double, a tiny normal, negatives and a seven-digit step
EDGE_ROWS = [
    flow.TraceRecord(0, 0.0, 0.0, -1.5, -0.0, 5e-324, 1.7976931348623157e308, 1e-300,
                     -2.5e-7, 3.141592653589793, 0.1),
    flow.TraceRecord(10**6, 123.456, -1e-300, -5e-324, 2.220446049250313e-16,
                     -1.7976931348623157e308, 1.0, 0.0, -0.0, -1e308, 7.0),
]
# what the row-by-row format(x, ".16e") writer printed for EDGE_ROWS
EDGE_CSV = (
    TRACE_HEADER + "\n"
    "0,0.0000000000000000e+00,0.0000000000000000e+00,-1.5000000000000000e+00,"
    "-0.0000000000000000e+00,4.9406564584124654e-324,1.7976931348623157e+308,"
    "1.0000000000000000e-300,-2.4999999999999999e-07,3.1415926535897931e+00,"
    "1.0000000000000001e-01\n"
    "1000000,1.2345600000000000e+02,-1.0000000000000000e-300,-4.9406564584124654e-324,"
    "2.2204460492503131e-16,-1.7976931348623157e+308,1.0000000000000000e+00,"
    "0.0000000000000000e+00,-0.0000000000000000e+00,-1.0000000000000000e+308,"
    "7.0000000000000000e+00\n"
)


@pytest.mark.parametrize("rows", [EDGE_ROWS, flow.Trace(EDGE_ROWS)], ids=["list", "Trace"])
def test_trace_csv_golden_bytes(rows):
    buf = io.StringIO()
    write_trace_csv(rows, buf)
    assert buf.getvalue() == EDGE_CSV
    back = read_trace_csv(io.StringIO(EDGE_CSV))
    assert back == EDGE_ROWS
    assert [math.copysign(1.0, rec.norm_err) for rec in back] == [-1.0, 1.0]
    assert [type(rec.step) for rec in back] == [int, int]


def test_trace_is_a_read_only_sequence_of_rows():
    rows = [flow.TraceRecord(k, 0.5 * k, 0.5, *[float(k + j) for j in range(8)])
            for k in range(5)]
    trace = flow.Trace(rows)
    assert len(trace) == 5 and len(flow.Trace()) == 0
    assert trace[1] == rows[1] and trace[-1] == rows[-1]
    for i in (5, -6):
        with pytest.raises(IndexError):
            trace[i]
    tail = trace[2:]
    assert isinstance(tail, flow.Trace) and tail == rows[2:]
    assert trace_column(tail, "t").tolist() == [1.0, 1.5, 2.0]
    assert trace_column(trace[::2], "step").tolist() == [0.0, 2.0, 4.0]
    assert all(type(rec) is flow.TraceRecord for rec in trace)
    assert list(trace) == rows
    assert trace == rows and rows == trace
    assert trace != rows[:4] and rows[:4] != trace
    assert trace == flow.Trace(rows) and trace != tail
    with pytest.raises(AttributeError):
        trace_column(trace, "nope")
    with pytest.raises(AttributeError):
        trace_column(rows, "nope")


GOOD_ROW = "3," + ",".join(["1.0"] * 10) + "\n"


@pytest.mark.parametrize("bad, lineno", [
    ("1,2.0,3.0\n", 3),                            # 3 fields
    (GOOD_ROW.rstrip("\n") + ",4.0\n", 3),           # 12 fields
    ("\n", 3),                                     # a trailing blank line
    ("1.5" + GOOD_ROW[1:], 3),                     # a step that is no integer
    (GOOD_ROW.replace("1.0", "x", 1), 3),          # a real that is no number
    (str(2**53 + 1) + GOOD_ROW[1:], 3),            # a step a float64 cannot hold
    (GOOD_ROW + GOOD_ROW + "\n", 5),                # blank after two good rows
], ids=["3-fields", "12-fields", "blank", "step-1.5", "real-x", "step-2**53+1",
        "blank-line-5"])
def test_read_trace_csv_names_the_line_of_a_malformed_row(bad, lineno):
    text = TRACE_HEADER + "\n" + GOOD_ROW + bad
    with pytest.raises(ValueError, match=rf"^trace line {lineno}: "):
        read_trace_csv(io.StringIO(text))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.floats(min_value=0.01, max_value=100.0),
)
def test_normalize_scale_invariance_property(seed, scale, circle64):
    u = lognormal_field(circle64, seed)
    a = normalize(circle64, u, 3.0)
    b = normalize(circle64, scale * u, 3.0)
    np.testing.assert_allclose(a, b, rtol=1e-13)


# --- kernels and public helpers against reference_flow ----------------------
#
# The run loop and the steppers go through private kernels (_settle,
# _diagnose, _imex_update), and the public helpers validate and call the
# same kernels.  reference_flow writes the formulas out plainly from the
# manifold primitives; kernels and helpers must reproduce it bit for bit.
# Imex is the exception: the package solves each Newton step in its
# symmetric form by PCG, the reference solves the unsymmetric
# diags(M) + pdt A diags(du/dw) directly.  Both Newton loops exit at
# max |F| <= 1e-12 max(1, |target|) near the one root, and the PCG solves
# stop at relative residual 1e-13, a tenth of that exit test, so every
# quantity agrees within the Newton tolerance, in max norm relative to the
# reference.  Kernel, public step and run loop still agree bit for bit.
IMEX_RTOL = 1e-12


def _kernel_case(man):
    x = man.coordinates[:, 0]
    psi = -1.0 + 0.3 * np.cos(2.0 * x)
    u = ref.normalize(man, lognormal_field(man, 11), 3.0)
    return psi, make_flow_state(man, psi, u, t=0.5, step=7)


def _assert_bitwise(got, want):
    state, R, f, res, u_min = got
    assert np.array_equal(state.u, want.u)
    assert np.array_equal(R, want.R)
    assert (state.t, state.step, state.p, state.c) == (want.t, want.step, 3.0, 1.0)
    assert state.r == want.r
    assert state.norm_err == want.norm_err
    assert f == want.f
    assert res == want.res
    assert u_min == want.u.min()


def _assert_near(got, want):
    state, R, f, res, u_min = got
    assert (state.t, state.step, state.p, state.c) == (want.t, want.step, 3.0, 1.0)
    for a, b in ((state.u, want.u), (R, want.R), (state.r, want.r), (f, want.f),
                 (res, want.res)):
        assert np.max(np.abs(a - b)) <= IMEX_RTOL * np.max(np.abs(b))
    # the integral before projection is about 1, and u^4 carries u's gap 4 times
    assert abs(state.norm_err - want.norm_err) <= 4.0 * IMEX_RTOL
    assert u_min == state.u.min()


def _through_kernels(man, psi, state, dt, update, arg):
    # arg is R - r for the explicit update and r for the imex one
    settled = update(man, psi, state.u, arg, dt, state.p, state.c)
    new, (upw, u_min) = flow._stepped(state, dt, *settled), settled[3:]
    R, _, f, res = flow._diagnose(man, psi, new.u, new.c, new.p, new.r, upw)
    return new, R, f, res, u_min


MESHES = ["circle128", "torus2d", "octahedron"]


def test_helpers_reject_misshaped_psi(circle64):
    man = circle64
    u = normalize(man, lognormal_field(man, 1), 3.0)
    state = make_flow_state(man, np.ones(64), u)
    for psi in (np.ones((64, 1)), np.ones(63), 1.0):
        for call in (lambda: pseudo_scalar_curvature(man, u, psi, 1.0, 3.0),
                     lambda: rayleigh_r(man, u, psi, 1.0, 3.0),
                     lambda: f_diagnostic(man, u, psi, 1.0, 3.0),
                     lambda: make_flow_state(man, psi, u),
                     lambda: energy_E(man, u, psi, 1.0, 3.0),
                     lambda: step_explicit(man, psi, state, 1e-4),
                     lambda: step_imex(man, psi, state, 1e-4)):
            with pytest.raises(SizeMismatch, match="psi has shape"):
                call()


def _state_r(man, psi, u, c, p):
    state = make_flow_state(man, psi, u, p=p, c=c)
    assert np.array_equal(state.u, u)
    return state.r


@pytest.mark.parametrize("mesh", MESHES)
def test_public_helpers_match_reference(mesh, request):
    man = request.getfixturevalue(mesh)
    x = man.coordinates[:, 0]
    psi = -1.0 + 0.3 * np.cos(2.0 * x)
    v = lognormal_field(man, 5)
    for c, p in ((1.0, 3.0), (1.3, 5.0)):
        assert _state_r(man, psi, v, c, p) == ref.rayleigh(man, v, psi, c, p)
        assert rayleigh_r(man, v, psi, c, p) == ref.rayleigh(man, v, psi, c, p)
        assert np.array_equal(pseudo_scalar_curvature(man, v, psi, c, p),
                              ref.curvature(man, v, psi, c, p))
        assert np.array_equal(normalize(man, v, p), ref.normalize(man, v, p))
        assert f_diagnostic(man, v, psi, c, p) == ref.decay(man, v, psi, c, p)
        # the energy shares the quadratic form; u may change sign there
        for u in (v, v - v.mean()):
            assert energy_E(man, u, psi, c, p) == ref.energy(man, u, psi, c, p)


@pytest.mark.parametrize("mesh", MESHES)
def test_explicit_kernel_matches_public_helpers(mesh, request):
    man = request.getfixturevalue(mesh)
    psi, state = _kernel_case(man)
    dt = 0.2 * ref.stable_dt(man, state.u, 3.0, 1.0, 0.25, None)
    want = ref.explicit(man, psi, 1.0, 3.0, state.u, state.t, state.step, dt)
    R0 = flow._curvature(man, state.u, psi, 1.0, 3.0)
    got = _through_kernels(man, psi, state, dt, flow._explicit_update, R0 - state.r)
    _assert_bitwise(got, want)
    public = step_explicit(man, psi, state, dt)
    assert np.array_equal(public.u, want.u) and public.r == want.r


@pytest.mark.parametrize("mesh", MESHES)
def test_imex_kernel_matches_assembled_newton(mesh, request):
    man = request.getfixturevalue(mesh)
    psi, state = _kernel_case(man)
    dt = 1e-2
    got = _through_kernels(man, psi, state, dt, flow._imex_update, state.r)
    public = step_imex(man, psi, state, dt)
    assert np.array_equal(public.u, got[0].u) and public.r == got[0].r
    assert public.norm_err == got[0].norm_err
    _assert_near(got, ref.imex(man, psi, 1.0, 3.0, state.u, state.t, state.step, dt))


def test_imex_rejects_a_step_whose_newton_matrix_is_not_spd(circle64):
    # psi = -1 and dt = 1: c S + M (p dt psi + p u^{p-1}) has a negative
    # quadratic form on constants, so the step is rejected, not solved
    man = circle64
    psi = -np.ones(64)
    state = make_flow_state(man, psi, normalize(man, lognormal_field(man, 0), 3.0))
    with pytest.raises(StepRejectedPositivity, match="Newton matrix"):
        step_imex(man, psi, state, 1.0)
    # the run loop halves dt until the matrix is SPD, and the run goes on
    res = run_flow(man, psi, lognormal_field(man, 0),
                   FlowConfig(scheme="imex", dt0=1.0, t_max=20.0))
    assert res.stop == STOP_TMAX
    assert 0.0 < res.trace[1].dt < 1.0


@pytest.mark.parametrize("scheme", ["explicit", "imex"])
def test_run_loop_first_row_matches_public_helpers(scheme, circle128):
    man = circle128
    psi = -1.0 + 0.3 * np.cos(man.coordinates[:, 0])
    u0 = lognormal_field(man, 2)
    cfg = FlowConfig(scheme=scheme, dt0=1e-3, max_steps=1)
    res = run_flow(man, psi, u0, cfg)
    u = ref.normalize(man, u0, 3.0)
    row = res.trace[-1]
    if scheme == "explicit":
        dt = ref.stable_dt(man, u, 3.0, 1.0, cfg.safety, cfg.dt0)
        want = ref.explicit(man, psi, 1.0, 3.0, u, 0.0, 0, dt)
        assert row == flow.TraceRecord(
            step=1, t=want.t, dt=dt, r=want.r, norm_err=want.norm_err,
            u_min=want.u.min(), u_max=want.u.max(), f=want.f,
            R_min=want.R.min(), R_max=want.R.max(), res_linf=want.res)
        assert np.array_equal(res.final.u, want.u)
    else:
        # the run loop takes the public step bit for bit; its row is within
        # IMEX_RTOL of the reference's direct solves
        dt = cfg.dt0
        public = step_imex(man, psi, make_flow_state(man, psi, u), dt)
        assert np.array_equal(res.final.u, public.u)
        assert (row.r, row.norm_err) == (public.r, public.norm_err)
        R = pseudo_scalar_curvature(man, public.u, psi, 1.0, 3.0)
        assert (row.R_min, row.R_max, row.u_max) == (R.min(), R.max(), public.u.max())
        assert (row.step, row.dt) == (1, dt)
        want = ref.imex(man, psi, 1.0, 3.0, u, 0.0, 0, dt)
        _assert_near((res.final, R, row.f, row.res_linf, row.u_min), want)


def _reference_rows(man, psi, u0, cfg, steps):
    """The trace rows of an explicit run from reference_flow, each extremum
    from numpy's own min and max, and the reference's final field."""
    p, c = cfg.p, cfg.c
    u = ref.normalize(man, u0, p)
    state = SimpleNamespace(u=u, t=0.0, step=0, r=ref.rayleigh(man, u, psi, c, p), norm_err=0.0,
                            R=ref.curvature(man, u, psi, c, p), f=ref.decay(man, u, psi, c, p),
                            res=ref.residual(man, u, psi, c, p))
    rows, dt = [], 0.0
    while True:
        rows.append((state.step, state.t, dt, state.r, state.norm_err, state.u.min(),
                     state.u.max(), state.f, state.R.min(), state.R.max(), state.res))
        if state.step == steps:
            return np.array(rows), state.u
        dt = ref.stable_dt(man, state.u, p, c, cfg.safety, cfg.dt0)
        state = ref.explicit(man, psi, c, p, state.u, state.t, state.step, dt)


@pytest.mark.parametrize("mesh,start", [("circle128", "lognormal"), ("torus2d", "lognormal"),
                                        ("octahedron", "lognormal"), ("bipyramid", "lognormal"),
                                        ("circle128", "constant"),
                                        ("circle128", "near-stationary")])
def test_run_loop_rows_match_the_reference_bit_for_bit(mesh, start, request, monkeypatch):
    # every row of 40 explicit steps, not just the first; bipyramid has
    # negative cotangent weights.  A constant start at psi = 0 has R = 0.0
    # exactly, so its row takes the zero fallback of manifold._min / _max.
    # The near-stationary start drifts off the constraint by less than
    # rounding, so its projections stop at the identity pass; the tolerances
    # keep it from converging at step 0
    man = request.getfixturevalue(mesh)
    x = man.coordinates[:, 0]
    if start == "constant":
        psi, u0, steps = np.zeros(man.node_count), np.ones(man.node_count), 0
    elif start == "near-stationary":
        psi, u0, steps = -np.ones(man.node_count), normalize(man, 1.0 + 1e-9 * np.cos(x), 3.0), 40
    else:
        psi, u0, steps = -1.0 + 0.3 * np.cos(x), lognormal_field(man, 2), 40
    cfg = FlowConfig(max_steps=40, tol_f=1e-300, tol_res=1e-300)
    integrals = []
    integral = flow._integral
    monkeypatch.setattr(flow, "_integral", lambda *a: integrals.append(1) or integral(*a))
    res = run_flow(man, psi, u0, cfg)
    want, u = _reference_rows(man, psi, u0, cfg, steps)
    assert len(res.trace) == steps + 1
    assert res.trace._table().tobytes() == want.tobytes()
    assert res.final.u.tobytes() == u.tobytes()
    # one integral before each projection and one after each pass it takes
    if start == "near-stationary":
        assert len(integrals) < 3 * (steps + 1), "no projection took the identity exit"


@pytest.mark.parametrize("kind", ["explicit", "imex", "gauss"])
def test_a_finished_run_leaves_no_reference_cycle(kind, circle64, torus2d):
    # with the cycle collector off, the final field dies with the result:
    # nothing of the run (a stepper, a closure over it) is left in a cycle
    # that would hold its fields until the collector ran
    if kind == "gauss":
        psi = 0.3 * np.cos(torus2d.coordinates[:, 0])
        def run():
            return run_gauss_flow(torus2d, psi, np.zeros(torus2d.node_count),
                                  FlowConfig(max_steps=20))
    else:
        def run():
            return run_flow(circle64, -np.ones(64), lognormal_field(circle64, 0),
                            FlowConfig(scheme=kind, dt0=1e-3, max_steps=20))
    gc.collect()
    gc.disable()
    try:
        res = run()
        assert res.final.step == 20
        final_u = weakref.ref(res.final.u)
        del res
        assert final_u() is None
    finally:
        gc.enable()


def test_imex_thm2_golden_run():
    # imex thm2 at dt 1e-3 from the preset start, against the run recorded
    # while every Newton correction was solved to 1e-13: the inexact solves
    # keep its step count and stop, and r_inf within IMEX_RTOL
    man = circle(128)
    res = run_flow(man, -np.ones(128), lognormal_field(man, 0),
                   FlowConfig(scheme="imex", dt0=1e-3))
    assert (res.stop, res.final.step) == (STOP_CONVERGED, 2418)
    golden = -2.5066282746309994
    assert abs(res.r_infinity - golden) <= IMEX_RTOL * abs(golden)


def test_settle_checks_fire(circle64):
    man = circle64
    psi, state = _kernel_case(man)

    def settle(unew):
        return flow._settle(man, psi, unew, 1e-3, state.p, state.c, "explicit")

    bad = state.u.copy()
    bad[5] = np.nan
    with pytest.raises(NonPositiveField):
        settle(bad)
    bad[5] = -1e-3
    with pytest.raises(StepRejectedPositivity):
        settle(bad)
    bad[5] = 0.0
    with pytest.raises(StepRejectedPositivity):
        settle(bad)
    with pytest.raises(ZeroDenominator):
        settle(np.full(64, 1e-100))  # u^{p+1} underflows: the integral is 0
    bad = state.u.copy()
    bad[5] = np.inf
    with pytest.raises(ZeroDenominator):
        settle(bad)
    # a NaN r poisons the explicit update itself
    with pytest.raises(NonPositiveField):
        step_explicit(man, psi, dataclasses.replace(state, r=math.nan), 1e-3)


@pytest.mark.parametrize("scheme,dt0", [("explicit", 1e-2), ("imex", 5e-2)])
def test_run_on_icosphere_reaches_constant_potential_limit(scheme, dt0, icosphere3):
    # psi = a < 0 constant: the limit is the constant field V^{-1/(p+1)}
    # with r = a V^{(p-1)/(p+1)}.  r is quadratic in the distance to the
    # constant field (~1e-9 at the res tolerance), so only rounding of the
    # quotient is left: a few ulps of r.
    man = icosphere3
    a, p = -1.0, 3.0
    cfg = FlowConfig(scheme=scheme, dt0=dt0, p=p)
    res = run_flow(man, np.full(man.node_count, a), lognormal_field(man, 0), cfg)
    assert res.stop == STOP_CONVERGED
    want = a * man.volume ** ((p - 1.0) / (p + 1.0))
    assert abs(res.r_infinity - want) <= 1e-14 * abs(want)
    np.testing.assert_allclose(res.final.u, man.volume ** (-1.0 / (p + 1.0)), rtol=0, atol=1e-8)


@pytest.mark.parametrize("scheme,dt0,a", [("explicit", 1e-2, -1.0), ("imex", 1e-3, 0.5)])
def test_run_on_an_obtuse_mesh_keeps_the_invariants(scheme, dt0, a, flat_icosphere3):
    # negative cotangent weights void the discrete maximum principle's proof,
    # yet the floor and shift of acceptance 04 hold (measured margins 2.1e-2,
    # at its tolerance), and so do acceptance 07's oracle tolerances (gaps
    # 2.0e-9 and 5.2e-9 in u, 1.9e-14 in r)
    man = flat_icosphere3
    assert sparse.triu(man.stiffness, k=1).data.max() > 0  # a negative weight
    psi = np.full(man.node_count, a)
    res = run_flow(man, psi, lognormal_field(man, 0), FlowConfig(scheme=scheme, dt0=dt0))
    assert res.stop == STOP_CONVERGED
    final = res.final
    assert abs(integrate(man, final.u ** (final.p + 1.0)) - 1.0) <= 1e-13
    rs = trace_column(res.trace, "r")
    assert np.all(np.diff(rs) <= 8.0 * EPS * (1.0 + np.abs(rs[:-1])))
    if scheme == "explicit":
        Rm = trace_column(res.trace, "R_min")
        tol = 1e-4 * (1.0 + abs(Rm[0]))
        assert np.all(Rm >= min(Rm[0], 0.0) - tol)
        assert np.all(Rm + max(1.0 - Rm[0], 1.0) >= 1.0 - tol)
    newt = newton_constrained(man, psi, final.c, final.p, final.u)
    assert np.max(np.abs(newt.u - final.u)) <= 1e-6
    assert abs(newt.r - final.r) <= 1e-8
