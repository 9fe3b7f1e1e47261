"""End-to-end acceptance checks.

Each test prints one `[acceptance NN] label: PASS|FAIL` line with capture
suspended so a full-suite run always shows the scoreboard.  Expensive
flow runs are shared through module-scoped fixtures; every criterion also
tracks the wall time of what it owns and asserts the stated budget.
"""

import contextlib
import time

import numpy as np
import pytest
from scipy import sparse
import scipy.linalg as sla

from curvflow.elliptic import newton_constrained
from curvflow.flow import FlowConfig, normalize, run_flow, trace_column
from curvflow.gauss import run_gauss_flow
from curvflow.manifold import build_torus_grid, integrate
from curvflow.spectral import estimate_Y, lambda1, lognormal_field

from conftest import TWO_PI, bump, circle

SQRT_2PI = np.sqrt(TWO_PI)
U_CONST = TWO_PI**-0.25
EPS = np.finfo(float).eps

# relaxation budget for the multistart energy estimates (explicit scheme,
# residual tolerance loose enough to finish in seconds per start)
LEAN = FlowConfig(scheme="explicit", tol_f=1e-12, tol_res=1e-7, t_max=60.0)


_CAPMAN = None


@pytest.fixture(autouse=True, scope="module")
def _scoreboard_capture(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def report(num, label, ok, detail, seconds, budget):
    line = (
        f"[acceptance {num:02d}] {label}: {'PASS' if ok and seconds < budget else 'FAIL'}"
        f" ({detail}; {seconds:.1f} s of {budget:.0f} s budget)"
    )
    suspend = (_CAPMAN.global_and_fixture_disabled() if _CAPMAN is not None
               else contextlib.nullcontext())
    with suspend:
        print(line, flush=True)
    assert ok, f"acceptance {num} {label}: {detail}"
    assert seconds < budget, f"acceptance {num} over budget: {seconds:.1f} s"


def preset_cfg(**kw):
    base = dict(scheme="explicit", dt0=1e-2, safety=0.25, tol_f=1e-10,
                tol_res=1e-8, t_max=100.0)
    base.update(kw)
    return FlowConfig(**base)


def timed_run(man, psi, u0, cfg):
    t0 = time.time()
    res = run_flow(man, psi, u0, cfg)
    return res, time.time() - t0


@pytest.fixture(scope="module")
def man128():
    return circle(128)


@pytest.fixture(scope="module")
def thm2_runs(man128):
    psi = -np.ones(128)
    out = []
    for seed in range(5):
        out.append(timed_run(man128, psi, lognormal_field(man128, seed), preset_cfg()))
    return out


@pytest.fixture(scope="module")
def thm3_bump(man128):
    return timed_run(man128, np.zeros(128), bump(man128), preset_cfg())


@pytest.fixture(scope="module")
def thm3_random_runs(man128):
    psi = np.zeros(128)
    return [
        timed_run(man128, psi, lognormal_field(man128, seed), preset_cfg())
        for seed in range(5)
    ]


@pytest.fixture(scope="module")
def imex_runs(man128):
    cfg = preset_cfg(scheme="imex", dt0=1e-3)
    two = timed_run(man128, -np.ones(128), lognormal_field(man128, 0), cfg)
    cfg = preset_cfg(scheme="imex", dt0=1e-3)
    three = timed_run(man128, np.zeros(128), bump(man128), cfg)
    return two, three


@pytest.fixture(scope="module")
def imex_fine_thm2(man128):
    cfg = preset_cfg(scheme="imex", dt0=1e-4)
    return timed_run(man128, -np.ones(128), lognormal_field(man128, 0), cfg)


@pytest.fixture(scope="module")
def torus_run():
    man = build_torus_grid([32, 32], [TWO_PI, TWO_PI])
    psi = -1.0 + 0.3 * np.cos(man.coordinates[:, 0])
    res, secs = timed_run(man, psi, lognormal_field(man, 0), preset_cfg(scheme="imex", dt0=1e-3))
    return man, psi, res, secs


def test_01_conservation(thm2_runs, thm3_bump, man128):
    t0 = time.time()
    total = viol = 0
    for res, _ in (thm2_runs[0], thm3_bump):
        rows = res.trace[1:]
        total += len(rows)
        for rec in rows:
            if abs(rec.norm_err) > 10.0 * rec.dt**2 * (1.0 + abs(rec.r)) ** 2:
                viol += 1
        final = res.final
        assert abs(integrate(man128, final.u ** (final.p + 1.0)) - 1.0) <= 1e-13
    secs = thm2_runs[0][1] + thm3_bump[1] + time.time() - t0
    report(1, "constraint conservation", viol <= (1.0 - 0.999) * total,
           f"{viol}/{total} pre-projection bound violations, post-projection <= 1e-13",
           secs, 30.0)


def test_02_monotone_r(imex_runs, thm2_runs, thm3_bump):
    t0 = time.time()
    worst_imex = -np.inf
    for res, _ in imex_runs:
        rs = trace_column(res.trace, "r")
        # allowance of a few ulps of r: at the stationary floor the quotient
        # evaluation itself wiggles below the last bit of the trend
        excess = np.diff(rs) - 8.0 * EPS * (1.0 + np.abs(rs[:-1]))
        worst_imex = max(worst_imex, float(excess.max()))
    worst_exp = -np.inf
    for res, _ in (thm2_runs[0], thm3_bump):
        rows = res.trace
        for prev, cur in zip(rows, rows[1:]):
            excess = (cur.r - prev.r) - 10.0 * cur.dt**2 * abs(prev.r) \
                - 8.0 * EPS * (1.0 + abs(prev.r))
            worst_exp = max(worst_exp, excess)
    ok = worst_imex <= 0 and worst_exp <= 0
    secs = sum(s for _, s in imex_runs) + time.time() - t0
    report(2, "monotone r", ok,
           f"imex worst excess {worst_imex:.2e}, explicit worst excess {worst_exp:.2e}",
           secs, 60.0)


def test_03_dissipation_identity(imex_fine_thm2):
    res, run_secs = imex_fine_thm2
    t0 = time.time()
    rows = res.trace
    rs = trace_column(rows, "r")
    ts = trace_column(rows, "t")
    fs = trace_column(rows, "f")
    worst = 0.0
    checked = 0
    for k in range(1, len(rows) - 1):
        if fs[k] <= 1e-8:
            continue
        central = (rs[k + 1] - rs[k - 1]) / (ts[k + 1] - ts[k - 1])
        rel = abs(central + 2.0 * fs[k]) / (2.0 * fs[k])
        worst = max(worst, rel)
        checked += 1
    ok = checked > 100 and worst <= 0.05
    report(3, "dissipation identity dr/dt = -2f", ok,
           f"worst relative gap {worst:.3%} over {checked} steps with f > 1e-8",
           run_secs + time.time() - t0, 120.0)


def test_04_maximum_principle(thm2_runs, thm3_random_runs):
    t0 = time.time()
    worst_floor = np.inf
    worst_sigma = np.inf
    for res, _ in thm2_runs + thm3_random_runs:
        Rm = trace_column(res.trace, "R_min")
        tol = 1e-4 * (1.0 + abs(Rm[0]))
        sigma = max(1.0 - Rm[0], 1.0)
        worst_floor = min(worst_floor, float((Rm - (min(Rm[0], 0.0) - tol)).min()))
        worst_sigma = min(worst_sigma, float((Rm + sigma - (1.0 - tol)).min()))
    ok = worst_floor >= 0 and worst_sigma >= 0
    secs = sum(s for _, s in thm2_runs + thm3_random_runs) + time.time() - t0
    report(4, "curvature maximum principle", ok,
           f"10 random runs, floor margin {worst_floor:.3e}, shift margin {worst_sigma:.3e}",
           secs, 120.0)


def test_05_negative_potential_limit(thm2_runs, man128):
    t0 = time.time()
    worst_r = worst_u = 0.0
    flips_checked = 0
    for res, _ in thm2_runs:
        assert res.stop == "Converged"
        last = res.trace[-1]
        assert last.f <= 1e-10 and last.res_linf <= 1e-8
        worst_r = max(worst_r, abs(res.r_infinity + SQRT_2PI))
        worst_u = max(worst_u, float(np.max(np.abs(res.final.u - U_CONST))))
        rs = trace_column(res.trace, "r")
        if rs[0] > 0:
            flips_checked += 1
            k = int(np.argmax(rs < 0))
            assert rs[k] < 0 and np.all(rs[k:] < 0)
    # gradient-dominated start guarantees r(0) > 0: the sign flip must occur
    x = man128.coordinates[:, 0]
    flip, flip_secs = timed_run(
        man128, -np.ones(128), normalize(man128, 1.0 + 0.7 * np.cos(3.0 * x), 3.0),
        preset_cfg(),
    )
    rs = trace_column(flip.trace, "r")
    assert rs[0] > 0
    k = int(np.argmax(rs < 0))
    flip_ok = rs[k] < 0 and bool(np.all(rs[k:] < 0))
    flips_checked += 1
    ok = worst_r <= 1e-5 and worst_u <= 1e-5 and flip_ok
    report(5, "negative-potential constant limit", ok,
           f"max |r_inf + sqrt(2pi)| {worst_r:.2e}, max field gap {worst_u:.2e}, "
           f"{flips_checked} sign flips verified",
           flip_secs + time.time() - t0, 120.0)


def test_06_zero_potential_decay(thm3_bump):
    res, run_secs = thm3_bump
    t0 = time.time()
    assert res.stop == "Converged"
    r_ok = res.r_infinity <= 1e-8

    rows = res.trace
    tail = [rec for rec in rows[len(rows) // 2 :] if rec.r > 0]
    ts = np.array([rec.t for rec in tail])
    logr = np.log([rec.r for rec in tail])
    slope, intercept = np.polyfit(ts, logr, 1)
    fit = slope * ts + intercept
    ss_res = float(np.sum((logr - fit) ** 2))
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot

    eps = 1e-2
    umax = trace_column(rows, "u_max")
    umin = trace_column(rows, "u_min")
    ts_all = trace_column(rows, "t")
    rs = trace_column(rows, "r")
    integral = np.concatenate([[0.0], np.cumsum(np.diff(ts_all) * (rs[1:] + rs[:-1]) / 2.0)])
    p = res.final.p
    lhs = (umax / umax[0]) ** p
    mid = np.exp(integral) * (1.0 + eps)
    rhs = (1.0 + eps) ** 2 * (umin / umin[0]) ** p
    harnack_ok = bool(np.all(lhs <= mid) and np.all(mid <= rhs))

    ok = r_ok and r2 >= 0.99 and harnack_ok
    report(6, "zero-potential exponential decay", ok,
           f"r_inf {res.r_infinity:.2e}, log-r tail R^2 {r2:.6f}, "
           f"decay_rate {res.decay_rate:.4f}, Harnack chain holds",
           run_secs + time.time() - t0, 120.0)


def test_07_oracle_equivalence(thm2_runs, thm3_bump, torus_run, man128):
    t0 = time.time()
    worst_u = worst_r = 0.0
    cases = [
        (man128, -np.ones(128), thm2_runs[0][0]),
        (man128, np.zeros(128), thm3_bump[0]),
        (torus_run[0], torus_run[1], torus_run[2]),
    ]
    for man, psi, res in cases:
        newt = newton_constrained(man, psi, res.final.c, res.final.p, res.final.u)
        worst_u = max(worst_u, float(np.max(np.abs(newt.u - res.final.u))))
        worst_r = max(worst_r, abs(newt.r - res.final.r))
    ok = worst_u <= 1e-6 and worst_r <= 1e-8
    report(7, "stationary-solver equivalence", ok,
           f"3 limits, max field move {worst_u:.2e}, max r move {worst_r:.2e}",
           torus_run[3] + time.time() - t0, 180.0)


def test_08_spectral_inequalities(man128):
    t0 = time.time()
    V = man128.volume
    weight = V ** ((3.0 - 1.0) / (3.0 + 1.0))

    # dense-eigensolver oracle for a nonconstant potential
    m5 = circle(512)
    psi5 = np.cos(m5.coordinates[:, 0])
    A = (m5.stiffness + sparse.diags(m5.mass * psi5)).toarray()
    dense = sla.eigh(A, np.diag(m5.mass), eigvals_only=True, subset_by_index=[0, 0])[0]
    dense_gap = abs(lambda1(m5, psi5, 1.0).lambda1 - dense)

    details = [f"dense-oracle gap {dense_gap:.1e}"]
    ok = dense_gap <= 1e-8
    for a in (-1.0, 0.0, 1.0):
        psi = a * np.ones(128)
        lam = lambda1(man128, psi, 1.0).lambda1
        y = estimate_Y(man128, psi, 1.0, 3.0, n_starts=3, seed=0, cfg=LEAN)
        ok &= abs(lam - a) <= 1e-10
        if a == 0.0:
            ok &= abs(y) <= 1e-8
            ok &= y <= lam * weight + 1e-8
        elif a > 0:
            ok &= y > 0
            ok &= y <= lam * weight + 1e-8
        else:
            ok &= y < 0
            ok &= y >= lam * weight - 1e-8
        details.append(f"a={a:+.0f}: lambda1 {lam:+.6f} Y_upper {y:+.6f}")
    report(8, "eigenvalue sign and volume bounds", ok,
           "; ".join(details), time.time() - t0, 120.0)


def test_09_gauss_conservation():
    t0 = time.time()
    man = build_torus_grid([32, 32], [TWO_PI, TWO_PI])
    n = man.node_count
    psi = 0.3 * np.cos(man.coordinates[:, 0])
    cfg = FlowConfig(scheme="explicit", dt0=2e-5, tol_f=1e-300, t_max=1e9,
                     max_steps=10_000, trace_every=500)
    res = run_gauss_flow(man, psi, np.zeros(n), cfg)
    drift = float(np.max(np.abs(trace_column(res.trace, "norm_err"))))

    fixed = run_gauss_flow(man, 0.4 * np.ones(n), np.zeros(n),
                           FlowConfig(scheme="explicit", dt0=1e-3, t_max=0.1, tol_f=1e-300))
    stationary = float(np.max(np.abs(fixed.final.u)))
    ok = drift <= 1e-6 and stationary <= 1e-12
    report(9, "area conservation of the log-conformal flow", ok,
           f"relative drift {drift:.2e} over {res.final.step} steps, "
           f"fixed-point motion {stationary:.2e}",
           time.time() - t0, 60.0)


def test_10_grid_refinement():
    t0 = time.time()
    # flow limits sit at the solver floor on every grid (the constant is
    # exact discretely), so truncation shows up in a finite-time observable
    limit_errs = []
    for n in (32, 64, 128):
        man = circle(n)
        res = run_flow(man, -np.ones(n), lognormal_field(man, 0), preset_cfg())
        limit_errs.append(abs(res.r_infinity + SQRT_2PI))
    floor_ok = max(limit_errs) <= 1e-6

    mid = {}
    for n in (32, 64, 128, 1024):
        man = circle(n)
        x = man.coordinates[:, 0]
        cfg = FlowConfig(scheme="imex", dt0=2e-5, tol_f=1e-300, tol_res=1e-300,
                         t_max=0.1, trace_every=1000)
        mid[n] = run_flow(man, -np.ones(n), 1.0 + 0.5 * np.cos(x), cfg).final.r
    errs = [abs(mid[n] - mid[1024]) for n in (32, 64, 128)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    trunc_ok = errs[0] > errs[1] > errs[2] and min(ratios) >= 3.0

    report(10, "grid refinement convergence", floor_ok and trunc_ok,
           f"limit error at floor {max(limit_errs):.1e}; mid-flow errors "
           + "/".join(f"{e:.2e}" for e in errs)
           + f", ratios {ratios[0]:.2f} and {ratios[1]:.2f}",
           time.time() - t0, 180.0)
