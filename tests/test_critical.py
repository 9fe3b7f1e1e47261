"""The paper's own regime: n = 3 at the critical exponent.

On the flat 3-torus of side 2 pi the flow runs with p = (n+2)/(n-2) = 5 and
c = c_3 = 4(n-1)/(n-2) = 8.  With psi = a constant and (p-1) a below
c lambda1(-Lap) = 8, the constant field is the stable limit, with energy
E = a V^{2/3}.  The 8^3 grid keeps each run under a second.

On S^3(4), a Kuhn-cut 4-cube boundary projected to the unit sphere, the
constant is the stable limit for psi = 1 and psi = 2: (p-1) a stays below
c lambda1(-Lap) = 8 * 2.831.  The scalar curvature 6 of the unit S^3 sits
exactly at the edge, 4 * 6 = 8 * 3, in the smooth limit.  Each run takes
under 0.1 s (30 and 43 steps).

With psi = 6, the scalar curvature of the unit S^3, the constant's E on S^3(k)
is 6 V^{2/3}, short of Y(S^3) = 43.8232 by the volume the inscribed polytope
misses: 2.2685, 1.0503 and 0.5997 at k = 4, 6 and 8, observed orders 1.899 and
1.948 in h ~ 1/k.  The three builds take about half a second.

On S^2(1) x S^1(L), the product of an icosphere and a circle, psi = 2 is the
scalar curvature, so E is the Yamabe functional.  The constant is stable
while (p-1) 2 = 8 stays below c lambda1(-Lap) = 8 min(2, (2 pi / L)^2), as
at L = 5.  At L = 12 it is not: the constant's E is 55.95, above
Y(S^3) = 43.82.  What the run measures (seed (0, 0), 88 imex steps, 2,592
nodes with a 16-node circle) is a nonconstant discrete limit with E = 34.08,
u_max / u_min = 67.6, and 95.2% of \\int u^6 at its top node, so a single node
carries 90% of it.  That limit is a one-node spike.  With the mass lumped,
\\int u^{p+1} is sum_i M_i u_i^{p+1}, which by Jensen on each cell overstates
the integral of the interpolant wherever u is not constant on a cell, most of
all at a spike; so this E is a lattice number, not shown to approximate Y(M),
and the test does not read it as Aubin's inequality Y(M) < Y(S^3).  Whether
such limits approximate a continuum minimizer is open (ROADMAP item 1).
"""

import numpy as np
import pytest

from curvflow.elliptic import newton_constrained
from curvflow.flow import STOP_CONVERGED, FlowConfig, default_c, run_flow, trace_column
from curvflow.manifold import _simplicial, build_torus_grid, integrate, product
from curvflow.spectral import energy_E, lambda1, lognormal_field, y_sphere_constant

from conftest import TWO_PI, make_s3

EPS = np.finfo(float).eps
P = 5.0


@pytest.fixture(scope="module")
def torus3():
    return build_torus_grid([8, 8, 8], [TWO_PI] * 3)


def _imex_reaches_the_constant(man, a):
    """Imex at p = 5, c = 8 from the seed-(0, 0) start ends at the constant field."""
    c = default_c(3)
    psi = np.full(man.node_count, a)
    cfg = FlowConfig(scheme="imex", dt0=1e-2, p=P, c=c)
    res = run_flow(man, psi, lognormal_field(man, (0, 0)), cfg)
    assert res.stop == STOP_CONVERGED
    u = res.final.u
    want = a * man.volume ** ((P - 1.0) / (P + 1.0))
    assert abs(energy_E(man, u, psi, c, P) - want) <= 4 * EPS * abs(want)
    assert abs(integrate(man, u ** (P + 1.0)) - 1.0) <= 1e-13
    r = trace_column(res.trace, "r")
    assert np.all(np.diff(r) <= 8 * EPS * np.abs(r[:-1]))
    # acceptance 07's oracle tolerances
    newt = newton_constrained(man, psi, c, P, u)
    assert np.max(np.abs(newt.u - u)) <= 1e-6
    assert abs(newt.r - res.final.r) <= 1e-8


@pytest.mark.parametrize("a", [-1.0, 0.3])
def test_imex_reaches_the_constant_limit(a, torus3):
    _imex_reaches_the_constant(torus3, a)


@pytest.mark.parametrize("a", [-1.0, 0.3])
def test_lambda1_of_a_constant_potential(a, torus3):
    e = lambda1(torus3, np.full(torus3.node_count, a), default_c(3))
    assert abs(e.lambda1 - a) <= 2 * np.spacing(abs(a))


@pytest.fixture(scope="module")
def sphere3():
    return _simplicial(*make_s3(4))


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_imex_on_the_round_s3_reaches_the_constant(a, sphere3):
    assert (sphere3.node_count, sphere3.dim) == (544, 3)
    _imex_reaches_the_constant(sphere3, a)


def test_the_constant_energy_on_s3_falls_short_of_y_at_second_order():
    # measured: gaps 2.2685, 1.0503, 0.5997; orders 1.899 and 1.948
    c, n_gaps = default_c(3), []
    for k in (4, 6, 8):
        man = _simplicial(*make_s3(k))
        n = man.node_count
        E = energy_E(man, np.ones(n), np.full(n, 6.0), c, P)
        n_gaps.append((k, y_sphere_constant(3) - E))
    assert all(gap > 0 for _, gap in n_gaps)
    for (k0, g0), (k1, g1) in zip(n_gaps, n_gaps[1:]):
        assert 1.8 <= np.log(g0 / g1) / np.log(k1 / k0) <= 2.1


@pytest.mark.parametrize("L", [5.0, 12.0])
def test_imex_on_s2_times_s1(L, icosphere2):
    man = product(icosphere2, build_torus_grid([16], [L]))
    assert (man.node_count, man.dim, man.ambient_dim) == (2592, 3, 4)
    c = default_c(3)
    psi = np.full(man.node_count, 2.0)
    cfg = FlowConfig(scheme="imex", dt0=1e-2, p=P, c=c, t_max=200.0)
    res = run_flow(man, psi, lognormal_field(man, (0, 0)), cfg)
    assert res.stop == STOP_CONVERGED
    u = res.final.u
    E = energy_E(man, u, psi, c, P)
    E_const = 2.0 * man.volume ** ((P - 1.0) / (P + 1.0))
    if L == 5.0:
        assert abs(E - E_const) <= 4 * EPS * E_const
        assert u.max() / u.min() <= 1.0 + 1e-7
    else:
        # measured: E 34.08, the constant's 55.95, Y(S^3) 43.82, u_max / u_min 67.6
        assert E_const > y_sphere_constant(3)
        assert E <= 0.65 * E_const and E <= 0.8 * y_sphere_constant(3)
        assert u.max() / u.min() >= 50.0
    assert abs(integrate(man, u ** (P + 1.0)) - 1.0) <= 1e-13
    r = trace_column(res.trace, "r")
    assert np.all(np.diff(r) <= 8 * EPS * np.abs(r[:-1]))
    # acceptance 07's oracle tolerances
    newt = newton_constrained(man, psi, c, P, u)
    assert np.max(np.abs(newt.u - u)) <= 1e-6
    assert abs(newt.r - res.final.r) <= 1e-8
    assert abs(lambda1(man, psi, c).lambda1 - 2.0) <= 2 * np.spacing(2.0)
