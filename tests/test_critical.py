"""The paper's own regime: n = 3 at the critical exponent.

On the flat 3-torus of side 2 pi the flow runs with p = (n+2)/(n-2) = 5 and
c = c_3 = 4(n-1)/(n-2) = 8.  With psi = a constant and (p-1) a below
c lambda1(-Lap) = 8, the constant field is the stable limit, with energy
E = a V^{2/3}.  The 8^3 grid keeps each run under a second.
"""

import numpy as np
import pytest

from curvflow.elliptic import newton_constrained
from curvflow.flow import STOP_CONVERGED, FlowConfig, default_c, run_flow, trace_column
from curvflow.manifold import build_torus_grid, integrate
from curvflow.spectral import energy_E, lambda1, lognormal_field

from conftest import TWO_PI

EPS = np.finfo(float).eps
P = 5.0


@pytest.fixture(scope="module")
def torus3():
    return build_torus_grid([8, 8, 8], [TWO_PI] * 3)


@pytest.mark.parametrize("a", [-1.0, 0.3])
def test_imex_reaches_the_constant_limit(a, torus3):
    man = torus3
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
def test_lambda1_of_a_constant_potential(a, torus3):
    e = lambda1(torus3, np.full(torus3.node_count, a), default_c(3))
    assert abs(e.lambda1 - a) <= 2 * np.spacing(abs(a))
