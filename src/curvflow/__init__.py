"""curvflow: a numerical laboratory for norm-preserving curvature flows
on discretized compact manifolds.

The package builds discrete manifolds (periodic grids, OFF surface
meshes), evolves a constrained conformal-factor flow on them, and
cross-checks the flow limits against an independent constrained Newton
solver and spectral quantities of the potential.
"""

from .elliptic import NewtonResult, newton_constrained, residual_linf
from .errors import *  # noqa: F401,F403
from .flow import (
    FlowConfig,
    FlowResult,
    FlowState,
    Trace,
    TraceRecord,
    adaptive_dt,
    default_c,
    f_diagnostic,
    make_flow_state,
    normalize,
    pseudo_scalar_curvature,
    rayleigh_r,
    run_flow,
    sigma_shift,
    step_explicit,
    step_imex,
    trace_column,
    write_trace_csv,
)
from .gauss import GaussState, gauss_r, k_psi, run_gauss_flow
from .manifold import (
    DiscreteManifold,
    build_torus_grid,
    dirichlet_energy,
    integrate,
    laplacian_apply,
    load_off_mesh,
    product,
)
from .psiexpr import PsiSpec, evaluate, parse
from .spectral import (
    EigenResult,
    energy_E,
    estimate_Y,
    lambda1,
    lognormal_field,
    relax_many,
    y_sphere_constant,
)

__version__ = "0.1.0"
