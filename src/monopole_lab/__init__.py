"""Integrable generalisations of the Dirac magnetic monopole on the sphere.

Numerical realisation of the two families with an extra integral quadratic in
momenta: the sphere-in-harmonic-field family (equivalent to the Clebsch system
on e(3)*) and the elliptic-function family living on a quotient of a period
torus, together with their coalescing-root cylinder limit and the two-centre
system on the round sphere.
"""

from .polyroots import (
    AdmissibilityReport,
    QuarticParams,
    RootQuadruple,
    admissibility,
    discriminant,
    eval_p,
    from_roots,
    real_roots,
)
from .elliptic import (
    EllipticModel,
    LimitModel,
    build_model,
    build_model_from_roots,
    jacobi_special,
    limit_q2,
)
from .fields import (
    Family,
    SystemSpec,
    case1_spec,
    case2_limit_spec,
    case2_spec,
    gauge_a,
    normal_form,
    vy_spec,
)
from .geometry import (
    MetricSample,
    NeumannConstants,
    SpherePoint,
    TorusPoint,
    area_and_flux,
    cartesian_to_neumann,
    conformal_case1,
    curvature_closed,
    curvature_numeric,
    fixed_point_chart,
    hyperbolic_chart,
    limit_cylinder_metric,
    limit_metric_decay_constant,
    neumann_to_cartesian,
    sphere_point,
    stackel_metric,
    torus_metric,
    torus_point,
)
from .dynamics import (
    E3State,
    PhaseState,
    Trajectory,
    clebsch_eval,
    flow_step,
    hf_bracket,
    integrate,
    random_state,
    torus_eval,
    vy_eval,
)
from .verify import (
    AnsatzGrid,
    ConditionReport,
    build_case1_grid,
    build_case2_grid,
    check_classical,
    check_duality,
    check_functional_equation,
    check_ode_identities,
    check_quantum_c6star,
)

__version__ = "0.1.0"
