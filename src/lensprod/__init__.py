"""Exact-arithmetic topology of complex-projective and lens product spaces:
cohomology rings over Z, Q and prime fields, mod-2 Steenrod operations,
cartesian and stable wedge splittings, manifold invariants, and a
Smith-normal-form homology oracle for cross-validation."""

from .algebra import (
    GF,
    GradedAbGroup,
    INFINITY,
    PoincareSeries,
    QQ,
    TruncPoly,
    TupleSpec,
    ZZ,
    binom_mod2_expand,
    nu_p,
)
from .cohomology import (
    BasisMonomial,
    CohomologyRing,
    build_ring,
    change_coefficients,
    cup_length,
    graded_groups,
    poincare_polynomial,
    projection_pi_star,
    restriction_p,
    zero_divisor_cup_length,
)
from .fgl import make_additive, make_custom, make_multiplicative, t_series
from .invariants import (
    InvariantReport,
    cat_bounds,
    euler_char,
    immersion_dim,
    invariant_report,
    kervaire_semichar,
    motion_plan_sphere,
    parallelizable,
    sigma,
    span_report,
    stably_parallelizable,
    tc_bounds,
    vector_field_exists,
)
from .oracle import (
    compare_with_theory,
    homology,
    product_quotient_complex,
    sphere_complex,
)
from .splittings import (
    cartesian_split,
    clifford_admits,
    mu1,
    mu_k,
    stunted_cohomology,
    verify_wedge,
    wedge_decomposition,
)
from .steenrod import (
    is_orientable,
    is_spin,
    sq_k,
    stiefel_whitney_total,
    total_sq,
)

__version__ = "0.1.0"
