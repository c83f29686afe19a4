"""Desk-scale numerics for word metrics, horofunction data, stable norms,
separatedness certificates, and truncated crossed-product operators."""

from .groups import (
    BallCapError,
    BallTable,
    CoordinateOverflowError,
    DEFAULT_BALL_CAP,
    GroupMismatchError,
    GroupSpec,
    LengthFunction,
    NormSpec,
    central_heisenberg_table,
    hexagonal_generators,
    H3_A,
    H3_B,
    H3_C,
)
from .horoboundary import (
    BusemannEstimate,
    DegeneratePolytopeError,
    PhiFunction,
    RaySpec,
    SupportFunctional,
    busemann_along_ray,
    check_ray_geodesic,
    cocycle_defect,
    facets,
    phi,
)
from .stable_norm import (
    DeviationReport,
    StableNormResult,
    asymptotic_length,
    stable_norm_dual,
    uniform_deviation,
)
from .separation import (
    SeparationCertificate,
    SublinearityReport,
    separation_certificate,
    sublinearity_witness,
    WITNESS_FACET_SPAN,
    WITNESS_SUBLINEARITY,
)
from .operators import (
    ActionSpec,
    CrossedElement,
    DenseCapError,
    NonzeroCapError,
    OpNormConvergenceError,
    SubgroupSpec,
    TruncatedHilbert,
    TruncatedOperator,
    cauchy_gap_norm,
    clock_matrix,
    conditional_expectation,
    coset_compress,
    element_norm,
    even_dirac,
    lambda_op,
    lipschitz_seminorm,
    m_ell,
    m_phi,
    m_phi_g,
    odd_dirac,
    op_norm,
    pi_tilde,
    realize,
    shift_matrix,
    truncate,
)
from .aftriple import AFFiltration, af_filtration
from .checks import (
    CheckReport,
    check_af_triple,
    check_cocycle,
    check_coefficient_bounds,
    check_commutator_identity,
    check_conditional_expectation,
    check_length_axioms,
    check_nctorus_equicontinuity,
    check_tail_bound,
    check_unitary_conjugation,
    default_suite,
    tail_series_factor,
)
from .quantum_metric import (
    DegenerateTripleError,
    FiniteTriple,
    MKResult,
    StateSpec,
    af_level_triple,
    cyclic_triple,
    mk_brute_force,
    mk_distance,
)

__version__ = "0.1.0"
