"""Exact boundary-trace tests for holomorphic functions on the unit ball of C^n.

The package decides, with exact rational certificates, whether a polynomial
function on the unit sphere is the boundary trace of a holomorphic function
on the open ball, and provides the surrounding machinery: exact monomial
integrals and moments, the Cauchy/Szego projection, Cauchy and invariant
Poisson kernels with certified series truncations, and seeded Monte-Carlo
integration as an independent stochastic oracle.
"""

from .errors import (
    BalltraceError,
    ConvergenceError,
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    DominationError,
    EvaluationError,
    NumericalError,
    PreconditionError,
    SchemaError,
    SingularityError,
    UsageError,
)
from .exact import ComplexFraction, Rational, format_rational, parse_rational, to_complex, to_float
from .multiindex import MultiIndex, graded_indices, monomial_norm_sq
from .sphere import SpherePoint, SphereSampler, herm_inner, monomial_eval, norm
from .polynomials import (
    HolomorphicPolynomial,
    MCEstimate,
    SpherePolynomial,
    inner_product,
    l2_distance_sq,
    l2_norm_sq,
    mc_moment,
    moment,
    monomial_integral,
)
from .kernels import KernelTruncation, cauchy_kernel, cauchy_series, poisson_kernel, series_tail_bound
from .transforms import (
    RadialScanRow,
    cauchy_transform_mc,
    cauchy_transform_poly,
    choose_poisson_order,
    poisson_series_eval,
    poisson_series_tail,
    poisson_transform_mc,
    radial_scan,
)
from .membership import (
    ConditionReport,
    MembershipCertificate,
    check_condition,
    check_condition_a,
    check_condition_b,
    is_boundary_trace,
    szego_residual,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BalltraceError",
    "ComplexFraction",
    "ConditionReport",
    "ConvergenceError",
    "DimensionMismatchError",
    "DivergenceError",
    "DomainError",
    "DominationError",
    "EvaluationError",
    "HolomorphicPolynomial",
    "KernelTruncation",
    "MCEstimate",
    "MembershipCertificate",
    "MultiIndex",
    "NumericalError",
    "PreconditionError",
    "RadialScanRow",
    "Rational",
    "SchemaError",
    "SingularityError",
    "SpherePoint",
    "SpherePolynomial",
    "SphereSampler",
    "UsageError",
    "cauchy_kernel",
    "cauchy_series",
    "cauchy_transform_mc",
    "cauchy_transform_poly",
    "check_condition",
    "check_condition_a",
    "check_condition_b",
    "choose_poisson_order",
    "format_rational",
    "graded_indices",
    "herm_inner",
    "inner_product",
    "is_boundary_trace",
    "l2_distance_sq",
    "l2_norm_sq",
    "mc_moment",
    "moment",
    "monomial_eval",
    "monomial_integral",
    "monomial_norm_sq",
    "norm",
    "parse_rational",
    "poisson_kernel",
    "poisson_series_eval",
    "poisson_series_tail",
    "poisson_transform_mc",
    "radial_scan",
    "series_tail_bound",
    "sweep",
    "szego_residual",
    "to_complex",
    "to_float",
]
