"""Exact Bessel-operator calculus and numerical Hankel transforms.

The package works with the function family

    f(x) = x^(mu + 1/2) * Q(x^2) * exp(-c * |x|^2),   x in (0, inf)^n,

which is closed under the operators of interest.  The symbolic layer
applies those operators with exact rational coefficients; the numeric
layer provides composite Gauss-Legendre Hankel transforms, seminorms,
delta-distribution pairings and a kernel solver for Bessel-type
operator polynomials.
"""

from .errors import (
    ComponentExceeds,
    DecayRequired,
    DimensionMismatch,
    DomainError,
    ExtrapolationDiverged,
    HankelcError,
    HypothesisFailed,
    LimitExceeded,
    NumericError,
    SpecError,
    SupportViolation,
)
from .multiindex import (
    MultiIndex,
    mi_below,
    mi_binomial,
    mi_factorial,
    mi_graded_enumerate,
    unit_index,
)
from .bessel import (
    DEFAULT_Z_MAX,
    MuVector,
    bessel_j,
    c_k_mu,
    c_mu,
    gamma_fn,
    reduced_bessel,
)
from .symbolic import (
    EvenPolynomial,
    EvenRational,
    GaussianPolynomial,
    HypothesisReport,
    OperatorPoly,
    SymbolicHFunction,
    apply_L,
    apply_S,
    apply_Sk,
    apply_T,
    apply_Tk,
    check_hypothesis,
    kernel_basis,
    koh_zemanian_coeffs,
    koh_zemanian_coeffs_nd,
    leibniz_Tk,
)
from .quadrature import (
    GridFunction,
    GridSpec,
    QuadratureRule,
    build_quadrature,
    truncation_radius,
)
from .transform import (
    default_rule_for,
    hankel_1d,
    hankel_nd,
    hankel_roundtrip_residual,
    orthant_pair,
    sample_on_nodes,
)
from .seminorms import (
    default_sup_grid,
    lambda_gamma_bound_terms,
    seminorm_gamma,
    seminorm_lambda,
    seminorm_rho,
)
from .cutoff import CutoffSpec, OuterWindow, WindowedHFunction, smooth_step
from .distributions import (
    DeltaCombination,
    MultiplierForm,
    MultiplierReport,
    TaylorReport,
    multiplier_check,
    pair_delta,
    pair_delta_transform,
    pair_s_delta,
    reconstruct_point_supported,
    richardson_limit,
    taylor_coeffs,
)
from .liouville import (
    KernelCertificate,
    default_weak_family,
    liouville_solve,
    weak_spectral_check,
)
from .verify import SUITES, run_all, run_suite

__version__ = "0.1.0"
