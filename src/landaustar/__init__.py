"""Phase-space toolkit for the Landau system (Moyal star-product formulation)."""

from .phase_space import (
    ModeCoords,
    PhasePoint,
    PhysParams,
    to_mode_coords,
)
from .quadrature import QuadratureRule, gauss_hermite, integrate_nd
from .star import (
    CanonicalPoly,
    PolyGauss,
    ProductRep,
    StarPolynomial,
    apply_star_polynomial,
    bidifferential_star,
    canonical_star,
    left_star_generator,
    matrix_unit,
    moyal_bracket,
    right_star_generator,
    star,
)
from .states import (
    CoherentLabel,
    GeneralizedCoherentLabel,
    WignerLabel,
    coherent_fock,
    displaced_polynomial,
    generalized_coherent_fock,
    generating_function,
    parse_state_label,
    wigner_fock,
)
from .marginals import marginal_1d, marginal_2d, integral_equality_residuals
from .uncertainty import (
    StateFunctional,
    coordinate_moment,
    expectation,
    inner_product,
    robertson_schrodinger_slack,
    uncertainty_product,
)

__all__ = [
    "ModeCoords", "PhasePoint", "PhysParams", "to_mode_coords", "QuadratureRule",
    "gauss_hermite", "integrate_nd", "CanonicalPoly", "PolyGauss", "ProductRep",
    "StarPolynomial", "apply_star_polynomial", "bidifferential_star", "canonical_star",
    "left_star_generator", "matrix_unit", "moyal_bracket", "right_star_generator", "star",
    "CoherentLabel", "GeneralizedCoherentLabel", "WignerLabel", "coherent_fock",
    "displaced_polynomial", "generalized_coherent_fock", "generating_function",
    "parse_state_label", "wigner_fock", "marginal_1d", "marginal_2d",
    "integral_equality_residuals", "StateFunctional", "coordinate_moment", "expectation",
    "inner_product", "robertson_schrodinger_slack", "uncertainty_product",
]

__version__ = "0.1.0"
