"""State functional, moments, variances and uncertainty relations.

Expectation values are coefficient traces in the Fock representation; moments
of the canonical coordinates are also available through 1D quadrature of the
marginal densities, and the two routes are required to agree.  The general
two-observable uncertainty relation (Robertson-Schrodinger form) is evaluated
for arbitrary real star polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import axis_scale, marginal_1d
from .phase_space import PhysParams
from .quadrature import QuadratureRule, default_order, gauss_hermite
from .star import FockRep, ProductRep, StarPolynomial, apply_star_polynomial
from .states import (
    CoherentLabel,
    GeneralizedCoherentLabel,
    WignerLabel,
    coherent_fock,
    displaced_polynomial,
    generalized_coherent_fock,
    wigner_fock,
)

DEFAULT_CUTOFF = 32

_A = StarPolynomial.generator("a")
_ABAR = StarPolynomial.generator("abar")
_B = StarPolynomial.generator("b")
_BBAR = StarPolynomial.generator("bbar")


@dataclass(frozen=True)
class StateFunctional:
    """Normalized positive linear functional on the star algebra."""

    state: FockRep | ProductRep
    params: PhysParams

    def __call__(self, f: StarPolynomial) -> complex:
        return expectation(f, self)


@dataclass(frozen=True)
class MomentReport:
    observable: str
    mean: complex
    variance: float


def expectation(f: StarPolynomial, s: StateFunctional) -> complex:
    """Coefficient trace of f star-applied to the state."""
    return apply_star_polynomial(f, s.state, side="left").trace()


def inner_product(f: StarPolynomial, g: StarPolynomial, s: StateFunctional) -> complex:
    """s(conj(f) * g); conjugate-symmetric and positive semidefinite.

    Applied as conj(f) * (g * state), which equals (conj(f) * g) * state by
    associativity and avoids expanding the product polynomial.
    """
    gs = apply_star_polynomial(g, s.state, side="left")
    return apply_star_polynomial(f.conjugate(), gs, side="left").trace()


def variance(f: StarPolynomial, s: StateFunctional) -> float:
    """<f|f> - <f><conj(f)>, real up to rounding for any f."""
    val = inner_product(f, f, s) - expectation(f, s) * expectation(f.conjugate(), s)
    return float(val.real)


def coordinate_polynomials(params: PhysParams) -> dict:
    """Canonical coordinates as star polynomials in the mode generators.

    q1 and p1 follow from inverting the mode map on the difference a - b;
    q2 and p2 from the sum a + b.  All four are validated pointwise against
    the coordinate map in the test suite.
    """
    g = params.gamma
    mgw = params.mass * g * params.omega
    d = _A - _B
    dbar = _ABAR - _BBAR
    t = _A + _B
    tbar = _ABAR + _BBAR
    return {
        "q1": 0.5j * g * (d - dbar),
        "p1": 0.25 * mgw * (d + dbar),
        "q2": 0.5 * g * (t + tbar),
        "p2": -0.25j * mgw * (t - tbar),
    }


def hamiltonian_polynomial(params: PhysParams) -> StarPolynomial:
    return params.hbar * params.omega * (_ABAR * _A + StarPolynomial.constant(0.5))


def angular_momentum_polynomial(params: PhysParams) -> StarPolynomial:
    return params.hbar * (_BBAR * _B - _ABAR * _A)


def coordinate_moment(axis: str, k: int, label: WignerLabel, params: PhysParams,
                      rule: QuadratureRule | None = None) -> float:
    """k-th moment of a coordinate in a Wigner state, via its 1D marginal.

    Odd moments vanish by the evenness of the marginals and are returned as
    exact zeros.
    """
    if k < 0 or k > 8:
        raise ValueError("moment order must be in 0..8")
    if k % 2 == 1:
        return 0.0
    if rule is None:
        rule = gauss_hermite(max(default_order(label.n, label.l), (k + 2) // 2 + label.n + label.l + 8))
    x, w = rule.scaled(axis_scale(axis, params))
    dens = marginal_1d(label.n, label.l, axis, x, params)
    return float(np.sum(w * x ** k * dens) / params.planck_h ** 2)


def uncertainty_product(n: int, l: int, j: int, params: PhysParams,
                        rule: QuadratureRule | None = None) -> float:
    """Delta q_j * Delta p_j in the (n, l) Wigner state, from marginal moments."""
    if j not in (1, 2):
        raise ValueError("pair index must be 1 or 2")
    label = WignerLabel(n, l)
    q_axis, p_axis = f"q{j}", f"p{j}"
    var_q = coordinate_moment(q_axis, 2, label, params, rule) \
        - coordinate_moment(q_axis, 1, label, params, rule) ** 2
    var_p = coordinate_moment(p_axis, 2, label, params, rule) \
        - coordinate_moment(p_axis, 1, label, params, rule) ** 2
    return math.sqrt(var_q * var_p)


def robertson_schrodinger_slack(f: StarPolynomial, g: StarPolynomial,
                                s: StateFunctional) -> float:
    """Slack of the two-observable uncertainty relation; non-negative when it holds.

    (Df)^2 (Dg)^2 - [ -<{f,g}>^2/4 + <{df,dg}_+>^2/4 ].  For real observables
    the bracket mean is purely imaginary and the anti-bracket mean purely
    real; the stray components are asserted small and dropped before squaring.
    """
    if not f.is_real_observable() or not g.is_real_observable():
        raise ValueError("both observables must be real-valued star polynomials")
    fs = apply_star_polynomial(f, s.state, side="left")
    gs = apply_star_polynomial(g, s.state, side="left")
    fg = apply_star_polynomial(f, gs, side="left").trace()
    gf = apply_star_polynomial(g, fs, side="left").trace()
    mean_f = fs.trace()
    mean_g = gs.trace()
    bracket = fg - gf
    if abs(bracket.real) > 1e-12 * max(1.0, abs(bracket)):
        raise ValueError(f"bracket mean not purely imaginary: {bracket}")
    anti = fg + gf - 2.0 * mean_f * mean_g
    if abs(anti.imag) > 1e-12 * max(1.0, abs(anti)):
        raise ValueError(f"anti-bracket mean not purely real: {anti}")
    bound = 0.25 * (bracket.imag ** 2 + anti.real ** 2)
    return variance(f, s) * variance(g, s) - bound


def coherent_moment_predictions(label: CoherentLabel, params: PhysParams) -> dict:
    """Closed-form coherent-state moments: means, second moments, variances."""
    g = params.gamma
    mgw = params.mass * g * params.omega
    a1, a2 = complex(label.alpha1), complex(label.alpha2)
    di = a1.imag - a2.imag
    dr = a1.real - a2.real
    si = a1.imag + a2.imag
    sr = a1.real + a2.real
    return {
        "q1_mean": -g * di,
        "p1_mean": 0.5 * mgw * dr,
        "q2_mean": g * sr,
        "p2_mean": 0.5 * mgw * si,
        "q1_sq": 0.5 * g ** 2 + g ** 2 * di ** 2,
        "var_q": 0.5 * g ** 2,
        "var_p": 0.5 * params.hbar ** 2 / g ** 2,
        "product": 0.5 * params.hbar,
    }


def coherent_uncertainties(label: CoherentLabel, params: PhysParams,
                           cutoff: int = DEFAULT_CUTOFF):
    """Per-coordinate moment reports for a coherent state, from its coefficients."""
    s = StateFunctional(coherent_fock(label, cutoff), params)
    coords = coordinate_polynomials(params)
    reports = {}
    for name, poly in coords.items():
        reports[name] = MomentReport(name, expectation(poly, s), variance(poly, s))
    return reports


def displaced_power_residual(f: StarPolynomial, k: int,
                             label: GeneralizedCoherentLabel, params: PhysParams,
                             cutoff: int = DEFAULT_CUTOFF) -> float:
    """How far <f^k> in a displaced state is from <(displaced f)^k> in the base state.

    Zero (up to rounding) for every smooth observable: conjugating the state
    by a displacement is the same as displacing the observable's arguments.
    """
    gen = generalized_coherent_fock(label, cutoff)
    base = wigner_fock(label.base, cutoff)
    shifted = displaced_polynomial(f, label.alpha1, label.alpha2)
    lhs, rhs = gen, base
    for _ in range(k):
        lhs = apply_star_polynomial(f, lhs, side="left")
        rhs = apply_star_polynomial(shifted, rhs, side="left")
    return abs(lhs.trace() - rhs.trace())
