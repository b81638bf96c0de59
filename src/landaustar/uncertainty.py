"""State functional, moments, variances and uncertainty relations.

Every state query reduces to the state functional s(f) = tr(f * rho) on a
per-mode product state (ProductRep), and each is a bilinear form in the inner
product <f|g> = s(conj(f) * g).  So each query takes one table from
star.word_pair_traces, T[i, j] = s(l_i * r_j) on pairs of words, as a product
of one trace per mode, and reads its answer as a small matrix product with
the polynomials' coefficient vectors: no product polynomial and no applied
state is built.  Expectation is the table's row of the empty word; the
inner product, variance and Robertson-Schrodinger slack are each one table.
Its words act from the left only, by exact ladder steps, one per distinct
letter prefix of each mode, so every query is the exact functional of the
state as stored.

These relations are unit-free, so the coordinates are defined once, in axis
units u = q/gamma and v = p gamma/hbar (axis_polynomials), and so are the
oracles coordinate_moment and coherent_moment_predictions; physical units
enter only through marginals.axis_scale (coordinate_polynomials).

A Wigner state's coordinates have the second moment m = (n + l + 1)/2 in axis
units on every axis, so Delta q = gamma sqrt(m), Delta p = (hbar/gamma) sqrt(m)
and their product is hbar m: no quadrature and no h^2.  Its oracles, in the
checks, are the shape's mixture-weight sum, marginal quadrature and Fock
traces.  The general two-observable uncertainty relation (Robertson-Schrodinger
form) is evaluated for arbitrary real star polynomials; a slack out of the
double range raises ValueError rather than returning inf or nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import axis_scale, marginal_1d
from .phase_space import PhysParams
from .quadrature import default_order, gauss_hermite
from .star import (
    ProductRep,
    StarPolynomial,
    apply_star_polynomial,
    word_pair_traces,
)
from .states import (
    CoherentLabel,
    GeneralizedCoherentLabel,
    WignerLabel,
    _check_quantum_numbers,
    displaced_polynomial,
    generalized_coherent_fock,
    wigner_fock,
)

_A = StarPolynomial.generator("a")
_ABAR = StarPolynomial.generator("abar")
_B = StarPolynomial.generator("b")
_BBAR = StarPolynomial.generator("bbar")


@dataclass(frozen=True)
class StateFunctional:
    """Normalized positive linear functional on the star algebra, f -> tr(f * state)."""

    state: ProductRep
    params: PhysParams


def expectation(f: StarPolynomial, s: StateFunctional) -> complex:
    """tr(f * state): the sum over f's words of c T[(), w], the table's row of the
    empty word against each distinct word of f."""
    words = list(dict.fromkeys(word for _, word in f.terms))
    traces = dict(zip(words, word_pair_traces([()], words, s.state)[0]))
    return complex(sum(c * traces[word] for c, word in f.terms))


def _coefficients(poly: StarPolynomial, words: dict) -> np.ndarray:
    """poly's coefficients as a vector over ``words`` (word -> position)."""
    out = np.zeros(len(words), dtype=complex)
    for c, word in poly.terms:
        out[words[word]] += c
    return out


def _word_positions(*polys) -> dict:
    """Each distinct word of the polynomials, in order of first appearance, at its position."""
    return {word: i for i, word in enumerate(dict.fromkeys(
        word for p in polys for _, word in p.terms))}


def inner_product(f: StarPolynomial, g: StarPolynomial, s: StateFunctional) -> complex:
    """s(conj(f) * g); conjugate-symmetric and positive semidefinite.

    The bilinear form of the word-pair table with the words of conj(f) on the
    left and those of g on the right: no product polynomial is built.
    """
    fbar = f.conjugate()
    left, right = _word_positions(fbar), _word_positions(g)
    table = word_pair_traces(list(left), list(right), s.state)
    return complex(_coefficients(fbar, left) @ table @ _coefficients(g, right))


def variance(f: StarPolynomial, s: StateFunctional) -> float:
    """<f|f> - <f><conj(f)>, real up to rounding for any f: the form
    conj(f)^T T f minus the product of the means, all read from one word-pair
    table on the words W of f and conj(f), with the empty word and W on the
    left and W on the right."""
    fbar = f.conjugate()
    words = _word_positions(f, fbar)
    table = word_pair_traces([()] + list(words), list(words), s.state)
    vf, vfbar = _coefficients(f, words), _coefficients(fbar, words)
    mean, mean_conj = complex(table[0] @ vf), complex(table[0] @ vfbar)
    return float((complex(vfbar @ table[1:] @ vf) - mean * mean_conj).real)


def axis_polynomials() -> dict:
    """Canonical coordinates in axis units, u = q/gamma and v = p gamma/hbar, as star
    polynomials in the mode generators; every coefficient is +-1/2 or +-i/2.

    q1 and p1 follow from inverting the mode map on the difference a - b;
    q2 and p2 from the sum a + b.  All four are validated pointwise against
    the coordinate map in the test suite.
    """
    d = _A - _B
    dbar = _ABAR - _BBAR
    t = _A + _B
    tbar = _ABAR + _BBAR
    return {
        "q1": 0.5j * (d - dbar),
        "p1": 0.5 * (d + dbar),
        "q2": 0.5 * (t + tbar),
        "p2": -0.5j * (t - tbar),
    }


def coordinate_polynomials(params: PhysParams) -> dict:
    """Canonical coordinates in physical units: each axis polynomial times its axis scale."""
    return {axis: axis_scale(axis, params) * poly for axis, poly in axis_polynomials().items()}


def hamiltonian_polynomial(params: PhysParams) -> StarPolynomial:
    return params.hbar * params.omega * (_ABAR * _A + StarPolynomial.constant(0.5))


def angular_momentum_polynomial(params: PhysParams) -> StarPolynomial:
    return params.hbar * (_BBAR * _B - _ABAR * _A)


def second_moment(n: int, l: int) -> float:
    """<u^2> of the (n, l) state along any axis, in axis units: (n + l + 1)/2.

    The 1D shape mixes the phi_k^2, of second moment k + 1/2, with the weights
    w_k of a J_x eigenvector, whose mean k is (n + l)/2 because <J_z> = 0.
    """
    _check_quantum_numbers(n, l)
    return 0.5 * (n + l + 1)


def coordinate_moment(k: int, label: WignerLabel) -> float:
    """k-th moment of any coordinate in a Wigner state, in axis units: sum_t w_t t^k shape(t)
    by quadrature of its 1D shape, the oracle of second_moment.  Odd moments are exact zeros."""
    if k < 0 or k > 8:
        raise ValueError("moment order must be in 0..8")
    if k % 2 == 1:
        return 0.0
    rule = gauss_hermite(max(default_order(label.n, label.l), (k + 2) // 2 + label.n + label.l + 8))
    t, w = rule.scaled(1.0)
    shape = marginal_1d(label.n, label.l, t)
    return float(np.sum(w * t ** k * shape))


def uncertainty_product(n: int, l: int, j: int, params: PhysParams) -> float:
    """Delta q_j * Delta p_j in the (n, l) Wigner state: hbar times second_moment."""
    if j not in (1, 2):
        raise ValueError("pair index must be 1 or 2")
    return params.hbar * second_moment(n, l)


def robertson_schrodinger_slack(f: StarPolynomial, g: StarPolynomial,
                                s: StateFunctional) -> float:
    """Slack of the two-observable uncertainty relation; non-negative when it holds.

    (Df)^2 (Dg)^2 - [ -<{f,g}>^2/4 + <{df,dg}_+>^2/4 ].  A real observable
    equals its conjugate, so the two means and the four second moments
    <fg>, <gf>, <ff> and <gg> are forms on one word-pair table, with the
    empty word and every word W of f and g on the left and W on the right.
    For real observables the bracket mean is purely imaginary and the
    anti-bracket mean purely real; the stray components are checked against
    the rounding of the sums that form them, the same forms on the entries'
    magnitudes, and dropped before squaring.
    """
    if not f.is_real_observable() or not g.is_real_observable():
        raise ValueError("both observables must be real-valued star polynomials")
    words = _word_positions(f, g)
    table = word_pair_traces([()] + list(words), list(words), s.state)
    v = np.array([_coefficients(f, words), _coefficients(g, words)])
    (mean_f, mean_g), ((ff, fg), (gf, gg)) = ((table[0] @ v.T).tolist(),
                                              (v @ table[1:] @ v.T).tolist())
    # the same sums on magnitudes: what each would be if none of its terms cancelled
    magnitudes, size = np.abs(table), np.abs(v)
    (size_f, size_g), ((_, size_fg), (size_gf, _)) = ((magnitudes[0] @ size.T).tolist(),
                                                     (size @ magnitudes[1:] @ size.T).tolist())
    bracket = fg - gf
    if abs(bracket.real) > 1e-12 * (size_fg + size_gf):
        raise ValueError(f"bracket mean not purely imaginary: {bracket}")
    anti = fg + gf - 2.0 * mean_f * mean_g
    if abs(anti.imag) > 1e-12 * (size_fg + size_gf + 2.0 * size_f * size_g):
        raise ValueError(f"anti-bracket mean not purely real: {anti}")
    bound = 0.25 * (bracket.imag * bracket.imag + anti.real * anti.real)
    var_f = float((ff - mean_f * mean_f).real)
    var_g = float((gg - mean_g * mean_g).real)
    slack = var_f * var_g - bound
    if not math.isfinite(slack):
        raise ValueError("the Robertson-Schrodinger slack overflows in these units; "
                         "state the observables in axis units (axis_polynomials)")
    return slack


def coherent_moment_predictions(label: CoherentLabel) -> dict:
    """Closed-form coherent-state moments of the axis_polynomials coordinates: means,
    the second moment of q1, variances and the product Delta u Delta v."""
    a1, a2 = complex(label.alpha1), complex(label.alpha2)
    di = a1.imag - a2.imag
    return {
        "q1_mean": -di,
        "p1_mean": a1.real - a2.real,
        "q2_mean": a1.real + a2.real,
        "p2_mean": a1.imag + a2.imag,
        "q1_sq": 0.5 + di * di,
        "var_q": 0.5,
        "var_p": 0.5,
        "product": 0.5,
    }


def displaced_power_residuals(observables, powers: int,
                              label: GeneralizedCoherentLabel, cutoff: int) -> list:
    """How far <f^k> in a displaced state is from <(displaced f)^k> in the base
    state, for each observable f and k = 1 .. powers: one list per observable.

    Zero (up to rounding) for every smooth observable: conjugating the state
    by a displacement is the same as displacing the observable's arguments.
    The displaced and base states are built once, and each power is one more
    application of f to the previous one.
    """
    gen = generalized_coherent_fock(label, cutoff)
    base = wigner_fock(label.base, cutoff)
    out = []
    for f in observables:
        shifted = displaced_polynomial(f, label.alpha1, label.alpha2)
        lhs, rhs, residuals = gen, base, []
        for _ in range(powers):
            lhs = apply_star_polynomial(f, lhs)
            rhs = apply_star_polynomial(shifted, rhs)
            residuals.append(abs(lhs.trace() - rhs.trace()))
        out.append(residuals)
    return out
