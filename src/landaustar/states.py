"""Closed-form state evaluators and their Fock-coefficient constructors.

Wigner functions, the four-parameter generating function, displacement
functions and standard/generalized coherent states, each available both as a
pointwise closed form and in the matrix-unit basis, built from
ladder/displacement matrices.  The two routes are independent and are
cross-checked in the test suite.

The basis functions themselves are displaced parity elements,
u_mn(z) = 2 (-1)^n <m|D(2 conj z)|n> in each mode, so their values come from the
closed-form displacement kernel (star.displacement_matrix_closed), the same
Laguerre family as the coherent states' displacement columns.

Every state here is a product over the two commuting modes, so the
constructors return a ProductRep of one term: one N x N matrix per mode.
The dense FockRep tensor is built only where a consumer asks for ``coeffs``
(JSON dump, the reality residual); ``fock_values`` evaluates either form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, isfinite

import numpy as np

from .phase_space import PhasePoint, PhysParams, to_mode_coords
from .specfun import laguerre
from .star import (
    PolyGauss,
    ProductRep,
    StarPolynomial,
    displacement_matrix,
    displacement_matrix_closed,
)

TAIL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class WignerLabel:
    n: int
    l: int

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise ValueError("quantum numbers must be non-negative")


@dataclass(frozen=True)
class CoherentLabel:
    alpha1: complex
    alpha2: complex


@dataclass(frozen=True)
class GeneralizedCoherentLabel:
    alpha1: complex
    alpha2: complex
    base: WignerLabel


# ---------------------------------------------------------------------------
# Pointwise closed forms
# ---------------------------------------------------------------------------

def matrix_unit_values(cutoff: int, z):
    """Values of all single-mode matrix-unit basis functions at mode coordinate z.

    Returns an array of shape (cutoff, cutoff, *z.shape); entry (m, n) is the
    basis function with m creation and n annihilation factors around the mode
    Gaussian, normalized to compose like matrix units under the star product.
    It is the displaced parity element u_mn(z) = 2 (-1)^n <m|D(2 conj z)|n>,
    so every entry comes from the closed-form displacement kernel.
    """
    z = np.asarray(z, dtype=complex)
    out = displacement_matrix_closed(2.0 * np.conj(z), cutoff)
    out *= (2.0 * (-1.0) ** np.arange(cutoff)).reshape((1, cutoff) + (1,) * z.ndim)
    return out


def fock_values(rep, a, b):
    """Pointwise values of a FockRep or ProductRep at mode coordinates (a, b), vectorized."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    wa = matrix_unit_values(rep.cutoff, a.ravel())
    wb = matrix_unit_values(rep.cutoff, b.ravel())
    if isinstance(rep, ProductRep):
        # each mode's factor contracts with its own basis values
        vals = np.zeros(a.size, dtype=complex)
        for c, ma, mb in rep.terms:
            vals += (c * np.tensordot(ma, wa, axes=([0, 1], [0, 1]))
                     * np.tensordot(mb, wb, axes=([0, 1], [0, 1])))
    else:
        vals = _fock_point_values(rep.coeffs, wa, wb)
    return vals.reshape(a.shape) if a.shape else complex(vals[0])


def _fock_point_values(coeffs, wa, wb):
    """sum_{mnkl} coeffs[m, n, k, l] wa[m, n, p] wb[k, l, p] for every point p.

    ``wa`` and ``wb`` are matrix_unit_values of the two modes at the points.
    Contracting the first mode as one matrix product leaves an N^2 x points
    array to sum against the second mode.
    """
    first = np.tensordot(coeffs, wa, axes=([0, 1], [0, 1]))
    return np.einsum("klp,klp->p", first, wb)


def fock_eval(rep, pt: PhasePoint, params: PhysParams) -> complex:
    mc = to_mode_coords(pt, params)
    return complex(fock_values(rep, mc.a, mc.b))


def wigner_values(n: int, l: int, a, b):
    """Diagonal Wigner function at mode coordinates, vectorized.

    (-1)^(n+l) L_n(4|a|^2) L_l(4|b|^2) * 4 exp(-2(|a|^2 + |b|^2)).
    """
    xa = 4.0 * np.abs(np.asarray(a, dtype=complex)) ** 2
    xb = 4.0 * np.abs(np.asarray(b, dtype=complex)) ** 2
    sign = (-1.0) ** (n + l)
    return sign * laguerre(n, 0, xa) * laguerre(l, 0, xb) * 4.0 * np.exp(-0.5 * (xa + xb))


def wigner_eval(label: WignerLabel, pt: PhasePoint, params: PhysParams) -> float:
    mc = to_mode_coords(pt, params)
    return float(wigner_values(label.n, label.l, mc.a, mc.b))


def wigner_symbol(n: int, l: int) -> PolyGauss:
    """Diagonal Wigner function as a polynomial-times-Gaussian symbol.

    Input form for the bidifferential star-product oracle; kept independent of
    the Fock-coefficient machinery.
    """
    poly: dict = {}
    sign = 4.0 * (-1.0) ** (n + l)
    for i in range(n + 1):
        ci = (-1.0) ** i * comb(n, i) / factorial(i) * 4.0 ** i
        for j in range(l + 1):
            cj = (-1.0) ** j * comb(l, j) / factorial(j) * 4.0 ** j
            poly[(i, i, j, j)] = sign * ci * cj
    return PolyGauss(poly, gaussian=True)


def generating_function(alpha1, beta1, alpha2, beta2, pt: PhasePoint,
                        params: PhysParams) -> complex:
    """Four-parameter generating function of all Wigner functions.

    exp(-a.b) exp(2(alpha1*abar + beta1*a + alpha2*bbar + beta2*b)) times the
    two-mode ground Gaussian; parameter derivatives at zero produce the
    matrix-unit basis functions.
    """
    mc = to_mode_coords(pt, params)
    a, b = mc.a, mc.b
    dot = alpha1 * beta1 + alpha2 * beta2
    lin = alpha1 * np.conj(a) + beta1 * a + alpha2 * np.conj(b) + beta2 * b
    return complex(np.exp(-dot + 2.0 * lin - 2.0 * (abs(a) ** 2 + abs(b) ** 2)))


def coherent_values(label: CoherentLabel, a, b):
    """Normalized coherent projector: the ground Gaussian displaced in mode space."""
    da = np.abs(np.asarray(a, dtype=complex) - label.alpha1) ** 2
    db = np.abs(np.asarray(b, dtype=complex) - label.alpha2) ** 2
    return 4.0 * np.exp(-2.0 * (da + db))


def coherent_eval(label: CoherentLabel, pt: PhasePoint, params: PhysParams) -> float:
    mc = to_mode_coords(pt, params)
    return float(coherent_values(label, mc.a, mc.b))


# ---------------------------------------------------------------------------
# Fock-coefficient constructors
# ---------------------------------------------------------------------------

def wigner_fock(label: WignerLabel, cutoff: int) -> ProductRep:
    """Diagonal matrix unit |n><n| (x) |l><l|, one factor per mode."""
    if label.n >= cutoff or label.l >= cutoff:
        raise ValueError(f"label {label} exceeds cutoff {cutoff}")
    ma, mb = np.zeros((cutoff, cutoff)), np.zeros((cutoff, cutoff))
    ma[label.n, label.n] = mb[label.l, label.l] = 1.0
    return ProductRep(cutoff, ((1.0, ma, mb),))


def displacement_fock(alpha1: complex, alpha2: complex, cutoff: int):
    """Per-mode displacement matrices in the matrix-unit basis."""
    return displacement_matrix(alpha1, cutoff), displacement_matrix(alpha2, cutoff)


def _displaced_projector(alpha1: complex, alpha2: complex, n: int, l: int,
                         cutoff: int) -> ProductRep:
    factors = []
    for d, k in zip(displacement_fock(alpha1, alpha2, cutoff), (n, l)):
        m = np.outer(d[:, k], np.conj(d[:, k]))
        # symmetrize so the reality condition holds exactly, not just to rounding
        factors.append(0.5 * (m + m.conj().T))
    # the truncated exponential stays unitary, so missing weight has to be
    # measured against the closed-form (untruncated) displacement column
    tail = sum(abs(1.0 - np.sum(np.abs(displacement_matrix_closed(alpha, cutoff)[:, k]) ** 2))
               for alpha, k in ((alpha1, n), (alpha2, l)))
    return ProductRep(cutoff, ((1.0, *factors),), overflow=bool(tail > TAIL_TOLERANCE))


def coherent_fock(label: CoherentLabel, cutoff: int) -> ProductRep:
    """Displaced ground projector; overflow flags truncated tail weight."""
    return _displaced_projector(label.alpha1, label.alpha2, 0, 0, cutoff)


def generalized_coherent_fock(label: GeneralizedCoherentLabel, cutoff: int) -> ProductRep:
    if label.base.n >= cutoff or label.base.l >= cutoff:
        raise ValueError(f"base label {label.base} exceeds cutoff {cutoff}")
    return _displaced_projector(label.alpha1, label.alpha2, label.base.n, label.base.l, cutoff)


def displaced_polynomial(poly: StarPolynomial, alpha1: complex,
                         alpha2: complex) -> StarPolynomial:
    """Substitute a -> a + alpha1 (etc.) in every word, preserving order."""
    shift = {
        "a": complex(alpha1),
        "abar": complex(alpha1).conjugate(),
        "b": complex(alpha2),
        "bbar": complex(alpha2).conjugate(),
    }
    out_terms = []
    for c, word in poly.terms:
        partial = [(c, ())]
        for gen in word:
            nxt = []
            for coef, w in partial:
                nxt.append((coef, w + (gen,)))
                if shift[gen] != 0:
                    nxt.append((coef * shift[gen], w))
            partial = nxt
        out_terms.extend(partial)
    return StarPolynomial.from_terms(out_terms)


def state_fock(label, cutoff: int) -> ProductRep:
    """Build the per-mode product representation of any supported state label."""
    if isinstance(label, WignerLabel):
        return wigner_fock(label, cutoff)
    if isinstance(label, CoherentLabel):
        return coherent_fock(label, cutoff)
    if isinstance(label, GeneralizedCoherentLabel):
        return generalized_coherent_fock(label, cutoff)
    raise TypeError(f"unsupported state label: {label!r}")


def parse_state_label(text: str):
    """Parse 'wigner:n,l', 'coherent:re1,im1,re2,im2' or
    'gencoherent:n,l:re1,im1,re2,im2'."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "wigner":
            n, l = (int(x) for x in rest.split(","))
            return WignerLabel(n, l)
        if kind == "coherent":
            return CoherentLabel(*_parse_alphas(rest))
        if kind == "gencoherent":
            nl, _, alphas = rest.partition(":")
            n, l = (int(x) for x in nl.split(","))
            return GeneralizedCoherentLabel(*_parse_alphas(alphas), WignerLabel(n, l))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed state label {text!r}: {exc}") from exc
    raise ValueError(f"unknown state kind {kind!r} in label {text!r}")


def _parse_alphas(text: str):
    """'re1,im1,re2,im2' -> (alpha1, alpha2), all four parts finite."""
    r1, i1, r2, i2 = (float(x) for x in text.split(","))
    if not all(map(isfinite, (r1, i1, r2, i2))):
        raise ValueError("displacement parts must be finite")
    return complex(r1, i1), complex(r2, i2)
