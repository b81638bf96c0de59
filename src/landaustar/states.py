"""Closed-form state evaluators and their Fock-coefficient constructors.

Wigner functions, the four-parameter generating function, displacement
functions and standard/generalized coherent states, each available both as a
pointwise closed form and in the matrix-unit basis, built from
ladder/displacement matrices.  The two routes are independent and are
cross-checked in the test suite.

Every label names a diagonal Wigner label ``base`` and a mode-space shift
(``alpha1``, ``alpha2``), so state_values, the pointwise route for every label,
is the translate W_{n,l}(a - alpha1, b - alpha2): exact at any shift, no cutoff.

The basis functions themselves are displaced parity elements,
u_mn(z) = 2 (-1)^n <m|D(2 conj z)|n> in each mode, so their values come from the
closed-form displacement kernel (star.displacement_matrix_closed), the same
Laguerre family as the coherent states' displacement columns.

Every state here is a product over the two commuting modes, so the
constructors return a ProductRep of one term: one N x N matrix per mode.
A coherent factor is the outer product of the closed displacement column
D(alpha)|n>, normalized over the kept levels; the weight the column loses
past the cutoff sets ``overflow``.
The dense tensor is built only where a consumer asks for ``coeffs`` (JSON
dump, the reality residual); ``fock_values`` contracts each mode's factor
with that mode's basis values, of a loaded state document too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, isfinite

import numpy as np

from .phase_space import PhasePoint, PhysParams, to_mode_coords
from .specfun import bounded_abs2, laguerre_function
from .star import (
    PolyGauss,
    ProductRep,
    StarPolynomial,
    displacement_column_closed,
    displacement_matrix_closed,
    matrix_unit,
)

TAIL_TOLERANCE = 1e-12
# Largest quantum number state_values and the densities accept.
MAX_QUANTUM_NUMBER = 150


def _check_quantum_numbers(n: int, l: int):
    if not (0 <= n <= MAX_QUANTUM_NUMBER and 0 <= l <= MAX_QUANTUM_NUMBER):
        raise ValueError(f"quantum numbers out of range: ({n}, {l}); "
                         f"need 0 <= n, l <= {MAX_QUANTUM_NUMBER}")


@dataclass(frozen=True)
class WignerLabel:
    n: int
    l: int
    alpha1 = alpha2 = 0j  # a Wigner label is its own unshifted base

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise ValueError("quantum numbers must be non-negative")

    @property
    def base(self) -> WignerLabel:
        return self


@dataclass(frozen=True)
class CoherentLabel:
    alpha1: complex
    alpha2: complex
    base = WignerLabel(0, 0)  # the ground state, shifted


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


def fock_values(rep: ProductRep, a, b):
    """Pointwise values of a ProductRep at mode coordinates (a, b), vectorized."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (vals,) = _fock_point_values([rep], matrix_unit_values(rep.cutoff, a.ravel()),
                                 matrix_unit_values(rep.cutoff, b.ravel()))
    return vals.reshape(a.shape) if a.shape else complex(vals[0])


def _fock_point_values(reps, wa, wb):
    """Values of each ProductRep in ``reps`` at every point p, one row per rep.

    ``wa`` and ``wb`` are matrix_unit_values of the two modes at the points,
    shape (N, N, points).  The K terms of all the reps contract each mode's
    factor with that mode's basis values in one (K, N^2) @ (N^2, points)
    product per mode; each rep's row then sums its own terms in order.  Its
    memory is K rows of points, so a caller with many points passes few reps.
    """
    terms = [term for rep in reps for term in rep.terms]
    vals = np.zeros((len(reps), wa.shape[2]), dtype=complex)
    if not terms:
        return vals
    n2 = wa.shape[0] * wa.shape[1]
    # (c * first-mode values) * second-mode values, in place: no product array
    by_term = np.stack([ma for _, ma, _ in terms]).reshape(-1, n2) @ wa.reshape(n2, -1)
    by_term *= np.array([c for c, _, _ in terms], dtype=complex)[:, None]
    by_term *= np.stack([mb for _, _, mb in terms]).reshape(-1, n2) @ wb.reshape(n2, -1)
    stop = 0
    for row, rep in zip(vals, reps):
        start, stop = stop, stop + len(rep.terms)
        for term_vals in by_term[start:stop]:
            row += term_vals
    return vals


def fock_eval(rep, pt: PhasePoint, params: PhysParams) -> complex:
    mc = to_mode_coords(pt, params)
    return complex(fock_values(rep, mc.a, mc.b))


def wigner_values(n: int, l: int, a, b):
    """Diagonal Wigner function at mode coordinates, vectorized.

    (-1)^(n+l) L_n(4|a|^2) L_l(4|b|^2) * 4 exp(-2(|a|^2 + |b|^2)), each mode's
    Gaussian carried by its Laguerre recurrence, so no factor overflows.
    """
    xa = 4.0 * bounded_abs2(np.asarray(a, dtype=complex))
    xb = 4.0 * bounded_abs2(np.asarray(b, dtype=complex))
    sign = (-1.0) ** (n + l)
    return sign * 4.0 * laguerre_function(n, xa) * laguerre_function(l, xb)


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


def generating_function(alpha1, beta1, alpha2, beta2, a, b):
    """Four-parameter generating function of all Wigner functions, vectorized.

    exp(-alpha.beta) exp(2(alpha1*abar + beta1*a + alpha2*bbar + beta2*b)) times
    the two-mode ground Gaussian at mode coordinates (a, b), which broadcast with
    the parameters; parameter derivatives at zero give the matrix-unit basis.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    dot = alpha1 * beta1 + alpha2 * beta2
    lin = alpha1 * np.conj(a) + beta1 * a + alpha2 * np.conj(b) + beta2 * b
    out = np.exp(-dot + 2.0 * lin - 2.0 * (abs(a) ** 2 + abs(b) ** 2))
    return out if out.ndim else complex(out)


def coherent_values(label: CoherentLabel, a, b):
    """Normalized coherent projector: the ground Gaussian displaced in mode space."""
    da = bounded_abs2(np.asarray(a, dtype=complex) - label.alpha1)
    db = bounded_abs2(np.asarray(b, dtype=complex) - label.alpha2)
    return 4.0 * np.exp(-2.0 * (da + db))


def coherent_eval(label: CoherentLabel, pt: PhasePoint, params: PhysParams) -> float:
    mc = to_mode_coords(pt, params)
    return float(coherent_values(label, mc.a, mc.b))


def state_values(label, a, b):
    """Values of any state label at mode coordinates (a, b), vectorized: its base
    Wigner function translated by its shift, for 0 <= n, l <= MAX_QUANTUM_NUMBER."""
    base = label.base
    _check_quantum_numbers(base.n, base.l)
    return wigner_values(base.n, base.l, np.asarray(a, dtype=complex) - label.alpha1,
                         np.asarray(b, dtype=complex) - label.alpha2)


# ---------------------------------------------------------------------------
# Fock-coefficient constructors
# ---------------------------------------------------------------------------

def wigner_fock(label: WignerLabel, cutoff: int) -> ProductRep:
    """Diagonal matrix unit |n><n| (x) |l><l|, one factor per mode."""
    if label.n >= cutoff or label.l >= cutoff:
        raise ValueError(f"label {label} exceeds cutoff {cutoff}")
    return matrix_unit(label.n, label.n, label.l, label.l, cutoff)


def _displaced_projector(alpha1: complex, alpha2: complex, n: int, l: int,
                         cutoff: int) -> ProductRep:
    """D |n><n| D^dagger (x) D |l><l| D^dagger from closed displacement columns.

    Each mode's factor is the outer product of the column D(alpha)|k> over the
    kept levels, normalized to unit trace; the weight 1 - |col|^2 the column
    loses past the cutoff is the tail that sets ``overflow``.
    """
    factors, tail = [], 0.0
    for alpha, k in ((alpha1, n), (alpha2, l)):
        col = displacement_column_closed(alpha, k, cutoff)
        norm = float(np.linalg.norm(col))
        if norm == 0.0:
            raise ValueError(f"displacement {alpha} leaves no weight below cutoff {cutoff}")
        tail += abs(1.0 - norm ** 2)
        v = col / norm
        m = np.outer(v, np.conj(v))
        # symmetrize so the reality condition holds exactly, not just to rounding
        factors.append(0.5 * (m + m.conj().T))
    return ProductRep(cutoff, ((1.0, *factors),), overflow=bool(tail > TAIL_TOLERANCE))


def coherent_fock(label: CoherentLabel, cutoff: int) -> ProductRep:
    """Displaced ground projector, trace 1; overflow flags tail weight past the cutoff."""
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
