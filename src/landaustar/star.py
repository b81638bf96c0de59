"""The Moyal star product in two exact representations.

Representation A: phase-space functions expanded over the two-mode
matrix-unit basis.  The basis elements compose under the star product exactly
like matrix units, u_{mn} * u_{m'n'} = delta_{n m'} u_{m n'}, so star products,
ladder actions and phase-space integrals reduce to finite linear algebra.
The basis is normalized so that this composition rule carries no extra
factors; the pointwise evaluator (states module) owns the conversion back to
function values.  It comes in two storage forms, chosen by type:

- ProductRep, a short sum of per-mode products c A (x) B of N x N matrices.
  Every state the package constructs has this form, because the two modes
  commute: star products, ladder actions and traces act on each mode's
  matrix separately, at N^2 or N^3 cost instead of N^4.  Its dense tensor is
  built only on request (``coeffs``).
- FockRep, the dense cutoff^4 coefficient tensor, for general two-mode
  functions: matrix units, JSON-loaded states, random tensors, and sums that
  mix the two forms.

Representation B: one terminating bidifferential series on sparse
polynomial (optionally times Gaussian) symbols, with two pairings: a against
abar and b against bbar for symbols in the mode variables, q against p for
polynomials in the canonical coordinates.  Representation B is deliberately
independent of A and serves as its oracle in the test suite.

Displacement matrices come two ways.  The closed Laguerre form
(displacement_matrix_closed), vectorized over displacements, is the production
route for basis-function values (states.matrix_unit_values).  The matrix
exponential at the cutoff (displacement_matrix) is its independent oracle and
builds the coherent-state factors, which need the truncated, unitary operator.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .phase_space import PhysParams

GENERATORS = ("a", "abar", "b", "bbar")

_CONJ_GEN = {"a": "abar", "abar": "a", "b": "bbar", "bbar": "b"}


# ---------------------------------------------------------------------------
# Fock-coefficient (matrix-unit) representation
# ---------------------------------------------------------------------------

def ladder_matrices(cutoff: int):
    """Annihilation/creation matrices: lower[m, m+1] = sqrt(m+1), raise = lower^T."""
    lower = np.zeros((cutoff, cutoff))
    idx = np.arange(cutoff - 1)
    lower[idx, idx + 1] = np.sqrt(idx + 1.0)
    return lower, lower.T.copy()


@dataclass(frozen=True)
class FockRep:
    """Two-mode coefficient tensor over the matrix-unit basis.

    ``coeffs[m1, n1, m2, n2]`` multiplies the basis element with row/column
    indices (m1, n1) in the first mode and (m2, n2) in the second.  Instances
    are treated as immutable values; ``overflow`` is a sticky flag recording
    that some construction step truncated weight at the cutoff.
    """

    cutoff: int
    coeffs: np.ndarray
    overflow: bool = False

    @staticmethod
    def zero(cutoff: int) -> "FockRep":
        return FockRep(cutoff, np.zeros((cutoff,) * 4, dtype=complex))

    def conjugate(self) -> "FockRep":
        return FockRep(self.cutoff, np.conj(self.coeffs).transpose(1, 0, 3, 2), self.overflow)

    def trace(self) -> complex:
        return complex(np.einsum("iijj->", self.coeffs))

    def reality_residual(self) -> float:
        """Max deviation from the condition that the function is real-valued."""
        return float(np.max(np.abs(self.coeffs - np.conj(self.coeffs).transpose(1, 0, 3, 2))))

    def __add__(self, other: "FockRep") -> "FockRep":
        _check_cutoffs(self, other)
        return FockRep(self.cutoff, self.coeffs + other.coeffs, self.overflow or other.overflow)

    def __sub__(self, other: "FockRep") -> "FockRep":
        _check_cutoffs(self, other)
        return FockRep(self.cutoff, self.coeffs - other.coeffs, self.overflow or other.overflow)

    def __rmul__(self, c) -> "FockRep":
        return FockRep(self.cutoff, c * self.coeffs, self.overflow)


@dataclass(frozen=True)
class ProductRep:
    """Sum over terms (c, A, B) of c A (x) B: per-mode factors of a two-mode tensor.

    A and B are N x N coefficient matrices of the first and second mode, so the
    dense tensor is coeffs[m1, n1, m2, n2] = sum c A[m1, n1] B[m2, n2].  Values
    are immutable like FockRep's and ``overflow`` has the same meaning.
    """

    cutoff: int
    terms: tuple
    overflow: bool = False

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The dense cutoff^4 tensor, built on first use and kept."""
        out = np.zeros((self.cutoff,) * 4, dtype=complex)
        for c, a, b in self.terms:
            out += np.multiply.outer(c * a, b)
        return out

    def conjugate(self) -> "ProductRep":
        return ProductRep(self.cutoff, tuple((np.conj(c), a.conj().T, b.conj().T)
                                             for c, a, b in self.terms), self.overflow)

    def trace(self) -> complex:
        return complex(sum(c * np.trace(a) * np.trace(b) for c, a, b in self.terms))

    reality_residual = FockRep.reality_residual

    def __add__(self, other):
        _check_cutoffs(self, other)
        if isinstance(other, ProductRep):
            return ProductRep(self.cutoff, self.terms + other.terms,
                              self.overflow or other.overflow)
        return FockRep(self.cutoff, self.coeffs, self.overflow) + other

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c) -> "ProductRep":
        return ProductRep(self.cutoff, tuple((c * t, a, b) for t, a, b in self.terms),
                          self.overflow)


def _check_cutoffs(f, g):
    if f.cutoff != g.cutoff:
        raise ValueError(f"cutoff mismatch: {f.cutoff} != {g.cutoff}")


def matrix_unit(m1: int, n1: int, m2: int, n2: int, cutoff: int) -> FockRep:
    """Single matrix-unit basis element as a FockRep."""
    if not all(0 <= i < cutoff for i in (m1, n1, m2, n2)):
        raise ValueError(f"index out of range for cutoff {cutoff}: {(m1, n1, m2, n2)}")
    rep = FockRep.zero(cutoff)
    rep.coeffs[m1, n1, m2, n2] = 1.0
    return rep


def star(f, g):
    """Star product: matrix composition independently in each mode.

    Composition cannot raise indices, so the result stays within the cutoff.
    Two ProductReps compose factor by factor; any other pair densely.
    """
    _check_cutoffs(f, g)
    overflow = f.overflow or g.overflow
    if isinstance(f, ProductRep) and isinstance(g, ProductRep):
        return ProductRep(f.cutoff, tuple((cf * cg, af @ ag, bf @ bg)
                                          for cf, af, bf in f.terms
                                          for cg, ag, bg in g.terms), overflow)
    out = np.tensordot(f.coeffs, g.coeffs, axes=([1, 3], [0, 2]))
    # tensordot leaves axes ordered (m1, m2, n1, n2)
    return FockRep(f.cutoff, np.ascontiguousarray(out.transpose(0, 2, 1, 3)), overflow)


def _apply_generator(gen: str, side: str, rep):
    """Ladder action of one generator from the given side.

    Left action of the annihilation function lowers the row index; left action
    of the creation function raises it (weight in the top slice is dropped and
    flagged).  Right actions mirror on the column index.
    """
    if isinstance(rep, ProductRep):
        return apply_star_polynomial(StarPolynomial.generator(gen), rep, side)
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    # coefficient axes are (m1, n1, m2, n2): row, then column, of each mode
    axis = (0 if gen in ("a", "abar") else 2) + (side == "right")
    raising = _raises(gen, side)
    c = np.moveaxis(rep.coeffs, axis, 0)
    out = np.moveaxis(_ladder_step(c, raising), 0, axis)
    overflow = rep.overflow or (raising and bool(np.any(c[-1] != 0)))
    return FockRep(rep.cutoff, out, overflow)


def left_star_generator(gen: str, f):
    return _apply_generator(gen, "left", f)


def right_star_generator(gen: str, f):
    return _apply_generator(gen, "right", f)


def _raises(gen: str, side: str) -> bool:
    """Whether the generator's action from this side raises the acted-on index."""
    return (gen in ("abar", "bbar")) == (side == "left")


def _ladder_step(x: np.ndarray, raising: bool) -> np.ndarray:
    """One ladder action along the leading axis of x.

    The ladder matrices have one nonzero diagonal, so the action is a shifted,
    scaled copy: the same values as the matrix product, at the cost of a copy.
    Callers put the acted-on index first: a right action on an N x N factor
    passes its transpose, the dense tensor a view with that axis moved.
    """
    s = np.sqrt(np.arange(1.0, x.shape[0])).reshape((-1,) + (1,) * (x.ndim - 1))
    out = np.zeros_like(x)
    if raising:
        out[1:] = s * x[:-1]
    else:
        out[:-1] = s * x[1:]
    return out


def integrate(f, params: PhysParams) -> complex:
    """Phase-space integral of f: h^2 times the coefficient trace."""
    return params.planck_h ** 2 * f.trace()


def fock_to_entries(f: FockRep):
    """Nonzero coefficients as [m1, n1, m2, n2, re, im] rows in index order."""
    idx = np.argwhere(f.coeffs != 0)  # row-major, so already sorted
    vals = f.coeffs[tuple(idx.T)]
    return [i + [re, im] for i, re, im in zip(idx.tolist(), vals.real.tolist(),
                                              vals.imag.tolist())]


def fock_to_json_dict(f: FockRep) -> dict:
    return {"cutoff": f.cutoff, "entries": fock_to_entries(f)}


def fock_from_json_dict(d: Mapping) -> FockRep:
    """Inverse of fock_to_json_dict; rejects anything that function cannot write."""
    try:
        cutoff = d["cutoff"]
        entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    if type(cutoff) is not int or cutoff < 2:
        raise ValueError(f"cutoff must be an integer of at least 2, got {cutoff!r}")
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list, got {entries!r}")
    rep = FockRep.zero(cutoff)
    for pos, e in enumerate(entries):
        try:
            m1, n1, m2, n2, re, im = e
            value = complex(re, im)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"malformed entry at position {pos}: {e!r}") from None
        # type() rather than isinstance(): JSON true/false must not pass as 1/0
        if not (type(m1) is type(n1) is type(m2) is type(n2) is int
                and type(re) in (int, float) and type(im) in (int, float)
                and cmath.isfinite(value)):
            raise ValueError(f"malformed entry at position {pos}: {e!r}")
        if not (0 <= m1 < cutoff and 0 <= n1 < cutoff and 0 <= m2 < cutoff and 0 <= n2 < cutoff):
            raise ValueError(f"entry index out of range at position {pos}: {e[:4]}")
        rep.coeffs[m1, n1, m2, n2] = value
    return rep


# ---------------------------------------------------------------------------
# Star polynomials: formal linear combinations of ordered generator words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarPolynomial:
    """Linear combination of ordered star-words over {a, abar, b, bbar}.

    Juxtaposition inside a word means star multiplication in the written
    order; the empty word is the constant 1.
    """

    terms: tuple = ()

    @staticmethod
    def constant(c) -> "StarPolynomial":
        return StarPolynomial(((complex(c), ()),))

    @staticmethod
    def generator(name: str) -> "StarPolynomial":
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return StarPolynomial(((1.0 + 0j, (name,)),))

    @staticmethod
    def from_terms(terms) -> "StarPolynomial":
        merged: dict = {}
        for c, w in terms:
            w = tuple(w)
            merged[w] = merged.get(w, 0j) + complex(c)
        items = tuple((c, w) for w, c in sorted(merged.items()) if c != 0)
        return StarPolynomial(items)

    def __add__(self, other):
        other = _as_star_poly(other)
        return StarPolynomial.from_terms(list(self.terms) + list(other.terms))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = _as_star_poly(other)
        return self + (-1.0) * other

    def __rsub__(self, other):
        return _as_star_poly(other) - self

    def __mul__(self, other):
        """Star product: pairwise word concatenation."""
        other = _as_star_poly(other)
        return StarPolynomial.from_terms(
            (c1 * c2, w1 + w2) for c1, w1 in self.terms for c2, w2 in other.terms
        )

    def __rmul__(self, c):
        return StarPolynomial.from_terms((complex(c) * coef, w) for coef, w in self.terms)

    def conjugate(self) -> "StarPolynomial":
        """Complex conjugate: conjugate coefficients, reverse and bar each word."""
        return StarPolynomial.from_terms(
            (c.conjugate(), tuple(_CONJ_GEN[g] for g in reversed(w))) for c, w in self.terms
        )

    def is_real_observable(self) -> bool:
        """Word-level reality: the polynomial equals its formal conjugate."""
        return self.terms == self.conjugate().terms

    def normal_form(self) -> dict:
        """Reduce modulo the star commutators to normally ordered monomials.

        Returns {(i, j, k, l): coeff} for abar^i a^j bbar^k b^l.  The two modes
        commute; within a mode, a*abar = abar*a + 1.
        """
        out: dict = {}
        for c, w in self.terms:
            wa = tuple(g for g in w if g in ("a", "abar"))
            wb = tuple(g for g in w if g in ("b", "bbar"))
            for (i, j), ca in _normal_order_single(wa, "a", "abar").items():
                for (k, l), cb in _normal_order_single(wb, "b", "bbar").items():
                    key = (i, j, k, l)
                    out[key] = out.get(key, 0j) + c * ca * cb
        return {k: v for k, v in out.items() if v != 0}


def _as_star_poly(x) -> StarPolynomial:
    if isinstance(x, StarPolynomial):
        return x
    return StarPolynomial.constant(x)


def _normal_order_single(word, low: str, high: str) -> dict:
    """Normal order a single-mode word; returns {(creators, annihilators): coeff}."""
    results: dict = {}
    stack = [(1.0 + 0j, tuple(word))]
    while stack:
        c, w = stack.pop()
        for i in range(len(w) - 1):
            if w[i] == low and w[i + 1] == high:
                stack.append((c, w[:i] + (high, low) + w[i + 2:]))
                stack.append((c, w[:i] + w[i + 2:]))
                break
        else:
            key = (w.count(high), w.count(low))
            results[key] = results.get(key, 0j) + c
    return results


def apply_star_polynomial(poly: StarPolynomial, f, side: str = "left"):
    """Fold the ladder actions of each word over f, linearly in the polynomial."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if isinstance(f, ProductRep):
        return _apply_product(poly, f, side)
    total = np.zeros_like(f.coeffs)
    overflow = f.overflow
    for c, word in poly.terms:
        cur = f
        letters = reversed(word) if side == "left" else word
        for gen in letters:
            cur = _apply_generator(gen, side, cur)
        total = total + c * cur.coeffs
        overflow = overflow or cur.overflow
    return FockRep(f.cutoff, total, overflow)


def _apply_product(poly: StarPolynomial, f: ProductRep, side: str) -> ProductRep:
    """apply_star_polynomial on per-mode factors.

    The modes commute, so each word acts as its first-mode letters on A and
    its second-mode letters on B.  Letters are applied one at a time, each
    partial product cached per term, so the overflow flag follows the dense
    fold letter by letter: a raising letter that meets a nonzero top row
    (column) of its own factor while the other factor is nonzero drops
    weight.  The test is per term; the dense fold tests the sum of the terms,
    which differs only where terms cancel exactly in the top slice.  Words
    sharing their second-mode letters share one output term.
    """
    overflow = f.overflow
    terms = []
    for c0, a0, b0 in f.terms:
        done = {"a": {(): a0}, "b": {(): b0}}

        def factor(mode, letters):
            cache = done[mode]
            if letters not in cache:
                x, raising = factor(mode, letters[:-1]), _raises(letters[-1], side)
                cache[letters] = (_ladder_step(x, raising) if side == "left"
                                  else _ladder_step(x.T, raising).T)
            return cache[letters]

        by_b_letters: dict = {}
        for c, word in poly.terms:
            applied = {"a": (), "b": ()}
            for gen in (reversed(word) if side == "left" else word):
                if gen not in GENERATORS:
                    raise ValueError(f"unknown generator {gen!r}")
                mode, other = ("a", "b") if gen in ("a", "abar") else ("b", "a")
                if _raises(gen, side) and not overflow:
                    own = factor(mode, applied[mode])
                    top = own[-1] if side == "left" else own[:, -1]
                    overflow = bool(np.any(top != 0)
                                    and np.any(factor(other, applied[other]) != 0))
                applied[mode] += (gen,)
            by_b_letters.setdefault(applied["b"], []).append((c, applied["a"]))
        for b_letters, group in by_b_letters.items():
            b = factor("b", b_letters)
            a = sum(c * factor("a", a_letters) for c, a_letters in group)
            if np.any(a != 0) and np.any(b != 0):
                terms.append((c0, a, b))
    return ProductRep(f.cutoff, tuple(terms), overflow)


# ---------------------------------------------------------------------------
# Moyal bracket (dispatching on representation)
# ---------------------------------------------------------------------------

def _bracket(f, g, params: PhysParams | None, combine):
    reps = (FockRep, ProductRep)
    if isinstance(f, reps) and isinstance(g, reps):
        return combine(star(f, g), star(g, f))
    if isinstance(f, StarPolynomial) and isinstance(g, StarPolynomial):
        return combine(f * g, g * f)
    if isinstance(f, CanonicalPoly) and isinstance(g, CanonicalPoly):
        if params is None:
            raise ValueError("canonical-coordinate bracket needs params")
        return combine(canonical_star(f, g, params), canonical_star(g, f, params))
    raise TypeError(f"unsupported bracket operands: {type(f).__name__}, {type(g).__name__}")


def moyal_bracket(f, g, params: PhysParams | None = None):
    """f * g - g * f for Fock-basis, StarPolynomial or CanonicalPoly pairs."""
    return _bracket(f, g, params, operator.sub)


def anti_moyal_bracket(f, g, params: PhysParams | None = None):
    """f * g + g * f on the same supported pairs as moyal_bracket."""
    return _bracket(f, g, params, operator.add)


# ---------------------------------------------------------------------------
# Sparse symbols and the bidifferential series: the independent oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyGauss:
    """Symbol P(x) * exp(linear . x) * exp(-2(x0 x1 + x2 x3))? in four variables x.

    ``coeffs`` maps exponent quadruples to coefficients; ``gaussian`` switches
    the Gaussian factor on; ``linear`` holds the four exponent-linear
    coefficients.  For mode-variable symbols x = (a, abar, b, bbar) and the
    Gaussian is the two-mode ground Gaussian.  Closed under differentiation,
    which is all the bidifferential series needs.
    """

    coeffs: Mapping = field(default_factory=dict)
    gaussian: bool = False
    linear: tuple = (0j, 0j, 0j, 0j)

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0, 0): complex(c)})

    @staticmethod
    def monomial(exponents, coeff=1.0) -> "PolyGauss":
        return PolyGauss({tuple(exponents): complex(coeff)})

    @staticmethod
    def standard_gaussian(coeff=1.0) -> "PolyGauss":
        return PolyGauss({(0, 0, 0, 0): complex(coeff)}, gaussian=True)

    @property
    def is_polynomial(self) -> bool:
        return not self.gaussian and all(c == 0 for c in self.linear)

    def total_degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def _with_coeffs(self, coeffs: dict, gaussian=None, linear=None):
        """Same type and exponent (unless overridden), zero coefficients dropped."""
        return type(self)({k: v for k, v in coeffs.items() if v != 0},
                          self.gaussian if gaussian is None else gaussian,
                          self.linear if linear is None else linear)

    def __add__(self, other):
        if (self.gaussian, self.linear) != (other.gaussian, other.linear):
            raise ValueError("cannot add symbols with different exponents")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return self._with_coeffs(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        return self._with_coeffs({k: complex(c) * v for k, v in self.coeffs.items()})

    def pointwise_mul(self, other):
        if self.gaussian and other.gaussian:
            raise ValueError("product of two Gaussian symbols is outside this class")
        out: dict = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0j) + v1 * v2
        linear = tuple(cx + cy for cx, cy in zip(self.linear, other.linear))
        return self._with_coeffs(out, gaussian=self.gaussian or other.gaussian, linear=linear)

    def diff(self, var: int):
        """Derivative with respect to x[var]; the Gaussian pairs x[var] with x[var ^ 1]."""
        out: dict = {}
        for k, v in self.coeffs.items():
            if k[var] > 0:
                key = k[:var] + (k[var] - 1,) + k[var + 1:]
                out[key] = out.get(key, 0j) + v * k[var]
            # chain rule on the exponent: d/dvar exp(E) = (linear_var - 2*partner) exp(E)
            if self.linear[var] != 0:
                out[k] = out.get(k, 0j) + v * self.linear[var]
            if self.gaussian:
                partner = var ^ 1
                key = k[:partner] + (k[partner] + 1,) + k[partner + 1:]
                out[key] = out.get(key, 0j) - 2.0 * v
        return self._with_coeffs(out)

    def eval(self, a, b):
        """Pointwise value of a mode-variable symbol with abar = conj(a), bbar = conj(b)."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        a, b = np.broadcast_arrays(a, b)
        shape = a.shape
        vals = np.stack([a.ravel(), np.conj(a).ravel(), b.ravel(), np.conj(b).ravel()])
        if self.coeffs:
            expo_mat = np.array(list(self.coeffs.keys()))          # (n_mono, 4)
            coefs = np.array(list(self.coeffs.values()))           # (n_mono,)
            mono = np.prod(vals[None, :, :] ** expo_mat[:, :, None], axis=1)
            tot = coefs @ mono
        else:
            tot = np.zeros(vals.shape[1], dtype=complex)
        expo = np.asarray(self.linear, dtype=complex) @ vals
        if self.gaussian:
            expo = expo - 2.0 * (np.abs(vals[0]) ** 2 + np.abs(vals[2]) ** 2)
        out = (tot * np.exp(expo)).reshape(shape)
        return out if out.ndim else complex(out)


class CanonicalPoly(PolyGauss):
    """Polynomial in (q1, q2, p1, p2); its own type so brackets take the (q, p) pairing."""

    @staticmethod
    def coordinate(name: str) -> "CanonicalPoly":
        order = ("q1", "q2", "p1", "p2")
        if name not in order:
            raise ValueError(f"unknown coordinate {name!r}")
        return CanonicalPoly({tuple(1 if c == name else 0 for c in order): 1.0 + 0j})


def _moyal_series(f: PolyGauss, g: PolyGauss, f_axes, g_axes, weights) -> PolyGauss:
    """Sum over multi-indices k of prod_i (w_i^k_i / k_i!) (d^k f)(d^k g).

    Component k_i differentiates f along f_axes[i] and g along g_axes[i] with
    weight weights[i].  At least one operand must be a pure polynomial; the
    series then terminates at its total degree (two non-polynomial symbols
    would give a non-terminating series and are rejected).
    """
    if not f.is_polynomial and not g.is_polynomial:
        raise ValueError("bidifferential series terminates only if one side is polynomial")
    bound = min(s.total_degree() for s in (f, g) if s.is_polynomial)

    def deriv(cache, axes, orders):
        # each derivative is one step from a cached lower-order one
        if orders not in cache:
            i = next(i for i, o in enumerate(orders) if o > 0)
            prev = orders[:i] + (orders[i] - 1,) + orders[i + 1:]
            cache[orders] = deriv(cache, axes, prev).diff(axes[i])
        return cache[orders]

    f_cache = {(0, 0, 0, 0): f}
    g_cache = {(0, 0, 0, 0): g}
    linear = tuple(cf + cg for cf, cg in zip(f.linear, g.linear))
    result = f._with_coeffs({}, gaussian=f.gaussian or g.gaussian, linear=linear)
    for orders in itertools.product(range(bound + 1), repeat=4):
        if sum(orders) > bound:
            continue
        df = deriv(f_cache, f_axes, orders)
        if not df.coeffs:
            continue
        dg = deriv(g_cache, g_axes, orders)
        if not dg.coeffs:
            continue
        coef = (math.prod(w ** k for w, k in zip(weights, orders))
                / math.prod(math.factorial(k) for k in orders))
        result = result + coef * df.pointwise_mul(dg)
    return result


def canonical_star(f: CanonicalPoly, g: CanonicalPoly, params: PhysParams) -> CanonicalPoly:
    """Exact bidifferential star product on canonical-coordinate polynomials.

    q1, q2 on one side pair with p1, p2 on the other at weight +-i hbar/2; the
    series terminates at the smaller total degree.
    """
    w = 0.5j * params.hbar
    return _moyal_series(f, g, (0, 1, 2, 3), (2, 3, 0, 1), (w, w, -w, -w))


def generator_symbol(name: str) -> PolyGauss:
    """Degree-one polynomial symbol of a single generator."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    key = tuple(1 if g == name else 0 for g in GENERATORS)
    return PolyGauss.monomial(key)


def oracle_apply_word(word, symbol: PolyGauss, side: str = "left") -> PolyGauss:
    """Star-multiply a generator word onto a symbol, letter by letter.

    Each letter is a degree-one polynomial, so every bidifferential series in
    the fold terminates after two terms; the result is the exact star product
    of the ordered word with the symbol.
    """
    out = symbol
    if side == "left":
        for gen in reversed(tuple(word)):
            out = bidifferential_star(generator_symbol(gen), out)
    elif side == "right":
        for gen in word:
            out = bidifferential_star(out, generator_symbol(gen))
    else:
        raise ValueError("side must be 'left' or 'right'")
    return out


def bidifferential_star(f: PolyGauss, g: PolyGauss) -> PolyGauss:
    """Star product via the bidifferential series on mode-variable symbols.

    a pairs with abar and b with bbar at weight +-1/2.  At least one operand
    must be a pure polynomial.  This routine is the independent oracle for the
    matrix-unit composition rule and the ladder actions.
    """
    return _moyal_series(f, g, (0, 1, 2, 3), (1, 0, 3, 2), (0.5, -0.5, 0.5, -0.5))


# ---------------------------------------------------------------------------
# Displacement matrices
# ---------------------------------------------------------------------------

def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Single-mode displacement matrix exp(alpha*raise - conj(alpha)*lower).

    Computed by scaling-and-squaring matrix exponential at the working cutoff:
    the truncated operator, whose columns the coherent constructors use.  The
    closed form below pins down the convention independently.
    """
    lower, raise_ = ladder_matrices(cutoff)
    return expm(alpha * raise_ - np.conj(alpha) * lower)


def displacement_matrix_closed(alpha, cutoff: int) -> np.ndarray:
    """Closed-form (untruncated) displacement matrix elements, vectorized over alpha.

    Returns shape (cutoff, cutoff, *alpha.shape).  With lo, hi = min(m, n),
    max(m, n), d = hi - lo and x = |alpha|^2, element (m, n) is (z/|alpha|)^d g_lo,
    where z = alpha below the diagonal and -conj(alpha) above it, and

        g_lo = sqrt(lo!/hi!) |alpha|^d e^{-x/2} L_lo^d(x)

    is real.  The Laguerre recurrence in lo, normalized to

        g_{k+1} = ((2k+1+d-x) g_k - sqrt(k(k+d)) g_{k-1}) / sqrt((k+1)(k+1+d)),

    advances every diagonal at once, one array step per k.  Each g_k has the
    size of a unitary matrix element, at most 1, so no step can overflow.
    """
    alpha = np.asarray(alpha, dtype=complex)
    shape, alpha = alpha.shape, alpha.reshape(-1)
    rho = np.abs(alpha)
    x = rho * rho
    # alpha/|alpha|, or 0 at alpha = 0, where only the main diagonal is nonzero
    phase = alpha * np.divide(1.0, rho, out=np.zeros_like(rho), where=rho > 0)
    # first[d] = g_0 = e^{-x/2} rho^d / sqrt(d!) of diagonal d; below[d] and
    # above[d] are the phases (z/|alpha|)^d under and over the main diagonal
    first = np.empty((cutoff, alpha.size))
    below = np.empty((cutoff, alpha.size), dtype=complex)
    first[0] = np.exp(-0.5 * x)
    below[0] = 1.0
    for d in range(1, cutoff):
        np.multiply(first[d - 1], rho, out=first[d])
        first[d] *= 1.0 / math.sqrt(d)
        np.multiply(below[d - 1], phase, out=below[d])
    above = np.conj(below)
    above[1::2] *= -1.0
    diag = np.arange(cutoff)[:, None]
    out = np.empty((cutoff, cutoff, alpha.size), dtype=complex)
    prev, cur = None, first  # cur[d] = g_k of diagonal d
    for k in range(cutoff):
        m = cutoff - k
        np.multiply(below[:m], cur, out=out[k:, k])
        np.multiply(above[1:m], cur[1:], out=out[k, k + 1:])
        if m == 1:
            break
        dd = diag[:m - 1]
        nxt = (2 * k + 1 + dd) - x
        nxt *= cur[:m - 1]
        if k:
            nxt -= np.sqrt(k * (k + dd)) * prev[:m - 1]
        nxt *= 1.0 / np.sqrt((k + 1) * (k + 1 + dd))
        prev, cur = cur, nxt
    return out.reshape((cutoff, cutoff) + shape)
