"""The Moyal star product in two exact representations.

Representation A: phase-space functions expanded over the two-mode
matrix-unit basis.  The basis elements compose under the star product exactly
like matrix units, u_{mn} * u_{m'n'} = delta_{n m'} u_{m n'}, so star products,
ladder actions and phase-space integrals reduce to finite linear algebra: the
integral of f is h^2 tr(f), or (2 pi)^2 tr(f) over the four axis units.
The basis is normalized so that this composition rule carries no extra
factors; the pointwise evaluator (states module) owns the conversion back to
function values.  It has one storage form, ProductRep: a short sum of
per-mode products c A (x) B of N x N matrices.  Every state the package
constructs has this form, and so does every matrix unit, because the two
modes commute: star products, ladder actions and traces act on each mode's
matrix separately, at N^2 or N^3 cost instead of N^4.  A word's letters act
on a factor's rows, each distinct prefix walked once, by exact ladder steps
(_walk); a right action is the conjugate of a left one, f * p = conj(conj(p)
* conj(f)).  Only an applied state is cut back to the cutoff.  State queries
are bilinear forms on one table, word_pair_traces: T[i, j] = tr(l_i * r_j *
rep) on pairs of words, each entry a product of one trace per mode, taken on
the same walk without building the applied state, so each query is the exact
functional of the state as stored.  The dense cutoff^4 tensor is built only
on request (``coeffs``).

A state document holds that dense tensor (fock_to_json_dict), and the
overflow flag of a flagged state.  Read back (fock_from_json_dict), it is an
exact ProductRep again, one term per nonzero second-mode slice, with the same
flag, so a loaded state answers every query its source does.

Representation B: one terminating bidifferential series on sparse
polynomial (optionally times Gaussian) symbols, with two pairings: a against
abar and b against bbar for symbols in the mode variables, q against p for
polynomials in the canonical coordinates.  Representation B is deliberately
independent of A and serves as its oracle in the test suite.

Displacement matrices come two ways.  The closed Laguerre form
(displacement_matrix_closed), vectorized over displacements, is the production
route: basis-function values (states.matrix_unit_values) and the columns
D(alpha)|n> of the coherent-state factors.  The matrix exponential at the
cutoff (displacement_matrix) is only its independent oracle.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .phase_space import PhysParams
from .specfun import bounded_abs2

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
class ProductRep:
    """Sum over terms (c, A, B) of c A (x) B: per-mode factors of a two-mode tensor.

    A and B are N x N coefficient matrices of the first and second mode, so the
    dense tensor is coeffs[m1, n1, m2, n2] = sum c A[m1, n1] B[m2, n2].
    Instances are treated as immutable values; ``overflow`` is a sticky flag
    recording that some construction step truncated weight at the cutoff.
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

    def reality_residual(self) -> float:
        """Max deviation from the condition that the function is real-valued."""
        c = self.coeffs
        return float(np.max(np.abs(c - np.conj(c).transpose(1, 0, 3, 2))))

    def __add__(self, other) -> "ProductRep":
        if not isinstance(other, ProductRep):
            return NotImplemented
        _check_cutoffs(self, other)
        return ProductRep(self.cutoff, self.terms + other.terms, self.overflow or other.overflow)

    def __sub__(self, other) -> "ProductRep":
        return self + (-1.0) * other if isinstance(other, ProductRep) else NotImplemented

    def __rmul__(self, c) -> "ProductRep":
        return ProductRep(self.cutoff, tuple((c * t, a, b) for t, a, b in self.terms),
                          self.overflow)


def _check_cutoffs(f, g):
    if f.cutoff != g.cutoff:
        raise ValueError(f"cutoff mismatch: {f.cutoff} != {g.cutoff}")


def matrix_unit(m1: int, n1: int, m2: int, n2: int, cutoff: int) -> ProductRep:
    """Single matrix-unit basis element: the one-term product E_{m1 n1} (x) E_{m2 n2}."""
    if not all(0 <= i < cutoff for i in (m1, n1, m2, n2)):
        raise ValueError(f"index out of range for cutoff {cutoff}: {(m1, n1, m2, n2)}")
    a, b = np.zeros((cutoff, cutoff)), np.zeros((cutoff, cutoff))
    a[m1, n1] = b[m2, n2] = 1.0
    return ProductRep(cutoff, ((1.0, a, b),))


def star(f: ProductRep, g: ProductRep) -> ProductRep:
    """Star product: matrix composition independently in each mode, factor by factor.

    Composition cannot raise indices, so the result stays within the cutoff.
    """
    _check_cutoffs(f, g)
    return ProductRep(f.cutoff, tuple((cf * cg, af @ ag, bf @ bg)
                                      for cf, af, bf in f.terms
                                      for cg, ag, bg in g.terms), f.overflow or g.overflow)


def left_star_generator(gen: str, f: ProductRep) -> ProductRep:
    """gen * f.  The annihilation function lowers the row index; the creation
    function raises it (weight it lifts past the cutoff is dropped and flagged)."""
    return apply_star_polynomial(_GENERATOR_POLYS.get(gen) or StarPolynomial.generator(gen),
                                 f, "left")


def right_star_generator(gen: str, f: ProductRep) -> ProductRep:
    """f * gen, the conjugate of conj(gen) * conj(f): it acts on the column index."""
    return apply_star_polynomial(_GENERATOR_POLYS.get(gen) or StarPolynomial.generator(gen),
                                 f, "right")


def _raises(gen: str) -> bool:
    """Whether the generator's left action raises the row index."""
    return gen in ("abar", "bbar")


# sqrt(1), sqrt(2), ...: the ladder matrices' one diagonal, read-only and
# replaced by a longer table when a step needs more rows than it holds
_ROOTS = np.sqrt(np.arange(1.0, 65.0))
_ROOTS.flags.writeable = False


def _roots(count: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(count), a read-only view of the module's root table.

    Each root is correctly rounded, so the values do not depend on the
    table's length."""
    global _ROOTS
    if len(_ROOTS) < count:
        grown = np.sqrt(np.arange(1.0, 2.0 * count + 1.0))
        grown.flags.writeable = False
        _ROOTS = grown
    return _ROOTS[:count]


def _ladder_step(x: np.ndarray, raising: bool) -> np.ndarray:
    """One exact ladder action on the row index of the factor x.

    The ladder matrices have one nonzero diagonal, so the action is a shifted,
    scaled copy: the same values as the matrix product, at the cost of a copy.
    Raising adds a row, so no weight is dropped; lowering keeps the shape.
    """
    rows = len(x)
    out = np.zeros((rows + raising, x.shape[1]), dtype=x.dtype)
    if raising:
        out[1:] = _roots(rows)[:, None] * x
    else:
        out[:-1] = _roots(rows - 1)[:, None] * x[1:]
    return out


# Largest cutoff of a state document, read or written (`state dump`): a coherent
# dump and load round trip at cutoff 32, the dump default, peaks at 640 MB RSS
# and takes 20 s on a 2-core x86 host, and both grow as cutoff^4, so a larger
# cutoff is refused before anything is allocated.
MAX_DOCUMENT_CUTOFF = 32


def fock_to_entries(f: ProductRep):
    """Nonzero coefficients of f as [m1, n1, m2, n2, re, im] rows in index order."""
    idx = np.argwhere(f.coeffs != 0)  # row-major, so already sorted
    vals = f.coeffs[tuple(idx.T)]
    return [i + [re, im] for i, re, im in zip(idx.tolist(), vals.real.tolist(),
                                              vals.imag.tolist())]


def fock_to_json_dict(f: ProductRep) -> dict:
    """The state document of f: its cutoff and dense entries, then ``"overflow": true``
    for a flagged state only, so an unflagged document has no such key."""
    doc = {"cutoff": f.cutoff, "entries": fock_to_entries(f)}
    if f.overflow:
        doc["overflow"] = True
    return doc


def fock_from_json_dict(d: Mapping) -> ProductRep:
    """Inverse of fock_to_json_dict; rejects anything that function cannot write.

    The entries are validated as arrays; only when that fails are they walked
    one by one, to name the first bad entry.
    """
    try:
        cutoff = d["cutoff"]
        entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    unknown = sorted(set(d) - {"cutoff", "entries", "overflow"})
    if unknown:
        raise ValueError(f"unknown key in state document: {', '.join(map(repr, unknown))}")
    if type(cutoff) is not int or not 2 <= cutoff <= MAX_DOCUMENT_CUTOFF:
        raise ValueError(f"cutoff must be an integer from 2 to {MAX_DOCUMENT_CUTOFF}, "
                         f"got {cutoff!r}")
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list, got {entries!r}")
    overflow = "overflow" in d
    if overflow and d["overflow"] is not True:
        raise ValueError(f"overflow must be true when present, got {d['overflow']!r}")
    table = _entry_table(entries, cutoff)
    if table is None:
        _raise_at_first_bad_entry(entries, cutoff)
    index, values = table
    coeffs = np.zeros((cutoff,) * 4, dtype=complex)
    # a later entry for the same index overrides an earlier one
    flat = np.ravel_multi_index(tuple(index), coeffs.shape)
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    coeffs.reshape(-1)[flat[last]] = values[last]
    return _dense_product(coeffs, overflow)


def _dense_product(coeffs: np.ndarray, overflow: bool = False) -> ProductRep:
    """The exact ProductRep of a dense tensor, whose ``coeffs`` is that tensor.

    One term (1, coeffs[:, :, m2, n2], E_{m2 n2}) per nonzero second-mode
    slice: no rank tolerance, and the tensor is kept as read, not rebuilt from
    the terms, so a document re-emits its own bytes.
    """
    eye = np.eye(len(coeffs))
    rep = ProductRep(len(coeffs), tuple((1.0, coeffs[:, :, m2, n2], np.outer(eye[m2], eye[n2]))
                                     for m2, n2 in np.argwhere(np.any(coeffs != 0, axis=(0, 1)))),
                     overflow)
    rep.__dict__["coeffs"] = coeffs  # the storage of the cached property
    return rep


def _entry_table(entries: list, cutoff: int):
    """(index columns, complex values) of the entries, or None unless every entry is
    [m1, n1, m2, n2, re, im] with int indices in range and finite int or float parts."""
    try:
        if not set(map(len, entries)) <= {6}:
            return None
    except TypeError:  # an entry without a length
        return None
    cells = list(itertools.chain.from_iterable(entries))
    columns = [cells[k::6] for k in range(6)]
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    if not (set(map(type, itertools.chain(*columns[:4]))) <= {int}
            and set(map(type, itertools.chain(*columns[4:]))) <= {int, float}):
        return None
    try:
        index = np.array(columns[:4], dtype=np.int64)
        parts = np.array(columns[4:], dtype=float)
    except OverflowError:
        return None
    if not (np.all((index >= 0) & (index < cutoff)) and np.all(np.isfinite(parts))):
        return None
    values = np.empty(len(entries), dtype=complex)
    values.real, values.imag = parts
    return index, values


def _raise_at_first_bad_entry(entries: list, cutoff: int):
    """Name the first entry _entry_table rejects, in document order."""
    for pos, e in enumerate(entries):
        try:
            m1, n1, m2, n2, re, im = e
            value = complex(re, im)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"malformed entry at position {pos}: {e!r}") from None
        if not (type(m1) is type(n1) is type(m2) is type(n2) is int
                and type(re) in (int, float) and type(im) in (int, float)
                and cmath.isfinite(value)):
            raise ValueError(f"malformed entry at position {pos}: {e!r}")
        if not (0 <= m1 < cutoff and 0 <= n1 < cutoff and 0 <= m2 < cutoff and 0 <= n2 < cutoff):
            raise ValueError(f"entry index out of range at position {pos}: {e[:4]}")
    raise ValueError("malformed entries")


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
        return StarPolynomial(tuple((c, w) for w, c in sorted(_word_map(terms).items())))

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
        return StarPolynomial.from_terms((c.conjugate(), _bar(w)) for c, w in self.terms)

    def is_real_observable(self) -> bool:
        """Word-level reality: equal to its formal conjugate word by word, in any term order."""
        words = _word_map(self.terms)
        return words == {_bar(w): c.conjugate() for w, c in words.items()}

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


# each generator's one-letter polynomial, built once; any other name falls
# through to StarPolynomial.generator, which refuses it
_GENERATOR_POLYS = {gen: StarPolynomial.generator(gen) for gen in GENERATORS}


def _bar(word) -> tuple:
    """The conjugate word: the letters reversed, each one barred."""
    try:
        return tuple(_CONJ_GEN[g] for g in reversed(word))
    except KeyError as exc:
        raise ValueError(f"unknown generator {exc.args[0]!r}") from None


def _word_map(terms) -> dict:
    """word -> the sum of its coefficients over ``terms``, words that sum to 0 dropped."""
    merged: dict = {}
    for c, w in terms:
        w = tuple(w)
        merged[w] = merged.get(w, 0j) + complex(c)
    return {w: c for w, c in merged.items() if c != 0}


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


def _walk(x: np.ndarray, sequences) -> dict:
    """x after each letter sequence acts on its rows, letters in acting order, keyed
    by every prefix walked: one exact _ladder_step per distinct prefix."""
    walked = {(): x}
    for letters in sequences:
        for k in range(len(letters)):
            if letters[:k + 1] not in walked:
                walked[letters[:k + 1]] = _ladder_step(walked[letters[:k]], _raises(letters[k]))
    return walked


def _mode_letters(word):
    """A word's first-mode and second-mode letters, each in the order they act
    from the left: the modes commute, so each mode's letters act on its factor."""
    for gen in word:
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
    return (tuple(g for g in reversed(word) if g in ("a", "abar")),
            tuple(g for g in reversed(word) if g in ("b", "bbar")))


def apply_star_polynomial(poly: StarPolynomial, f: ProductRep, side: str = "left") -> ProductRep:
    """Fold each word's ladder actions over f's per-mode factors, its first-mode
    letters on A and its second-mode ones on B, walked once per term (_walk).
    Each word's result is cut back to the cutoff once, and the overflow flag is
    set if a cut drops weight: per term, if both factors are nonzero and either
    has a nonzero entry past the cutoff.  Words sharing their second-mode
    letters share one output term.  A right action is a conjugated left one,
    f * p = conj(conj(p) * conj(f)), with conj(p) in p's own term order.
    """
    if side == "right":
        mirror = StarPolynomial(tuple((c.conjugate(), _bar(w)) for c, w in poly.terms))
        return apply_star_polynomial(mirror, f.conjugate()).conjugate()
    if side != "left":
        raise ValueError("side must be 'left' or 'right'")
    n, overflow, terms, groups = f.cutoff, f.overflow, [], {}
    for c, word in poly.terms:
        la, lb = _mode_letters(word)
        groups.setdefault(lb, []).append((c, la))
    for c0, a0, b0 in f.terms:
        fa, fb = _walk(a0, (la for group in groups.values() for _, la in group)), _walk(b0, groups)
        for lb, group in groups.items():
            overflow = overflow or any((fa[la][n:].any() or fb[lb][n:].any())
                                       and fa[la].any() and fb[lb].any() for _, la in group)
            a, b = sum(c * fa[la][:n] for c, la in group), fb[lb][:n]
            if a.any() and b.any():
                terms.append((c0, a, b))
    return ProductRep(n, tuple(terms), overflow)


def word_pair_traces(left, right, rep: ProductRep) -> np.ndarray:
    """The table T[i, j] = tr(left[i] * right[j] * rep) of the state functional
    on pairs of words (tuples of generator names), without applied states.

    Every bilinear query is a small form on it: <f|g> = s(conj(f) * g) takes
    the words of conj(f) on the left and those of g on the right.  The modes
    commute, so T[i, j] = sum over terms c A (x) B of c tr(w_a A) tr(w_b B),
    each mode's letters right[j]'s first, each such sequence traced once: up
    to summation order, the trace of the applied concatenated word.
    """
    split_right = [_mode_letters(word) for word in right]
    seq_a, seq_b, index_a, index_b = {}, {}, [], []
    for la, lb in map(_mode_letters, left):
        for ra, rb in split_right:
            index_a.append(seq_a.setdefault(ra + la, len(seq_a)))
            index_b.append(seq_b.setdefault(rb + lb, len(seq_b)))
    index_a, index_b = np.array(index_a, dtype=np.intp), np.array(index_b, dtype=np.intp)
    table = np.zeros((len(left), len(right)), dtype=complex)
    for c0, a0, b0 in rep.terms:
        pairs = _traces(a0, seq_a)[index_a] * _traces(b0, seq_b)[index_b]
        table += c0 * pairs.reshape(table.shape)
    return table


def _traces(x: np.ndarray, sequences) -> np.ndarray:
    """tr(letters * x) for each letter sequence, with only its head walked: the
    trace of a ladder step of y is the root-weighted sum of a first
    off-diagonal of y.  Rows past the cutoff meet no column, so add nothing."""
    heads = [letters[:-1] for letters in sequences]
    walked, out = _walk(x, heads), []
    for letters, head in zip(sequences, heads):
        if letters:
            shifted = walked[head].diagonal(1 if _raises(letters[-1]) else -1)
            out.append(shifted.dot(_roots(len(shifted))))
        else:
            out.append(x.trace())
    return np.array(out, dtype=complex)


# ---------------------------------------------------------------------------
# Moyal bracket (dispatching on representation)
# ---------------------------------------------------------------------------

def moyal_bracket(f, g, params: PhysParams | None = None):
    """f * g - g * f for ProductRep, StarPolynomial or CanonicalPoly pairs."""
    if isinstance(f, StarPolynomial) and isinstance(g, StarPolynomial):
        return f * g - g * f
    if isinstance(f, CanonicalPoly) and isinstance(g, CanonicalPoly):
        if params is None:
            raise ValueError("canonical-coordinate bracket needs params")
        return canonical_star(f, g, params) - canonical_star(g, f, params)
    # any other pair composes as matrix-unit functions, which star checks
    return star(f, g) - star(g, f)


# ---------------------------------------------------------------------------
# Sparse symbols and the bidifferential series: the independent oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyGauss:
    """Symbol P(x) * exp(-2(x0 x1 + x2 x3))? in four variables x.

    ``coeffs`` maps exponent quadruples to coefficients; ``gaussian`` switches
    the Gaussian factor on.  For mode-variable symbols x = (a, abar, b, bbar)
    and the Gaussian is the two-mode ground Gaussian.  Closed under
    differentiation, which is all the bidifferential series needs.
    """

    coeffs: Mapping = field(default_factory=dict)
    gaussian: bool = False

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0, 0): complex(c)})

    @staticmethod
    def monomial(exponents, coeff=1.0) -> "PolyGauss":
        return PolyGauss({tuple(exponents): complex(coeff)})

    @staticmethod
    def standard_gaussian() -> "PolyGauss":
        return PolyGauss({(0, 0, 0, 0): 1.0 + 0j}, gaussian=True)

    @property
    def is_polynomial(self) -> bool:
        return not self.gaussian

    def total_degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def _with_coeffs(self, coeffs: dict, gaussian=None):
        """Same type and exponent (unless overridden), zero coefficients dropped."""
        return type(self)({k: v for k, v in coeffs.items() if v != 0},
                          self.gaussian if gaussian is None else gaussian)

    def __add__(self, other):
        if self.gaussian != other.gaussian:
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
        return self._with_coeffs(out, gaussian=self.gaussian or other.gaussian)

    def diff(self, var: int):
        """Derivative with respect to x[var]; the Gaussian pairs x[var] with x[var ^ 1]."""
        out: dict = {}
        for k, v in self.coeffs.items():
            if k[var] > 0:
                key = k[:var] + (k[var] - 1,) + k[var + 1:]
                out[key] = out.get(key, 0j) + v * k[var]
            # chain rule on the Gaussian: d/dvar exp(E) = -2 partner exp(E)
            if self.gaussian:
                partner = var ^ 1
                key = k[:partner] + (k[partner] + 1,) + k[partner + 1:]
                out[key] = out.get(key, 0j) - 2.0 * v
        return self._with_coeffs(out)

    def eval(self, a, b):
        """Pointwise value of a mode-variable symbol with abar = conj(a), bbar = conj(b)."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        out = eval_symbols((self,), a.ravel(), b.ravel())[0].reshape(a.shape)
        return out if out.ndim else complex(out)


def eval_symbols(symbols, a, b) -> np.ndarray:
    """Values of symbols that share one exponent at the points (a, b), one row each.

    The monomials are evaluated once, on the union of the symbols' exponents,
    and the shared exponential once.  Each polynomial is the dot product of its
    coefficients with its own monomials, in its own order, so every row is bit
    for bit the value of that symbol alone.  a and b are 1D arrays.
    """
    gaussian = symbols[0].gaussian
    if any(s.gaussian != gaussian for s in symbols):
        raise ValueError("symbols evaluated together must share one exponent")
    keys = list(dict.fromkeys(itertools.chain.from_iterable(s.coeffs for s in symbols)))
    row_of = {key: j for j, key in enumerate(keys)}
    vals = np.stack([a, np.conj(a), b, np.conj(b)])
    expo_mat = np.array(keys, dtype=int).reshape(-1, 4)
    mono = np.prod(vals[None, :, :] ** expo_mat[:, :, None], axis=1)
    out = np.zeros((len(symbols), vals.shape[1]), dtype=complex)
    for row, s in enumerate(symbols):
        if s.coeffs:
            out[row] = np.array(list(s.coeffs.values())) @ mono[[row_of[k] for k in s.coeffs]]
    if gaussian:
        out *= np.exp(-2.0 * (np.abs(vals[0]) ** 2 + np.abs(vals[2]) ** 2))
    return out


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
    result = f._with_coeffs({}, gaussian=f.gaussian or g.gaussian)
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

    When f is one degree-one monomial c x_i, the series has two terms, f g and
    w_i c d_partner(i) g, and both are formed in one pass over g's coefficients
    and those of one derivative of g, in the series' key order.
    """
    weights, g_axes = (0.5, -0.5, 0.5, -0.5), (1, 0, 3, 2)
    if f.is_polynomial and len(f.coeffs) == 1:
        ((key, c),) = f.coeffs.items()
        if sum(key) == 1:
            i = key.index(1)
            out = {}
            for k, v in g.coeffs.items():  # f g: each key of g raised in x_i
                v = c * v
                if v != 0:  # a product that underflows is dropped, as by pointwise_mul
                    out[k[:i] + (k[i] + 1,) + k[i + 1:]] = v
            wc = weights[i] * c
            for k, v in g.diff(g_axes[i]).coeffs.items():
                out[k] = out.get(k, 0j) + wc * v
            return f._with_coeffs(out, gaussian=g.gaussian)
    return _moyal_series(f, g, (0, 1, 2, 3), g_axes, weights)


# ---------------------------------------------------------------------------
# Displacement matrices
# ---------------------------------------------------------------------------

def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Single-mode displacement matrix exp(alpha*raise - conj(alpha)*lower).

    Computed by scaling-and-squaring matrix exponential at the working cutoff:
    the truncated operator, kept as the independent oracle of the closed form
    below, which the package computes with.
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
    size of a unitary matrix element, at most 1, so no step can overflow; x is
    bounded by bounded_abs2, so a huge alpha gives exact zeros, not nan.
    """
    alpha = np.asarray(alpha, dtype=complex)
    out = np.empty((cutoff, cutoff, alpha.size), dtype=complex)
    for k, below, above, cur in _displacement_sweep(alpha.reshape(-1), cutoff):
        m = cutoff - k
        np.multiply(below[:m], cur, out=out[k:, k])
        np.multiply(above[1:m], cur[1:], out=out[k, k + 1:])
    return out.reshape((cutoff, cutoff) + alpha.shape)


def displacement_column_closed(alpha, k: int, cutoff: int) -> np.ndarray:
    """Column k of displacement_matrix_closed(alpha, cutoff), bit for bit.

    Element (m, k) needs the recurrence up to lo = min(m, k) only, so the sweep
    stops after step k: O(k cutoff) work instead of O(cutoff^2).  Returns shape
    (cutoff, *alpha.shape).
    """
    if not 0 <= k < cutoff:
        raise ValueError(f"column {k} out of range for cutoff {cutoff}")
    alpha = np.asarray(alpha, dtype=complex)
    out = np.empty((cutoff, alpha.size), dtype=complex)
    for j, below, above, cur in _displacement_sweep(alpha.reshape(-1), cutoff):
        if j == k:
            np.multiply(below[:cutoff - k], cur, out=out[k:])
            break
        # above the diagonal: element (j, k) lies on diagonal k - j
        np.multiply(above[k - j], cur[k - j], out=out[j])
    return out.reshape((cutoff,) + alpha.shape)


def _displacement_sweep(alpha, cutoff: int):
    """The Laguerre recurrence of displacement_matrix_closed, one step at a time.

    For a 1D alpha, yields (k, below, above, g_k) for k = 0 .. cutoff - 1:
    g_k[d] is g_k of diagonal d < cutoff - k, and below[d], above[d] are the
    phases (z/|alpha|)^d under and over the main diagonal.
    """
    rho = np.abs(alpha)
    x = bounded_abs2(rho)
    # alpha/|alpha|, or 0 at alpha = 0, where only the main diagonal is nonzero
    phase = alpha * np.divide(1.0, rho, out=np.zeros_like(rho), where=rho > 0)
    # first[d] = g_0 = e^{-x/2} rho^d / sqrt(d!) of diagonal d
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
    prev, cur = None, first
    for k in range(cutoff):
        m = cutoff - k
        yield k, below, above, cur
        if m == 1:
            return
        prev, cur = cur, _laguerre_step(k, diag[:m - 1], x, cur[:m - 1],
                                        prev[:m - 1] if k else None)


def _laguerre_step(k: int, d, x, cur, prev):
    """g_{k+1} of diagonal d from g_k (``cur``) and g_{k-1} (``prev``, None at k = 0)."""
    nxt = (2 * k + 1 + d) - x
    nxt *= cur
    if k:
        nxt -= np.sqrt(k * (k + d)) * prev
    nxt *= 1.0 / np.sqrt((k + 1) * (k + 1 + d))
    return nxt


def displacement_amplitude(rho, m: int, n: int):
    """The real g_lo of element (m, n) in displacement_matrix_closed, at |alpha| = rho.

    |<m|D(alpha)|n>| = |g_lo| with lo = min(m, n); vectorized over rho.  Runs
    the same normalized recurrence on the one diagonal d = |m - n| only.
    """
    rho = np.asarray(rho, dtype=float)
    lo, d = min(m, n), abs(m - n)
    x = bounded_abs2(rho)
    cur, prev = np.exp(-0.5 * x), None
    for j in range(1, d + 1):
        cur = cur * rho
        cur *= 1.0 / math.sqrt(j)
    for k in range(lo):
        prev, cur = cur, _laguerre_step(k, d, x, cur, prev)
    return cur
