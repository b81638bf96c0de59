"""Quadrature- and oracle-backed verification suite.

Every identity the package relies on is re-derived here through an
independent route (tensor-product quadrature, the bidifferential series, a
numeric integral form of the star product, or contour-quadrature parameter
derivatives) and reported as a named residual with its tolerance.  The CLI
``verify`` subcommand and the acceptance tests both run these checks; all
sampling is internally seeded so reports are reproducible bit for bit.

Residuals are unit-free, so each check means the same at every accepted unit:
quadratures over the axis units take their mode coordinates from
phase_space.axis_mode_coords, the moment, slack, coherent and uncertainty-table
checks compute on uncertainty.axis_polynomials, and a residual in a physical
unit is divided by that unit (hbar omega for the energy, hbar for the angular
momentum and the uncertainty bound).  No check forms hbar^2, gamma^2 or h^2.
The quadrature oracles of the marginals integrate over physical axes, so they
still exercise phase_space.mode_coords_arrays.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .marginals import (
    AXES,
    _mixture_weights,
    axis_generating,
    axis_norm,
    axis_scale,
    integral_equality_residuals,
    marginal_1d,
    marginal_1d_quadrature,
    marginal_2d,
    marginal_2d_quadrature,
    position_plane_generating,
)
from .phase_space import PhysParams, axis_mode_coords
from .quadrature import default_order, gauss_hermite, integrate_nd
from .star import (
    CanonicalPoly,
    GENERATORS,
    ProductRep,
    StarPolynomial,
    apply_star_polynomial,
    canonical_star,
    displacement_matrix,
    displacement_matrix_closed,
    ladder_matrices,
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
    _fock_point_values,
    coherent_fock,
    coherent_values,
    displaced_polynomial,
    fock_values,
    generalized_coherent_fock,
    generating_function,
    matrix_unit_values,
    state_values,
    wigner_fock,
    wigner_symbol,
    wigner_values,
)
from .uncertainty import (
    StateFunctional,
    angular_momentum_polynomial,
    axis_polynomials,
    coherent_moment_predictions,
    coordinate_moment,
    displaced_power_residuals,
    expectation,
    hamiltonian_polynomial,
    inner_product,
    robertson_schrodinger_slack,
    second_moment,
    uncertainty_product,
    variance,
)

SUITES = ("star", "marginals", "uncertainty", "coherent")
# the six coordinate planes, each in the axis order of AXES
PLANES = tuple(itertools.combinations(AXES, 2))
# integral of every Wigner function over the four axis units: h^2/hbar^2
WIGNER_NORM = (2.0 * math.pi) ** 2
# a 1D density over its axis_norm is this times its shape; 1D residuals are
# stated per axis_norm, so they read the same in every unit system
PER_AXIS_NORM = 4.0 * math.sqrt(math.pi)
# the (n, l) with n, l <= 6, in row order: the labels the table checks sample
LABELS = tuple(itertools.product(range(7), repeat=2))


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    # wall time of the check, set by the suite runners; a check that reports
    # several results shares its time equally among them
    seconds: float | None = field(default=None, compare=False)
    # "Type: message" of the exception a check raised; such a check is one
    # FAIL with residual inf, named after its function (check_foo_bar: foo-bar)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


# ---------------------------------------------------------------------------
# Independent numeric oracles
# ---------------------------------------------------------------------------

def moyal_integral_star_single_mode(f, g, x1: float, x2: float) -> complex:
    """Single-mode star product evaluated through its integral form.

    The mode-variable star is the canonical Moyal product on the real and
    imaginary parts of the mode coordinate with effective hbar = 1/2, so
    (f*g)(x) = (4/pi^2) iint f(x+u) g(x+v) exp(4i(u1 v2 - u2 v1)) d2u d2v.
    f and g take (re, im) arrays.  Completely independent of both the
    matrix-unit composition rule and the bidifferential series.
    """
    u, cw = gauss_hermite(56).scaled(1.0 / math.sqrt(2.0))
    U1, U2 = np.meshgrid(u, u, indexing="ij")
    wf = np.outer(cw, cw) * np.asarray(f(x1 + U1, x2 + U2), dtype=complex)
    wg = np.outer(cw, cw) * np.asarray(g(x1 + U1, x2 + U2), dtype=complex)
    phase = np.exp(4j * np.outer(u, u))
    acc = wf @ np.conj(phase)          # contracted over u2 against v1
    acc = phase.T @ acc                # contracted over u1 against v2
    return complex((4.0 / math.pi ** 2) * np.sum(acc * wg.T))


def mixed_param_derivative(fn, orders, points: int = 10) -> complex:
    """Mixed derivative of an entire function at zero via contour quadrature.

    ``fn`` maps a tuple of complex parameter arrays to an array of values,
    elementwise; it is called once, on the whole grid of contour nodes.
    ``orders`` gives the derivative order per parameter.  Trapezoidal samples
    on circles of radius 0.5 converge spectrally for entire integrands.
    """
    radius = 0.5
    nvars = len(orders)
    theta = 2.0 * math.pi * np.arange(points) / points
    ring = radius * np.exp(1j * theta)
    out = fn(tuple(np.meshgrid(*([ring] * nvars), indexing="ij")))
    for n in orders:
        phase = np.exp(-1j * n * theta)
        out = np.tensordot(out, phase, axes=(0, 0)) / points
        out = out * math.factorial(n) / radius ** n
    return complex(out)


def dense_star_contraction(f, g) -> np.ndarray:
    """The dense cutoff^4 tensor of f * g, contracted from f's and g's dense tensors.

    Composes rows and columns of both modes at once, N^6 work: the oracle of
    star, which composes each mode's factors separately.
    """
    out = np.tensordot(f.coeffs, g.coeffs, axes=([1, 3], [0, 2]))
    # tensordot leaves axes ordered (m1, m2, n1, n2)
    return out.transpose(0, 2, 1, 3)


def _dense(rep: ProductRep) -> np.ndarray:
    """The dense cutoff^4 tensor of sum c_k A_k (x) B_k as one matrix product.

    The K terms' scaled first-mode factors and second-mode factors are stacked
    as two (K, N^2) matrices, and (K, N^2)^T @ (K, N^2) is the (N^2, N^2)
    matrix over ((m1, n1), (m2, n2)): one product instead of K outer products.
    """
    n, k = rep.cutoff, len(rep.terms)
    a = np.stack([c * a for c, a, _ in rep.terms]).reshape(k, n * n)
    b = np.stack([b for _, _, b in rep.terms]).reshape(k, n * n)
    return (a.T @ b).reshape((n,) * 4)


def _gap(f: ProductRep, g: ProductRep | None = None) -> float:
    """max |f - g| over the dense tensors (max |f| without g).

    f - g is one product sum, so _dense builds one tensor: comparing the two
    cached ``coeffs`` holds three at once, 11 MB more peak memory in a verify
    pass (coherent states at cutoff 24).
    """
    return float(np.max(np.abs(_dense(f if g is None else f - g))))


def _rel_residual(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / max(|want|, 1): relative where want is large, absolute elsewhere."""
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def _random_star_polynomial(rng, count: int = 3) -> StarPolynomial:
    """A polynomial of ``count`` random terms, each a complex normal coefficient
    on a word of at most three generators."""
    terms = []
    for _ in range(count):
        length = int(rng.integers(0, 4))
        word = tuple(GENERATORS[i] for i in rng.integers(0, 4, size=length))
        coef = complex(rng.normal(), rng.normal())
        terms.append((coef, word))
    return StarPolynomial.from_terms(terms)


def _random_real_observable(rng) -> StarPolynomial:
    p = _random_star_polynomial(rng, 2)
    return p + p.conjugate()


def _random_product(rng, cutoff: int, terms: int = 3) -> ProductRep:
    """A sum of ``terms`` random per-mode products whose dense entries have unit
    variance, as those of a standard complex normal tensor do."""
    def normal(*shape):
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)

    return ProductRep(cutoff, tuple((complex(normal()) / math.sqrt(terms),
                                     normal(cutoff, cutoff), normal(cutoff, cutoff))
                                    for _ in range(terms)))


def _stacked_values(reps, cutoff: int, a, b):
    """Values of every rep at mode coordinates (a, b), stacked on a trailing axis.

    Both modes' matrix_unit_values are formed once for all the reps, so an
    integrand built on this hands integrate_nd one integral per rep.  Each rep
    is contracted on its own: a quadrature slab holds many points, and
    stacking every rep's terms there would hold them all at once.
    """
    wa = matrix_unit_values(cutoff, a.ravel())
    wb = matrix_unit_values(cutoff, b.ravel())
    vals = np.stack([_fock_point_values([rep], wa, wb)[0] for rep in reps], axis=-1)
    return vals.reshape(a.shape + (len(reps),))


def _random_points(rng, count: int):
    """Mode coordinates of ``count`` points drawn uniformly within 1.2 axis units."""
    us = rng.uniform(-1.2, 1.2, size=(count, 2))
    vs = rng.uniform(-1.2, 1.2, size=(count, 2))
    return axis_mode_coords(us[:, 0], us[:, 1], vs[:, 0], vs[:, 1])


# ---------------------------------------------------------------------------
# star suite
# ---------------------------------------------------------------------------

def check_projection(params: PhysParams) -> CheckResult:
    worst = 0.0
    for n, l in LABELS:
        w = wigner_fock(WignerLabel(n, l), 8)
        worst = max(worst, _gap(star(w, w), w))
    return CheckResult("projection W*W=W", worst, 1e-12)


def check_orthogonality(params: PhysParams) -> CheckResult:
    worst = 0.0
    for n, l in LABELS:
        w1 = wigner_fock(WignerLabel(n, l), 8)
        for n2, l2 in LABELS:
            if (n, l) == (n2, l2):
                continue
            w2 = wigner_fock(WignerLabel(n2, l2), 8)
            worst = max(worst, _gap(star(w1, w2)))
    return CheckResult("orthogonality W*W'=0", worst, 1e-12)


def check_associativity(params: PhysParams, triples: int = 200) -> CheckResult:
    """(f * g) * h = f * (g * h) on random products, and each f * g against the
    dense contraction, each relative to the size of its result.

    The 9-term f * g and the two 27-term sides are made dense by _dense; the
    oracle contracts f's and g's own dense tensors.
    """
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(triples):
        f, g, h = (_random_product(rng, 12) for _ in range(3))
        fg = star(f, g)
        dense = dense_star_contraction(f, g)
        worst = max(worst, float(np.max(np.abs(_dense(fg) - dense)))
                    / max(1.0, float(np.max(np.abs(dense)))))
        left, right = _dense(star(fg, h)), _dense(star(f, star(g, h)))
        worst = max(worst, float(np.max(np.abs(left - right)))
                    / max(1.0, float(np.max(np.abs(left)))))
    return CheckResult("associativity", worst, 1e-13)


def check_oracle_equivalence(params: PhysParams, nmax: int = 3, max_len: int = 4) -> CheckResult:
    """Ladder route versus bidifferential route, pointwise, for all short words.

    Each root's words are expanded level by level: extending a word on the
    left means one more generator application on each route, so every word of
    length <= 4 is covered with one ladder step and one series step per node.
    A root's nodes are evaluated together on each route: their ladder states
    in one contraction per mode (_fock_point_values), and their symbols, which
    share the root's Gaussian, on monomials and a Gaussian formed once
    (eval_symbols).
    """
    from .star import bidifferential_star, eval_symbols, generator_symbol

    rng = np.random.default_rng(1002)
    a, b = _random_points(rng, 25)
    cutoff = nmax + max_len + 1
    wa = matrix_unit_values(cutoff, a)
    wb = matrix_unit_values(cutoff, b)
    gen_symbols = {g: generator_symbol(g) for g in GENERATORS}
    worst = 0.0
    for n in range(nmax + 1):
        for l in range(nmax + 1):
            level = [(wigner_fock(WignerLabel(n, l), cutoff), wigner_symbol(n, l))]
            reps, symbols = [], []
            for depth in range(max_len + 1):
                for rep, symbol in level:
                    reps.append(rep)
                    symbols.append(symbol)
                if depth < max_len:
                    level = [(left_star_generator(g, rep),
                              bidifferential_star(gen_symbols[g], symbol))
                             for rep, symbol in level for g in GENERATORS]
            worst = max(worst, _rel_residual(_fock_point_values(reps, wa, wb),
                                             eval_symbols(symbols, a, b)))
    return CheckResult("oracle-equivalence", worst, 1e-10)


def check_trace_property(params: PhysParams) -> CheckResult:
    """integral(f*g) equals integral of the pointwise product, by 4D quadrature.

    Integrated over the four axis units, where integral(f*g) = h^2 tr(f*g)
    reads (2 pi)^2 tr(f*g) at any units.
    """
    rng = np.random.default_rng(1003)
    rule = gauss_hermite(24)
    cutoff = 3
    reps = [_random_product(rng, cutoff) for _ in range(6)]  # f, g of three pairs

    def pointwise(*u):
        vals = _stacked_values(reps, cutoff, *axis_mode_coords(*u))
        return vals[..., 0::2] * vals[..., 1::2]

    # the pointwise product of two states decays twice as fast as one state
    rhs = integrate_nd(pointwise, (1.0 / math.sqrt(2.0),) * 4, rule)
    worst = 0.0
    for f, g, r in zip(reps[0::2], reps[1::2], rhs):
        lhs = WIGNER_NORM * star(f, g).trace()
        worst = max(worst, abs(lhs - r) / max(1.0, abs(r)))
    return CheckResult("trace-property", worst, 1e-9)


def check_hermitian_involution(params: PhysParams) -> CheckResult:
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        f = _random_product(rng, 6)
        g = _random_product(rng, 6)
        lhs = star(f, g).conjugate()
        rhs = star(g.conjugate(), f.conjugate())
        worst = max(worst, _gap(lhs, rhs))
    return CheckResult("hermitian-involution", worst, 1e-12)


def check_ladder_consistency(params: PhysParams) -> CheckResult:
    cutoff = 8
    worst = 0.0
    for n, l in itertools.product(range(1, 7), range(7)):
        w = wigner_fock(WignerLabel(n, l), cutoff)
        wm = wigner_fock(WignerLabel(n - 1, l), cutoff)
        worst = max(worst, _gap(left_star_generator("a", w), right_star_generator("a", wm)))
        lhs = left_star_generator("b", wigner_fock(WignerLabel(l, n), cutoff))
        rhs = right_star_generator("b", wigner_fock(WignerLabel(l, n - 1), cutoff))
        worst = max(worst, _gap(lhs, rhs))
    return CheckResult("ladder-consistency", worst, 1e-13)


def _eigen_residual(poly: StarPolynomial, eigval) -> float:
    """max |poly * W - eigval W| from either side, over the W of LABELS."""
    worst = 0.0
    for n, l in LABELS:
        w = wigner_fock(WignerLabel(n, l), 9)
        lam = eigval(n, l)
        for side in ("left", "right"):
            res = apply_star_polynomial(poly, w, side)
            worst = max(worst, _gap(res, lam * w))
    return worst


def check_energy_eigenvalues(params: PhysParams) -> CheckResult:
    hw = params.hbar * params.omega
    worst = _eigen_residual(hamiltonian_polynomial(params), lambda n, l: hw * (n + 0.5))
    return CheckResult("eigenvalue-energy", worst / hw, 1e-12)


def check_angular_momentum_eigenvalues(params: PhysParams) -> CheckResult:
    hb = params.hbar
    worst = _eigen_residual(angular_momentum_polynomial(params), lambda n, l: hb * (l - n))
    return CheckResult("eigenvalue-angular-momentum", worst / hb, 1e-12)


def check_matrix_unit_trace_rule(params: PhysParams) -> CheckResult:
    """Quadrature validation of integral(unit_{m n k l}) = h^2 delta_mn delta_kl.

    Integrated over the four axis units, where h^2 reads (2 pi)^2 at any units.
    """
    rule = gauss_hermite(20)
    units = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (2, 1, 1, 1), (1, 1, 2, 2), (0, 0, 1, 2)]
    reps = [matrix_unit(*unit, 4) for unit in units]

    def pointwise(*u):
        return _stacked_values(reps, 4, *axis_mode_coords(*u))

    got = integrate_nd(pointwise, (1.0,) * 4, rule)
    want = np.array([WIGNER_NORM if (m == n and k == l) else 0.0 for m, n, k, l in units])
    worst = float(np.max(np.abs(got - want))) / WIGNER_NORM
    return CheckResult("matrix-unit-trace-rule", worst, 1e-9)


def check_gaussian_composition(params: PhysParams) -> CheckResult:
    """Matrix-unit composition versus the numeric integral form of the star.

    Covers the Gaussian*Gaussian case the bidifferential oracle cannot reach
    (the ground Gaussian composing to half itself), plus a sample of basis
    compositions.
    """
    def unit_fn(m, n):
        return lambda x1, x2: matrix_unit_values(max(m, n) + 1, x1 + 1j * x2)[m, n]

    pts = [(0.0, 0.0), (0.3, -0.2)]
    worst = 0.0
    for (m, n, k, l) in [(0, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1), (2, 1, 1, 2), (0, 1, 0, 1)]:
        for x1, x2 in pts:
            got = moyal_integral_star_single_mode(unit_fn(m, n), unit_fn(k, l), x1, x2)
            if n == k:
                hi = max(m, l) + 1
                want = complex(matrix_unit_values(hi, np.array(x1 + 1j * x2))[m, l])
            else:
                want = 0.0
            worst = max(worst, abs(got - want))
    omega_fn = lambda x1, x2: np.exp(-2.0 * (x1 ** 2 + x2 ** 2))
    for x1, x2 in pts:
        got = moyal_integral_star_single_mode(omega_fn, omega_fn, x1, x2)
        worst = max(worst, abs(got - 0.5 * omega_fn(x1, x2)))
    return CheckResult("gaussian-composition-integral", worst, 1e-8)


def check_canonical_classical_limit(params: PhysParams) -> CheckResult:
    """Brackets in units of their values; x * x and x * x * x with the rounding
    of their hbar terms, which cancel, stated per max(1, hbar)."""
    q1 = CanonicalPoly.coordinate("q1")
    p1 = CanonicalPoly.coordinate("p1")
    hb = params.hbar
    br = moyal_bracket(q1, p1, params)
    worst = _poly_distance(br, CanonicalPoly.constant(1j * hb)) / hb
    # (x_star)^k = x^k for linear x
    cancelled = max(1.0, hb)
    rng = np.random.default_rng(1005)
    for _ in range(5):
        coefs = rng.normal(size=4)
        x = sum((c * CanonicalPoly.coordinate(nm) for c, nm in zip(coefs, ("q1", "q2", "p1", "p2"))),
                CanonicalPoly({}))
        sq = canonical_star(x, x, params)
        worst = max(worst, _poly_distance(sq, x.pointwise_mul(x)) / cancelled)
        cube = canonical_star(sq, x, params)
        cube_want = x.pointwise_mul(x).pointwise_mul(x)
        worst = max(worst, _poly_distance(cube, cube_want) / cancelled)
    # cyclotron-center functions: bracket is -i m hbar omega
    mw = params.mass * params.omega
    mhw = params.mass * hb * params.omega
    x1 = CanonicalPoly.coordinate("p2") + 0.5 * mw * CanonicalPoly.coordinate("q1")
    x2 = -1.0 * CanonicalPoly.coordinate("p1") + 0.5 * mw * CanonicalPoly.coordinate("q2")
    br = moyal_bracket(x1, x2, params)
    worst = max(worst, _poly_distance(br, CanonicalPoly.constant(-1j * mhw)) / mhw)
    return CheckResult("canonical-classical-limit", worst, 1e-13)


def _poly_distance(f: CanonicalPoly, g: CanonicalPoly) -> float:
    keys = set(f.coeffs) | set(g.coeffs)
    return max((abs(f.coeffs.get(k, 0j) - g.coeffs.get(k, 0j)) for k in keys), default=0.0)


def check_generator_brackets(params: PhysParams) -> CheckResult:
    """{a, abar} = 1 and {b, bbar} = 1 as exact normal-form identities."""
    worst = 0.0
    for lo, hi in (("a", "abar"), ("b", "bbar")):
        br = moyal_bracket(StarPolynomial.generator(lo), StarPolynomial.generator(hi))
        nf = br.normal_form()
        nf[(0, 0, 0, 0)] = nf.get((0, 0, 0, 0), 0j) - 1.0
        worst = max(worst, max((abs(v) for v in nf.values()), default=0.0))
    return CheckResult("generator-brackets", worst, 0.0)


def check_displacement_closed_form(params: PhysParams) -> CheckResult:
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(4):
        alpha = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        d = displacement_matrix(alpha, 32)
        closed = displacement_matrix_closed(alpha, 32)
        worst = max(worst, float(np.max(np.abs(d[:9, :9] - closed[:9, :9]))))
    return CheckResult("displacement-closed-form", worst, 1e-9)


# ---------------------------------------------------------------------------
# marginals suite
# ---------------------------------------------------------------------------

def check_wigner_normalization(params: PhysParams) -> CheckResult:
    """Every (n, l) Wigner function integrates to (2 pi)^2 over the axis units.

    The pairs that share a rule order are integrated in one integrate_nd call,
    stacked on its trailing axis, so each slab's mode coordinates are formed
    once for all of them.
    """
    by_order: dict = {}
    for n, l in LABELS:
        by_order.setdefault(default_order(n, l), []).append((n, l))
    worst = 0.0
    for order, pairs in by_order.items():

        def wfun(*u):
            a, b = axis_mode_coords(*u)
            return np.stack([wigner_values(n, l, a, b) for n, l in pairs], axis=-1)

        got = integrate_nd(wfun, (1.0,) * 4, gauss_hermite(order))
        worst = max(worst, float(np.max(np.abs(got - WIGNER_NORM))) / WIGNER_NORM)
    return CheckResult("normalization-wigner", worst, 1e-10)


def check_marginal_normalization(params: PhysParams) -> CheckResult:
    worst = max(abs(integrate_nd(lambda u: marginal_1d(n, l, u), (1.0,),
                                 gauss_hermite(default_order(n, l))) - 1.0)
                for n, l in LABELS)
    return CheckResult("normalization-marginal-1d", worst, 1e-10)


def check_marginal_wigner_consistency(params: PhysParams) -> CheckResult:
    """Closed-form 1D shapes versus 3D quadrature of the Wigner function, per axis_norm."""
    u = np.linspace(-2.0, 2.0, 11)
    worst = 0.0
    for axis in ("q1", "p1"):
        grid = u * axis_scale(axis, params)
        norm = axis_norm(axis, params)
        for n, l in itertools.product(range(5), repeat=2):
            closed = PER_AXIS_NORM * marginal_1d(n, l, u)
            quad = marginal_1d_quadrature(n, l, axis, grid, params) / norm
            worst = max(worst, float(np.max(np.abs(closed - quad))))
    return CheckResult("marginal-wigner-consistency", worst, 1e-8)


def check_plane_consistency(params: PhysParams) -> CheckResult:
    """1D shapes equal the integral of the 2D shapes over their second axis, per axis_norm."""
    vs, cw = gauss_hermite(24).scaled(1.0)
    us = np.linspace(-1.5, 1.5, 7)
    worst = 0.0
    for n, l in [(0, 0), (1, 0), (2, 1), (2, 2), (3, 1)]:
        want = marginal_1d(n, l, us)
        for plane in PLANES:
            got = np.sum(cw * marginal_2d(n, l, plane, us[:, None], vs[None, :]), axis=1)
            worst = max(worst, PER_AXIS_NORM * float(np.max(np.abs(got - want))))
    return CheckResult("plane-consistency", worst, 1e-9)


def check_plane_quadrature_consistency(params: PhysParams) -> CheckResult:
    """Closed-form 2D shapes versus direct 2D quadrature of the Wigner function."""
    rng = np.random.default_rng(1007)
    h = params.planck_h
    worst = 0.0
    for n, l in [(2, 1), (1, 2), (0, 3), (2, 2)]:
        for plane in PLANES:
            sx, sy = (axis_scale(ax, params) for ax in plane)
            us = rng.uniform(-1.5, 1.5, size=25)
            vs = rng.uniform(-1.5, 1.5, size=25)
            closed = marginal_2d(n, l, plane, us, vs)
            quad = marginal_2d_quadrature(n, l, plane, us * sx, vs * sy, params)
            worst = max(worst, float(np.max(np.abs(closed - quad / (h / sx) / (h / sy)))))
    return CheckResult("plane-closed-vs-quadrature", worst, 1e-11)


def check_marginal_evenness(params: PhysParams) -> CheckResult:
    us = np.linspace(0.1, 5.9, 30)
    worst = max(float(np.max(np.abs(marginal_1d(n, l, us) - marginal_1d(n, l, -us))))
                for n, l in LABELS)
    return CheckResult("marginal-evenness", worst, 1e-14)


def check_marginal_positivity(params: PhysParams) -> CheckResult:
    us = np.linspace(-6.0, 6.0, 121)
    min_val = min(float(np.min(marginal_1d(n, l, us))) for n, l in LABELS)
    return CheckResult("marginal-positivity-1d", max(0.0, -min_val), 0.0)


def check_plane_positivity(params: PhysParams) -> CheckResult:
    # offset grids dodge the exact zero lines (rho = 0, tau = 0, Hermite roots);
    # the conjugate planes (q1, p1) and (q2, p2) are signed, so they are skipped
    U, V = np.meshgrid(np.linspace(-3.9, 4.1, 41), np.linspace(-3.8, 4.2, 41), indexing="ij")
    min_val = min(float(np.min(marginal_2d(n, l, plane, U, V)))
                  for plane in PLANES if plane[0][1] != plane[1][1]
                  for n, l in itertools.product(range(5), repeat=2))
    return CheckResult("marginal-positivity-2d", max(0.0, -min_val), 0.0)


def check_marginal_symmetry(params: PhysParams) -> CheckResult:
    us = np.linspace(-3.0, 3.0, 21)
    worst = max(float(np.max(np.abs(marginal_1d(n, l, us) - marginal_1d(l, n, us))))
                for n, l in [(2, 1), (3, 0), (4, 2)])
    return CheckResult("marginal-symmetry", worst, 1e-14)


def integral_equality_checks(params: PhysParams) -> list[CheckResult]:
    out = []
    for n, l in [(1, 0), (2, 1), (3, 3), (2, 2)]:
        for y, _, res_lag, res_herm in integral_equality_residuals(n, l, [0.0, 0.7, 1.4]):
            out.append(CheckResult(
                f"integral-equality n={n} l={l} q1={y:g}*gamma",
                max(res_lag, res_herm), 1e-8))
    return out


def check_generating_plane(params: PhysParams) -> CheckResult:
    """Momentum-integrated generating function reproduces its plane closed form."""
    rule = gauss_hermite(32)
    samples = [
        ((0j, 0j), (0j, 0j)),
        ((0.4 + 0.2j, -0.3j), (0.1 - 0.2j, 0.25 + 0.1j)),
        ((0.2 - 0.5j, 0.3 + 0.1j), (-0.2 + 0.4j, 0.15j)),
    ]
    worst = 0.0
    for alpha, beta in samples:
        for u, v in [(0.0, 0.0), (0.4, -0.3)]:
            def gfun(t1, t2):
                return generating_function(alpha[0], beta[0], alpha[1], beta[1],
                                           *axis_mode_coords(u, v, t1, t2))

            got = integrate_nd(gfun, (1.0, 1.0), rule) / WIGNER_NORM
            want = position_plane_generating(alpha, beta, u, v)
            worst = max(worst, abs(got - want) / abs(want))
    return CheckResult("generating-plane-consistency", worst, 1e-9)


def check_generating_axis(params: PhysParams) -> CheckResult:
    """v-integrated plane generating function reproduces the q1-axis form."""
    vs, cw = gauss_hermite(32).scaled(1.0)
    samples = [
        ((0j, 0j), (0j, 0j)),
        ((0.4 + 0.2j, -0.3j), (0.1 - 0.2j, 0.25 + 0.1j)),
        ((-0.3 + 0.1j, 0.2 + 0.3j), (0.35j, -0.1 - 0.2j)),
    ]
    worst = 0.0
    for alpha, beta in samples:
        for u in (0.0, 0.5, 1.3):
            got = np.sum(cw * position_plane_generating(alpha, beta, u, vs))
            want = axis_generating("q1", alpha, beta, u)
            worst = max(worst, abs(got - want) / abs(want))
    # momentum-axis spot check: at zero parameters, four times it is the ground shape
    worst = max(worst, abs(4.0 * axis_generating("p2", (0j, 0j), (0j, 0j), 0.0)
                           / marginal_1d(0, 0, 0.0) - 1.0))
    return CheckResult("generating-axis-consistency", worst, 1e-9)


def check_generating_derivatives(params: PhysParams) -> CheckResult:
    """Parameter-derivative extraction of 1D shapes from the axis generating function."""
    worst = 0.0
    for n in range(3):
        for l in range(3):
            pref = 4.0 / (math.factorial(n) * math.factorial(l))
            for u in (0.0, 0.45, 1.1):
                def fn(ps):
                    a1, b1, a2, b2 = ps
                    return axis_generating("q1", (a1, a2), (b1, b2), u)

                got = pref * mixed_param_derivative(fn, (n, n, l, l))
                want = marginal_1d(n, l, u)
                worst = max(worst, PER_AXIS_NORM * abs(got - want))
    return CheckResult("generating-derivative-extraction", worst, 1e-6)


# ---------------------------------------------------------------------------
# uncertainty suite
# ---------------------------------------------------------------------------

def uncertainty_table_checks(params: PhysParams) -> list[CheckResult]:
    """uncertainty_product against the paper's route, hbar sqrt(var(u_j) var(v_j)) from
    the state functional, at a cutoff that truncates nothing."""
    out = []
    coords = axis_polynomials()
    for n, l in LABELS:
        s = StateFunctional(wigner_fock(WignerLabel(n, l), max(n, l) + 3), params)
        worst = 0.0
        for j in (1, 2):
            want = params.hbar * math.sqrt(variance(coords[f"q{j}"], s)
                                           * variance(coords[f"p{j}"], s))
            worst = max(worst, abs(uncertainty_product(n, l, j, params) - want) / want)
        out.append(CheckResult(f"uncertainty-product n={n} l={l}", worst, 1e-10))
    return out


def check_uncertainty_lower_bound(params: PhysParams) -> CheckResult:
    hb = params.hbar
    worst = 0.0
    for n, l in LABELS:
        for j in (1, 2):
            gap = uncertainty_product(n, l, j, params) / hb - 0.5
            worst = max(worst, max(0.0, -gap))
    return CheckResult("uncertainty-lower-bound", worst, 1e-12)


def check_moment_route_agreement(params: PhysParams) -> CheckResult:
    """Second moments (n + l + 1)/2 versus the mixture weights, marginal quadrature and
    Fock traces, relative in axis units so that the check means the same at any units."""
    coords = axis_polynomials().values()
    worst = 0.0
    for n, l in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        s = StateFunctional(wigner_fock(WignerLabel(n, l), n + l + 6), params)
        moment = second_moment(n, l)
        weights = float(_mixture_weights(n, l) @ (np.arange(n + l + 1) + 0.5))
        oracles = [weights, coordinate_moment(2, WignerLabel(n, l))]
        oracles += [expectation(poly * poly, s).real for poly in coords]
        worst = max(worst, max(abs(oracle - moment) / moment for oracle in oracles))
    return CheckResult("moment-route-agreement", worst, 1e-9)


def check_robertson_schrodinger(params: PhysParams) -> CheckResult:
    rng = np.random.default_rng(1008)
    states = [
        StateFunctional(wigner_fock(WignerLabel(0, 0), 10), params),
        StateFunctional(wigner_fock(WignerLabel(2, 1), 10), params),
        StateFunctional(coherent_fock(CoherentLabel(1 + 1j, -0.5), 20), params),
    ]
    worst = 0.0
    for _ in range(100):
        f = _random_real_observable(rng)
        g = _random_real_observable(rng)
        for s in states:
            slack = robertson_schrodinger_slack(f, g, s)
            worst = max(worst, max(0.0, -slack))
    return CheckResult("robertson-schrodinger", worst, 1e-10)


def check_rs_known_slack(params: PhysParams) -> CheckResult:
    """Known slacks in axis units; (q1 + p1, q1) reads the covariance term, 0 for (q1, p1)."""
    coords = axis_polynomials()
    q1, p1 = coords["q1"], coords["p1"]
    s0 = StateFunctional(wigner_fock(WignerLabel(0, 0), 8), params)
    s11 = StateFunctional(wigner_fock(WignerLabel(1, 1), 8), params)
    s21 = StateFunctional(wigner_fock(WignerLabel(2, 1), 8), params)
    worst = abs(robertson_schrodinger_slack(q1, p1, s0))
    worst = max(worst, abs(robertson_schrodinger_slack(q1, p1, s11) - 2.0))
    worst = max(worst, abs(robertson_schrodinger_slack(q1 + p1, q1, s0)))
    worst = max(worst, abs(robertson_schrodinger_slack(q1 + p1, q1, s21) - 3.75))
    return CheckResult("rs-known-slack", worst, 1e-10)


def check_cbs(params: PhysParams) -> CheckResult:
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        n, l = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        s = StateFunctional(wigner_fock(WignerLabel(n, l), 10), params)
        f = _random_star_polynomial(rng)
        g = _random_star_polynomial(rng)
        slack = (inner_product(f, f, s).real * inner_product(g, g, s).real
                 - abs(inner_product(f, g, s)) ** 2)
        worst = max(worst, max(0.0, -slack))
    return CheckResult("cauchy-schwarz", worst, 1e-10)


def check_semidefiniteness(params: PhysParams) -> CheckResult:
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(200):
        n, l = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        s = StateFunctional(wigner_fock(WignerLabel(n, l), 11), params)
        f = _random_star_polynomial(rng)
        val = inner_product(f, f, s).real
        worst = max(worst, max(0.0, -val))
    return CheckResult("state-semidefiniteness", worst, 1e-12)


def check_degenerate_kernel(params: PhysParams) -> CheckResult:
    """Nonzero f with s(conj(f)*f) = 0: the inner product is semidefinite only."""
    worst = 0.0
    for n, l in [(0, 0), (2, 1), (3, 3)]:
        s = StateFunctional(wigner_fock(WignerLabel(n, l), n + 4), params)
        f = StarPolynomial(((1.0 + 0j, ("a",) * (n + 1)),))
        worst = max(worst, abs(inner_product(f, f, s)))
    return CheckResult("degenerate-kernel", worst, 1e-12)


def check_expectation_identities(params: PhysParams) -> CheckResult:
    worst = 0.0
    one = StarPolynomial.constant(1.0)
    a = StarPolynomial.generator("a")
    for n, l in [(0, 0), (1, 2), (4, 3)]:
        s = StateFunctional(wigner_fock(WignerLabel(n, l), 8), params)
        worst = max(worst, abs(expectation(one, s) - 1.0))
        worst = max(worst, abs(inner_product(a, a, s) - n))
        worst = max(worst, abs(inner_product(one, one, s) - 1.0))
    return CheckResult("expectation-identities", worst, 1e-12)


def check_variance_non_real(params: PhysParams) -> CheckResult:
    """variance(f) = <f|f> - |<f>|^2 for non-real f, relative to <f|f>: the one
    check whose observables have complex means, so that the product of the
    means must be |<f>|^2 and not <f>^2, which agree on real observables."""
    rng = np.random.default_rng(1012)
    states = [StateFunctional(wigner_fock(WignerLabel(2, 1), 8), params),
              StateFunctional(coherent_fock(CoherentLabel(0.7 - 0.6j, 0.4 + 0.3j), 12), params)]
    worst = 0.0
    for _ in range(6):
        f = _random_star_polynomial(rng)
        for s in states:
            norm = inner_product(f, f, s).real
            want = norm - abs(expectation(f, s)) ** 2
            worst = max(worst, abs(variance(f, s) - want) / max(norm, 1.0))
    return CheckResult("variance-non-real", worst, 1e-12)


# ---------------------------------------------------------------------------
# coherent suite
# ---------------------------------------------------------------------------

_ALPHA_SAMPLES = (
    (0j, 0j),
    (1.0 + 0j, 0j),
    (1j, 0j),
    (0.7 - 0.6j, 0.4 + 0.3j),
    (-1.2 + 0.5j, 0.9j),
    (0.3 + 0.4j, -1.1 - 0.2j),
    (1.4 - 1.4j, 0.2 - 0.1j),
    (-0.8 - 0.7j, -1.0 + 0.9j),
)

_COHERENT_CUTOFF = 24
# generalized coherent states sampled by the projection and pointwise checks
_GENERALIZED_SAMPLES = tuple(
    GeneralizedCoherentLabel(a1, a2, WignerLabel(n, l))
    for n, l in [(1, 0), (2, 2)]
    for a1, a2 in ((0.8 - 0.2j, 0.5j), (-0.4 + 0.9j, 0.3 - 0.6j)))


def check_coherent_projection(params: PhysParams) -> CheckResult:
    worst = 0.0
    for a1, a2 in _ALPHA_SAMPLES:
        g = coherent_fock(CoherentLabel(a1, a2), _COHERENT_CUTOFF)
        worst = max(worst, _gap(star(g, g), g))
    return CheckResult("coherent-projection", worst, 1e-10)


def check_coherent_normalization(params: PhysParams) -> CheckResult:
    """integral(g) = h^2 for coherent states: h^2 times the trace, so |trace - 1|,
    and one quadrature of the closed form over the axis units against (2 pi)^2."""
    worst = 0.0
    for a1, a2 in _ALPHA_SAMPLES:
        g = coherent_fock(CoherentLabel(a1, a2), _COHERENT_CUTOFF)
        worst = max(worst, abs(g.trace() - 1.0))
    rule = gauss_hermite(32)
    label = CoherentLabel(1 + 1j, -0.5)

    def gs(*u):
        return coherent_values(label, *axis_mode_coords(*u))

    worst = max(worst, abs(integrate_nd(gs, (1.0,) * 4, rule) - WIGNER_NORM) / WIGNER_NORM)
    return CheckResult("coherent-normalization", worst, 1e-9)


def check_coherent_moments(params: PhysParams) -> CheckResult:
    coords = axis_polynomials()
    worst = 0.0
    for a1, a2 in _ALPHA_SAMPLES:
        label = CoherentLabel(a1, a2)
        s = StateFunctional(coherent_fock(label, _COHERENT_CUTOFF), params)
        pred = coherent_moment_predictions(label)
        for axis in AXES:
            got = expectation(coords[axis], s)
            worst = max(worst, abs(got - pred[f"{axis}_mean"]))
        got_q1sq = inner_product(coords["q1"], coords["q1"], s).real
        worst = max(worst, abs(got_q1sq - pred["q1_sq"]))
    return CheckResult("coherent-moments", worst, 5e-10)


def check_coherent_min_uncertainty(params: PhysParams) -> CheckResult:
    coords = axis_polynomials()
    worst = 0.0
    for a1, a2 in _ALPHA_SAMPLES:
        s = StateFunctional(coherent_fock(CoherentLabel(a1, a2), _COHERENT_CUTOFF), params)
        for j in (1, 2):
            prod = math.sqrt(variance(coords[f"q{j}"], s) * variance(coords[f"p{j}"], s))
            worst = max(worst, abs(prod - 0.5))
    return CheckResult("coherent-min-uncertainty", worst, 1e-9)


def check_coherent_variance_independence(params: PhysParams) -> CheckResult:
    coords = axis_polynomials()
    alphas = (0j, 1.0 + 0j, 1.0 + 1.0j, -2.0j)
    vals = []
    for a1 in alphas:
        s = StateFunctional(coherent_fock(CoherentLabel(a1, 0j), _COHERENT_CUTOFF + 2), params)
        vals.append(variance(coords["q1"], s))
    worst = max(abs(v - vals[0]) for v in vals)
    return CheckResult("coherent-variance-independence", worst, 5e-11)


def check_displacement_unitarity(params: PhysParams) -> CheckResult:
    """The closed-form displacement matrix is unitary on its first 16 levels.

    Unitarity holds only on rows whose weight stays below the cutoff: at 32
    the rows near 15 of D(-1.2 + 0.5i) spread past level 31 (1.25e-4); at 48
    the block is clean to 6.4e-15.
    """
    cutoff, block = 48, 16
    worst = 0.0
    for a1, a2 in _ALPHA_SAMPLES[3:6]:
        for alpha in (a1, a2):
            d = displacement_matrix_closed(alpha, cutoff)
            for prod in (d @ d.conj().T, d.conj().T @ d):
                worst = max(worst, float(np.max(np.abs(prod[:block, :block] - np.eye(block)))))
    return CheckResult("displacement-unitarity", worst, 1e-10)


def check_displacement_conjugation(params: PhysParams) -> CheckResult:
    """Conjugating the annihilation matrix by the closed-form displacement shifts it by alpha.

    The identity is exact only away from the truncation edge; with |alpha| up
    to 2, indices below 16 are clean once the cutoff sits at 64.
    """
    cutoff, block = 64, 16
    lower, _ = ladder_matrices(cutoff)
    worst = 0.0
    for alpha in (0.9 - 0.4j, -1.3 + 0.8j, 2.0j):
        d = displacement_matrix_closed(alpha, cutoff)
        got = d.conj().T @ lower @ d
        want = lower + alpha * np.eye(cutoff)
        worst = max(worst, float(np.max(np.abs(got[:block, :block] - want[:block, :block]))))
    return CheckResult("displacement-conjugation", worst, 1e-10)


def _word_mode_matrices(word, cutoff: int):
    """Per-mode coefficient matrices of a generator word (modes commute)."""
    lower, raise_ = ladder_matrices(cutoff)
    mats = {"a": lower, "abar": raise_, "b": lower, "bbar": raise_}
    ma = np.eye(cutoff, dtype=complex)
    mb = np.eye(cutoff, dtype=complex)
    for gen in word:
        if gen in ("a", "abar"):
            ma = ma @ mats[gen]
        else:
            mb = mb @ mats[gen]
    return ma, mb


def check_displaced_polynomial(params: PhysParams) -> CheckResult:
    """Argument-shift route versus matrix-conjugation route for displaced observables.

    The conjugation route works in per-mode matrix algebra at a larger cutoff;
    the comparison is restricted to the sub-block that truncation cannot reach.
    """
    big, small, block = 40, 16, 12
    rng = np.random.default_rng(1011)
    a, abar, b, bbar = (StarPolynomial.generator(g) for g in GENERATORS)
    # the random draw has first-mode words only; bbar * b + b shifts the second mode
    polys = [a, abar * a, _random_star_polynomial(rng), bbar * b + b]
    e11 = np.zeros((big, big), dtype=complex)
    e11[1, 1] = 1.0
    worst = 0.0
    for a1, a2 in ((0.6 - 0.3j, 0.2 + 0.4j), (1.0j, -0.5 + 0.1j)):
        d1, d2 = displacement_matrix(a1, big), displacement_matrix(a2, big)
        x_small = wigner_fock(WignerLabel(1, 1), small)
        for poly in polys:
            shifted = displaced_polynomial(poly, a1, a2)
            route1 = apply_star_polynomial(shifted, x_small)
            route2 = np.zeros((block,) * 4, dtype=complex)
            for coef, word in poly.terms:
                ma, mb = _word_mode_matrices(word, big)
                m1 = (d1.conj().T @ ma @ d1 @ e11)[:block, :block]
                m2 = (d2.conj().T @ mb @ d2 @ e11)[:block, :block]
                route2 += coef * np.einsum("ij,kl->ijkl", m1, m2)
            diff = route1.coeffs[:block, :block, :block, :block] - route2
            worst = max(worst, float(np.max(np.abs(diff))))
    return CheckResult("displaced-polynomial-conjugation", worst, 1e-10)


def check_coherent_pointwise(params: PhysParams) -> CheckResult:
    """Fock-route values versus the closed coherent form and the translate route."""
    rng = np.random.default_rng(1012)
    a, b = _random_points(rng, 25)
    worst = 0.0
    for a1, a2 in _ALPHA_SAMPLES[:6]:
        label = CoherentLabel(a1, a2)
        rep = coherent_fock(label, _COHERENT_CUTOFF)
        got = fock_values(rep, a, b)
        want = coherent_values(label, a, b)
        worst = max(worst, float(np.max(np.abs(got - want))))
    for label in _GENERALIZED_SAMPLES:
        got = fock_values(generalized_coherent_fock(label, _COHERENT_CUTOFF), a, b)
        worst = max(worst, float(np.max(np.abs(got - state_values(label, a, b)))))
    return CheckResult("coherent-pointwise", worst, 1e-9)


def check_coherent_eigenvalue(params: PhysParams) -> CheckResult:
    """Left annihilation action multiplies a coherent state by its eigenvalue."""
    worst = 0.0
    for a1, a2 in _ALPHA_SAMPLES[1:5]:
        rep = coherent_fock(CoherentLabel(a1, a2), _COHERENT_CUTOFF)
        for gen, lam in (("a", a1), ("b", a2)):
            res = left_star_generator(gen, rep)
            worst = max(worst, _gap(res, lam * rep))
    return CheckResult("coherent-eigenvalue", worst, 1e-9)


def check_coherent_positivity(params: PhysParams) -> CheckResult:
    label = CoherentLabel(1 + 1j, -0.5)
    u = np.linspace(-3.0, 3.0, 10)
    grid = np.meshgrid(u, u, u, u, indexing="ij")
    vals = coherent_values(label, *axis_mode_coords(*grid))
    min_val = float(np.min(vals))
    return CheckResult("coherent-positivity", max(0.0, -min_val), 0.0)


def check_only_ground_coherent(params: PhysParams) -> CheckResult:
    """Excited Wigner functions are not one-sided eigenfunctions of both annihilators."""
    failures = 0.0
    for n, l in itertools.product(range(4), repeat=2):
        if (n, l) == (0, 0):
            continue
        w = wigner_fock(WignerLabel(n, l), 6)
        proportional = True
        for gen in ("a", "b"):
            res = left_star_generator(gen, w)
            # residual after projecting res onto w
            overlap = np.vdot(w.coeffs, res.coeffs) / np.vdot(w.coeffs, w.coeffs)
            rem = float(np.max(np.abs(res.coeffs - overlap * w.coeffs)))
            if rem > 1e-9:
                proportional = False
        if proportional:
            failures += 1.0
    return CheckResult("only-ground-state-coherent", failures, 0.0)


def check_state_reality(params: PhysParams) -> CheckResult:
    reps = [
        wigner_fock(WignerLabel(2, 1), 12),
        coherent_fock(CoherentLabel(0.7 + 0.2j, -0.4j), 12),
        generalized_coherent_fock(
            GeneralizedCoherentLabel(0.5 - 0.3j, 0.2j, WignerLabel(1, 2)), 12),
    ]
    worst = max(rep.reality_residual() for rep in reps)
    return CheckResult("state-reality", worst, 0.0)


def check_generalized_power_theorem(params: PhysParams) -> list[CheckResult]:
    a = StarPolynomial.generator("a")
    abar = StarPolynomial.generator("abar")
    bbar = StarPolynomial.generator("bbar")
    observables = {"a": a, "abar*a": abar * a, "bbar*a": bbar * a}
    worst = dict.fromkeys(observables, 0.0)
    for n in range(3):
        for l in range(3):
            for a1, a2 in ((0.5 + 0j, -0.3j), (0.4 - 0.2j, 0.3 + 0.5j)):
                label = GeneralizedCoherentLabel(a1, a2, WignerLabel(n, l))
                rows = displaced_power_residuals(observables.values(), 3, label, cutoff=16)
                for name, residuals in zip(observables, rows):
                    worst[name] = max(worst[name], *residuals)
    return [CheckResult(f"generalized-power-theorem f={name}", w, 1e-9)
            for name, w in worst.items()]


def check_generalized_variance_invariance(params: PhysParams) -> CheckResult:
    q1 = axis_polynomials()["q1"]
    worst = 0.0
    for n, l in [(0, 1), (2, 1), (2, 2)]:
        base = StateFunctional(wigner_fock(WignerLabel(n, l), 20), params)
        want = variance(q1, base)
        for a1, a2 in ((0.8 - 0.2j, 0.5j), (-0.4 + 0.9j, 0.3 - 0.6j)):
            label = GeneralizedCoherentLabel(a1, a2, WignerLabel(n, l))
            s = StateFunctional(generalized_coherent_fock(label, 20), params)
            worst = max(worst, abs(variance(q1, s) - want))
    return CheckResult("generalized-variance-invariance", worst, 5e-10)


def check_generalized_normalization(params: PhysParams) -> CheckResult:
    worst = 0.0
    for label in _GENERALIZED_SAMPLES:
        rep = generalized_coherent_fock(label, _COHERENT_CUTOFF)
        worst = max(worst, abs(rep.trace() - 1.0))
        worst = max(worst, _gap(star(rep, rep), rep))
    return CheckResult("generalized-projection-normalization", worst, 1e-10)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def _run(suite, params: PhysParams) -> list[CheckResult]:
    """Run each check of a suite, in order, and record its wall time.

    A check that raises does not end the run: it reads as one FAIL with
    residual inf that carries the exception's text.
    """
    out = []
    for check in suite:
        start = time.perf_counter()
        try:
            got = check(params)
        except Exception as exc:
            name = check.__name__.removeprefix("check_").replace("_", "-")
            text = " ".join(f"{type(exc).__name__}: {exc}".split())
            got = CheckResult(name, math.inf, 0.0, error=text)
        got = got if isinstance(got, list) else [got]
        share = (time.perf_counter() - start) / len(got)
        out.extend(replace(r, seconds=share) for r in got)
    return out


def run_star_suite(params: PhysParams) -> list[CheckResult]:
    return _run((
        check_projection,
        check_orthogonality,
        check_associativity,
        check_oracle_equivalence,
        check_trace_property,
        check_hermitian_involution,
        check_ladder_consistency,
        check_energy_eigenvalues,
        check_angular_momentum_eigenvalues,
        check_matrix_unit_trace_rule,
        check_gaussian_composition,
        check_canonical_classical_limit,
        check_generator_brackets,
        check_displacement_closed_form,
    ), params)


def run_marginals_suite(params: PhysParams) -> list[CheckResult]:
    return _run((
        check_wigner_normalization,
        check_marginal_normalization,
        check_marginal_wigner_consistency,
        check_plane_consistency,
        check_plane_quadrature_consistency,
        check_marginal_evenness,
        check_marginal_positivity,
        check_plane_positivity,
        check_marginal_symmetry,
        check_generating_plane,
        check_generating_axis,
        check_generating_derivatives,
        integral_equality_checks,
    ), params)


def run_uncertainty_suite(params: PhysParams) -> list[CheckResult]:
    return _run((
        uncertainty_table_checks,
        check_uncertainty_lower_bound,
        check_moment_route_agreement,
        check_robertson_schrodinger,
        check_rs_known_slack,
        check_cbs,
        check_semidefiniteness,
        check_degenerate_kernel,
        check_expectation_identities,
        check_variance_non_real,
    ), params)


def run_coherent_suite(params: PhysParams) -> list[CheckResult]:
    return _run((
        check_coherent_projection,
        check_coherent_normalization,
        check_coherent_moments,
        check_coherent_min_uncertainty,
        check_coherent_variance_independence,
        check_displacement_unitarity,
        check_displacement_conjugation,
        check_displaced_polynomial,
        check_coherent_pointwise,
        check_coherent_eigenvalue,
        check_coherent_positivity,
        check_only_ground_coherent,
        check_state_reality,
        check_generalized_variance_invariance,
        check_generalized_normalization,
        check_generalized_power_theorem,
    ), params)


def run_suite(name: str, params: PhysParams) -> list[CheckResult]:
    runners = {
        "star": run_star_suite,
        "marginals": run_marginals_suite,
        "uncertainty": run_uncertainty_suite,
        "coherent": run_coherent_suite,
    }
    if name == "all":
        return [r for suite in SUITES for r in runners[suite](params)]
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
    return runners[name](params)
