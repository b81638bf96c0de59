import cmath
import importlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

from landaustar import checks
from landaustar.checks import _word_mode_matrices, dense_star_contraction, mixed_param_derivative
from landaustar.phase_space import PhasePoint, PhysParams, to_mode_coords
from landaustar.star import (
    GENERATORS,
    ProductRep,
    StarPolynomial,
    apply_star_polynomial,
    displacement_matrix,
    fock_from_json_dict,
    fock_to_json_dict,
    left_star_generator,
    moyal_bracket,
    star,
)
from landaustar.states import (
    CoherentLabel,
    GeneralizedCoherentLabel,
    WignerLabel,
    coherent_fock,
    coherent_values,
    displaced_polynomial,
    fock_values,
    generalized_coherent_fock,
    generating_function,
    matrix_unit_values,
    parse_state_label,
    state_fock,
    state_values,
    wigner_fock,
    wigner_values,
)
from landaustar.uncertainty import StateFunctional, expectation, hamiltonian_polynomial

PARAMS = PhysParams()
ORIGIN = PhasePoint(0, 0, 0, 0)


def at(pt):
    """The mode coordinates (a, b) of a phase-space point."""
    mc = to_mode_coords(pt, PARAMS)
    return mc.a, mc.b


def random_points(rng, count):
    pts = [PhasePoint(*rng.uniform(-1.5, 1.5, size=4)) for _ in range(count)]
    mcs = [to_mode_coords(pt, PARAMS) for pt in pts]
    a = np.array([mc.a for mc in mcs])
    b = np.array([mc.b for mc in mcs])
    return pts, a, b


def test_wigner_at_origin():
    assert wigner_values(0, 0, *at(ORIGIN)) == pytest.approx(4.0)
    for n, l in [(1, 0), (2, 1), (3, 3)]:
        want = 4.0 * (-1.0) ** (n + l)
        assert wigner_values(n, l, *at(ORIGIN)) == pytest.approx(want)


def test_wigner_normalization_by_quadrature():
    from landaustar.phase_space import mode_coords_arrays
    from landaustar.quadrature import gauss_hermite, integrate_nd

    g = PARAMS.gamma
    scales = (g, g, PARAMS.hbar / g, PARAMS.hbar / g)

    def w23(q1, q2, p1, p2):
        am, bm = mode_coords_arrays(q1, q2, p1, p2, PARAMS)
        return wigner_values(2, 3, am, bm)

    got = integrate_nd(w23, scales, gauss_hermite(16))
    assert got == pytest.approx(PARAMS.planck_h ** 2, rel=1e-12)


def test_wigner_fock_matches_closed_form():
    rng = np.random.default_rng(21)
    pts, a, b = random_points(rng, 50)
    rep = wigner_fock(WignerLabel(2, 1), 8)
    got = fock_values(rep, a, b)
    want = wigner_values(2, 1, a, b)
    np.testing.assert_allclose(got.real, want, rtol=0, atol=1e-11)
    np.testing.assert_allclose(got.imag, np.zeros_like(want), atol=1e-13)


def test_wigner_fock_energy_eigenvalue():
    rep = wigner_fock(WignerLabel(2, 0), 8)
    res = apply_star_polynomial(hamiltonian_polynomial(PARAMS), rep)
    np.testing.assert_allclose(res.coeffs, 2.5 * rep.coeffs, atol=1e-14)


def test_wigner_fock_cutoff_guard():
    with pytest.raises(ValueError):
        wigner_fock(WignerLabel(8, 0), 8)


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------

def test_generating_function_at_zero_parameters():
    rng = np.random.default_rng(22)
    pts, a, b = random_points(rng, 10)
    for pt, av, bv in zip(pts, a, b):
        got = generating_function(0, 0, 0, 0, av, bv)
        want = math.exp(-2.0 * (abs(av) ** 2 + abs(bv) ** 2))
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(wigner_values(0, 0, *at(pt)) / 4.0,
                                    rel=1e-13)


def _wigner_from_generating(n, l, pt):
    """Extract the (n, l) Wigner value from parameter contours of G."""
    mc = to_mode_coords(pt, PARAMS)

    def fn(ps):
        a1, b1, a2, b2 = ps
        return generating_function(a1, b1, a2, b2, mc.a, mc.b)

    deriv = mixed_param_derivative(fn, (n, n, l, l), points=16)
    return 4.0 / (math.factorial(n) * math.factorial(l)) * deriv


@pytest.mark.parametrize("n,l", [(0, 0), (1, 0), (1, 1), (2, 1)])
def test_generating_function_produces_wigner(n, l):
    rng = np.random.default_rng(23)
    pts, _, _ = random_points(rng, 3)
    for pt in pts:
        got = _wigner_from_generating(n, l, pt)
        want = wigner_values(n, l, *at(pt))
        assert got.real == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert abs(got.imag) <= 1e-9


def test_vectorized_sampler_matches_public_generating_function():
    """G on a (3, 4) broadcast grid of parameters and mode coordinates equals
    its elementwise scalar calls."""
    rng = np.random.default_rng(27)
    _, a, b = random_points(rng, 4)
    a, b = a[:3].reshape(3, 1), b.reshape(1, 4)
    ps = 0.4 * (rng.normal(size=(4, 3, 4)) + 1j * rng.normal(size=(4, 3, 4)))
    a1, b1, a2, b2 = ps[0], ps[1, :1, :], ps[2, :, :1], ps[3]
    got = generating_function(a1, b1, a2, b2, a, b)
    assert got.shape == (3, 4)
    want = np.empty((3, 4), dtype=complex)
    for i, j in np.ndindex(3, 4):
        scalar = generating_function(complex(a1[i, j]), complex(b1[0, j]),
                                     complex(a2[i, 0]), complex(b2[i, j]),
                                     complex(a[i, 0]), complex(b[0, j]))
        assert type(scalar) is complex
        want[i, j] = scalar
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_generating_function_left_star_eigenvalue():
    """(a + d/dabar/2) G = alpha1 G, the one-sided coherent-state property.

    The abar-derivative at fixed a is extracted by a contour around the
    evaluation point of the holomorphic extension.
    """
    alpha = (0.4 - 0.2j, 0.1 + 0.3j)
    beta = (0.2 + 0.1j, -0.25j)
    rng = np.random.default_rng(24)
    pts, _, _ = random_points(rng, 5)
    for pt in pts:
        mc = to_mode_coords(pt, PARAMS)
        a, b = mc.a, mc.b

        def g_of_abar(abar):
            dot = alpha[0] * beta[0] + alpha[1] * beta[1]
            lin = (alpha[0] * abar + beta[0] * a
                   + alpha[1] * np.conj(b) + beta[1] * b)
            return np.exp(-dot + 2.0 * lin - 2.0 * (a * abar + abs(b) ** 2))

        # contour derivative of the holomorphic extension in abar
        k = 16
        theta = 2.0 * math.pi * np.arange(k) / k
        ring = 0.3 * np.exp(1j * theta)
        samples = np.array([g_of_abar(np.conj(a) + z) for z in ring])
        deriv = np.sum(samples * np.exp(-1j * theta)) / (k * 0.3)
        g_val = g_of_abar(np.conj(a))
        lhs = a * g_val + 0.5 * deriv
        assert lhs == pytest.approx(alpha[0] * g_val, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def test_coherent_zero_displacement_is_ground():
    rng = np.random.default_rng(25)
    pts, _, _ = random_points(rng, 10)
    label = CoherentLabel(0j, 0j)
    for pt in pts:
        assert coherent_values(label, *at(pt)) == pytest.approx(
            wigner_values(0, 0, *at(pt)), rel=1e-13)


def test_coherent_positivity_on_grid():
    label = CoherentLabel(1 + 1j, -0.5 + 0j)
    g = PARAMS.gamma
    qs = np.linspace(-3 * g, 3 * g, 10)
    ps = np.linspace(-3 / g, 3 / g, 10)
    Q1, Q2, P1, P2 = np.meshgrid(qs, qs, ps, ps, indexing="ij")
    from landaustar.phase_space import mode_coords_arrays
    a, b = mode_coords_arrays(Q1, Q2, P1, P2, PARAMS)
    assert np.all(coherent_values(label, a, b) > 0.0)


def test_coherent_normalization():
    label = CoherentLabel(1 + 1j, -0.5 + 0j)
    rep = coherent_fock(label, 24)
    assert rep.trace() == pytest.approx(1.0, rel=1e-12)


def test_coherent_constant_reconciliation():
    """Freeze the constant between the displaced projector and its closed forms.

    Three independently written expressions must agree pointwise: the
    displaced-Gaussian evaluator, the matrix route through the displacement
    operators, and the literal quarter-prefactor form scaled back up.
    """
    label = CoherentLabel(0.7 - 0.4j, 0.2 + 0.5j)
    rep = coherent_fock(label, 24)
    rng = np.random.default_rng(26)
    pts, a, b = random_points(rng, 10)
    norm2 = abs(label.alpha1) ** 2 + abs(label.alpha2) ** 2
    for pt, av, bv in zip(pts, a, b):
        closed = coherent_values(label, *at(pt))
        via_fock = fock_values(rep, *at(pt))
        lin = (label.alpha1 * np.conj(av) + np.conj(label.alpha1) * av
               + label.alpha2 * np.conj(bv) + np.conj(label.alpha2) * bv)
        # literal quarter-prefactor expression for the real displaced Gaussian
        quarter_form = 0.25 * math.exp(-norm2) * cmath.exp(2.0 * lin).real \
            * wigner_values(0, 0, *at(pt))
        # normalized projector = 4 e^{-|alpha|^2} times the quarter form
        assert closed == pytest.approx(4.0 * math.exp(-norm2) * quarter_form, rel=1e-11)
        assert via_fock.real == pytest.approx(closed, rel=1e-9, abs=1e-9)
        assert abs(via_fock.imag) <= 1e-11


def test_coherent_values_at_cutoff_96():
    """The Fock route stays exact far above the cutoffs the checks use."""
    label = CoherentLabel(2.5 + 1.5j, -1j)
    rep = coherent_fock(label, 96)
    assert not rep.overflow
    rng = np.random.default_rng(27)
    # around the displacement, where the state lives and high indices matter
    a = label.alpha1 + rng.normal(scale=0.6, size=25) + 1j * rng.normal(scale=0.6, size=25)
    b = label.alpha2 + rng.normal(scale=0.6, size=25) + 1j * rng.normal(scale=0.6, size=25)
    np.testing.assert_allclose(fock_values(rep, a, b), coherent_values(label, a, b),
                               rtol=0, atol=1e-9)


def test_coherent_tail_weight_flag():
    """Truncated displacement weight raises the sticky flag."""
    label = CoherentLabel(2.0 + 0j, 0j)
    assert coherent_fock(label, 6).overflow
    assert not coherent_fock(label, 30).overflow
    # a flagged state is still normalized over the levels it keeps
    assert coherent_fock(label, 6).trace() == pytest.approx(1.0, abs=1e-12)


def test_displacement_past_every_kept_level_is_refused():
    """A column that underflows below the cutoff has no state to normalize."""
    with pytest.raises(ValueError, match="cutoff 8"):
        coherent_fock(CoherentLabel(40.0 + 0j, 0j), 8)


def test_displaced_states_need_no_matrix_exponential(monkeypatch):
    """Coherent factors come from the closed displacement column alone."""
    # the package re-exports the function star, which shadows the module name
    star_module = importlib.import_module("landaustar.star")

    def refuse(*args, **kwargs):
        raise AssertionError("matrix exponential called while building a state")

    monkeypatch.setattr(star_module, "expm", refuse)
    alphas = (1.9 + 1.9j, 0.3 - 1.2j)
    for cutoff in (16, 128):
        for rep in (coherent_fock(CoherentLabel(*alphas), cutoff),
                    generalized_coherent_fock(
                        GeneralizedCoherentLabel(*alphas, WignerLabel(3, 2)), cutoff)):
            assert rep.trace() == pytest.approx(1.0, abs=1e-12)


def test_generalized_factors_match_expm_columns():
    """Each factor is the outer product of the untruncated column D(alpha)|k>."""
    a1, a2 = 1.2 - 0.9j, -0.4 + 1.1j
    rep = generalized_coherent_fock(GeneralizedCoherentLabel(a1, a2, WignerLabel(3, 2)), 32)
    assert not rep.overflow
    ((c, fa, fb),) = rep.terms
    assert c == 1.0
    for factor, alpha, k in ((fa, a1, 3), (fb, a2, 2)):
        # the exponential at cutoff 96 is untruncated on the 32 kept levels
        col = displacement_matrix(alpha, 96)[:32, k]
        np.testing.assert_allclose(factor, np.outer(col, np.conj(col)), rtol=0, atol=1e-13)


def test_coherent_projection_property():
    label = CoherentLabel(1 + 1j, -0.5 + 0j)
    rep = coherent_fock(label, 24)
    prod = star(rep, rep)
    assert float(np.max(np.abs(prod.coeffs - rep.coeffs))) <= 1e-10


def test_coherent_eigenvalue_property():
    label = CoherentLabel(0.8 - 0.1j, 0.3j)
    rep = coherent_fock(label, 24)
    res = left_star_generator("a", rep)
    assert float(np.max(np.abs(res.coeffs - label.alpha1 * rep.coeffs))) <= 1e-9


def test_only_ground_state_is_coherent():
    for n, l in [(1, 0), (0, 1), (2, 2)]:
        rep = wigner_fock(WignerLabel(n, l), 8)
        proportional = True
        for gen in ("a", "b"):
            res = left_star_generator(gen, rep)
            overlap = np.vdot(rep.coeffs, res.coeffs) / np.vdot(rep.coeffs, rep.coeffs)
            if float(np.max(np.abs(res.coeffs - overlap * rep.coeffs))) > 1e-9:
                proportional = False
        assert not proportional


# ---------------------------------------------------------------------------
# displacement machinery
# ---------------------------------------------------------------------------

def test_displacement_zero_is_identity():
    d1, d2 = displacement_matrix(0j, 10), displacement_matrix(0j, 10)
    np.testing.assert_allclose(d1, np.eye(10), atol=1e-14)
    np.testing.assert_allclose(d2, np.eye(10), atol=1e-14)


def test_displacement_star_unitarity():
    d1 = displacement_matrix(0.9 - 0.7j, 32)
    prod = d1 @ d1.conj().T
    np.testing.assert_allclose(prod[:16, :16], np.eye(16), atol=1e-10)
    prod = d1.conj().T @ d1
    np.testing.assert_allclose(prod[:16, :16], np.eye(16), atol=1e-10)


def test_displacement_shifts_annihilation():
    from landaustar.star import ladder_matrices

    alpha = 1.1 + 0.4j
    cutoff, block = 64, 16
    d = displacement_matrix(alpha, cutoff)
    lower, _ = ladder_matrices(cutoff)
    got = d.conj().T @ lower @ d
    want = lower + alpha * np.eye(cutoff)
    np.testing.assert_allclose(got[:block, :block], want[:block, :block], atol=1e-10)


def test_displaced_polynomial_simple_shift():
    p = StarPolynomial.generator("a")
    shifted = displaced_polynomial(p, 2.0, 0j)
    assert shifted.terms == ((2 + 0j, ()), (1 + 0j, ("a",)))


def test_displaced_polynomial_constant_unchanged():
    p = StarPolynomial.constant(3.5)
    assert displaced_polynomial(p, 1j, 2.0).terms == p.terms


def test_displaced_polynomial_check_reads_the_second_mode_shift(monkeypatch):
    """The conjugation check fails when the second mode is shifted the wrong
    way: one of its polynomials has second-mode words."""
    assert checks.check_displaced_polynomial(PhysParams()).passed
    monkeypatch.setattr(checks, "displaced_polynomial",
                        lambda poly, alpha1, alpha2: displaced_polynomial(poly, alpha1, -alpha2))
    assert not checks.check_displaced_polynomial(PhysParams()).passed


def test_displaced_polynomial_number_operator():
    c = 0.4 - 0.9j
    p = StarPolynomial.generator("abar") * StarPolynomial.generator("a")
    shifted = displaced_polynomial(p, c, 0j)
    want = {
        ("abar", "a"): 1.0 + 0j,
        ("abar",): c,
        ("a",): np.conj(c),
        (): abs(c) ** 2,
    }
    got = {w: coef for coef, w in shifted.terms}
    assert set(got) == set(want)
    for w, v in want.items():
        assert got[w] == pytest.approx(v, rel=1e-14)


# ---------------------------------------------------------------------------
# generalized coherent states
# ---------------------------------------------------------------------------

def test_generalized_zero_displacement():
    label = GeneralizedCoherentLabel(0j, 0j, WignerLabel(2, 1))
    rep = generalized_coherent_fock(label, 12)
    want = wigner_fock(WignerLabel(2, 1), 12)
    np.testing.assert_allclose(rep.coeffs, want.coeffs, atol=1e-14)


def test_state_values_translate_the_base_wigner_function():
    """One shape for every label: a Wigner label is its own base, and a coherent
    state is the shifted ground state; the Fock route at cutoff 64 agrees."""
    rng = np.random.default_rng(31)
    _, a, b = random_points(rng, 25)
    w = WignerLabel(2, 1)
    assert (w.base, w.alpha1, w.alpha2) == (w, 0j, 0j)
    np.testing.assert_array_equal(state_values(w, a, b), wigner_values(2, 1, a, b))
    c = CoherentLabel(0.7 - 0.4j, 1.1j)
    assert c.base == WignerLabel(0, 0)
    np.testing.assert_allclose(state_values(c, a, b), coherent_values(c, a, b),
                               rtol=1e-14, atol=0.0)
    for n, l, a1, a2 in [(1, 0, 2.5 + 0j, 0j), (3, 2, 1.9 + 1.9j, 0.3 - 1.2j)]:
        g = GeneralizedCoherentLabel(a1, a2, WignerLabel(n, l))
        rep = generalized_coherent_fock(g, 64)
        assert not rep.overflow
        np.testing.assert_allclose(state_values(g, a, b), fock_values(rep, a, b).real,
                                   rtol=0, atol=1e-12)


def test_generalized_trace_and_projection():
    label = GeneralizedCoherentLabel(0.6 + 0.3j, -0.2j, WignerLabel(1, 2))
    rep = generalized_coherent_fock(label, 24)
    assert rep.trace() == pytest.approx(1.0, abs=1e-12)
    prod = star(rep, rep)
    assert float(np.max(np.abs(prod.coeffs - rep.coeffs))) <= 1e-10
    assert rep.reality_residual() == 0.0


def test_parse_state_labels():
    assert parse_state_label("wigner:2,1") == WignerLabel(2, 1)
    lab = parse_state_label("coherent:1,0,0,-0.5")
    assert lab == CoherentLabel(1 + 0j, -0.5j)
    lab = parse_state_label("gencoherent:1,2:0.5,0,0,1")
    assert lab == GeneralizedCoherentLabel(0.5 + 0j, 1j, WignerLabel(1, 2))
    with pytest.raises(ValueError):
        parse_state_label("wigner:2")
    with pytest.raises(ValueError):
        parse_state_label("squeezed:1,2")


# ---------------------------------------------------------------------------
# per-mode product states against the dense reference
# ---------------------------------------------------------------------------

def random_star_polynomial(rng, n_terms=3, max_len=3):
    terms = []
    for _ in range(n_terms):
        word = tuple(GENERATORS[i] for i in rng.integers(0, 4, size=rng.integers(0, max_len + 1)))
        terms.append((complex(rng.normal(), rng.normal()), word))
    return StarPolynomial.from_terms(terms)


# The dense reference: a state's cutoff^4 tensor and its overflow flag, with
# the ladder actions, star product, conjugate and values taken on the tensor
# as a whole.  The per-mode product route must reproduce every one of them.

@dataclass(frozen=True)
class Dense:
    coeffs: np.ndarray
    overflow: bool = False


def dense(rep):
    """The dense reference of a product state."""
    return Dense(rep.coeffs.copy(), rep.overflow)


def word_diagonal(m, n):
    """(k, d) with column j < n of m nonzero at row j + k only, where it holds
    d[j - max(-k, 0)]: a product of ladder matrices has one nonzero diagonal."""
    rows, cols = np.nonzero(m[:, :n])
    (k,) = set(rows - cols)
    return k, np.diagonal(m[:, :n], offset=-k)


def dense_apply(poly, ref, side="left"):
    """Each word as its per-mode ladder matrices at the cutoff plus its length,
    a size its letters cannot leave, acting on the tensor's row axes (column
    axes from the right); the result is cut back to the cutoff once, and the
    cut is flagged if it drops weight."""
    n = ref.coeffs.shape[0]
    c4 = ref.coeffs if side == "left" else ref.coeffs.transpose(1, 0, 3, 2)
    total, overflow = np.zeros_like(c4), ref.overflow
    for c, word in poly.terms:
        ma, mb = _word_mode_matrices(word, n + len(word))
        if side == "right":
            ma, mb = ma.T, mb.T
        (ka, da), (kb, db) = word_diagonal(ma, n), word_diagonal(mb, n)
        # moved[i, :, j] is row lo_a + i, lo_b + j of the uncut result
        lo_a, lo_b = max(ka, 0), max(kb, 0)
        moved = np.multiply.outer(da, db)[:, None, :, None] * c4[max(-ka, 0):, :, max(-kb, 0):]
        overflow = overflow or bool(np.any(moved[n - lo_a:] != 0)
                                    or np.any(moved[:, :, n - lo_b:] != 0))
        kept = moved[:n - lo_a, :, :n - lo_b]
        total[lo_a:lo_a + kept.shape[0], :, lo_b:lo_b + kept.shape[2]] += c * kept
    return Dense(total if side == "left" else total.transpose(1, 0, 3, 2), overflow)


def dense_star(f, g):
    return Dense(dense_star_contraction(f, g), f.overflow or g.overflow)


def dense_conjugate(f):
    return Dense(np.conj(f.coeffs).transpose(1, 0, 3, 2), f.overflow)


def dense_values(f, a, b):
    """Contract the tensor with both modes' basis values: the first mode as one
    matrix product, then the N^2 x points remainder against the second."""
    cutoff = f.coeffs.shape[0]
    first = np.tensordot(f.coeffs, matrix_unit_values(cutoff, a), axes=([0, 1], [0, 1]))
    return np.einsum("klp,klp->p", first, matrix_unit_values(cutoff, b))


def assert_same_rep(got, want):
    assert isinstance(got, ProductRep) and isinstance(want, Dense)
    scale = max(1.0, float(np.max(np.abs(want.coeffs))))
    assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= 1e-12 * scale
    assert got.overflow == want.overflow


def product_state_labels(cutoff):
    # the first label fills the top row of the first mode, so raising letters
    # lift it past the cutoff on both routes; below cutoff 32 the last starts
    # out truncated
    return [
        WignerLabel(cutoff - 1, 2),
        WignerLabel(1, 3),
        CoherentLabel(0.3 - 0.2j, 0.1j),
        GeneralizedCoherentLabel(0.4j, -0.3 + 0.1j, WignerLabel(2, 1)),
        GeneralizedCoherentLabel(1.5 + 0.5j, -1.0j, WignerLabel(1, 0)),
    ]


@pytest.mark.parametrize("cutoff", [6, 16, 32])
def test_product_apply_matches_dense_reference(cutoff):
    """Random star polynomials from both sides, applied once and twice."""
    rng = np.random.default_rng(3100 + cutoff)
    polys_per_state = 2 if cutoff == 32 else 4
    flags = set()
    for label in product_state_labels(cutoff):
        rep = state_fock(label, cutoff)
        ref = dense(rep)
        for side in ("left", "right"):
            for _ in range(polys_per_state):
                f, g = random_star_polynomial(rng), random_star_polynomial(rng)
                once = apply_star_polynomial(f, rep, side)
                once_ref = dense_apply(f, ref, side)
                assert_same_rep(once, once_ref)
                # the second application acts on a sum of product terms
                assert_same_rep(apply_star_polynomial(g, once, side),
                                dense_apply(g, once_ref, side))
                flags.add(once_ref.overflow)
    assert flags == {False, True}


def test_product_overflow_needs_a_live_other_factor():
    """The cut at the cutoff drops weight only if the other mode is nonzero."""
    rep = wigner_fock(WignerLabel(5, 0), 6)
    # left action applies the last letter first: b empties the second mode,
    # before or after abar lifts the first past the cutoff
    dead = StarPolynomial.from_terms([(1.0, ("abar", "b"))])
    dead_after = StarPolynomial.from_terms([(1.0, ("b", "abar"))])
    live = StarPolynomial.from_terms([(1.0, ("abar",))])
    for poly, flagged in ((dead, False), (dead_after, False), (live, True)):
        got = apply_star_polynomial(poly, rep)
        assert_same_rep(got, dense_apply(poly, dense(rep)))
        assert got.terms == ()
        assert got.overflow is flagged


def test_a_word_that_crosses_the_cutoff_and_returns_is_exact():
    """a * abar lifts W(5, 0) to level 6 and back: 6 W, on both routes, unflagged."""
    rep = wigner_fock(WignerLabel(5, 0), 6)
    poly = StarPolynomial.from_terms([(1.0, ("a", "abar"))])
    got = apply_star_polynomial(poly, rep)
    assert not got.overflow
    np.testing.assert_allclose(got.coeffs, 6.0 * rep.coeffs, rtol=1e-15, atol=0)
    assert_same_rep(got, dense_apply(poly, dense(rep)))
    trace = expectation(poly, StateFunctional(rep, PARAMS))
    assert trace == pytest.approx(6.0, rel=1e-15)
    assert abs(trace - got.trace()) <= 1e-13 * abs(trace)


@pytest.mark.parametrize("cutoff", [6, 16])
def test_product_star_and_values_match_dense_reference(cutoff):
    rng = np.random.default_rng(3200 + cutoff)
    _, a, b = random_points(rng, 20)
    reps = [state_fock(label, cutoff) for label in product_state_labels(cutoff)]
    # a two-term state as well as the one-term constructions
    reps.append(apply_star_polynomial(random_star_polynomial(rng), reps[3]))
    for f in reps:
        np.testing.assert_allclose(fock_values(f, a, b), dense_values(f, a, b),
                                   rtol=1e-12, atol=1e-12)
        assert_same_rep(f.conjugate(), dense_conjugate(dense(f)))
        for g in reps:
            fg, gf = dense_star(f, g), dense_star(g, f)
            assert_same_rep(star(f, g), fg)
            assert_same_rep(moyal_bracket(f, g), Dense(fg.coeffs - gf.coeffs, fg.overflow))
        # sums stay products, and a reloaded state document sums like its source
        np.testing.assert_array_equal((f + reps[0]).coeffs, f.coeffs + reps[0].coeffs)
        loaded = fock_from_json_dict(fock_to_json_dict(reps[0]))
        np.testing.assert_allclose((f - loaded).coeffs, f.coeffs - reps[0].coeffs,
                                   rtol=0, atol=1e-15)


def test_constructed_states_are_exactly_real():
    rng = np.random.default_rng(3300)
    for _ in range(30):
        n, l = (int(v) for v in rng.integers(0, 6, size=2))
        a1, a2 = (complex(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(2))
        for label in (WignerLabel(n, l), CoherentLabel(a1, a2),
                      GeneralizedCoherentLabel(a1, a2, WignerLabel(n, l))):
            rep = state_fock(label, 12)
            assert rep.reality_residual() == 0.0
            diag = np.einsum("iijj->ij", rep.coeffs)
            assert np.all(diag.imag == 0.0)
