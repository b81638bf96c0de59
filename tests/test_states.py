import cmath
import math

import numpy as np
import pytest

from landaustar.phase_space import PhasePoint, PhysParams, to_mode_coords
from landaustar.star import (
    GENERATORS,
    FockRep,
    ProductRep,
    StarPolynomial,
    apply_star_polynomial,
    integrate,
    left_star_generator,
    moyal_bracket,
    star,
)
from landaustar.states import (
    CoherentLabel,
    GeneralizedCoherentLabel,
    WignerLabel,
    coherent_eval,
    coherent_fock,
    coherent_values,
    displaced_polynomial,
    displacement_fock,
    fock_eval,
    fock_values,
    generalized_coherent_fock,
    generating_function,
    parse_state_label,
    state_fock,
    wigner_eval,
    wigner_fock,
    wigner_values,
)
from landaustar.uncertainty import hamiltonian_polynomial

PARAMS = PhysParams()
ORIGIN = PhasePoint(0, 0, 0, 0)


def random_points(rng, count):
    pts = [PhasePoint(*rng.uniform(-1.5, 1.5, size=4)) for _ in range(count)]
    mcs = [to_mode_coords(pt, PARAMS) for pt in pts]
    a = np.array([mc.a for mc in mcs])
    b = np.array([mc.b for mc in mcs])
    return pts, a, b


def test_wigner_at_origin():
    assert wigner_eval(WignerLabel(0, 0), ORIGIN, PARAMS) == pytest.approx(4.0)
    for n, l in [(1, 0), (2, 1), (3, 3)]:
        want = 4.0 * (-1.0) ** (n + l)
        assert wigner_eval(WignerLabel(n, l), ORIGIN, PARAMS) == pytest.approx(want)


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
        got = generating_function(0, 0, 0, 0, pt, PARAMS)
        want = math.exp(-2.0 * (abs(av) ** 2 + abs(bv) ** 2))
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(wigner_eval(WignerLabel(0, 0), pt, PARAMS) / 4.0,
                                    rel=1e-13)


def _wigner_from_generating(n, l, pt, radius=0.5, points=16):
    """Extract the (n, l) Wigner value from parameter contours of G."""
    mc = to_mode_coords(pt, PARAMS)
    a, b = mc.a, mc.b
    theta = 2.0 * math.pi * np.arange(points) / points
    ring = radius * np.exp(1j * theta)
    a1, b1, a2, b2 = np.meshgrid(ring, ring, ring, ring, indexing="ij")
    vals = np.exp(-(a1 * b1 + a2 * b2)
                  + 2.0 * (a1 * np.conj(a) + b1 * a + a2 * np.conj(b) + b2 * b)
                  - 2.0 * (abs(a) ** 2 + abs(b) ** 2))
    for order in (n, n, l, l):
        phase = np.exp(-1j * order * theta)
        vals = np.tensordot(vals, phase, axes=(0, 0)) * (
            math.factorial(order) / (points * radius ** order))
    return 4.0 / (math.factorial(n) * math.factorial(l)) * complex(vals)


@pytest.mark.parametrize("n,l", [(0, 0), (1, 0), (1, 1), (2, 1)])
def test_generating_function_produces_wigner(n, l):
    rng = np.random.default_rng(23)
    pts, _, _ = random_points(rng, 3)
    for pt in pts:
        got = _wigner_from_generating(n, l, pt)
        want = wigner_eval(WignerLabel(n, l), pt, PARAMS)
        assert got.real == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert abs(got.imag) <= 1e-9


def test_vectorized_sampler_matches_public_generating_function():
    """The contour sampler above must agree with the public evaluator."""
    rng = np.random.default_rng(27)
    pts, _, _ = random_points(rng, 4)
    for pt in pts:
        for ps in rng.normal(size=(3, 8)):
            a1, b1, a2, b2 = (complex(ps[2 * i], ps[2 * i + 1]) * 0.4 for i in range(4))
            mc = to_mode_coords(pt, PARAMS)
            direct = np.exp(-(a1 * b1 + a2 * b2)
                            + 2.0 * (a1 * np.conj(mc.a) + b1 * mc.a
                                     + a2 * np.conj(mc.b) + b2 * mc.b)
                            - 2.0 * (abs(mc.a) ** 2 + abs(mc.b) ** 2))
            public = generating_function(a1, b1, a2, b2, pt, PARAMS)
            assert complex(direct) == pytest.approx(public, rel=1e-13)


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
        assert coherent_eval(label, pt, PARAMS) == pytest.approx(
            wigner_eval(WignerLabel(0, 0), pt, PARAMS), rel=1e-13)


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
    assert integrate(rep, PARAMS) == pytest.approx(PARAMS.planck_h ** 2, rel=1e-12)


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
        closed = coherent_eval(label, pt, PARAMS)
        via_fock = fock_eval(rep, pt, PARAMS)
        lin = (label.alpha1 * np.conj(av) + np.conj(label.alpha1) * av
               + label.alpha2 * np.conj(bv) + np.conj(label.alpha2) * bv)
        # literal quarter-prefactor expression for the real displaced Gaussian
        quarter_form = 0.25 * math.exp(-norm2) * cmath.exp(2.0 * lin).real \
            * wigner_eval(WignerLabel(0, 0), pt, PARAMS)
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
    d1, d2 = displacement_fock(0j, 0j, 10)
    np.testing.assert_allclose(d1, np.eye(10), atol=1e-14)
    np.testing.assert_allclose(d2, np.eye(10), atol=1e-14)


def test_displacement_star_unitarity():
    d1, _ = displacement_fock(0.9 - 0.7j, 0j, 32)
    prod = d1 @ d1.conj().T
    np.testing.assert_allclose(prod[:16, :16], np.eye(16), atol=1e-10)
    prod = d1.conj().T @ d1
    np.testing.assert_allclose(prod[:16, :16], np.eye(16), atol=1e-10)


def test_displacement_shifts_annihilation():
    from landaustar.star import ladder_matrices

    alpha = 1.1 + 0.4j
    cutoff, block = 64, 16
    d = displacement_fock(alpha, 0j, cutoff)[0]
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


def dense(rep):
    """The dense FockRep reference of a product state."""
    return FockRep(rep.cutoff, rep.coeffs.copy(), rep.overflow)


def assert_same_rep(got, want):
    assert isinstance(got, ProductRep) and isinstance(want, FockRep)
    scale = max(1.0, float(np.max(np.abs(want.coeffs))))
    assert float(np.max(np.abs(got.coeffs - want.coeffs))) <= 1e-12 * scale
    assert got.overflow == want.overflow


def product_state_labels(cutoff):
    # the first label fills the top row of the first mode, so raising letters
    # overflow on both routes; below cutoff 32 the last starts out truncated
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
                once_ref = apply_star_polynomial(f, ref, side)
                assert_same_rep(once, once_ref)
                # the second application acts on a sum of product terms
                assert_same_rep(apply_star_polynomial(g, once, side),
                                apply_star_polynomial(g, once_ref, side))
                flags.add(once_ref.overflow)
    assert flags == {False, True}


def test_product_overflow_needs_a_live_other_factor():
    """A raising letter on the top row drops weight only if the other mode is nonzero."""
    rep = wigner_fock(WignerLabel(5, 0), 6)
    # left action applies the last letter first: b empties the second mode
    # before abar meets the filled top row of the first
    dead = StarPolynomial.from_terms([(1.0, ("abar", "b"))])
    live = StarPolynomial.from_terms([(1.0, ("b", "abar"))])
    for poly, flagged in ((dead, False), (live, True)):
        got = apply_star_polynomial(poly, rep)
        assert_same_rep(got, apply_star_polynomial(poly, dense(rep)))
        assert got.overflow is flagged


@pytest.mark.parametrize("cutoff", [6, 16])
def test_product_star_and_values_match_dense_reference(cutoff):
    rng = np.random.default_rng(3200 + cutoff)
    _, a, b = random_points(rng, 20)
    reps = [state_fock(label, cutoff) for label in product_state_labels(cutoff)]
    # a two-term state as well as the one-term constructions
    reps.append(apply_star_polynomial(random_star_polynomial(rng), reps[3]))
    for f in reps:
        np.testing.assert_allclose(fock_values(f, a, b), fock_values(dense(f), a, b),
                                   rtol=1e-12, atol=1e-12)
        assert_same_rep(f.conjugate(), dense(f).conjugate())
        for g in reps:
            assert_same_rep(star(f, g), star(dense(f), dense(g)))
            assert_same_rep(moyal_bracket(f, g), moyal_bracket(dense(f), dense(g)))
        # mixed sums fall back to the dense tensor
        mixed = f + dense(reps[0])
        assert isinstance(mixed, FockRep)
        np.testing.assert_array_equal(mixed.coeffs, f.coeffs + reps[0].coeffs)


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
