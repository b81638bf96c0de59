import json
import math

import numpy as np
import pytest

from landaustar.checks import moyal_integral_star_single_mode
from landaustar.phase_space import PhysParams
from landaustar.star import (
    CanonicalPoly,
    FockRep,
    PolyGauss,
    StarPolynomial,
    anti_moyal_bracket,
    apply_star_polynomial,
    bidifferential_star,
    canonical_star,
    displacement_matrix,
    displacement_matrix_closed,
    fock_from_json_dict,
    fock_to_entries,
    fock_to_json_dict,
    generator_symbol,
    integrate,
    ladder_matrices,
    left_star_generator,
    matrix_unit,
    moyal_bracket,
    oracle_apply_word,
    right_star_generator,
    star,
)
from landaustar.states import (
    WignerLabel,
    _fock_point_values,
    matrix_unit_values,
    wigner_fock,
    wigner_symbol,
)

PARAMS = PhysParams()

A = StarPolynomial.generator("a")
ABAR = StarPolynomial.generator("abar")
B = StarPolynomial.generator("b")
BBAR = StarPolynomial.generator("bbar")


def test_matrix_unit_ground_state():
    w0 = matrix_unit(0, 0, 0, 0, 6)
    assert w0.coeffs[0, 0, 0, 0] == 1.0
    assert np.count_nonzero(w0.coeffs) == 1
    # pointwise it is the normalized two-mode Gaussian with peak value 4
    from landaustar.states import fock_values
    assert fock_values(w0, 0j, 0j) == pytest.approx(4.0, rel=1e-14)


def test_matrix_unit_index_check():
    with pytest.raises(ValueError):
        matrix_unit(6, 0, 0, 0, 6)


def test_matrix_unit_conjugate_swaps_indices():
    u = matrix_unit(1, 3, 2, 0, 6)
    uc = u.conjugate()
    assert uc.coeffs[3, 1, 0, 2] == 1.0
    assert np.count_nonzero(uc.coeffs) == 1


def test_projection_and_orthogonality():
    w21 = wigner_fock(WignerLabel(2, 1), 8)
    w03 = wigner_fock(WignerLabel(0, 3), 8)
    assert np.array_equal(star(w21, w21).coeffs, w21.coeffs)
    assert np.all(star(w21, w03).coeffs == 0)


def test_star_cutoff_mismatch():
    with pytest.raises(ValueError):
        star(FockRep.zero(4), FockRep.zero(5))


def test_gaussian_composes_to_half():
    """The single-mode ground Gaussian star-squares to half itself."""
    omega_fn = lambda x1, x2: np.exp(-2.0 * (x1 ** 2 + x2 ** 2))
    for x1, x2 in ((0.0, 0.0), (0.4, -0.3)):
        got = moyal_integral_star_single_mode(omega_fn, omega_fn, x1, x2)
        assert got == pytest.approx(0.5 * omega_fn(x1, x2), abs=1e-10)


def test_ladder_actions_on_ground():
    w0 = wigner_fock(WignerLabel(0, 0), 6)
    assert np.all(left_star_generator("a", w0).coeffs == 0)
    assert np.all(left_star_generator("b", w0).coeffs == 0)


def test_ladder_action_single_component():
    w21 = wigner_fock(WignerLabel(2, 1), 8)
    res = left_star_generator("a", w21)
    assert res.coeffs[1, 2, 1, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert np.count_nonzero(res.coeffs) == 1
    # equals the right action on the lowered state
    res2 = right_star_generator("a", wigner_fock(WignerLabel(1, 1), 8))
    np.testing.assert_allclose(res.coeffs, res2.coeffs, atol=0)


def test_number_polynomial_eigenvalue():
    w = wigner_fock(WignerLabel(3, 1), 8)
    na = ABAR * A
    res = apply_star_polynomial(na, w, "left")
    np.testing.assert_allclose(res.coeffs, 3.0 * w.coeffs, atol=1e-14)
    res = apply_star_polynomial(na, w, "right")
    np.testing.assert_allclose(res.coeffs, 3.0 * w.coeffs, atol=1e-14)


def test_overflow_flag_on_creation():
    top = matrix_unit(5, 5, 0, 0, 6)
    res = left_star_generator("abar", top)
    assert res.overflow
    assert np.all(res.coeffs == 0)
    inner = matrix_unit(2, 2, 0, 0, 6)
    assert not left_star_generator("abar", inner).overflow


# Acted-on coefficient axis, einsum of the ladder matrix along it, and
# whether the action raises that index, spelled out independently of the
# shifted-copy implementation both storage forms share.
DENSE_LADDER = {
    ("a", "left"): (0, "ij,jnkl->inkl", False),
    ("abar", "left"): (0, "ij,jnkl->inkl", True),
    ("a", "right"): (1, "mjkl,ji->mikl", True),
    ("abar", "right"): (1, "mjkl,ji->mikl", False),
    ("b", "left"): (2, "ij,mnjl->mnil", False),
    ("bbar", "left"): (2, "ij,mnjl->mnil", True),
    ("b", "right"): (3, "mnkj,ji->mnki", True),
    ("bbar", "right"): (3, "mnkj,ji->mnki", False),
}


@pytest.mark.parametrize("gen, side", sorted(DENSE_LADDER))
def test_dense_ladder_action_matches_ladder_matrix(gen, side):
    cutoff = 6
    axis, subscripts, raising = DENSE_LADDER[(gen, side)]
    lower, raise_ = ladder_matrices(cutoff)
    mat = raise_ if gen in ("abar", "bbar") else lower
    act = left_star_generator if side == "left" else right_star_generator
    rng = np.random.default_rng(17)
    shape = (cutoff,) * 4
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rep = FockRep(cutoff, coeffs)
    res = act(gen, rep)
    want = (np.einsum(subscripts, mat, coeffs) if side == "left"
            else np.einsum(subscripts, coeffs, mat))
    np.testing.assert_allclose(res.coeffs, want, rtol=0, atol=1e-14)
    assert res.overflow == raising
    # with the top slice of the acted-on axis empty nothing is dropped
    inner = coeffs.copy()
    np.moveaxis(inner, axis, 0)[-1] = 0
    assert not act(gen, FockRep(cutoff, inner)).overflow
    # the flag is sticky
    assert act(gen, FockRep(cutoff, inner, overflow=True)).overflow


def test_moyal_bracket_generators_normal_form():
    br = moyal_bracket(A, ABAR)
    nf = br.normal_form()
    assert nf == {(0, 0, 0, 0): 1.0 + 0j}
    br = moyal_bracket(B, BBAR)
    assert br.normal_form() == {(0, 0, 0, 0): 1.0 + 0j}


def test_moyal_bracket_antisymmetry():
    f = 0.3 * A * BBAR + 2.0 * ABAR
    br = moyal_bracket(f, f)
    assert br.normal_form() == {}


def test_star_polynomial_conjugate_and_reality():
    p = (1 + 2j) * (A * BBAR)
    pc = p.conjugate()
    assert pc.terms == (((1 - 2j), ("b", "abar")),)
    obs = p + p.conjugate()
    assert obs.is_real_observable()
    assert not p.is_real_observable()


def test_canonical_star_basic():
    q1 = CanonicalPoly.coordinate("q1")
    p1 = CanonicalPoly.coordinate("p1")
    prod = canonical_star(q1, p1, PARAMS)
    assert prod.coeffs[(1, 0, 1, 0)] == pytest.approx(1.0)
    assert prod.coeffs[(0, 0, 0, 0)] == pytest.approx(0.5j * PARAMS.hbar)
    br = moyal_bracket(q1, p1, PARAMS)
    assert br.coeffs == {(0, 0, 0, 0): pytest.approx(1j * PARAMS.hbar)}
    # dividing by i*hbar recovers the Poisson bracket {q1, p1} = 1
    assert (br.coeffs[(0, 0, 0, 0)] / (1j * PARAMS.hbar)).real == pytest.approx(1.0)


def test_canonical_star_power_of_linear():
    rng = np.random.default_rng(3)
    names = ("q1", "q2", "p1", "p2")
    for _ in range(5):
        coefs = rng.normal(size=4)
        x = CanonicalPoly({})
        for c, nm in zip(coefs, names):
            x = x + float(c) * CanonicalPoly.coordinate(nm)
        power = x
        plain = x
        for _ in range(3):
            power = canonical_star(power, x, PARAMS)
            plain = plain.pointwise_mul(x)
            for key in set(power.coeffs) | set(plain.coeffs):
                assert power.coeffs.get(key, 0j) == pytest.approx(
                    plain.coeffs.get(key, 0j), rel=1e-12, abs=1e-12)


def test_cyclotron_center_bracket():
    mw = PARAMS.mass * PARAMS.omega
    x1 = CanonicalPoly.coordinate("p2") + 0.5 * mw * CanonicalPoly.coordinate("q1")
    x2 = -1.0 * CanonicalPoly.coordinate("p1") + 0.5 * mw * CanonicalPoly.coordinate("q2")
    br = moyal_bracket(x1, x2, PARAMS)
    want = -1j * PARAMS.mass * PARAMS.hbar * PARAMS.omega
    assert br.coeffs == {(0, 0, 0, 0): pytest.approx(want)}


# ---------------------------------------------------------------------------
# bidifferential oracle
# ---------------------------------------------------------------------------

def test_oracle_annihilates_gaussian():
    gauss = PolyGauss.standard_gaussian()
    res = bidifferential_star(generator_symbol("a"), gauss)
    assert res.coeffs == {}
    res = bidifferential_star(generator_symbol("b"), gauss)
    assert res.coeffs == {}


def test_oracle_rejects_two_gaussians():
    gauss = PolyGauss.standard_gaussian()
    with pytest.raises(ValueError):
        bidifferential_star(gauss, gauss)


def test_oracle_exponential_taylor_converges():
    """Taylor sections of exp(eta*a), starred onto the Gaussian, approach it."""
    eta = 0.8 - 0.3j
    gauss = PolyGauss.standard_gaussian()
    pts = [(0.2 + 0.1j), (-0.6 + 0.4j), 1j]
    prev_err = math.inf
    for depth in (4, 8, 12):
        taylor = {}
        for k in range(depth + 1):
            taylor[(k, 0, 0, 0)] = eta ** k / math.factorial(k)
        res = bidifferential_star(PolyGauss(taylor), gauss)
        err = max(abs(res.eval(a, 0j) - gauss.eval(a, 0j)) for a in pts)
        assert err < prev_err or err < 1e-12
        prev_err = err
    assert prev_err < 1e-9


def test_oracle_origin_sign_pattern():
    """abar^n * Gaussian * a^n at the origin alternates as (-1)^n n!."""
    gauss = PolyGauss.standard_gaussian()
    for n in range(5):
        sym = oracle_apply_word(("abar",) * n, gauss, side="left")
        sym = oracle_apply_word(("a",) * n, sym, side="right")
        got = sym.eval(0j, 0j)
        assert got == pytest.approx((-1.0) ** n * math.factorial(n), rel=1e-12)


def test_oracle_matches_ladder_route_spot():
    cutoff = 8
    rng = np.random.default_rng(11)
    pts_a = rng.normal(size=6) + 1j * rng.normal(size=6)
    pts_b = rng.normal(size=6) + 1j * rng.normal(size=6)
    wa = matrix_unit_values(cutoff, pts_a)
    wb = matrix_unit_values(cutoff, pts_b)
    for word in [("a",), ("abar", "a"), ("b", "abar"), ("bbar", "a", "a"), ()]:
        for n, l in [(0, 0), (2, 1), (3, 3)]:
            rep = apply_star_polynomial(StarPolynomial(((1.0 + 0j, word),)),
                                        wigner_fock(WignerLabel(n, l), cutoff))
            ladder_vals = _fock_point_values(rep.coeffs, wa, wb)
            oracle_vals = oracle_apply_word(word, wigner_symbol(n, l)).eval(pts_a, pts_b)
            np.testing.assert_allclose(ladder_vals, oracle_vals, rtol=1e-10, atol=1e-12)


def test_matrix_unit_rule_against_integral_oracle():
    """Basis composition u_{mn} * u_{kl} = delta_{nk} u_{ml}, fully independently."""
    def unit_fn(m, n):
        return lambda x1, x2: matrix_unit_values(max(m, n) + 1, x1 + 1j * x2)[m, n]

    for (m, n, k, l) in [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1),
                         (2, 1, 1, 2), (0, 1, 0, 1), (2, 0, 0, 2)]:
        got = moyal_integral_star_single_mode(unit_fn(m, n), unit_fn(k, l), 0.25, -0.15)
        if n == k:
            want = complex(matrix_unit_values(max(m, l) + 1,
                                              np.array(0.25 - 0.15j))[m, l])
        else:
            want = 0.0
        assert got == pytest.approx(want, abs=5e-9)


# ---------------------------------------------------------------------------
# trace, integration, serialization
# ---------------------------------------------------------------------------

def test_integrate_diagonal_rule():
    h2 = PARAMS.planck_h ** 2
    assert integrate(wigner_fock(WignerLabel(0, 0), 8), PARAMS) == pytest.approx(h2)
    for n, l in [(1, 0), (4, 6), (6, 6)]:
        val = integrate(wigner_fock(WignerLabel(n, l), 8), PARAMS)
        assert val == pytest.approx(h2, rel=1e-14)
    assert integrate(matrix_unit(0, 1, 0, 0, 4), PARAMS) == 0.0


def test_hermitian_involution():
    rng = np.random.default_rng(12)
    shape = (5,) * 4
    f = FockRep(5, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    g = FockRep(5, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    lhs = star(f, g).conjugate()
    rhs = star(g.conjugate(), f.conjugate())
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)
    # double conjugation is the identity
    np.testing.assert_allclose(f.conjugate().conjugate().coeffs, f.coeffs, atol=0)


def test_associativity_spot():
    rng = np.random.default_rng(13)
    shape = (6,) * 4
    reps = [FockRep(6, rng.normal(size=shape) + 1j * rng.normal(size=shape))
            for _ in range(3)]
    f, g, h = reps
    left = star(star(f, g), h)
    right = star(f, star(g, h))
    scale = float(np.max(np.abs(left.coeffs)))
    np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-13 * max(1.0, scale))


def test_serialization_round_trip():
    rep = wigner_fock(WignerLabel(2, 1), 5) + 0.5j * matrix_unit(0, 1, 2, 3, 5)
    doc = fock_to_json_dict(rep)
    text = json.dumps(doc)
    back = fock_from_json_dict(json.loads(text))
    np.testing.assert_allclose(back.coeffs, rep.coeffs, atol=0)
    assert json.dumps(fock_to_json_dict(back)) == text
    # entries are sorted lexicographically
    entries = doc["entries"]
    assert entries == sorted(entries, key=lambda e: e[:4])


def test_entries_match_a_sorted_loop():
    rng = np.random.default_rng(16)
    shape = (5,) * 4
    coeffs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.3)
    coeffs.flat[[3, 40, 41]] = [complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -0.0)]
    want = sorted([int(m1), int(n1), int(m2), int(n2), float(c.real), float(c.imag)]
                  for (m1, n1, m2, n2), c in np.ndenumerate(coeffs) if c != 0)
    got = fock_to_entries(FockRep(5, coeffs))
    assert json.dumps(got) == json.dumps(want)


def test_serialization_rejects_bad_docs():
    with pytest.raises(ValueError):
        fock_from_json_dict({"entries": []})
    with pytest.raises(ValueError):
        fock_from_json_dict({"cutoff": 4, "entries": [[0, 0, 0, 0, 1.0]]})
    with pytest.raises(ValueError):
        fock_from_json_dict({"cutoff": 4, "entries": [[0, 0, 0, 9, 1.0, 0.0]]})


def test_displacement_matrix_routes_agree():
    rng = np.random.default_rng(14)
    for _ in range(3):
        alpha = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        via_expm = displacement_matrix(alpha, 32)
        closed = displacement_matrix_closed(alpha, 32)
        assert float(np.max(np.abs(via_expm[:9, :9] - closed[:9, :9]))) <= 1e-9


def test_displacement_kernel_is_vectorized():
    rng = np.random.default_rng(15)
    alphas = rng.uniform(-1.4, 1.4, (2, 3)) + 1j * rng.uniform(-1.4, 1.4, (2, 3))
    alphas[1, 2] = 0.0
    closed = displacement_matrix_closed(alphas, 32)
    assert closed.shape == (32, 32, 2, 3)
    for i, j in np.ndindex(alphas.shape):
        assert np.array_equal(closed[:, :, i, j], displacement_matrix_closed(alphas[i, j], 32))
        via_expm = displacement_matrix(alphas[i, j], 32)
        assert float(np.max(np.abs(via_expm[:9, :9] - closed[:9, :9, i, j]))) <= 1e-9
    np.testing.assert_array_equal(closed[:, :, 1, 2], np.eye(32))


def test_anti_bracket_on_polynomials():
    anti = anti_moyal_bracket(A, ABAR)
    nf = anti.normal_form()
    # a*abar + abar*a = 2 abar a + 1
    assert nf == {(0, 0, 0, 0): pytest.approx(1.0 + 0j),
                  (1, 1, 0, 0): pytest.approx(2.0 + 0j)}
