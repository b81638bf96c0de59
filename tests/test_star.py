import hashlib
import importlib
import json
import math

import numpy as np
import pytest

from landaustar import checks
from landaustar.checks import (
    _dense,
    _random_product,
    dense_star_contraction,
    moyal_integral_star_single_mode,
)
from landaustar.phase_space import PhysParams
from landaustar.star import (
    GENERATORS,
    MAX_DOCUMENT_CUTOFF,
    CanonicalPoly,
    PolyGauss,
    ProductRep,
    StarPolynomial,
    _dense_product,
    _moyal_series,
    apply_star_polynomial,
    bidifferential_star,
    canonical_star,
    displacement_column_closed,
    displacement_matrix,
    displacement_matrix_closed,
    eval_symbols,
    fock_from_json_dict,
    fock_to_entries,
    fock_to_json_dict,
    generator_symbol,
    ladder_matrices,
    left_star_generator,
    matrix_unit,
    moyal_bracket,
    oracle_apply_word,
    right_star_generator,
    star,
    word_pair_traces,
)
from landaustar.states import (
    CoherentLabel,
    GeneralizedCoherentLabel,
    WignerLabel,
    _fock_point_values,
    coherent_fock,
    fock_values,
    generalized_coherent_fock,
    matrix_unit_values,
    wigner_fock,
    wigner_symbol,
)
from landaustar.uncertainty import StateFunctional, coordinate_polynomials, expectation, variance

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
    assert fock_values(w0, 0j, 0j) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("unit", [(0, 0, 0, 0), (1, 3, 2, 0), (4, 4, 0, 3)])
def test_matrix_unit_is_a_one_term_product(unit):
    rep = matrix_unit(*unit, 5)
    assert isinstance(rep, ProductRep) and len(rep.terms) == 1
    ((c, a, b),) = rep.terms
    assert c == 1.0 and a.shape == b.shape == (5, 5)
    want = np.zeros((5,) * 4)
    want[unit] = 1.0
    np.testing.assert_array_equal(rep.coeffs, want)


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
        star(ProductRep(4, ()), ProductRep(5, ()))


# Every entry point of the star algebra, called with a state in place of one
# ProductRep operand.
def _entry_points():
    rep = wigner_fock(WignerLabel(1, 0), 4)
    return {
        "star-left": lambda d: star(d, rep),
        "star-right": lambda d: star(rep, d),
        "apply_star_polynomial": lambda d: apply_star_polynomial(A * BBAR, d),
        "apply_star_polynomial-right": lambda d: apply_star_polynomial(A, d, "right"),
        "left_star_generator": lambda d: left_star_generator("abar", d),
        "right_star_generator": lambda d: right_star_generator("b", d),
        "moyal_bracket": lambda d: moyal_bracket(rep, d),
        "moyal_bracket-left": lambda d: moyal_bracket(d, rep),
        "fock_values": lambda d: fock_values(d, 0.1j, -0.2),
        "ProductRep.__add__": lambda d: rep + d,
        "ProductRep.__sub__": lambda d: rep - d,
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_algebra_takes_a_reloaded_state_document(entry):
    state = generalized_coherent_fock(
        GeneralizedCoherentLabel(0.3 - 0.2j, 0.1j, WignerLabel(1, 0)), 4)
    loaded = fock_from_json_dict(json.loads(json.dumps(fock_to_json_dict(state))))
    assert len(loaded.terms) == 16
    want, got = (_entry_points()[entry](d) for d in (state, loaded))
    if isinstance(want, ProductRep):
        want, got = want.coeffs, got.coeffs
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_sums_take_only_product_states():
    rep = wigner_fock(WignerLabel(1, 0), 4)
    for other in (1.0, rep.coeffs, "state"):
        with pytest.raises(TypeError):
            rep + other
        with pytest.raises(TypeError):
            rep - other


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


# Acted-on coefficient axis, einsum of the ladder matrix along it on the
# dense tensor, and whether the action raises that index, spelled out
# independently of the shifted copy the per-mode factors take.
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
    rep = _random_product(np.random.default_rng(17), cutoff)
    res = act(gen, rep)
    want = (np.einsum(subscripts, mat, rep.coeffs) if side == "left"
            else np.einsum(subscripts, rep.coeffs, mat))
    np.testing.assert_allclose(res.coeffs, want, rtol=0, atol=1e-14)
    assert res.overflow == raising
    # with the top slice of the acted-on axis empty nothing is dropped
    mode, index = divmod(axis, 2)
    terms = []
    for c, *factors in rep.terms:
        factor = factors[mode].copy()
        np.moveaxis(factor, index, 0)[-1] = 0
        factors[mode] = factor
        terms.append((c, *factors))
    inner = ProductRep(cutoff, tuple(terms))
    assert not np.moveaxis(inner.coeffs, axis, 0)[-1].any()
    assert not act(gen, inner).overflow
    # the flag is sticky
    assert act(gen, ProductRep(cutoff, inner.terms, overflow=True)).overflow


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


def test_reality_does_not_depend_on_the_order_of_the_terms():
    """(bbar + b)/2 written in this order, not sorted, read as not real."""
    for terms in (((0.5, ("bbar",)), (0.5, ("b",))), ((0.5, ("b",)), (0.5, ("bbar",))),
                  ((0.25, ("b",)), (0.5, ("bbar",)), (0.25, ("b",)))):
        assert StarPolynomial(terms).is_real_observable()
    assert not StarPolynomial(((0.5, ("bbar",)), (0.5j, ("b",)))).is_real_observable()
    assert not StarPolynomial(((0.5, ("bbar",)), (0.25, ("b",)))).is_real_observable()


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


_SERIES_AXES = ((0, 1, 2, 3), (1, 0, 3, 2), (0.5, -0.5, 0.5, -0.5))


def _word_tree_symbols(n, l, max_len=4):
    """wigner_symbol(n, l) and its images under every generator word of length <= max_len."""
    level, out = [wigner_symbol(n, l)], []
    for depth in range(max_len + 1):
        out.extend(level)
        if depth < max_len:
            level = [bidifferential_star(generator_symbol(g), s) for s in level for g in GENERATORS]
    return out


@pytest.mark.parametrize("n", range(4))
def test_generator_short_path_matches_the_series(n):
    """A generator acting from the left skips the series loop; its two terms are
    the series' own, so the coefficients are equal, key for key."""
    for l in range(4):
        for sym in _word_tree_symbols(n, l, max_len=3):
            for gen in GENERATORS:
                for coeff in (1.0, 0.3 - 2.0j):
                    (key,) = generator_symbol(gen).coeffs
                    f = PolyGauss.monomial(key, coeff)
                    _assert_same_symbol(bidifferential_star(f, sym),
                                        _moyal_series(f, sym, *_SERIES_AXES))


def _assert_same_symbol(got, want):
    """The same coefficients in the same key order, and the same exponent."""
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert (got.gaussian, type(got)) == (want.gaussian, type(want))


def test_generator_short_path_matches_the_series_on_random_symbols():
    """Random symbols, with and without the Gaussian, under each generator at
    unit and random complex scale."""
    rng = np.random.default_rng(14)
    for _ in range(40):
        keys = {tuple(int(k) for k in rng.integers(0, 3, size=4)) for _ in range(6)}
        coeffs = {key: complex(*rng.normal(size=2)) for key in keys}
        sym = PolyGauss(coeffs, gaussian=bool(rng.integers(0, 2)))
        for gen in GENERATORS:
            (key,) = generator_symbol(gen).coeffs
            for coeff in (1.0, complex(*rng.normal(size=2))):
                f = PolyGauss.monomial(key, coeff)
                _assert_same_symbol(bidifferential_star(f, sym),
                                    _moyal_series(f, sym, *_SERIES_AXES))


def test_only_a_degree_one_monomial_takes_the_short_path(monkeypatch):
    # the package's star function shadows the star submodule
    star_module = importlib.import_module("landaustar.star")
    calls = []
    series = star_module._moyal_series
    monkeypatch.setattr(star_module, "_moyal_series",
                        lambda *args: calls.append(args[0]) or series(*args))
    g = wigner_symbol(2, 1)
    bidifferential_star(generator_symbol("b"), g)
    assert calls == []
    for f in (PolyGauss({(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 2.0}),   # two monomials
              PolyGauss.monomial((1, 1, 0, 0)),                     # degree two
              PolyGauss.constant(3.0),                              # degree zero
              PolyGauss({(1, 0, 0, 0): 1.0}, gaussian=True)):      # Gaussian f
        calls.clear()
        bidifferential_star(f, generator_symbol("a"))
        assert calls == [f]


def test_batched_symbol_values_equal_each_symbol_alone():
    rng = np.random.default_rng(12)
    a = rng.normal(size=7) + 1j * rng.normal(size=7)
    b = rng.normal(size=7) + 1j * rng.normal(size=7)
    symbols = _word_tree_symbols(2, 3, max_len=2) + [PolyGauss({}, gaussian=True)]
    got = eval_symbols(symbols, a, b)
    assert got.shape == (len(symbols), 7)
    for row, sym in zip(got, symbols):
        assert np.array_equal(row, sym.eval(a, b))
    with pytest.raises(ValueError, match="share one exponent"):
        eval_symbols([wigner_symbol(0, 0), generator_symbol("a")], a, b)


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
            (ladder_vals,) = _fock_point_values([rep], wa, wb)
            oracle_vals = oracle_apply_word(word, wigner_symbol(n, l)).eval(pts_a, pts_b)
            np.testing.assert_allclose(ladder_vals, oracle_vals, rtol=1e-10, atol=1e-12)


def _per_term_values(rep, wa, wb):
    """A rep's values as a sum of per-term tensordot contractions."""
    vals = np.zeros(wa.shape[2], dtype=complex)
    for c, ma, mb in rep.terms:
        vals += (c * np.tensordot(ma, wa, axes=([0, 1], [0, 1]))
                 * np.tensordot(mb, wb, axes=([0, 1], [0, 1])))
    return vals


def test_stacked_point_values_equal_per_term_contractions():
    """One stacked contraction for a loaded cutoff-8 document (one term per
    second-mode slice, 64 here), a one-term state and a zero-term rep."""
    cutoff = 8
    rng = np.random.default_rng(15)
    a, b = (rng.uniform(-1, 1, size=9) + 1j * rng.uniform(-1, 1, size=9) for _ in range(2))
    wa, wb = matrix_unit_values(cutoff, a), matrix_unit_values(cutoff, b)
    label = GeneralizedCoherentLabel(0.4 - 0.3j, 0.2 + 0.5j, WignerLabel(2, 1))
    loaded = fock_from_json_dict(fock_to_json_dict(generalized_coherent_fock(label, cutoff)))
    assert len(loaded.terms) == cutoff ** 2
    reps = [loaded, wigner_fock(WignerLabel(3, 1), cutoff), ProductRep(cutoff, ())]
    got = _fock_point_values(reps, wa, wb)
    assert got.shape == (3, 9)
    # the stacked product may sum each contraction in another order
    for row, rep in zip(got[:2], reps):
        want = _per_term_values(rep, wa, wb)
        assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))
    assert not got[2].any()
    assert _fock_point_values([], wa, wb).shape == (0, 9)


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

def test_trace_diagonal_rule():
    """The integral of f is h^2 tr(f): every Wigner state has trace 1, an
    off-diagonal matrix unit trace 0."""
    assert wigner_fock(WignerLabel(0, 0), 8).trace() == pytest.approx(1.0)
    for n, l in [(1, 0), (4, 6), (6, 6)]:
        assert wigner_fock(WignerLabel(n, l), 8).trace() == pytest.approx(1.0, rel=1e-14)
    assert matrix_unit(0, 1, 0, 0, 4).trace() == 0.0


@pytest.mark.parametrize("hbar", [1e-200, 1.0, 1e200])
def test_trace_property_holds_at_any_units(hbar, monkeypatch):
    """Over the axis units the check compares (2 pi)^2 tr(f*g), so it neither
    overflows nor underflows: it passes, and a trace wrong by 1e-8 fails it."""
    params = PhysParams(hbar=hbar)
    assert checks.check_trace_property(params).passed
    trace = ProductRep.trace
    monkeypatch.setattr(ProductRep, "trace", lambda self: trace(self) * (1.0 + 1e-8))
    result = checks.check_trace_property(params)
    assert not result.passed and result.residual > 1e-9


def test_hermitian_involution():
    rng = np.random.default_rng(12)
    f, g = _random_product(rng, 5), _random_product(rng, 5)
    lhs = star(f, g).conjugate()
    rhs = star(g.conjugate(), f.conjugate())
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)
    # the conjugate of the dense contraction, swapping each mode's row and column
    dense = np.conj(dense_star_contraction(f, g)).transpose(1, 0, 3, 2)
    np.testing.assert_allclose(lhs.coeffs, dense, atol=1e-13)
    # double conjugation is the identity
    np.testing.assert_allclose(f.conjugate().conjugate().coeffs, f.coeffs, atol=0)


def test_associativity_spot():
    rng = np.random.default_rng(13)
    f, g, h = (_random_product(rng, 6) for _ in range(3))
    left = star(star(f, g), h)
    right = star(f, star(g, h))
    scale = float(np.max(np.abs(left.coeffs)))
    np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-13 * max(1.0, scale))
    # and against the dense contraction of f * g with h
    np.testing.assert_allclose(left.coeffs, dense_star_contraction(star(f, g), h),
                               atol=1e-13 * max(1.0, scale))


def random_words(rng, count, max_len=6):
    """Words of every length 0..max_len: mixed, first-mode only and second-mode only."""
    pools = (GENERATORS, ("a", "abar"), ("b", "bbar"))
    out = []
    for k in range(count):
        pool = pools[k % 3]
        length = k % (max_len + 1)
        out.append(tuple(pool[i] for i in rng.integers(0, len(pool), size=length)))
    return out


def random_polynomials(rng, count, terms=3):
    words = random_words(rng, count * terms)
    return [StarPolynomial.from_terms((complex(rng.normal(), rng.normal()), w)
                                      for w in words[i * terms:(i + 1) * terms])
            for i in range(count)]


def expectations(polys, rep):
    """tr(p * rep) for each polynomial p, from the word-pair table."""
    s = StateFunctional(rep, PhysParams())
    return [expectation(p, s) for p in polys]


def assert_traces_match_applied(polys, rep):
    """expectation against the trace of the applied state, 1e-13 relative."""
    for p, value in zip(polys, expectations(polys, rep)):
        want = apply_star_polynomial(p, rep).trace()
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), (p, value, want)


def test_expectations_match_applied_traces_on_multi_term_states():
    rng = np.random.default_rng(17)
    cutoff = 9
    ma, mb = (rng.normal(size=(2, cutoff, cutoff)) + 1j * rng.normal(size=(2, cutoff, cutoff)))
    gen = generalized_coherent_fock(
        GeneralizedCoherentLabel(0.4 - 0.3j, 0.2j, WignerLabel(2, 1)), cutoff)
    reps = [
        ProductRep(cutoff, ((0.3 - 1.2j, ma, mb), (2.0, mb, ma))),
        wigner_fock(WignerLabel(1, 3), cutoff) + (0.5 + 0.5j) * gen.conjugate(),
        apply_star_polynomial(random_polynomials(rng, 1)[0], gen),
    ]
    assert all(len(rep.terms) > 1 for rep in reps)
    for rep in reps:
        assert_traces_match_applied(random_polynomials(rng, 8), rep)


def test_expectations_on_truncated_coherent_states():
    """A truncated state's words cross the cutoff, and both routes keep what they lift."""
    rng = np.random.default_rng(18)
    for label in (CoherentLabel(1.6 + 0.3j, -1.2 + 1.9j),
                  GeneralizedCoherentLabel(1.5 + 0.5j, -1.0j, WignerLabel(3, 2))):
        rep = (coherent_fock(label, 8) if isinstance(label, CoherentLabel)
               else generalized_coherent_fock(label, 8))
        assert rep.overflow
        assert_traces_match_applied(random_polynomials(rng, 8), rep)


def test_expectations_of_words_that_cross_the_cutoff_and_return():
    """Words that lift W(5, 4) past cutoff 6 and back keep their exact traces."""
    rep = wigner_fock(WignerLabel(5, 4), 6)
    want = {("a", "abar"): 6.0, ("a", "a", "abar", "abar"): 42.0, ("b", "bbar"): 5.0,
            ("b", "b", "bbar", "bbar"): 30.0, ("a", "b", "bbar", "abar"): 30.0,
            ("bbar", "b"): 4.0}
    polys = [StarPolynomial(((1.0 + 0j, w),)) for w in want]
    assert_traces_match_applied(polys, rep)
    np.testing.assert_allclose(expectations(polys, rep), list(want.values()), rtol=1e-14)


def test_expectations_of_constants_and_single_words():
    rng = np.random.default_rng(19)
    rep = generalized_coherent_fock(
        GeneralizedCoherentLabel(0.7 + 0.1j, -0.6 + 0.2j, WignerLabel(2, 3)), 12)
    words = random_words(rng, 42)
    assert {len(w) for w in words} == set(range(7))
    polys = [StarPolynomial(), StarPolynomial.constant(2.5 - 1j)]
    polys += [StarPolynomial(((1.0 + 0j, w),)) for w in words]
    assert_traces_match_applied(polys, rep)
    assert expectations(polys[:2], rep) == [0j, (2.5 - 1j) * rep.trace()]


def padded(rep, cutoff):
    """rep with zero rows and columns up to ``cutoff``: the same state, with room
    that no word of the test can leave."""
    width = (0, cutoff - rep.cutoff)
    return ProductRep(cutoff, tuple((c, np.pad(a, width), np.pad(b, width))
                                    for c, a, b in rep.terms), rep.overflow)


def _table_states():
    gen = GeneralizedCoherentLabel(0.7 + 0.1j, -0.6 + 0.2j, WignerLabel(2, 3))
    coherent = CoherentLabel(0.5 - 0.4j, -0.3 + 0.6j)
    states = {}
    for cutoff in (6, 16, 32):
        states[f"wigner-{cutoff}"] = wigner_fock(WignerLabel(2, 3), cutoff)
        states[f"coherent-{cutoff}"] = coherent_fock(coherent, cutoff)
        states[f"gencoherent-{cutoff}"] = generalized_coherent_fock(gen, cutoff)
    states["loaded-8"] = fock_from_json_dict(json.loads(json.dumps(
        fock_to_json_dict(coherent_fock(coherent, 8)))))
    states["flagged-coherent-8"] = coherent_fock(CoherentLabel(1.6 + 0.3j, -1.2 + 1.9j), 8)
    states["wigner-5-5-6"] = wigner_fock(WignerLabel(5, 5), 6)
    return states


TABLE_STATES = _table_states()


def assert_table_matches_applied_words(left, right, rep):
    """Each entry against the trace of the concatenated word applied to rep,
    padded so that no step is cut: 1e-13 relative."""
    table = word_pair_traces(left, right, rep)
    assert table.shape == (len(left), len(right))
    longest = max(len(w) for w in left) + max(len(w) for w in right)
    room = padded(rep, rep.cutoff + longest)
    for i, lw in enumerate(left):
        for j, rw in enumerate(right):
            want = apply_star_polynomial(StarPolynomial(((1.0 + 0j, lw + rw),)), room).trace()
            assert abs(table[i, j] - want) <= 1e-13 * max(1.0, abs(want)), (lw, rw, table[i, j],
                                                                           want)


@pytest.mark.parametrize("name", sorted(TABLE_STATES))
def test_word_pair_table_matches_applied_words(name):
    rep = TABLE_STATES[name]
    rng = np.random.default_rng(sorted(TABLE_STATES).index(name))
    if name == "loaded-8":
        assert len(rep.terms) == 64
    if name.startswith("flagged"):
        assert rep.overflow
    left = [()] + random_words(rng, 6, max_len=3)
    right = random_words(rng, 7, max_len=3)
    assert_table_matches_applied_words(left, right, rep)


def test_word_pair_table_of_words_that_cross_the_cutoff_and_return():
    """On W(5, 5) at cutoff 6, right words raise past the cutoff and left words
    bring the state back; the right word acts first, so a * abar reads n + 1."""
    rep = TABLE_STATES["wigner-5-5-6"]
    left = [(), ("a",), ("a", "a"), ("b", "a"), ("bbar",)]
    right = [(), ("abar",), ("abar", "abar"), ("abar", "bbar"), ("b",)]
    assert_table_matches_applied_words(left, right, rep)
    table = word_pair_traces(left, right, rep)
    assert table[1, 1] == pytest.approx(6.0, rel=1e-14)
    assert table[2, 2] == pytest.approx(42.0, rel=1e-14)
    assert table[3, 3] == pytest.approx(36.0, rel=1e-14)
    assert table[4, 4] == pytest.approx(5.0, rel=1e-14)


def test_word_pair_table_of_no_words():
    rep = TABLE_STATES["wigner-6"]
    assert word_pair_traces([], [()], rep).shape == (0, 1)
    assert word_pair_traces([()], [], rep).shape == (1, 0)
    assert word_pair_traces([()], [()], rep)[0, 0] == rep.trace()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("raising", [False, True])
def test_ladder_step_reads_the_root_table_bit_for_bit(raising, dtype):
    """The root table gives the same bytes as the roots computed per call."""
    star_module = importlib.import_module("landaustar.star")
    rng = np.random.default_rng(22)
    for rows in range(1, 301):
        x = rng.normal(size=(rows, 3)).astype(dtype)
        if dtype is complex:
            x += 1j * rng.normal(size=(rows, 3))
        want = np.zeros((rows + raising, 3), dtype=dtype)
        if raising:
            want[1:] = np.sqrt(np.arange(1.0, rows + 1))[:, None] * x
        else:
            want[:-1] = np.sqrt(np.arange(1.0, rows))[:, None] * x[1:]
        got = star_module._ladder_step(x, raising)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), rows


def test_a_cutoff_128_variance_grows_the_root_table(monkeypatch):
    star_module = importlib.import_module("landaustar.star")
    monkeypatch.setattr(star_module, "_ROOTS", star_module._ROOTS[:8])
    s = StateFunctional(coherent_fock(CoherentLabel(1.9 + 1.9j, 0.5 - 0.3j), 128), PARAMS)
    q1 = coordinate_polynomials(PARAMS)["q1"]
    assert variance(q1, s) == pytest.approx(0.5 * PARAMS.gamma ** 2, rel=1e-12)
    assert len(star_module._ROOTS) >= 129


def test_the_root_table_is_read_only():
    star_module = importlib.import_module("landaustar.star")
    with pytest.raises(ValueError):
        star_module._ROOTS[0] = 2.0
    with pytest.raises(ValueError):
        star_module._roots(4)[1] = 2.0


def _golden_words(rng, count):
    return [tuple(GENERATORS[i] for i in rng.integers(0, 4, size=rng.integers(0, 5)))
            for _ in range(count)]


def _golden_results():
    """Seeded left and right applications and word-pair tables: random products at
    cutoffs 4, 6 and 12 with 1-3 terms, and a Wigner state on the top level of
    its first mode, under polynomials built as written (unsorted, words up to
    length 4 that may repeat)."""
    rng = np.random.default_rng(2900)
    states = []
    for cutoff in (4, 6, 12):
        states += [_random_product(rng, cutoff, terms) for terms in (1, 2, 3)]
        states.append(wigner_fock(WignerLabel(cutoff - 1, cutoff - 2), cutoff))
    for rep in states:
        for _ in range(3):
            poly = StarPolynomial(tuple((complex(rng.normal(), rng.normal()), w)
                                        for w in _golden_words(rng, rng.integers(1, 6))))
            for side in ("left", "right"):
                yield apply_star_polynomial(poly, rep, side)
        yield word_pair_traces([()] + _golden_words(rng, 5), _golden_words(rng, 6), rep)


def test_ladder_words_keep_their_bytes():
    """The bytes of 72 applications, 54 of them flagged, and 12 tables, pinned
    when each side of each word had a walk of its own.  An application is
    hashed as its dense tensor and flag: a term's factors may hold a zero of
    either sign, which every sum over them reads as the same zero."""
    digest, flagged = hashlib.sha256(), 0
    for out in _golden_results():
        if isinstance(out, ProductRep):
            digest.update(out.coeffs.tobytes() + bytes([out.overflow]))
            flagged += out.overflow
        else:
            digest.update(out.tobytes())
    assert flagged == 54
    assert digest.hexdigest() == \
        "8a38cfbbe5b9c6ab65ea946377265ef49eeaedd83811ae52544501c0f7420403"


def _acting(word, mode):
    """A word's letters of one mode ("a" or "b"), in the order they act from the left."""
    return tuple(g for g in reversed(word) if g[0] == mode)


def _distinct_prefixes(sequences):
    return len({seq[:k] for seq in sequences for k in range(1, len(seq) + 1)})


def test_each_distinct_prefix_takes_one_ladder_step_per_term(monkeypatch):
    """The walk that fock queries rely on: words that share how they begin to
    act share those steps, within each mode and each term of the state."""
    star_module = importlib.import_module("landaustar.star")
    steps = []
    step = star_module._ladder_step
    monkeypatch.setattr(star_module, "_ladder_step",
                        lambda x, raising: steps.append(raising) or step(x, raising))
    rep = _random_product(np.random.default_rng(29), 6, 2)
    words = [("a", "abar"), ("b", "a", "abar"), ("abar", "abar"), ("a", "b", "abar"),
             ("bbar", "b"), ("b", "bbar", "b"), (), ("b",)]
    poly = StarPolynomial(tuple((1.0 + 0j, w) for w in words))
    per_term = sum(_distinct_prefixes([_acting(w, m) for w in words]) for m in "ab")
    apply_star_polynomial(poly, rep)
    assert len(steps) == per_term * len(rep.terms) == 6 * 2
    # a right action is the left action of each word's conjugate, whose letters
    # act in the word's own order
    steps.clear()
    apply_star_polynomial(poly, rep, "right")
    per_term = sum(_distinct_prefixes([_acting(w[::-1], m) for w in words]) for m in "ab")
    assert len(steps) == per_term * len(rep.terms) == 9 * 2
    # a table walks every letter of a pair but the last, the right word's first
    steps.clear()
    left, right = words[:5], words[3:]
    word_pair_traces(left, right, rep)
    heads = sum(_distinct_prefixes([(_acting(r, m) + _acting(l, m))[:-1]
                                    for l in left for r in right]) for m in "ab")
    assert len(steps) == heads * len(rep.terms)


def test_ladder_words_refuse_an_unknown_generator():
    rep = wigner_fock(WignerLabel(1, 0), 4)
    poly = StarPolynomial(((1.0 + 0j, ("a", "c")),))
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="unknown generator 'c'"):
            apply_star_polynomial(poly, rep, side)
    with pytest.raises(ValueError, match="unknown generator 'c'"):
        word_pair_traces([()], [("c",)], rep)


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
    got = fock_to_entries(_dense_product(coeffs))
    assert json.dumps(got) == json.dumps(want)


def test_a_dense_tensor_loads_as_its_exact_slices():
    rng = np.random.default_rng(17)
    shape = (5,) * 4
    coeffs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.3)
    coeffs[:, :, 1, 3] = coeffs[:, :, 4, 0] = 0.0
    rep = _dense_product(coeffs)
    # the tensor is kept as read, and the terms, one per nonzero slice, sum to it
    assert rep.coeffs is coeffs and len(rep.terms) == 23 and not rep.overflow
    np.testing.assert_array_equal(ProductRep(5, rep.terms).coeffs, coeffs)
    assert rep.trace() == pytest.approx(np.einsum("iijj->", coeffs), rel=1e-14)


def test_serialization_rejects_bad_docs():
    with pytest.raises(ValueError):
        fock_from_json_dict({"entries": []})
    with pytest.raises(ValueError):
        fock_from_json_dict({"cutoff": 4, "entries": [[0, 0, 0, 0, 1.0]]})
    with pytest.raises(ValueError):
        fock_from_json_dict({"cutoff": 4, "entries": [[0, 0, 0, 9, 1.0, 0.0]]})
    # a misspelt flag is refused by name, not read as an unflagged state
    with pytest.raises(ValueError, match="'overflw'"):
        fock_from_json_dict({"cutoff": 2, "entries": [], "overflw": True})
    # a cutoff past the bound is refused before its tensor is allocated
    for cutoff in (MAX_DOCUMENT_CUTOFF + 1, 1000, 10 ** 30):
        with pytest.raises(ValueError, match=f"from 2 to {MAX_DOCUMENT_CUTOFF}"):
            fock_from_json_dict({"cutoff": cutoff, "entries": []})
    assert fock_from_json_dict({"cutoff": MAX_DOCUMENT_CUTOFF, "entries": []}).terms == ()


def test_a_document_carries_the_overflow_flag():
    flagged = coherent_fock(CoherentLabel(5.0, 0j), 16)
    assert flagged.overflow
    doc = fock_to_json_dict(flagged)
    assert list(doc) == ["cutoff", "entries", "overflow"] and doc["overflow"] is True
    assert fock_from_json_dict(doc).overflow
    exact = coherent_fock(CoherentLabel(0.4 - 0.3j, 0.2 + 0.5j), 16)
    assert not exact.overflow and list(fock_to_json_dict(exact)) == ["cutoff", "entries"]
    assert not fock_from_json_dict(fock_to_json_dict(exact)).overflow


def test_serialization_reads_entries_like_the_per_entry_rule():
    rep = fock_from_json_dict({"cutoff": 2, "entries": [
        [0, 0, 0, 0, 1.0, 0.0], [1, 0, 1, 0, -0.0, 2], [0, 0, 0, 0, -0.0, -3.0]]})
    # a later entry for the same index wins, and signed zeros survive
    assert rep.coeffs[0, 0, 0, 0] == -3j and math.copysign(1.0, rep.coeffs[0, 0, 0, 0].real) < 0
    assert rep.coeffs[1, 0, 1, 0] == 2j and math.copysign(1.0, rep.coeffs[1, 0, 1, 0].real) < 0
    good = [[1, 1, 0, 1, 0.5, -0.25]] * 40
    later = [[0, 0, 0, 7, 1.0, 0.0]]  # also bad, but after the first bad entry
    for bad, message in (
            ([True, 0, 0, 0, 1.0, 0.0], "malformed entry at position 40: [True, 0, 0, 0, 1.0, 0.0]"),
            ([0, 0, 0, 0, 1.0, False], "malformed entry at position 40"),
            ([0, 0, 0, 0, float("inf"), 0.0], "malformed entry at position 40"),
            ([0, 0, 0, 0, 10 ** 400, 0], "malformed entry at position 40"),
            ([0, 0, 1.0, 0, 1.0, 0.0], "malformed entry at position 40"),
            ([0, 0, 0, 0, "1", 0], "malformed entry at position 40"),
            ([0, 0, 0, 0, 1.0], "malformed entry at position 40"),
            (None, "malformed entry at position 40: None"),
            ([0, 2, 0, 0, 1.0, 0.0], "entry index out of range at position 40: [0, 2, 0, 0]"),
            ([0, 0, -1, 0, 1.0, 0.0], "entry index out of range at position 40: [0, 0, -1, 0]"),
            ([0, 0, 0, 2 ** 70, 1.0, 0.0], "entry index out of range at position 40")):
        with pytest.raises(ValueError) as err:
            fock_from_json_dict({"cutoff": 2, "entries": good + [bad] + later})
        assert str(err.value).startswith(message)


def test_displacement_matrix_routes_agree():
    rng = np.random.default_rng(14)
    for _ in range(3):
        alpha = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        via_expm = displacement_matrix(alpha, 32)
        closed = displacement_matrix_closed(alpha, 32)
        assert float(np.max(np.abs(via_expm[:9, :9] - closed[:9, :9]))) <= 1e-9


def test_displacement_checks_read_the_closed_form(monkeypatch):
    """Unitarity and conjugation were checked on expm, whose exponential of an
    anti-Hermitian matrix is unitary whatever the closed form computes; a 1e-8
    error on the diagonal of the closed form fails both."""
    params = PhysParams()
    runs = (checks.check_displacement_unitarity, checks.check_displacement_conjugation)
    assert all(run(params).residual < 1e-13 for run in runs)
    closed = checks.displacement_matrix_closed
    monkeypatch.setattr(checks, "displacement_matrix_closed",
                        lambda alpha, cutoff: closed(alpha, cutoff) + 1e-8 * np.eye(cutoff))
    assert not any(run(params).passed for run in runs)


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


@pytest.mark.parametrize("cutoff", [2, 8, 24, 64])
@pytest.mark.parametrize("alpha", [0.0, 0.7 - 0.2j, 5.0, 1e3])
def test_displacement_column_is_the_matrix_column(cutoff, alpha):
    closed = displacement_matrix_closed(alpha, cutoff)
    for k in range(cutoff):
        col = displacement_column_closed(alpha, k, cutoff)
        assert col.shape == (cutoff,)
        assert np.array_equal(col, closed[:, k])
    alphas = np.array([[alpha, 1.1j], [-0.4, 2.0]])
    assert np.array_equal(displacement_column_closed(alphas, cutoff - 1, cutoff),
                          displacement_matrix_closed(alphas, cutoff)[:, cutoff - 1])
    with pytest.raises(ValueError):
        displacement_column_closed(alpha, cutoff, cutoff)


@pytest.mark.parametrize("terms", [3, 9, 27])
def test_dense_matrix_product_equals_coeffs(terms):
    rng = np.random.default_rng(terms)
    rep = _random_product(rng, 12, terms)
    dense = _dense(rep)
    assert dense.shape == (12,) * 4
    assert float(np.max(np.abs(dense - rep.coeffs))) <= 1e-15 * float(np.max(np.abs(rep.coeffs)))


def test_associativity_catches_an_extra_term(monkeypatch):
    """A star product with one extra term of relative size 1e-10 fails the check."""
    assert checks.check_associativity(PhysParams(), triples=3).passed

    def perturbed(f, g):
        out = star(f, g)
        c, a, b = out.terms[0]
        return ProductRep(out.cutoff, out.terms + ((1e-10 * c, a, b),), out.overflow)

    monkeypatch.setattr(checks, "star", perturbed)
    assert not checks.check_associativity(PhysParams(), triples=3).passed


@pytest.mark.parametrize("gen", GENERATORS)
def test_oracle_equivalence_catches_a_ladder_error(monkeypatch, gen):
    """One generator's ladder action off by 1e-9 relative fails the check."""
    small = dict(nmax=1, max_len=2)
    assert checks.check_oracle_equivalence(PhysParams(), **small).passed
    monkeypatch.setattr(checks, "left_star_generator",
                        lambda g, rep: (1.0 + 1e-9 * (g == gen)) * left_star_generator(g, rep))
    assert not checks.check_oracle_equivalence(PhysParams(), **small).passed


def test_anti_bracket_on_polynomials():
    anti = A * ABAR + ABAR * A
    nf = anti.normal_form()
    # a*abar + abar*a = 2 abar a + 1
    assert nf == {(0, 0, 0, 0): pytest.approx(1.0 + 0j),
                  (1, 1, 0, 0): pytest.approx(2.0 + 0j)}
