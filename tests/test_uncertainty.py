import itertools
import json

import numpy as np
import pytest

from landaustar import checks, uncertainty
from landaustar.checks import check_uncertainty_lower_bound, uncertainty_table_checks
from landaustar.marginals import AXES, _mixture_weights, axis_scale
from landaustar.phase_space import PhasePoint, PhysParams, to_mode_coords
from landaustar.star import (
    ProductRep,
    StarPolynomial,
    apply_star_polynomial,
    fock_from_json_dict,
    fock_to_json_dict,
)
from landaustar.states import (
    CoherentLabel,
    GeneralizedCoherentLabel,
    WignerLabel,
    coherent_fock,
    displaced_polynomial,
    fock_values,
    generalized_coherent_fock,
    parse_state_label,
    state_fock,
    wigner_fock,
)
from landaustar.uncertainty import (
    StateFunctional,
    angular_momentum_polynomial,
    axis_polynomials,
    coordinate_moment,
    coordinate_polynomials,
    displaced_power_residuals,
    expectation,
    hamiltonian_polynomial,
    inner_product,
    robertson_schrodinger_slack,
    second_moment,
    uncertainty_product,
    variance,
)

PARAMS = PhysParams()
HBAR = PARAMS.hbar
A = StarPolynomial.generator("a")
ABAR = StarPolynomial.generator("abar")
BBAR = StarPolynomial.generator("bbar")


def wigner_functional(n, l, cutoff=12):
    return StateFunctional(wigner_fock(WignerLabel(n, l), cutoff), PARAMS)


def test_expectation_of_unity_and_energy():
    for n, l in [(0, 0), (2, 1), (4, 3)]:
        s = wigner_functional(n, l)
        assert expectation(StarPolynomial.constant(1.0), s) == pytest.approx(1.0)
        e = expectation(hamiltonian_polynomial(PARAMS), s)
        assert e == pytest.approx(HBAR * PARAMS.omega * (n + 0.5), rel=1e-13)
        j = expectation(angular_momentum_polynomial(PARAMS), s)
        assert j == pytest.approx(HBAR * (l - n), abs=1e-13)


def test_expectation_in_coherent_state():
    label = CoherentLabel(0.7 - 0.3j, -0.2 + 0.4j)
    s = StateFunctional(coherent_fock(label, 24), PARAMS)
    assert expectation(A, s) == pytest.approx(label.alpha1, abs=1e-11)
    assert expectation(StarPolynomial.generator("b"), s) == pytest.approx(
        label.alpha2, abs=1e-11)
    assert expectation(ABAR, s) == pytest.approx(np.conj(label.alpha1), abs=1e-11)


def _evaluate(poly, values):
    """The pointwise value of a star polynomial's terms at the given generator values."""
    total = 0j
    for coef, word in poly.terms:
        term = coef
        for gen in word:
            term *= values[gen]
        total += term
    return total


def test_coordinate_dictionary_matches_pointwise_map():
    """The generator expansion of each coordinate evaluates to the coordinate, and
    that of each axis polynomial to (q/gamma, p gamma/hbar), at any hbar."""
    rng = np.random.default_rng(41)
    for hbar in (1e-200, 1.0, 1e200):
        params = PhysParams(hbar=hbar)
        physical, unit_free = coordinate_polynomials(params), axis_polynomials()
        scales = {axis: axis_scale(axis, params) for axis in AXES}
        for _ in range(20):
            pt = PhasePoint(**{axis: scales[axis] * rng.uniform(-2, 2) for axis in AXES})
            mc = to_mode_coords(pt, params)
            values = {"a": mc.a, "abar": mc.a.conjugate(), "b": mc.b, "bbar": mc.b.conjugate()}
            for axis in AXES:
                x, scale = getattr(pt, axis), scales[axis]
                total = _evaluate(physical[axis], values)
                assert total.real == pytest.approx(x, rel=1e-12, abs=1e-13 * scale)
                assert abs(total.imag) <= 1e-13 * scale
                total = _evaluate(unit_free[axis], values)
                assert total.real == pytest.approx(x / scale, rel=1e-12, abs=1e-13)
                assert abs(total.imag) <= 1e-13


def test_coordinate_polynomials_are_real_observables():
    for poly in (*coordinate_polynomials(PARAMS).values(), *axis_polynomials().values()):
        assert poly.is_real_observable()


def test_second_moments_closed_form():
    """In axis units every coordinate has the second moment (n + l + 1)/2."""
    for n, l in [(0, 0), (1, 2), (3, 3), (6, 0)]:
        assert coordinate_moment(2, WignerLabel(n, l)) == pytest.approx(
            0.5 * (n + l + 1), rel=1e-12)


def test_odd_moments_vanish_exactly():
    assert coordinate_moment(1, WignerLabel(2, 1)) == 0.0
    assert coordinate_moment(3, WignerLabel(1, 1)) == 0.0


def test_moment_routes_agree():
    coords = axis_polynomials()
    for n, l in [(0, 0), (2, 1)]:
        s = wigner_functional(n, l)
        quad_route = coordinate_moment(2, WignerLabel(n, l))
        for axis in AXES:
            trace_route = inner_product(coords[axis], coords[axis], s).real
            assert trace_route == pytest.approx(quad_route, rel=1e-9)


def test_inner_product_identities():
    one = StarPolynomial.constant(1.0)
    for n, l in [(0, 0), (3, 1)]:
        s = wigner_functional(n, l)
        assert inner_product(A, A, s) == pytest.approx(n, abs=1e-13)
        assert inner_product(one, one, s) == pytest.approx(1.0)
    # conjugate symmetry
    s = wigner_functional(2, 2)
    f = (0.5 + 1j) * A * BBAR + ABAR
    g = 2.0 * StarPolynomial.generator("b") - 1j * A
    assert inner_product(f, g, s) == pytest.approx(np.conj(inner_product(g, f, s)))


def test_cbs_inequality_random():
    rng = np.random.default_rng(42)
    gens = ("a", "abar", "b", "bbar")
    for _ in range(100):
        n, l = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        s = wigner_functional(n, l, cutoff=10)
        polys = []
        for _ in range(2):
            terms = []
            for _ in range(2):
                length = int(rng.integers(0, 4))
                word = tuple(gens[i] for i in rng.integers(0, 4, size=length))
                terms.append((complex(rng.normal(), rng.normal()), word))
            polys.append(StarPolynomial.from_terms(terms))
        f, g = polys
        slack = (inner_product(f, f, s).real * inner_product(g, g, s).real
                 - abs(inner_product(f, g, s)) ** 2)
        assert slack >= -1e-10


def test_uncertainty_products():
    assert uncertainty_product(0, 0, 1, PARAMS) == pytest.approx(0.5 * HBAR, rel=1e-12)
    assert uncertainty_product(1, 2, 1, PARAMS) == pytest.approx(2.0 * HBAR, rel=1e-12)
    assert uncertainty_product(1, 2, 2, PARAMS) == pytest.approx(2.0 * HBAR, rel=1e-12)
    assert uncertainty_product(2, 1, 1, PARAMS) == pytest.approx(
        uncertainty_product(1, 2, 1, PARAMS), rel=1e-12)
    with pytest.raises(ValueError):
        uncertainty_product(0, 0, 3, PARAMS)


def test_uncertainty_products_other_units():
    params = PhysParams(hbar=0.5, mass=2.0, omega=3.0)
    for n, l in [(0, 0), (2, 2)]:
        got = uncertainty_product(n, l, 1, params)
        assert got == pytest.approx(0.5 * params.hbar * (n + l + 1), rel=1e-10)


def test_robertson_schrodinger_ground_state_saturates():
    coords = coordinate_polynomials(PARAMS)
    s = wigner_functional(0, 0, cutoff=8)
    slack = robertson_schrodinger_slack(coords["q1"], coords["p1"], s)
    assert abs(slack) <= 1e-10


def test_robertson_schrodinger_known_slack():
    coords = coordinate_polynomials(PARAMS)
    s = wigner_functional(1, 1, cutoff=8)
    slack = robertson_schrodinger_slack(coords["q1"], coords["p1"], s)
    assert slack == pytest.approx(2.0 * HBAR ** 2, rel=1e-10)


def test_robertson_schrodinger_equal_observables():
    coords = coordinate_polynomials(PARAMS)
    s = wigner_functional(2, 1, cutoff=8)
    slack = robertson_schrodinger_slack(coords["q1"], coords["q1"], s)
    assert abs(slack) <= 1e-10


def test_robertson_schrodinger_slack_refuses_to_overflow():
    """The slack of physical q1, p1 is about hbar^2: at hbar = 1e200 it is out of
    range, and raises instead of an OverflowError; in axis units it is 2."""
    params = PhysParams(hbar=1e200)
    coords = coordinate_polynomials(params)
    s = StateFunctional(wigner_fock(WignerLabel(1, 1), 8), params)
    with pytest.raises(ValueError, match="overflows in these units"):
        robertson_schrodinger_slack(coords["q1"], coords["p1"], s)
    u = axis_polynomials()
    assert robertson_schrodinger_slack(u["q1"], u["p1"], s) == pytest.approx(2.0, rel=1e-12)


def test_robertson_schrodinger_rejects_complex_observable():
    s = wigner_functional(0, 0, cutoff=6)
    with pytest.raises(ValueError):
        robertson_schrodinger_slack(A, A, s)


def test_robertson_schrodinger_takes_a_real_observable_in_any_term_order():
    """(bbar + b)/2 with its terms in this order was refused as not real-valued."""
    s = wigner_functional(2, 1, cutoff=8)
    f = StarPolynomial(((0.5, ("bbar",)), (0.5, ("b",))))
    q1 = axis_polynomials()["q1"]
    want = robertson_schrodinger_slack(StarPolynomial.from_terms(f.terms), q1, s)
    assert robertson_schrodinger_slack(f, q1, s) == pytest.approx(want, rel=1e-14)


# the coherent state of the scaled-observable cases: <u1> = -1.8, <u2> = 0.1
SCALED_LABEL = CoherentLabel(1.4 + 2.7j, -1.3 + 0.9j)


@pytest.mark.parametrize("k", [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6])
def test_robertson_schrodinger_slack_of_scaled_observables(k):
    """k u1 and k u2 commute and each has variance k^2/2 on a coherent state, so
    the slack is k^4/4; the guards scale with the sums they test, not with 1."""
    s = StateFunctional(coherent_fock(SCALED_LABEL, 64), PARAMS)
    u = axis_polynomials()
    got = robertson_schrodinger_slack(k * u["q1"], k * u["q2"], s)
    assert got == pytest.approx(0.25 * k ** 4, rel=1e-12)


def test_robertson_schrodinger_slack_of_physical_coordinates_at_large_hbar():
    params = PhysParams(hbar=1e4)
    coords = coordinate_polynomials(params)
    s = StateFunctional(coherent_fock(SCALED_LABEL, 64), params)
    got = robertson_schrodinger_slack(coords["q1"], coords["q2"], s)
    assert got == pytest.approx(params.hbar ** 2, rel=1e-12)


@pytest.mark.parametrize("k", [1.0, 100.0])
def test_robertson_schrodinger_slack_when_the_moments_cancel(k):
    """With Im alpha1 = Im alpha2, <u1> = 0 and <u1 u2> = 0: both are sums that
    cancel to rounding, so a guard relative to them alone would raise."""
    s = StateFunctional(coherent_fock(CoherentLabel(1.4 + 0.9j, -1.3 + 0.9j), 64), PARAMS)
    u = axis_polynomials()
    got = robertson_schrodinger_slack(k * u["q1"], k * u["q2"], s)
    assert got == pytest.approx(0.25 * k ** 4, rel=1e-12)


def _stray_table(monkeypatch, f, g, delta_fg, delta_gf):
    """Make the slack's table add delta_fg to <f g> and delta_gf to <g f>, and
    nothing to the means, <f f> or <g g>."""
    words = uncertainty._word_positions(f, g)
    vf, vg = uncertainty._coefficients(f, words), uncertainty._coefficients(g, words)
    rows = np.array([vf, vg])
    p = np.linalg.lstsq(rows, np.array([1.0, 0.0]), rcond=None)[0]  # vf.p = 1, vg.p = 0
    q = np.linalg.lstsq(rows, np.array([0.0, 1.0]), rcond=None)[0]  # vf.q = 0, vg.q = 1
    table = uncertainty.word_pair_traces

    def stray(left, right, rep):
        out = table(left, right, rep)
        out[1:] += delta_fg * np.outer(p, q) + delta_gf * np.outer(q, p)
        return out

    monkeypatch.setattr(uncertainty, "word_pair_traces", stray)


def test_robertson_schrodinger_slack_refuses_a_stray_part(monkeypatch):
    s = StateFunctional(coherent_fock(SCALED_LABEL, 64), PARAMS)
    u = axis_polynomials()
    f, g = 100.0 * u["q1"], 100.0 * u["q2"]
    fg, gf = expectation(f * g, s), expectation(g * f, s)
    with monkeypatch.context() as m:
        _stray_table(m, f, g, 1e-15 * abs(fg), 0.0)
        assert robertson_schrodinger_slack(f, g, s) == pytest.approx(2.5e7, rel=1e-12)
    with monkeypatch.context() as m:
        _stray_table(m, f, g, 1e-9 * abs(fg), 0.0)
        with pytest.raises(ValueError, match="bracket mean not purely imaginary"):
            robertson_schrodinger_slack(f, g, s)
    with monkeypatch.context() as m:
        stray = 1e-9j * (abs(fg) + abs(gf))
        _stray_table(m, f, g, stray, stray)
        with pytest.raises(ValueError, match="anti-bracket mean not purely real"):
            robertson_schrodinger_slack(f, g, s)


def product_polynomial_answers(f, g, rep):
    """The four queries as traces of product polynomials, the route before the
    word-pair table: expectation, inner product and variance of f, and the RS
    slack of (f, g) with its scale |<f f>| |<g g>|, which its rounding follows
    when the variances cancel."""
    fbar, s = f.conjugate(), StateFunctional(rep, PARAMS)
    mean_f, mean_g, fg, gf, ff, gg, inner, fbar_f, mean_fbar = (
        expectation(p, s) for p in (f, g, f * g, g * f, f * f, g * g, fbar * g, fbar * f, fbar))
    variances = (ff - mean_f * mean_f).real * (gg - mean_g * mean_g).real
    slack = variances - 0.25 * ((fg - gf).imag ** 2 + (fg + gf - 2.0 * mean_f * mean_g).real ** 2)
    return mean_f, inner, (fbar_f - mean_f * mean_fbar).real, slack, abs(ff) * abs(gg)


@pytest.mark.parametrize("cutoff", [6, 16, 32])
@pytest.mark.parametrize("label", ["wigner:2,3", "coherent:0.5,-0.4,-0.3,0.6",
                                   "gencoherent:2,3:0.7,0.1,-0.6,0.2"])
def test_queries_match_the_product_polynomial_route(label, cutoff):
    rep = state_fock(parse_state_label(label), cutoff)
    assert_queries_match_product_polynomials(rep, np.random.default_rng(cutoff))


@pytest.mark.parametrize("name", ["loaded-8", "flagged-coherent-8"])
def test_queries_match_the_product_polynomial_route_on_other_states(name):
    if name == "loaded-8":
        source = coherent_fock(CoherentLabel(0.5 - 0.4j, -0.3 + 0.6j), 8)
        rep = fock_from_json_dict(json.loads(json.dumps(fock_to_json_dict(source))))
        assert len(rep.terms) == 64
    else:
        rep = coherent_fock(CoherentLabel(1.6 + 0.3j, -1.2 + 1.9j), 8)
        assert rep.overflow
    assert_queries_match_product_polynomials(rep, np.random.default_rng(8))


def assert_queries_match_product_polynomials(rep, rng):
    s = StateFunctional(rep, PARAMS)
    coords = coordinate_polynomials(PARAMS)
    pairs = [(coords["q1"], coords["p1"]), (coords["q2"], coords["p2"])]
    pairs += [(checks._random_real_observable(rng), checks._random_real_observable(rng))
              for _ in range(3)]
    for f, g in pairs:
        mean, inner, var, slack, scale = product_polynomial_answers(f, g, rep)
        assert abs(expectation(f, s) - mean) <= 1e-12 * max(1.0, abs(mean))
        assert abs(inner_product(f, g, s) - inner) <= 1e-12 * max(1.0, abs(inner))
        assert abs(variance(f, s) - var) <= 1e-12 * max(1.0, abs(var))
        assert abs(robertson_schrodinger_slack(f, g, s) - slack) <= 1e-12 * max(1.0, scale)
    # observables that are not real: the inner product and variance take conj(f)
    for _ in range(3):
        f, g = (checks._random_star_polynomial(rng) for _ in range(2))
        mean, inner, var, _, _ = product_polynomial_answers(f, g, rep)
        assert abs(expectation(f, s) - mean) <= 1e-12 * max(1.0, abs(mean))
        assert abs(inner_product(f, g, s) - inner) <= 1e-12 * max(1.0, abs(inner))
        assert abs(variance(f, s) - var) <= 1e-12 * max(1.0, abs(var))


def test_semidefiniteness_and_kernel():
    s = wigner_functional(2, 1, cutoff=8)
    rng = np.random.default_rng(43)
    gens = ("a", "abar", "b", "bbar")
    for _ in range(50):
        length = int(rng.integers(0, 4))
        word = tuple(gens[i] for i in rng.integers(0, 4, size=length))
        f = StarPolynomial.from_terms([(complex(rng.normal(), rng.normal()), word)])
        assert inner_product(f, f, s).real >= -1e-12
    # the kernel is nontrivial: a^(n+1) annihilates the state
    f = StarPolynomial(((1.0 + 0j, ("a", "a", "a")),))
    assert abs(inner_product(f, f, s)) == 0.0
    assert abs(expectation(f, s)) == 0.0


def test_generalized_power_theorem_examples():
    label = GeneralizedCoherentLabel(0.5 + 0j, -0.3j, WignerLabel(1, 1))
    ((residual,),) = displaced_power_residuals([A], 1, label, cutoff=16)
    assert residual <= 1e-10
    label2 = GeneralizedCoherentLabel(0.5 + 0j, -0.3j, WignerLabel(2, 1))
    f = ABAR * A
    ((residual,),) = displaced_power_residuals([f], 1, label2, cutoff=16)
    assert residual <= 1e-9
    const = StarPolynomial.constant(2.5)
    ((_, residual),) = displaced_power_residuals([const], 2, label, cutoff=16)
    assert residual <= 1e-12


def test_power_residuals_equal_each_power_computed_alone():
    """Each power from the one before gives the residual of k fresh applications."""
    label = GeneralizedCoherentLabel(0.4 - 0.2j, 0.3 + 0.5j, WignerLabel(2, 1))
    observables = [A, ABAR * A, BBAR * A]
    rows = displaced_power_residuals(observables, 3, label, cutoff=10)
    for f, row in zip(observables, rows):
        shifted = displaced_polynomial(f, label.alpha1, label.alpha2)
        want = []
        for k in (1, 2, 3):
            lhs = generalized_coherent_fock(label, 10)
            rhs = wigner_fock(label.base, 10)
            for _ in range(k):
                lhs = apply_star_polynomial(f, lhs)
                rhs = apply_star_polynomial(shifted, rhs)
            want.append(abs(lhs.trace() - rhs.trace()))
        assert row == want


def test_power_theorem_check_catches_a_ladder_error(monkeypatch):
    """Applications of the observable itself, not of its displaced form, off by
    1e-9 relative: the two sides of the theorem then disagree, and the check fails."""
    assert all(r.passed for r in checks.check_generalized_power_theorem(PARAMS))
    apply = uncertainty.apply_star_polynomial

    def scaled(poly, rep, side="left"):
        out = apply(poly, rep, side)
        # a displaced observable has a constant word; the observables have none
        return out if () in (w for _, w in poly.terms) else (1.0 + 1e-9) * out

    monkeypatch.setattr(uncertainty, "apply_star_polynomial", scaled)
    assert not all(r.passed for r in checks.check_generalized_power_theorem(PARAMS))


def test_generalized_variance_matches_base():
    coords = coordinate_polynomials(PARAMS)
    base = wigner_functional(2, 1, cutoff=24)
    want = variance(coords["q1"], base)
    from landaustar.states import generalized_coherent_fock

    label = GeneralizedCoherentLabel(0.8 - 0.2j, 0.5j, WignerLabel(2, 1))
    s = StateFunctional(generalized_coherent_fock(label, 24), PARAMS)
    assert variance(coords["q1"], s) == pytest.approx(want, abs=1e-9)


def applied_references(f, g, state):
    """expectation, inner_product and rs slack from applied states, the route before
    per-mode word traces: f * (g * state) and its trace."""
    fs, gs = apply_star_polynomial(f, state), apply_star_polynomial(g, state)
    mean_f, mean_g = fs.trace(), gs.trace()
    fg = apply_star_polynomial(f, gs).trace()
    gf = apply_star_polynomial(g, fs).trace()
    var_f = (apply_star_polynomial(f, fs).trace() - mean_f * mean_f).real
    var_g = (apply_star_polynomial(g, gs).trace() - mean_g * mean_g).real
    slack = var_f * var_g - 0.25 * ((fg - gf).imag ** 2 + (fg + gf - 2 * mean_f * mean_g).real ** 2)
    inner = apply_star_polynomial(f.conjugate(), gs).trace()
    return mean_f, inner, slack


def padded(rep, cutoff):
    """rep with zero rows and columns up to ``cutoff``: the same state, with room
    that no word of the queries can leave."""
    width = (0, cutoff - rep.cutoff)
    return ProductRep(cutoff, tuple((c, np.pad(a, width), np.pad(b, width))
                                    for c, a, b in rep.terms), rep.overflow)


@pytest.mark.parametrize("label", [
    WignerLabel(2, 3),
    CoherentLabel(1.6 + 0.3j, -1.2 + 1.9j),  # truncated at cutoff 12
    GeneralizedCoherentLabel(0.5j, -0.4, WignerLabel(1, 2)),
])
def test_queries_match_applied_state_traces(label):
    rng = np.random.default_rng(47)
    rep = state_fock(label, 12)
    s = StateFunctional(rep, PARAMS)
    coords = coordinate_polynomials(PARAMS)
    pairs = [(coords["q1"], coords["p1"]), (coords["q2"] * coords["p2"] + coords["p2"] * coords["q2"],
                                            coords["q1"])]
    for _ in range(3):
        f, g = (checks._random_real_observable(rng) for _ in range(2))
        pairs.append((f, g))
    for f, g in pairs:
        # two nested applications lift a state at most two words' lengths
        longest = max(len(word) for poly in (f, g) for _, word in poly.terms)
        mean, inner, slack = applied_references(f, g, padded(rep, 12 + 2 * longest))
        assert abs(expectation(f, s) - mean) <= 1e-13 * max(1.0, abs(mean))
        assert abs(inner_product(f, g, s) - inner) <= 1e-13 * max(1.0, abs(inner))
        got = robertson_schrodinger_slack(f, g, s)
        assert abs(got - slack) <= 1e-12 * max(1.0, abs(slack))


def test_queries_on_a_filled_top_row_are_exact():
    """Words that lift the (5, 5) state past cutoff 6 and bring it back lose
    nothing: each axis variance is (n + l + 1)/2 and <a * abar> is n + 1."""
    s = wigner_functional(5, 5, cutoff=6)
    for axis, poly in axis_polynomials().items():
        assert variance(poly, s) == pytest.approx(5.5, rel=1e-14), axis
    assert expectation(A * ABAR, s) == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize("cutoff", [8, 16])
@pytest.mark.parametrize("label", ["wigner:3,2", "coherent:0.4,-0.3,0.2,0.5",
                                   "gencoherent:2,1:0.4,-0.3,0.2,0.5"])
def test_a_reloaded_state_answers_like_its_source(label, cutoff):
    """A state document read back is the same state: every query agrees."""
    rep = state_fock(parse_state_label(label), cutoff)
    loaded = fock_from_json_dict(json.loads(json.dumps(fock_to_json_dict(rep))))
    coords = coordinate_polynomials(PARAMS)
    f = coords["q1"] * coords["p2"] + coords["p2"] * coords["q1"]
    g = ABAR * A * BBAR

    def answers(state):
        s = StateFunctional(state, PARAMS)
        return [expectation(f, s), expectation(g, s), variance(f, s), variance(coords["p1"], s),
                robertson_schrodinger_slack(coords["q1"], coords["p1"], s),
                robertson_schrodinger_slack(f, coords["q2"], s), state.trace()]

    for want, got in zip(answers(rep), answers(loaded)):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    rng = np.random.default_rng(cutoff)
    a, b = (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12) for _ in range(2))
    np.testing.assert_allclose(fock_values(loaded, a, b), fock_values(rep, a, b),
                               rtol=0, atol=1e-12)


def test_expectation_of_a_constant():
    s = wigner_functional(1, 0, cutoff=8)
    assert expectation(StarPolynomial.constant(2.0), s) == pytest.approx(2.0)


def test_overflow_propagates_through_expectation():
    s = StateFunctional(wigner_fock(WignerLabel(2, 0), 4), PARAMS)
    poly = ABAR * ABAR  # raises past the cutoff
    rep = apply_star_polynomial(poly, s.state)
    assert rep.overflow


@pytest.mark.parametrize("label", [
    WignerLabel(2, 3),
    CoherentLabel(0.7 - 0.3j, -0.2 + 0.4j),
    GeneralizedCoherentLabel(0.5j, -0.4, WignerLabel(1, 2)),
])
def test_queries_on_product_states_build_no_dense_tensor(label):
    rep = state_fock(label, 16)
    s = StateFunctional(rep, PARAMS)
    coords = coordinate_polynomials(PARAMS)
    expectation(coords["q1"] * coords["p2"], s)
    variance(coords["q2"], s)
    robertson_schrodinger_slack(coords["q1"], coords["p1"], s)
    fock_values(rep, np.array([0.1, -0.3j]), np.array([0.2 + 0.1j, 0.0]))
    assert "coeffs" not in rep.__dict__


def test_coherent_state_at_cutoff_128():
    """|alpha| ~ 2.7 needs no truncation here; the dense tensor would take 4 GiB."""
    label = CoherentLabel(1.9 + 1.9j, 0.5 - 0.3j)
    rep = coherent_fock(label, 128)
    assert not rep.overflow
    s = StateFunctional(rep, PARAMS)
    coords = coordinate_polynomials(PARAMS)
    assert variance(coords["q1"], s) == pytest.approx(0.5 * PARAMS.gamma ** 2, abs=1e-12)
    assert robertson_schrodinger_slack(coords["q1"], coords["p1"], s) == pytest.approx(
        0.0, abs=1e-12)
    assert "coeffs" not in rep.__dict__


@pytest.mark.parametrize("hbar", [1e-200, 1e200])
def test_uncertainty_checks_at_extreme_hbar(hbar):
    """var_q * var_p underflowed at hbar = 1e-200 and failed all 49 product checks."""
    params = PhysParams(hbar=hbar)
    results = uncertainty_table_checks(params) + [check_uncertainty_lower_bound(params)]
    assert [r.name for r in results if not r.passed] == []


def test_second_moment_is_the_closed_form_up_to_150():
    for n, l in [(0, 0), (3, 1), (40, 7), (100, 100), (150, 150)]:
        assert second_moment(n, l) == pytest.approx(0.5 * (n + l + 1), rel=1e-14)
        # the moment of the 1D shape's mixture, sum_k w_k (k + 1/2)
        weights = _mixture_weights(n, l) @ (np.arange(n + l + 1) + 0.5)
        assert weights == pytest.approx(second_moment(n, l), rel=1e-14)
    assert second_moment(0, 0) == 0.5
    assert second_moment(150, 150) == 150.5
    with pytest.raises(ValueError):
        second_moment(151, 0)


@pytest.mark.parametrize("hbar", [1e-200, 1.0, 1e200])
def test_moment_route_check_catches_a_wrong_moment_at_any_units(monkeypatch, hbar):
    """The residual is relative in axis units: a floor of 1 hid any error at small hbar."""
    params = PhysParams(hbar=hbar)
    result = checks.check_moment_route_agreement(params)
    assert result.passed and result.residual < 1e-13
    monkeypatch.setattr(checks, "second_moment", lambda n, l: 0.5 * (n + l + 1) * (1 + 1e-8))
    assert not checks.check_moment_route_agreement(params).passed


def _scaled_after(fn, factor, exact_calls):
    """fn with every result after its first ``exact_calls`` calls multiplied by factor."""
    calls = itertools.count()
    return lambda *args: (1.0 if next(calls) < exact_calls else factor) * fn(*args)


# each check whose residual is stated in axis units, the quantity it reads (a name in
# the checks module), the 1e-8 error put into it, and how many first calls stay exact
# where the check compares values against the first one
AXIS_UNIT_CHECKS = [
    ("check_energy_eigenvalues", "hamiltonian_polynomial", 1 + 1e-8, 0),
    ("check_angular_momentum_eigenvalues", "angular_momentum_polynomial", 1 + 1e-8, 0),
    ("check_canonical_classical_limit", "moyal_bracket", 1 + 1e-8, 0),
    ("check_uncertainty_lower_bound", "uncertainty_product", 1 - 1e-8, 0),
    ("check_rs_known_slack", "robertson_schrodinger_slack", 1 + 1e-8, 0),
    ("check_coherent_moments", "expectation", 1 + 1e-8, 0),
    ("check_coherent_min_uncertainty", "variance", 1 + 1e-8, 0),
    ("check_coherent_variance_independence", "variance", 1 + 1e-8, 1),
    ("check_generalized_variance_invariance", "variance", 1 + 1e-8, 1),
]


@pytest.mark.parametrize("hbar", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("check, quantity, factor, exact_calls", AXIS_UNIT_CHECKS,
                         ids=[row[0] for row in AXIS_UNIT_CHECKS])
def test_axis_unit_checks_catch_a_1e8_error_at_any_units(monkeypatch, check, quantity,
                                                         factor, exact_calls, hbar):
    """Residuals in physical units passed a 1e-8 error at hbar = 1e-200 (the
    product underflowed, or the residual was ~1e-208 against 1e-9) and overflowed
    at 1e200; in axis units each check passes and catches the error at every unit."""
    params = PhysParams(hbar=hbar)
    run = getattr(checks, check)
    assert run(params).passed
    monkeypatch.setattr(checks, quantity,
                        _scaled_after(getattr(checks, quantity), factor, exact_calls))
    assert not run(params).passed


def test_rs_known_slack_reads_the_covariance_term(monkeypatch):
    """A slack without its covariance term passed while the check read only
    (q1, p1), whose covariance is 0; (q1 + p1, q1) reads 0.25 more on W(0, 0)."""
    assert checks.check_rs_known_slack(PARAMS).passed
    slack = checks.robertson_schrodinger_slack

    def without_covariance(f, g, s):
        anti = expectation(f * g + g * f, s) - 2.0 * expectation(f, s) * expectation(g, s)
        return slack(f, g, s) + 0.25 * anti.real ** 2

    monkeypatch.setattr(checks, "robertson_schrodinger_slack", without_covariance)
    assert not checks.check_rs_known_slack(PARAMS).passed


@pytest.mark.parametrize("hbar", [1e-200, 1.0, 1e200])
def test_uncertainty_table_reads_the_state_functional(monkeypatch, hbar):
    """The table compared uncertainty_product with hbar (n + l + 1)/2, the same closed
    form typed again; it now compares with variances from the state functional, so a
    1e-8 error in variance fails every row."""
    params = PhysParams(hbar=hbar)
    results = uncertainty_table_checks(params)
    assert len(results) == 49 and all(r.residual < 1e-14 for r in results)
    monkeypatch.setattr(checks, "variance", _scaled_after(checks.variance, 1 + 1e-8, 0))
    assert not any(r.passed for r in uncertainty_table_checks(params))


def test_variance_non_real_check_catches_the_squared_mean(monkeypatch):
    """variance with <f>^2 in place of |<f>|^2 passed every check of verify,
    whose other variances are of real observables, where the two agree; of
    the uncertainty suite, variance-non-real alone fails on it."""
    assert checks.check_variance_non_real(PARAMS).passed
    right = checks.variance

    def squared_mean(f, s):
        mean = expectation(f, s)
        return right(f, s) + abs(mean) ** 2 - (mean * mean).real

    monkeypatch.setattr(checks, "variance", squared_mean)
    failed = [r.name for r in checks.run_uncertainty_suite(PARAMS) if not r.passed]
    assert failed == ["variance-non-real"]
