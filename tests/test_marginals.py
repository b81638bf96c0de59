import functools
import math
import tracemalloc

import numpy as np
import pytest

from landaustar import marginals
from landaustar.checks import WIGNER_NORM, mixed_param_derivative
from landaustar.cli import main, to_axis_units
from landaustar.marginals import (
    AXES,
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
from landaustar.phase_space import PhysParams, mode_coords_arrays
from landaustar.quadrature import QuadratureRule, gauss_hermite
from landaustar.states import generating_function, wigner_values

PARAMS = PhysParams()
NQ = axis_norm("q1", PARAMS)
NP_ = axis_norm("p1", PARAMS)
GAMMA = PARAMS.gamma
H2 = PARAMS.planck_h ** 2
# the six coordinate planes: radial, conjugate, mixed, mixed, conjugate, radial
PLANES = (("q1", "q2"), ("q1", "p1"), ("q1", "p2"), ("q2", "p1"), ("q2", "p2"), ("p1", "p2"))
CONJUGATE_PLANES = (("q1", "p1"), ("q2", "p2"))


def density_1d(n, l, axis, x, params):
    """The physical 1D density at x, as eval prints it: h^2/s times the shape."""
    units = to_axis_units({axis: np.asarray(x, dtype=float)}, params)
    return 4.0 * math.sqrt(math.pi) * axis_norm(axis, params) * marginal_1d(n, l, units[axis])


def density_2d(n, l, plane, x, y, params):
    """The physical 2D density at (x, y), as eval prints it: (h/s_x)(h/s_y) times the shape."""
    grid = dict(zip(plane, (np.asarray(x, dtype=float), np.asarray(y, dtype=float))))
    h = params.planck_h
    sx, sy = (axis_scale(ax, params) for ax in plane)
    return (h / sx) * (h / sy) * marginal_2d(n, l, plane, *to_axis_units(grid, params).values())


def test_axis_scales_and_norms():
    assert axis_scale("q2", PARAMS) == GAMMA
    assert axis_scale("p1", PARAMS) == PARAMS.hbar / GAMMA
    assert NQ == pytest.approx(math.pi ** 1.5 * PARAMS.hbar ** 2 / GAMMA, rel=1e-15)
    assert NP_ == pytest.approx(math.pi ** 1.5 * PARAMS.hbar * GAMMA, rel=1e-15)
    with pytest.raises(ValueError):
        axis_scale("q3", PARAMS)


# ---------------------------------------------------------------------------
# generating functions, in axis units
# ---------------------------------------------------------------------------

def test_plane_generating_zero_parameters():
    for q1, q2 in ((0.0, 0.0), (0.7, -0.4), (1.5, 1.1)):
        got = position_plane_generating((0j, 0j), (0j, 0j), q1 / GAMMA, q2 / GAMMA)
        rho2 = (q1 ** 2 + q2 ** 2) / GAMMA ** 2
        want = math.exp(-rho2) / (4.0 * math.pi)
        assert got.real == pytest.approx(want, rel=1e-13)
        assert abs(got.imag) <= 1e-16
        # four times this value is the ground shape on the position plane
        closed = marginal_2d(0, 0, ("q1", "q2"), q1 / GAMMA, q2 / GAMMA)
        assert 4.0 * got.real == pytest.approx(float(closed), rel=1e-12)


def test_plane_generating_matches_momentum_integral_of_g():
    """Integrating G over the momenta reproduces the plane generating function."""
    rule = gauss_hermite(32)
    sp = PARAMS.hbar / GAMMA
    t = rule.nodes
    cw = rule.weights * np.exp(t * t)
    samples = [
        ((0j, 0j), (0j, 0j)),
        ((0.4 + 0.2j, -0.3j), (0.1 - 0.2j, 0.25 + 0.1j)),
        ((0.2 - 0.5j, 0.3 + 0.1j), (-0.2 + 0.4j, 0.15j)),
    ]
    p1, p2 = np.meshgrid(sp * t, sp * t, indexing="ij")
    for alpha, beta in samples:
        for q1, q2 in ((0.0, 0.0), (0.8, -0.5)):
            # W integrates to WIGNER_NORM over axis units, and its plane shape to 1
            total = np.sum(np.outer(cw, cw) * generating_function(
                alpha[0], beta[0], alpha[1], beta[1],
                *mode_coords_arrays(q1, q2, p1, p2, PARAMS))) / WIGNER_NORM
            want = position_plane_generating(alpha, beta, q1 / GAMMA, q2 / GAMMA)
            assert abs(total - want) <= 1e-9 * abs(want)


def test_plane_generating_derivative_gives_first_excited_density():
    plane_factor = (PARAMS.planck_h / GAMMA) ** 2
    for q1, q2 in ((0.3, -0.2), (1.0, 0.6)):
        def fn(ps):
            a1, b1, a2, b2 = ps
            return position_plane_generating((a1, a2), (b1, b2), q1 / GAMMA, q2 / GAMMA)

        got = 4.0 * mixed_param_derivative(fn, (1, 1, 0, 0), points=12)
        want = marginal_2d(1, 0, ("q1", "q2"), q1 / GAMMA, q2 / GAMMA)
        assert got.real == pytest.approx(float(want), rel=1e-7, abs=1e-7 / plane_factor)


def _broadcast_params(seed):
    """Four complex parameter arrays that broadcast to a (3, 4) grid."""
    rng = np.random.default_rng(seed)
    ps = 0.4 * (rng.normal(size=(4, 3, 4)) + 1j * rng.normal(size=(4, 3, 4)))
    return ps[0], ps[1, :1, :], ps[2, :, :1], ps[3]


def test_plane_generating_broadcasts_like_scalar_calls():
    a1, a2, b1, b2 = _broadcast_params(31)
    vs = np.linspace(-1.2, 0.9, 4)
    got = position_plane_generating((a1, a2), (b1, b2), 0.7, vs)
    assert got.shape == (3, 4)
    want = np.empty((3, 4), dtype=complex)
    for i, j in np.ndindex(3, 4):
        scalar = position_plane_generating(
            (complex(a1[i, j]), complex(a2[0, j])), (complex(b1[i, 0]), complex(b2[i, j])),
            0.7, float(vs[j]))
        assert type(scalar) is complex
        want[i, j] = scalar
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("axis", AXES)
def test_axis_generating_broadcasts_like_scalar_calls(axis):
    a1, a2, b1, b2 = _broadcast_params(32)
    us = np.linspace(-1.1, 1.3, 4)
    got = axis_generating(axis, (a1, a2), (b1, b2), us)
    assert got.shape == (3, 4)
    want = np.empty((3, 4), dtype=complex)
    for i, j in np.ndindex(3, 4):
        scalar = axis_generating(
            axis, (complex(a1[i, j]), complex(a2[0, j])),
            (complex(b1[i, 0]), complex(b2[i, j])), float(us[j]))
        assert type(scalar) is complex
        want[i, j] = scalar
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_axis_generating_zero_parameters():
    u = 0.7 / GAMMA
    assert axis_generating("q1", (0j, 0j), (0j, 0j), u) == pytest.approx(
        math.exp(-u ** 2) / (4.0 * math.sqrt(math.pi)), rel=1e-13)
    # times 4 at zero parameters this is the ground 1D shape
    got = 4.0 * axis_generating("q1", (0j, 0j), (0j, 0j), u)
    assert got.real == pytest.approx(float(marginal_1d(0, 0, u)), rel=1e-13)
    assert axis_generating("p2", (0j, 0j), (0j, 0j), 0.0) == pytest.approx(
        1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-14)


def test_axis_generating_consistent_with_plane_integral():
    rule = gauss_hermite(32)
    t = rule.nodes
    cw = rule.weights * np.exp(t * t)
    samples = [
        ((0j, 0j), (0j, 0j)),
        ((0.4 + 0.2j, -0.3j), (0.1 - 0.2j, 0.25 + 0.1j)),
    ]
    for alpha, beta in samples:
        for q1 in (0.0, 0.9):
            got = np.sum(cw * position_plane_generating(alpha, beta, q1 / GAMMA, t))
            want = axis_generating("q1", alpha, beta, q1 / GAMMA)
            assert abs(got - want) <= 1e-9 * abs(want)


def test_axis_generating_derivatives_reproduce_densities():
    for n, l in [(0, 1), (1, 1), (2, 0), (2, 2)]:
        pref = 4.0 / (math.factorial(n) * math.factorial(l))
        for x in (0.0, 0.6):
            def fn(ps):
                a1, b1, a2, b2 = ps
                return axis_generating("q1", (a1, a2), (b1, b2), x / GAMMA)

            got = pref * mixed_param_derivative(fn, (n, n, l, l))
            want = marginal_1d(n, l, x / GAMMA)
            # 1e-6 of the axis norm: a density is 4 sqrt(pi) N_axis times its shape
            assert abs(got - want) <= 1e-6 / (4.0 * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# 1D densities
# ---------------------------------------------------------------------------

def test_low_lying_explicit_forms():
    ys = np.linspace(-2.0, 2.0, 9)
    xs = ys * GAMMA
    e = np.exp(-ys ** 2)
    cases = {
        (0, 0): 4.0 * NQ * e,
        (1, 0): 2.0 * NQ * e * (2 * ys ** 2 + 1),
        (1, 1): NQ * e * (4 * ys ** 4 - 4 * ys ** 2 + 3),
        (2, 0): 0.5 * NQ * e * (4 * ys ** 4 + 4 * ys ** 2 + 3),
        (2, 1): 0.25 * NQ * e * (8 * ys ** 6 - 20 * ys ** 4 + 18 * ys ** 2 + 7),
    }
    for (n, l), want in cases.items():
        np.testing.assert_allclose(density_1d(n, l, "q1", xs, PARAMS), want,
                                   rtol=1e-12, atol=1e-12 * NQ)


def test_density_central_values():
    assert density_1d(1, 1, "q1", 0.0, PARAMS) == pytest.approx(3.0 * NQ, rel=1e-13)
    assert density_1d(2, 1, "q1", 0.0, PARAMS) == pytest.approx(7.0 * NQ / 4.0,
                                                                 rel=1e-13)


def test_momentum_axis_mirrors_position_axis():
    ys = np.linspace(-2, 2, 11)
    got = density_1d(2, 1, "p1", ys * PARAMS.hbar / GAMMA, PARAMS)
    want = density_1d(2, 1, "q1", ys * GAMMA, PARAMS) * (NP_ / NQ)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_symmetry_in_quantum_numbers():
    xs = np.linspace(-3, 3, 21) * GAMMA
    for n, l in [(2, 1), (3, 0), (4, 2)]:
        np.testing.assert_allclose(density_1d(n, l, "q1", xs, PARAMS),
                                   density_1d(l, n, "q1", xs, PARAMS),
                                   rtol=0, atol=1e-12 * NQ)


def test_evenness_and_positivity():
    for axis in AXES:
        xs = np.linspace(0.05, 6.0, 40) * axis_scale(axis, PARAMS)
        for n in range(7):
            for l in range(7):
                plus = density_1d(n, l, axis, xs, PARAMS)
                minus = density_1d(n, l, axis, -xs, PARAMS)
                np.testing.assert_array_equal(plus, minus)
                assert np.all(plus > 0.0)


def test_normalization_all_axes():
    rule = gauss_hermite(24)
    for axis in AXES:
        scale = axis_scale(axis, PARAMS)
        t = rule.nodes
        cw = rule.weights * np.exp(t * t) * scale
        for n, l in [(0, 0), (3, 2), (6, 6)]:
            total = float(np.sum(cw * density_1d(n, l, axis, scale * t, PARAMS)))
            assert total == pytest.approx(H2, rel=1e-10)


def test_quadrature_route_matches_closed_form():
    xs = np.linspace(-2, 2, 5) * GAMMA
    closed = density_1d(2, 1, "q1", xs, PARAMS)
    quad = marginal_1d_quadrature(2, 1, "q1", xs, PARAMS)
    np.testing.assert_allclose(quad, closed, atol=1e-8 * NQ)


def test_degree_guard():
    with pytest.raises(ValueError):
        marginal_1d(151, 0, 0.0)


# ---------------------------------------------------------------------------
# 2D densities
# ---------------------------------------------------------------------------

def test_position_plane_ground_form():
    for q1, q2 in ((0.0, 0.0), (1.0, -0.7)):
        rho2 = (q1 ** 2 + q2 ** 2) / GAMMA ** 2
        want = 4.0 * math.pi * (PARAMS.hbar / GAMMA) ** 2 * math.exp(-rho2)
        assert density_2d(0, 0, ("q1", "q2"), q1, q2, PARAMS) == pytest.approx(
            want, rel=1e-13)


def test_position_plane_matches_quadrature():
    rng = np.random.default_rng(31)
    xs = rng.uniform(-1.5 * GAMMA, 1.5 * GAMMA, size=25)
    ys = rng.uniform(-1.5 * GAMMA, 1.5 * GAMMA, size=25)
    closed = density_2d(2, 1, ("q1", "q2"), xs, ys, PARAMS)
    quad = marginal_2d_quadrature(2, 1, ("q1", "q2"), xs, ys, PARAMS)
    np.testing.assert_allclose(quad, closed, atol=1e-9 * float(np.max(closed)))


def test_mixed_plane_matches_quadrature():
    rng = np.random.default_rng(32)
    xs = rng.uniform(-1.5 * GAMMA, 1.5 * GAMMA, size=10)
    ys = rng.uniform(-1.5 / GAMMA, 1.5 / GAMMA, size=10)
    closed = density_2d(1, 2, ("q1", "p2"), xs, ys, PARAMS)
    quad = marginal_2d_quadrature(1, 2, ("q1", "p2"), xs, ys, PARAMS)
    np.testing.assert_allclose(quad, closed, atol=1e-9 * float(np.max(np.abs(closed))))


def test_swapped_quantum_numbers_use_symmetry():
    """n < l on the position plane folds onto the printed branch."""
    xs = np.linspace(-2, 2, 7) * GAMMA
    ys = np.linspace(-2, 2, 7) * GAMMA
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    np.testing.assert_allclose(
        density_2d(1, 3, ("q1", "q2"), X, Y, PARAMS),
        density_2d(3, 1, ("q1", "q2"), X, Y, PARAMS), rtol=0, atol=0)
    # and the fold agrees with direct quadrature of the (n, l) state
    quad = marginal_2d_quadrature(1, 3, ("q1", "q2"), xs, ys * 0.5, PARAMS)
    closed = density_2d(1, 3, ("q1", "q2"), xs, ys * 0.5, PARAMS)
    np.testing.assert_allclose(quad, closed, atol=1e-9 * float(np.max(np.abs(closed))))


def test_plane_positivity_on_grid():
    # offset grids dodge the exact zero lines (rho = 0, tau = 0, Hermite roots)
    for plane in (p for p in PLANES if p not in CONJUGATE_PLANES):
        gx = np.linspace(-3.9, 4.1, 41) * axis_scale(plane[0], PARAMS)
        gy = np.linspace(-3.8, 4.2, 41) * axis_scale(plane[1], PARAMS)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        for n in range(5):
            for l in range(5):
                vals = density_2d(n, l, plane, X, Y, PARAMS)
                assert np.all(vals > 0.0), (plane, n, l)


def test_fallback_plane_by_quadrature():
    """The (q2, p1) plane integrates over p1 to the q2 density, and is positive."""
    val = density_2d(1, 1, ("q2", "p1"), 0.5, -0.3, PARAMS)
    # cross-check against the 1D density by integrating out the second axis
    rule = gauss_hermite(24)
    t = rule.nodes
    sp = axis_scale("p1", PARAMS)
    cw = rule.weights * np.exp(t * t) * sp
    vals = density_2d(1, 1, ("q2", "p1"), np.full_like(t, 0.5), sp * t, PARAMS)
    total = float(np.sum(cw * vals))
    assert total == pytest.approx(float(density_1d(1, 1, "q2", 0.5, PARAMS)),
                                  rel=1e-9)
    assert val > 0


@pytest.mark.parametrize("params", [PARAMS, PhysParams(hbar=0.7, mass=2.3, omega=1.9)])
@pytest.mark.parametrize("plane", PLANES)
def test_every_plane_matches_quadrature(plane, params):
    """Both axis orders against the Wigner quadrature with a rule 8 orders up."""
    rng = np.random.default_rng(33)
    sx, sy = (axis_scale(ax, params) for ax in plane)
    bound = (params.planck_h / sx) * (params.planck_h / sy) / math.pi
    for n, l in [(n, l) for n in range(7) for l in range(7)] + [(12, 18)]:
        x = np.append(0.0, rng.uniform(-2.5, 2.5, 4)) * sx
        y = np.append(0.0, rng.uniform(-2.5, 2.5, 4)) * sy
        order = max(16, n + l + 8) + 8
        quad = marginal_2d_quadrature(n, l, plane, x, y, params, gauss_hermite(order))
        for got in (density_2d(n, l, plane, x, y, params),
                    density_2d(n, l, plane[::-1], y, x, params)):
            np.testing.assert_allclose(got, quad, rtol=1e-10, atol=1e-13 * bound)


def test_invalid_plane_rejected():
    for plane in (("q1", "q1"), ("q1", "q3"), ("q1", "q2", "p1")):
        with pytest.raises(ValueError):
            marginal_2d(0, 0, plane, 0.0, 0.0)
    with pytest.raises(ValueError):
        marginal_2d_quadrature(0, 0, ("q1", "q1"), 0.0, 0.0, PARAMS)
    with pytest.raises(ValueError):
        marginal_1d_quadrature(0, 0, "q3", 0.0, PARAMS)


# ---------------------------------------------------------------------------
# the quadrature oracle, streamed in blocks
# ---------------------------------------------------------------------------

def _full_mesh_quadrature(n, l, fixed, values, params, rule=None):
    """The oracle as first written: the whole complementary mesh, one sum per point."""
    rule = rule or gauss_hermite(max(16, n + l + 8))
    others = [ax for ax in AXES if ax not in fixed]
    nodes, weights = zip(*(rule.scaled(axis_scale(ax, params)) for ax in others))
    coords = dict(zip(others, np.meshgrid(*nodes, indexing="ij")))
    w = functools.reduce(np.multiply.outer, weights)
    values = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    out = np.empty(values[0].shape)
    for i, point in enumerate(zip(*(v.reshape(-1) for v in values))):
        coords.update(zip(fixed, point))
        a, b = mode_coords_arrays(*(coords[ax] for ax in AXES), params)
        out.reshape(-1)[i] = np.sum(w * np.real(wigner_values(n, l, a, b)))
    return out


def _assert_matches_reference(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


OTHER_PARAMS = PhysParams(hbar=0.7, mass=2.3, omega=1.9)


# 37 values per block take 3 mesh nodes at a time against the 11 points, and
# the last block of the order^3 mesh is ragged
@pytest.mark.parametrize("chunk", [None, 37])
@pytest.mark.parametrize("params", [PARAMS, OTHER_PARAMS])
def test_streamed_1d_oracle_matches_the_full_mesh(monkeypatch, params, chunk):
    if chunk:
        monkeypatch.setattr(marginals, "_CHUNK", chunk)
    u = np.linspace(-2.0, 2.0, 11)
    for axis, (n, l) in zip(AXES, [(0, 0), (2, 1), (1, 3), (4, 4)]):
        x = u * axis_scale(axis, params)
        want = _full_mesh_quadrature(n, l, (axis,), (x,), params)
        _assert_matches_reference(marginal_1d_quadrature(n, l, axis, x, params), want)
    # a rule other than the default one, through the shared route
    rule = gauss_hermite(19)
    x = u * axis_scale("p2", params)
    _assert_matches_reference(
        marginals._complement_quadrature(3, 2, ("p2",), (x,), params, rule),
        _full_mesh_quadrature(3, 2, ("p2",), (x,), params, rule))


# 7 values per block split the 9 points into blocks of 7 and 2
@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("params", [PARAMS, OTHER_PARAMS])
@pytest.mark.parametrize("plane", PLANES)
def test_streamed_2d_oracle_matches_the_full_mesh(monkeypatch, plane, params, chunk):
    if chunk:
        monkeypatch.setattr(marginals, "_CHUNK", chunk)
    rng = np.random.default_rng(34)
    sx, sy = (axis_scale(ax, params) for ax in plane)
    x = rng.uniform(-2.0, 2.0, 9) * sx
    y = rng.uniform(-2.0, 2.0, 9) * sy
    for rule in (None, gauss_hermite(21)):
        want = _full_mesh_quadrature(2, 1, plane, (x, y), params, rule)
        _assert_matches_reference(marginal_2d_quadrature(2, 1, plane, x, y, params, rule), want)
        _assert_matches_reference(
            marginal_2d_quadrature(2, 1, plane[::-1], y, x, params, rule), want)


def test_streamed_oracle_keeps_input_shapes():
    assert isinstance(marginal_1d_quadrature(1, 0, "q1", 0.3, PARAMS), float)
    assert isinstance(marginal_1d_quadrature(1, 0, "q1", np.array(0.3), PARAMS), float)
    assert marginal_1d_quadrature(1, 0, "q1", np.empty(0), PARAMS).shape == (0,)
    assert marginal_1d_quadrature(1, 0, "q1", np.empty((2, 0)), PARAMS).shape == (2, 0)
    x = np.linspace(-1.0, 1.0, 3)[:, None]
    y = np.linspace(-0.5, 0.5, 4)[None, :]
    got = marginal_2d_quadrature(1, 0, ("q1", "p1"), x, y, PARAMS)
    assert got.shape == (3, 4)
    _assert_matches_reference(
        got, _full_mesh_quadrature(1, 0, ("q1", "p1"), (x, y), PARAMS))
    assert isinstance(marginal_2d_quadrature(1, 0, ("q1", "p1"), 0.2, -0.1, PARAMS), float)
    grid = marginal_1d_quadrature(1, 0, "q1", x * y, PARAMS)
    _assert_matches_reference(grid, _full_mesh_quadrature(1, 0, ("q1",), (x * y,), PARAMS))


def test_streamed_oracle_memory_is_bounded():
    """Block by block the (30, 30) q1 marginal holds under 1 MB, where its
    68^3 mesh for a single point takes 45 MB, so a few points show the bound."""
    x = np.linspace(-3.0, 3.0, 7)
    tracemalloc.start()
    try:
        marginal_1d_quadrature(30, 30, "q1", x, PhysParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# integral equalities
# ---------------------------------------------------------------------------

def test_integral_equality_ground_case():
    rows = integral_equality_residuals(0, 0, [0.0])
    (_, lhs, res_lag, res_herm) = rows[0]
    assert res_lag <= 1e-10
    assert res_herm <= 1e-10
    # both sides reduce to the constant 4
    y = 0.0
    assert lhs == pytest.approx(4.0)
    assert density_1d(0, 0, "q1", y, PARAMS) / (NQ * math.exp(-y * y)) == pytest.approx(lhs)


@pytest.mark.parametrize("n,l,samples", [
    (1, 0, (0.0, 0.7, 1.4)),
    (2, 1, (0.0, 0.7, 1.4)),
    (3, 3, (0.0,)),
    (2, 2, (0.0, 0.7, 1.4)),
])
def test_integral_equality_residuals(n, l, samples):
    rows = integral_equality_residuals(n, l, samples)
    assert [y for y, _, _, _ in rows] == list(samples)
    for _, _, res_lag, res_herm in rows:
        assert res_lag <= 1e-8
        assert res_herm <= 1e-8


def test_integral_equality_requires_ordered_pair():
    with pytest.raises(ValueError):
        integral_equality_residuals(1, 2, [0.0])


def test_integral_equality_refuses_n_plus_l_past_16():
    integral_equality_residuals(16, 0, [0.0])
    with pytest.raises(ValueError, match="n \\+ l <= 16"):
        integral_equality_residuals(9, 8, [0.0])


@pytest.mark.parametrize("params", [PhysParams(hbar=0.7, mass=2.3, omega=1.9),
                                    PhysParams(hbar=3.0, mass=0.4, omega=0.8)])
def test_structural_identities_other_units(params):
    """Normalization and closed-form/quadrature agreement away from defaults."""
    from landaustar.phase_space import mode_coords_arrays
    from landaustar.quadrature import integrate_nd
    from landaustar.states import wigner_values

    g = params.gamma
    h2 = params.planck_h ** 2

    def w21(q1, q2, p1, p2):
        a, b = mode_coords_arrays(q1, q2, p1, p2, params)
        return wigner_values(2, 1, a, b)

    got = integrate_nd(w21, (g, g, params.hbar / g, params.hbar / g),
                       gauss_hermite(16))
    assert got == pytest.approx(h2, rel=1e-12)

    for axis, n, l in (("q1", 2, 1), ("p1", 1, 2)):
        xs = np.linspace(-1.5, 1.5, 5) * axis_scale(axis, params)
        closed = density_1d(n, l, axis, xs, params)
        quad = marginal_1d_quadrature(n, l, axis, xs, params)
        np.testing.assert_allclose(quad, closed, atol=1e-12 * axis_norm(axis, params))

    x = 0.4 * g
    y = 0.3 * axis_scale("p2", params)
    closed = density_2d(2, 1, ("q1", "p2"), x, y, params)
    quad = marginal_2d_quadrature(2, 1, ("q1", "p2"), x, y, params)
    assert quad == pytest.approx(float(closed), rel=1e-11)


# ---------------------------------------------------------------------------
# the whole accepted range of quantum numbers
# ---------------------------------------------------------------------------

def test_mixture_weights_match_the_tridiagonal_eigensolver():
    """The recurrence at the known eigenvalue against scipy's eigensolver, on
    two seeded pairs for each n + l in 0..300 (the sweep of all 22,801 pairs
    is in CHANGES.md)."""
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(3003)
    for top in range(301):
        lo, hi = max(0, top - 150), min(150, top)
        for n in rng.integers(lo, hi + 1, size=2).tolist():
            j = 0.5 * top
            m = np.arange(top) - j
            _, v = eigh_tridiagonal(np.zeros(top + 1), 0.5 * np.sqrt((j - m) * (j + m + 1)),
                                    select="i", select_range=(n, n))
            got = marginals._mixture_weights(n, top - n)
            assert np.max(np.abs(got - v[:, 0] ** 2)) <= 1e-14, (n, top - n)


def _rule(order):
    """Gauss-Hermite rule past gauss_hermite's order cap, for degree-600 integrands."""
    from scipy.special import roots_hermite

    return QuadratureRule(order, *roots_hermite(order))


@pytest.mark.parametrize("n,l", [(20, 20), (30, 30), (60, 60), (100, 0), (150, 150)])
def test_large_quantum_number_1d_marginals(n, l):
    """Norm h^2, no negative value and <u^2> = (n+l+1)/2 on every axis."""
    rule = _rule(n + l + 2)
    for axis in AXES:
        scale = axis_scale(axis, PARAMS)
        x, w = rule.scaled(scale)
        dens = density_1d(n, l, axis, x, PARAMS)
        assert np.min(dens) >= 0.0
        assert np.sum(w * dens) == pytest.approx(H2, rel=1e-10)
        second = np.sum(w * (x / scale) ** 2 * dens) / H2
        assert second == pytest.approx((n + l + 1) / 2, rel=1e-10)


def _paper_hermite_sum_exact(n, l, u):
    """sum_{j,k} A_{nljk} H_{2(n+l-j-k)}(u) in exact rational arithmetic at rational u."""
    from fractions import Fraction

    h = [Fraction(1), 2 * u]
    for k in range(1, 2 * (n + l)):
        h.append(2 * u * h[k] - 2 * k * h[k - 1])
    total = Fraction(0)
    for j in range(n + 1):
        for k in range(l + 1):
            coeff = Fraction(4 * math.factorial(j) * math.factorial(k)
                             * math.comb(n, j) ** 2 * math.comb(l, k) ** 2,
                             math.factorial(n) * math.factorial(l) * 4 ** (n + l - j - k))
            total += coeff * h[2 * (n + l - j - k)]
    return total


def test_mixture_equals_paper_expansion():
    """marginal_1d is the paper's Hermite expansion, for every n, l <= 6 and axis.

    The expansion is evaluated exactly on quarter-integer u, so the comparison
    holds pointwise to 1e-12 relative.  The float route _hermite_sum cancels
    terms up to 2.5e-11 of the peak at (6, 6), so it is compared to 1e-10.
    """
    from fractions import Fraction

    from landaustar.marginals import _hermite_sum

    us = [Fraction(k, 4) for k in range(-24, 25)]
    uf = np.array([float(u) for u in us])
    gauss = np.exp(-uf * uf)
    for n in range(7):
        for l in range(7):
            exact = gauss * np.array([float(_paper_hermite_sum_exact(n, l, u)) for u in us])
            paper = gauss * _hermite_sum(n, l, uf)
            for axis in AXES:
                got = density_1d(n, l, axis, uf * axis_scale(axis, PARAMS), PARAMS)
                got = got / axis_norm(axis, PARAMS)
                np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got, paper, rtol=0, atol=1e-10 * np.max(exact))


def _old_position_plane(n, l, q1, q2, params):
    """The raw-polynomial Laguerre form on the (q1, q2) plane, folded to n >= l."""
    from landaustar.specfun import laguerre, log_factorial

    n, l = max(n, l), min(n, l)
    rho2 = (q1 ** 2 + q2 ** 2) / params.gamma ** 2
    norm = 4.0 * math.pi * math.exp(log_factorial(l) - log_factorial(n))
    return (norm * (params.hbar / params.gamma) ** 2 * rho2 ** (n - l) * np.exp(-rho2)
            * laguerre(l, n - l, rho2) ** 2)


def _old_mixed_plane(n, l, q1, p2, params):
    """The raw-polynomial Hermite form on the (q1, p2) plane."""
    from landaustar.specfun import hermite, log_factorial

    y = q1 / params.gamma
    w = params.gamma * p2 / params.hbar
    norm = 4.0 * math.pi * math.exp(
        -log_factorial(n) - log_factorial(l) - (n + l) * math.log(2.0))
    return (norm * params.hbar * np.exp(-0.5 * ((y + w) ** 2 + (y - w) ** 2))
            * hermite(n, (y - w) / math.sqrt(2.0)) ** 2
            * hermite(l, (y + w) / math.sqrt(2.0)) ** 2)


@pytest.mark.parametrize("params", [PARAMS, PhysParams(hbar=0.7, mass=2.3, omega=1.9)])
def test_plane_closed_forms_match_raw_polynomial_forms(params):
    for plane, old in ((("q1", "q2"), _old_position_plane), (("q1", "p2"), _old_mixed_plane)):
        gx = np.linspace(-4.0, 4.0, 33) * axis_scale(plane[0], params)
        gy = np.linspace(-4.0, 4.0, 33) * axis_scale(plane[1], params)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        for n in range(7):
            for l in range(7):
                want = old(n, l, X, Y, params)
                got = density_2d(n, l, plane, X, Y, params)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(want))


@pytest.mark.parametrize("n,l", [(20, 20), (60, 40), (100, 0), (0, 100), (100, 50),
                                 (100, 100), (150, 0), (150, 150)])
def test_large_quantum_number_plane_closed_forms(n, l):
    """Norm h^2 on every plane, and the second axis integrates to marginal_1d."""
    rule = _rule(n + l + 40)
    for plane in PLANES:
        x, wx = rule.scaled(axis_scale(plane[0], PARAMS))
        y, wy = rule.scaled(axis_scale(plane[1], PARAMS))
        X, Y = np.meshgrid(x, y, indexing="ij")
        dens = density_2d(n, l, plane, X, Y, PARAMS)
        assert np.all(np.isfinite(dens))
        if plane not in CONJUGATE_PLANES:
            assert np.min(dens) >= 0.0
        assert np.sum(np.outer(wx, wy) * dens) == pytest.approx(H2, rel=1e-10)
        m1d = density_1d(n, l, plane[0], x, PARAMS)
        np.testing.assert_allclose(np.sum(wy * dens, axis=1), m1d,
                                   rtol=0, atol=1e-10 * np.max(m1d))


@pytest.mark.parametrize("plane", CONJUGATE_PLANES)
def test_conjugate_planes_at_the_origin_give_hong_ou_mandel_parity(plane):
    """The one-mode parity sum_k (-1)^k w_k is delta_nl: 4 pi hbar delta_nl at the origin."""
    ns = list(range(12)) + [40, 99, 100, 149, 150]
    for n in ns:
        for l in ns:
            got = density_2d(n, l, plane, 0.0, 0.0, PARAMS)
            assert abs(got - 4.0 * math.pi * PARAMS.hbar * (n == l)) <= 1e-12, (n, l)


def test_plane_closed_forms_far_from_the_peak():
    # 40-digit reference: 4 pi^2 hbar phi_100(-20)^2 phi_0(20)^2
    assert density_2d(100, 0, ("q1", "p2"), 0.0, 20.0, PARAMS) == pytest.approx(
        6.046149930934953e-221, rel=1e-12)
    # the position plane of (150, 0) is a Poisson weight in rho^2 = 450
    x = 30.0 ** 2 / GAMMA ** 2
    want = 4.0 * math.pi / GAMMA ** 2 * math.exp(-x + 150 * math.log(x) - math.lgamma(151))
    assert density_2d(150, 0, ("q1", "q2"), 30.0, 0.0, PARAMS) == pytest.approx(
        want, rel=1e-12)


def test_huge_coordinates_give_zero_densities():
    assert density_1d(3, 2, "q1", 1e200, PARAMS) == 0.0
    for plane in PLANES:
        for order in (plane, plane[::-1]):
            assert density_2d(3, 2, order, 1e200, 0.0, PARAMS) == 0.0
            assert density_2d(150, 150, order, 1e300, -1e300, PARAMS) == 0.0


def test_planes_are_the_axis_pairs_in_axes_order():
    """The checks walk the planes in this order, so their seeded draws stay
    put; a plane is taken in either order, and nothing else is a plane."""
    assert marginals.PLANES == PLANES
    for plane in PLANES:
        assert marginals.is_plane(plane) and marginals.is_plane(plane[::-1])
    for bad in (("q1", "q1"), ("q1",), ("q1", "q2", "p1"), ("q1", "x")):
        assert not marginals.is_plane(bad)
        with pytest.raises(ValueError, match="invalid plane"):
            marginal_2d(1, 0, bad, 0.0, 0.0)
        with pytest.raises(ValueError, match="invalid plane"):
            marginal_2d_quadrature(1, 0, bad, 0.0, 0.0, PARAMS)


def test_closed_planes_share_the_range_guard():
    for plane in PLANES + tuple(p[::-1] for p in PLANES):
        for n, l in ((151, 0), (0, 151), (-1, 0)):
            with pytest.raises(ValueError):
                marginal_2d(n, l, plane, 0.0, 0.0)
    with pytest.raises(ValueError):
        marginal_1d(0, 151, 0.0)


@pytest.mark.parametrize("hbar", [1e-200, 1e200])
def test_marginals_suite_at_extreme_hbar(capsys, hbar):
    """The suite compares unit-free shapes; h^2 raised OverflowError at 1e200."""
    code = main(["--hbar", str(hbar), "verify", "marginals"])
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines[:-1] if not line.startswith("PASS ")] == []
    assert code == 0 and lines[-1] == "24/24 checks passed"
