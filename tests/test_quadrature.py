import math

import numpy as np
import pytest

from landaustar.phase_space import PhysParams, mode_coords_arrays
from landaustar.quadrature import default_order, gauss_hermite, integrate_nd
from landaustar.marginals import marginal_1d
from landaustar.states import wigner_values

PARAMS = PhysParams()


def gaussian_moment(k: int) -> float:
    """Closed form of the k-th moment against exp(-x^2)."""
    if k % 2 == 1:
        return 0.0
    m = k // 2
    return math.sqrt(math.pi) * math.factorial(k) / (math.factorial(m) * 4.0 ** m)


def test_one_point_rule():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_two_point_rule():
    rule = gauss_hermite(2)
    np.testing.assert_allclose(sorted(rule.nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)],
                               rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [math.sqrt(math.pi) / 2] * 2, rtol=1e-14)
    # exactness holds through degree 2*order - 1 = 3
    assert float(rule.weights @ rule.nodes ** 2) == pytest.approx(gaussian_moment(2),
                                                                  rel=1e-12)


def test_order_eight_high_moment():
    rule = gauss_hermite(8)
    got = float(rule.weights @ rule.nodes ** 14)
    assert got == pytest.approx(gaussian_moment(14), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 5, 16, 33, 64, 200])
def test_rule_invariants(order):
    rule = gauss_hermite(order)
    assert float(np.sum(rule.weights)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert np.all(rule.weights > 0)
    np.testing.assert_allclose(np.sort(rule.nodes), -np.sort(rule.nodes)[::-1],
                               atol=1e-13)
    for k in range(0, 2 * min(order, 12), 2):
        got = float(rule.weights @ rule.nodes ** k)
        assert got == pytest.approx(gaussian_moment(k), rel=1e-12)


def test_order_bounds():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(201)


def test_integrate_1d_gaussian():
    rule = gauss_hermite(16)
    got = integrate_nd(lambda x: np.exp(-x * x), (1.0,), rule)
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_integrate_scaled_polynomial_exactness():
    # polynomial of total degree d against the matching Gaussian is exact
    # whenever order >= (d + 2)/2 per axis
    rule = gauss_hermite(6)
    s1, s2 = 0.8, 1.7

    def f(x, y):
        return (x ** 4 * y ** 2 + 3 * x ** 2 - y ** 6) * np.exp(
            -x ** 2 / s1 ** 2 - y ** 2 / s2 ** 2)

    want = (gaussian_moment(4) * s1 ** 5 * gaussian_moment(2) * s2 ** 3
            + 3 * gaussian_moment(2) * s1 ** 3 * gaussian_moment(0) * s2
            - gaussian_moment(0) * s1 * gaussian_moment(6) * s2 ** 7)
    got = integrate_nd(f, (s1, s2), rule)
    assert got == pytest.approx(want, rel=1e-11)


def test_integrate_ground_state_over_phase_space():
    g = PARAMS.gamma
    scales = (g, g, PARAMS.hbar / g, PARAMS.hbar / g)

    def w0(q1, q2, p1, p2):
        a, b = mode_coords_arrays(q1, q2, p1, p2, PARAMS)
        return wigner_values(0, 0, a, b)

    got = integrate_nd(w0, scales, gauss_hermite(16))
    assert got == pytest.approx(PARAMS.planck_h ** 2, rel=1e-12)


def test_integrate_marginal_normalization():
    g = PARAMS.gamma
    got = integrate_nd(lambda x: marginal_1d(1, 1, x / g), (g,), gauss_hermite(16))
    assert got == pytest.approx(g, rel=1e-12)


def test_convergence_plateau():
    g = PARAMS.gamma
    scales = (g, g, PARAMS.hbar / g, PARAMS.hbar / g)

    def w23(q1, q2, p1, p2):
        a, b = mode_coords_arrays(q1, q2, p1, p2, PARAMS)
        return wigner_values(2, 3, a, b)

    lo = integrate_nd(w23, scales, gauss_hermite(default_order(2, 3)))
    hi = integrate_nd(w23, scales, gauss_hermite(2 * default_order(2, 3)))
    assert abs(hi - lo) <= 1e-11 * abs(hi)


@pytest.mark.parametrize("dims", [1, 2, 4])
def test_stacked_integrands_equal_separate_calls(dims):
    """Trailing axes of the value are separate integrals, each bit-equal to its own call."""
    rule = gauss_hermite(7)
    scales = (0.7, 1.3, 0.9, 1.1)[:dims]

    def one(k):
        def f(*x):
            r2 = sum(xi * xi for xi in x)
            return (1.0 + k * x[0] ** 2 + 1j * (k - 1) * x[-1]) * np.exp(-r2)
        return f

    def stacked(*x):
        return np.stack([one(k)(*x) for k in range(3)], axis=-1)

    got = integrate_nd(stacked, scales, rule)
    assert got.shape == (3,)
    for k in range(3):
        assert got[k] == integrate_nd(one(k), scales, rule)


def test_default_order_rule():
    assert default_order(0, 0) == 16
    assert default_order(6, 6) == 20


def test_dims_validation():
    rule = gauss_hermite(4)
    with pytest.raises(ValueError):
        integrate_nd(lambda *a: 0.0, (1.0,) * 5, rule)
    with pytest.raises(ValueError):
        integrate_nd(lambda x: 0.0, (-1.0,), rule)


def test_gauss_hermite_rule_is_shared_and_read_only():
    rule = gauss_hermite(12)
    assert gauss_hermite(12) is rule
    assert gauss_hermite(13) is not rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights *= 2.0


def test_rules_match_scipy_roots_hermite():
    """Orders 1..200 against scipy's rules: nodes within 1e-13, weights within
    1e-12 relative down to 1e-30, and every weight within 1e-13 of the largest.
    Below 1e-30 scipy's tail weights are the less accurate ones: at order 145
    its weight 2.6e-109 is 2.9e-12 off in relative terms, the one here 3e-14
    (both against the Christoffel weights at 80 digits)."""
    from scipy.special import roots_hermite

    for order in range(1, 201):
        rule = gauss_hermite(order)
        nodes, weights = roots_hermite(order)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-13, order
        err = np.abs(rule.weights - weights)
        big = weights >= 1e-30
        assert np.all(err[big] <= 1e-12 * weights[big]), order
        assert np.max(err) <= 1e-13 * np.max(weights), order
