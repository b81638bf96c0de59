import math

import numpy as np
import pytest

from landaustar.quadrature import gauss_hermite
from landaustar.specfun import (
    hermite,
    laguerre,
    laguerre_function,
    laguerre_functions,
    log_factorial,
    marginal_hermite_coeff,
)


def test_hermite_low_orders():
    xs = np.linspace(-2, 2, 9)
    assert np.all(hermite(0, xs) == 1.0)
    assert hermite(3, 0.0) == 0.0
    assert hermite(2, 1.0) == pytest.approx(2.0)  # 4x^2 - 2 at x = 1
    np.testing.assert_allclose(hermite(1, xs), 2 * xs, rtol=1e-15)
    np.testing.assert_allclose(hermite(4, xs), 16 * xs ** 4 - 48 * xs ** 2 + 12,
                               rtol=1e-13, atol=1e-12)


def test_hermite_degree_cap():
    # degree 250 is still finite in doubles; the cap itself only guards loops
    assert math.isfinite(hermite(250, 0.0))
    with pytest.raises(ValueError):
        hermite(301, 0.0)
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


def test_hermite_orthogonality_by_quadrature():
    rule = gauss_hermite(40)
    for m in range(13):
        for n in range(m, 13):
            val = float(np.sum(rule.weights * hermite(m, rule.nodes)
                               * hermite(n, rule.nodes)))
            if m == n:
                want = math.sqrt(math.pi) * 2.0 ** n * math.factorial(n)
                assert val == pytest.approx(want, rel=1e-9)
            else:
                scale = math.sqrt(math.pi) * 2.0 ** n * math.factorial(n)
                assert abs(val) <= 1e-9 * scale


def _fd_nth_derivative(f, x, n, h, levels=5):
    """Symmetric n-th difference quotient, Romberg-extrapolated in h^2.

    Extended precision keeps the n-fold cancellation below the target
    accuracy up to n = 8.
    """
    x = np.longdouble(x)
    h = np.longdouble(h)

    def quotient(step):
        total = np.longdouble(0.0)
        for k in range(n + 1):
            total += (-1) ** k * math.comb(n, k) * f(x + (n / 2 - k) * step)
        return total / step ** n

    table = [quotient(h / 2 ** i) for i in range(levels)]
    for col in range(1, levels):
        factor = np.longdouble(4.0) ** col
        table = [(factor * table[i + 1] - table[i]) / (factor - 1.0)
                 for i in range(len(table) - 1)]
    return float(table[0])


@pytest.mark.parametrize("n", range(9))
def test_hermite_rodriguez_consistency(n):
    f = lambda t: np.exp(-t * t)
    grid = np.linspace(-1.6, 1.6, 20)
    scale = max(1.0, float(np.max(np.abs(hermite(n, grid)))))
    for x in grid:
        est = (-1) ** n * math.exp(x * x) * _fd_nth_derivative(f, x, n, 0.8, levels=6)
        assert abs(est - hermite(n, x)) <= 1e-6 * scale


def test_laguerre_low_orders():
    assert laguerre(0, 5, 3.7) == 1.0
    assert laguerre(1, 0, 4.0) == pytest.approx(-3.0)
    xs = np.linspace(0, 4, 9)
    np.testing.assert_allclose(laguerre(2, 0, xs), 1 - 2 * xs + xs ** 2 / 2, rtol=1e-14)
    np.testing.assert_allclose(laguerre(1, 2, xs), 3 - xs, rtol=1e-14)


def test_laguerre_functions_match_the_polynomials():
    xs = np.linspace(0.0, 12.0, 25)
    for k, f in enumerate(laguerre_functions(20, xs)):
        want = np.exp(-0.5 * xs) * laguerre(k, 0, xs)
        np.testing.assert_allclose(f, want, rtol=0, atol=1e-13)
    assert laguerre_function(7, 3.3) == pytest.approx(
        math.exp(-1.65) * laguerre(7, 0, 3.3), rel=1e-13)
    # bounded by 1 at every degree, and 0 far out with no overflow
    big = np.array([0.0, 50.0, 2e300])
    for f in laguerre_functions(300, big):
        assert np.all(np.abs(f) <= 1.0 + 1e-12)
    assert f[-1] == 0.0


def test_laguerre_invalid_pairs():
    with pytest.raises(ValueError):
        laguerre(2, -3, 1.0)
    with pytest.raises(ValueError):
        laguerre(-1, 0, 1.0)


def test_log_factorial():
    assert log_factorial(0) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)
    assert math.isfinite(log_factorial(170))
    assert log_factorial(170) > 700.0  # naive 170! overflows a double
    for n in range(0, 20):
        assert log_factorial(n + 1) == pytest.approx(
            log_factorial(n) + math.log(n + 1), rel=1e-13, abs=1e-13)
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_log_factorial_matches_scipy_gammaln():
    from scipy.special import gammaln

    for n in range(301):
        want = float(gammaln(n + 1))
        assert abs(log_factorial(n) - want) <= 1e-15 * want, n


def test_marginal_coeff_anchor_values():
    for n in range(7):
        for l in range(7):
            assert marginal_hermite_coeff(n, l, n, l) == pytest.approx(4.0, rel=1e-13)
            if l >= 1:
                assert marginal_hermite_coeff(n, l, n, l - 1) == pytest.approx(l, rel=1e-13)
            if n >= 1:
                assert marginal_hermite_coeff(n, l, n - 1, l) == pytest.approx(n, rel=1e-13)


def test_marginal_coeff_direct_evaluation():
    # 4 * (0!0!/(2!1!)) * C(2,0)^2 * C(1,0)^2 * (1/4)^3
    assert marginal_hermite_coeff(2, 1, 0, 0) == pytest.approx(1.0 / 32.0, rel=1e-13)
    assert marginal_hermite_coeff(1, 1, 0, 0) == pytest.approx(0.25, rel=1e-13)


def test_marginal_coeff_symmetry():
    for n in range(5):
        for l in range(5):
            for j in range(n + 1):
                for k in range(l + 1):
                    assert marginal_hermite_coeff(n, l, j, k) == pytest.approx(
                        marginal_hermite_coeff(l, n, k, j), rel=1e-13)


def test_marginal_coeff_large_indices_finite():
    val = marginal_hermite_coeff(150, 150, 75, 75)
    assert math.isfinite(val) and val >= 0.0


def test_marginal_coeff_index_errors():
    with pytest.raises(ValueError):
        marginal_hermite_coeff(2, 2, 3, 0)
    with pytest.raises(ValueError):
        marginal_hermite_coeff(2, 2, 0, -1)
