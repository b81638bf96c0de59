"""Orthogonal-polynomial and combinatorial kernels.

Hermite and generalized Laguerre polynomials are evaluated by three-term
recurrence (never from expanded monomial coefficients, which lose accuracy
past degree ~20).  The raw polynomials grow like x^n, so the densities use
the Gaussian-weighted functions instead: normalized Hermite functions and
e^{-x/2} L_n(x), whose recurrences start from the Gaussian and keep every
iterate bounded, at any degree; a generator yields every degree up to a
maximum, for the densities that sum over them.  The Hermite-expansion
coefficients of the paper's 1D marginal formula are assembled in log space so
large quantum numbers cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np

DEGREE_CAP = 300
# Past this radius exp(-r^2/2) has underflowed to 0, and so has every
# Gaussian-weighted function of r here; clamping there keeps r^2 finite.
FAR_RADIUS = 1e150


def bounded_abs2(z):
    """|z|^2 with |z| clamped at FAR_RADIUS, so the square cannot overflow."""
    r = np.minimum(np.abs(z), FAR_RADIUS)
    return r * r


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x), scalar or array argument."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n > DEGREE_CAP:
        raise ValueError(f"Hermite degree {n} exceeds the cap {DEGREE_CAP}")
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if n == 0:
        return h0 if h0.ndim else float(h0)
    h1 = 2.0 * x
    for k in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1 if h1.ndim else float(h1)


def hermite_functions(kmax: int, u):
    """Yield the normalized Hermite functions phi_0(u), ..., phi_kmax(u).

    phi_k(u) = H_k(u) e^{-u^2/2} / sqrt(2^k k! sqrt(pi)), by the recurrence
    phi_{k+1} = sqrt(2/(k+1)) u phi_k - sqrt(k/(k+1)) phi_{k-1} from
    phi_0 = pi^{-1/4} e^{-u^2/2}.  Every phi_k is bounded by pi^{-1/4}, so
    no step overflows.
    """
    u = np.asarray(u, dtype=float)
    prev, cur = 0.0, math.pi ** -0.25 * np.exp(-0.5 * bounded_abs2(u))
    yield cur
    for k in range(kmax):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * u * cur - math.sqrt(k / (k + 1)) * prev
        yield cur


def hermite_function(k: int, u):
    """The normalized Hermite function phi_k(u) of hermite_functions."""
    for phi in hermite_functions(k, u):
        pass
    return phi


def laguerre_functions(kmax: int, x):
    """Yield e^{-x/2} L_k(x), k = 0..kmax, for x >= 0, by the Laguerre recurrence from e^{-x/2}.

    |L_k(x)| <= e^{x/2} on x >= 0, so every iterate is bounded by 1 and no
    step overflows; x must be finite (see bounded_abs2).
    """
    x = np.asarray(x, dtype=float)
    prev, cur = 0.0, np.exp(-0.5 * x)
    yield cur
    for k in range(kmax):
        prev, cur = cur, ((2.0 * k + 1.0 - x) * cur - k * prev) / (k + 1.0)
        yield cur


def laguerre_function(n: int, x):
    """The function e^{-x/2} L_n(x) of laguerre_functions."""
    for f in laguerre_functions(n, x):
        pass
    return f


def laguerre(n: int, alpha: int, x):
    """Generalized Laguerre polynomial L_n^alpha(x), for alpha >= 0."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n > DEGREE_CAP:
        raise ValueError(f"Laguerre degree {n} exceeds the cap {DEGREE_CAP}")
    if alpha < 0:
        raise ValueError(f"upper index must be non-negative, got alpha={alpha}")
    x = np.asarray(x, dtype=float)
    l0 = np.ones_like(x)
    if n == 0:
        return l0 if l0.ndim else float(l0)
    l1 = 1.0 + alpha - x
    for k in range(1, n):
        l0, l1 = l1, ((2.0 * k + 1.0 + alpha - x) * l1 - (k + alpha) * l0) / (k + 1.0)
    return l1 if l1.ndim else float(l1)


def log_factorial(n: int) -> float:
    """log n! as math.lgamma(n + 1): within 1e-15 relative of scipy's gammaln for n <= 300."""
    if n < 0:
        raise ValueError("factorial argument must be non-negative")
    return math.lgamma(n + 1)


def log_binomial(n: int, k: int) -> float:
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def marginal_hermite_coeff(n: int, l: int, j: int, k: int) -> float:
    """Coefficient of H_{2(n+l-j-k)} in the Hermite expansion of the 1D marginals.

    4 * (j! k!/(n! l!)) * C(n,j)^2 * C(l,k)^2 * (1/4)^{n+l-j-k}, computed via
    log-gamma: every factor is positive, so a single exp is exact to rounding.
    """
    if not (0 <= j <= n and 0 <= k <= l):
        raise ValueError(f"indices out of range: n={n}, l={l}, j={j}, k={k}")
    logval = (
        math.log(4.0)
        + log_factorial(j)
        + log_factorial(k)
        - log_factorial(n)
        - log_factorial(l)
        + 2.0 * log_binomial(n, j)
        + 2.0 * log_binomial(l, k)
        - (n + l - j - k) * math.log(4.0)
    )
    return math.exp(logval)
