"""Orthogonal-polynomial and combinatorial kernels.

Hermite and generalized Laguerre polynomials are evaluated by three-term
recurrence (never from expanded monomial coefficients, which lose accuracy
past degree ~20).  The Hermite-expansion coefficients of the 1D marginal
densities are assembled in log space so large quantum numbers cannot
overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

DEGREE_CAP = 300


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


def laguerre(n: int, alpha: int, x):
    """Generalized Laguerre polynomial L_n^alpha(x).

    Negative integer upper index is reduced through
    L_n^{-k}(x) = (-x)^k ((n-k)!/n!) L_{n-k}^{k}(x), valid for 0 < k <= n.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n > DEGREE_CAP:
        raise ValueError(f"Laguerre degree {n} exceeds the cap {DEGREE_CAP}")
    if alpha < 0:
        k = -alpha
        if k > n:
            raise ValueError(f"invalid index pair n={n}, alpha={alpha}: need n + alpha >= 0")
        x = np.asarray(x, dtype=float)
        scale = math.exp(gammaln(n - k + 1) - gammaln(n + 1))
        out = (-x) ** k * scale * laguerre(n - k, k, x)
        return out if np.ndim(out) else float(out)
    x = np.asarray(x, dtype=float)
    l0 = np.ones_like(x)
    if n == 0:
        return l0 if l0.ndim else float(l0)
    l1 = 1.0 + alpha - x
    for k in range(1, n):
        l0, l1 = l1, ((2.0 * k + 1.0 + alpha - x) * l1 - (k + alpha) * l0) / (k + 1.0)
    return l1 if l1.ndim else float(l1)


def log_factorial(n: int) -> float:
    if n < 0:
        raise ValueError("factorial argument must be non-negative")
    return float(gammaln(n + 1))


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
