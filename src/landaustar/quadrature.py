"""Gauss-Hermite rules and tensor-product integration over R^1..R^4.

Every integrand in this package is a polynomial times an axis-aligned Gaussian
whose widths are known (gamma on position axes, hbar/gamma on momentum axes),
so a rescaled Gauss-Hermite rule integrates it exactly up to rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

MAX_ORDER = 200


@dataclass(frozen=True)
class QuadratureRule:
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def scaled(self, width: float):
        """Nodes x = width*t and weights width*w*exp(t^2) for a plain integral over x.

        The factor exp(t^2) cancels the rule's own weight function, so
        sum(weights * f(x)) estimates the integral of f; it is exact when f is
        a polynomial of degree below 2*order times exp(-(x/width)^2).
        """
        t = self.nodes
        return width * t, width * self.weights * np.exp(t * t)


@functools.cache
def gauss_hermite(order: int) -> QuadratureRule:
    """Nodes and weights for the weight exp(-x^2) on the real line.

    One rule per order is built and shared; its arrays are read-only.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    nodes, weights = roots_hermite(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def default_order(n: int, l: int, minimum: int = 16) -> int:
    """Per-axis order used for states with quantum numbers (n, l)."""
    return max(minimum, n + l + 8)


def integrate_nd(f, scales, rule: QuadratureRule):
    """Tensor-product Gauss-Hermite estimate of the integral of f over R^dims.

    ``scales`` holds one positive width per axis (dims = len(scales), 1..4);
    the rule is rescaled per axis by QuadratureRule.scaled.  ``f`` is called
    with ``dims`` broadcastable coordinate arrays and must evaluate elementwise.  Exactness is the caller's contract: f has
    to decay like the matching Gaussian times a polynomial of degree below
    2*order per axis.  Summation order is fixed, so results are reproducible.
    """
    scales = [float(s) for s in np.atleast_1d(scales)]
    dims = len(scales)
    if not 1 <= dims <= 4:
        raise ValueError("integrate_nd supports 1 to 4 dimensions")
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    axes, weights = zip(*(rule.scaled(s) for s in scales))

    if dims == 1:
        return np.sum(weights[0] * np.asarray(f(axes[0])))

    # Slab over the first axis to bound memory at order^(dims-1).
    inner = np.meshgrid(*axes[1:], indexing="ij")
    w_inner = functools.reduce(np.multiply.outer, weights[1:])
    slab_sums = np.empty(rule.order, dtype=complex)
    for i, x0 in enumerate(axes[0]):
        vals = np.asarray(f(np.full_like(inner[0], x0), *inner))
        slab_sums[i] = weights[0][i] * np.sum(w_inner * vals)
    total = np.sum(slab_sums)
    if abs(total.imag) == 0.0:
        return total.real
    return total
