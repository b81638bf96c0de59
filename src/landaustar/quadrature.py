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


def default_order(n: int, l: int) -> int:
    """Per-axis order used for states with quantum numbers (n, l)."""
    return max(16, n + l + 8)


def integrate_nd(f, scales, rule: QuadratureRule):
    """Tensor-product Gauss-Hermite estimate of the integral of f over R^dims.

    ``scales`` holds one positive width per axis (dims = len(scales), 1..4);
    the rule is rescaled per axis by QuadratureRule.scaled.  ``f`` is called
    with ``dims`` broadcastable coordinate arrays and must evaluate
    elementwise.  Trailing axes of its value past the coordinates' shape hold
    separate integrands: the result is then an array of their integrals, each
    equal to the integral of that integrand alone, so one evaluation of shared
    basis values per slab serves them all.  Exactness is the caller's
    contract: f has to decay like the matching Gaussian times a polynomial of
    degree below 2*order per axis.  Summation order is fixed, so results are
    reproducible.
    """
    scales = [float(s) for s in np.atleast_1d(scales)]
    dims = len(scales)
    if not 1 <= dims <= 4:
        raise ValueError("integrate_nd supports 1 to 4 dimensions")
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    axes, weights = zip(*(rule.scaled(s) for s in scales))

    if dims == 1:
        return _weighted_sums(weights[0], np.asarray(f(axes[0])))

    # Slab over the first axis to bound memory at order^(dims-1).
    inner = np.meshgrid(*axes[1:], indexing="ij")
    w_inner = functools.reduce(np.multiply.outer, weights[1:])
    slab_sums = np.array([_weighted_sums(w_inner, np.asarray(f(np.full_like(inner[0], x0), *inner)))
                          for x0 in axes[0]], dtype=complex)
    total = _weighted_sums(weights[0], slab_sums)
    if np.all(total.imag == 0.0):
        return total.real
    return total


def _weighted_sums(w, vals):
    """np.sum(w * v) over the axes of w, one sum per trailing index of vals.

    Each integrand is summed alone, so its sum is the same, to the last bit,
    as the sum of that integrand passed by itself.
    """
    extra = vals.shape[w.ndim:]
    if not extra:
        return np.sum(w * vals)
    out = np.empty(extra, dtype=np.result_type(w, vals))
    for k in np.ndindex(extra):
        out[k] = np.sum(w * vals[(...,) + k])
    return out
