"""Marginal probability densities along coordinate axes and planes, as unit-free shapes.

The kernels take axis units, u = x/s with s = gamma on a position axis and
hbar/gamma on a momentum axis, and return unit-integral shapes; one factor
per target turns a shape into a physical density (the CLI's unit boundary).
Every coordinate axis mixes the two modes 50:50.  In the rotated modes the
(n, l) state spreads over the states |k, n+l-k> with weights w_k, the squared
components of a J_x eigenvector of spin (n+l)/2 (Wigner's small d at pi/2),
read off its three-term recurrence at the known eigenvalue with no
eigensolver (_mixture_weights), so every closed form here needs numpy alone;
all four 1D densities have the one shape sum_k w_k phi_k(u)^2, a positive
mixture of squared normalized Hermite functions.  Every term is non-negative
and every phi_k is bounded, so the sum neither cancels nor overflows at any
(n, l) in range.  The paper writes the same density as an alternating Hermite
double sum; that form (_hermite_sum) is kept as the route of the integral
equalities and as the test oracle.  All six coordinate planes have closed
forms, of three shapes (see marginal_2d).  Direct quadrature of the Wigner function is kept
only as the oracle every closed form is checked against, and equating the
two routes yields nontrivial integral identities between the classical
orthogonal polynomials.  Those identities (integral_equality_residuals) are
stated in axis units too, at samples y = q1/gamma, so they take no units.
The oracle walks the order^3 (1D) or order^2 (2D) mesh of the integrated
axes in blocks of _CHUNK Wigner values, so its memory has a fixed bound that
grows neither with n + l nor with the number of points.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .phase_space import PhysParams, mode_coords_arrays
from .quadrature import QuadratureRule, default_order, gauss_hermite
from .specfun import (
    bounded_abs2,
    hermite,
    hermite_function,
    hermite_functions,
    laguerre,
    laguerre_functions,
    log_factorial,
    marginal_hermite_coeff,
)
from .star import displacement_amplitude
from .states import _check_quantum_numbers, wigner_values

AXES = ("q1", "q2", "p1", "p2")
# The six coordinate planes, each in the axis order of AXES.  The checks draw
# their seeded samples plane by plane in this order, so it is fixed; a plane
# is accepted in either order (is_plane).
PLANES = tuple(itertools.combinations(AXES, 2))
# Largest n + l of the integral equalities: the paper's alternating Hermite
# sum keeps a relative residual of 3e-9 at 16 but 3e-7 at 20 and 3e-2 at 30.
_MAX_EQUALITY_ORDER = 16
# Wigner values per block of the quadrature oracle (_complement_quadrature).
# About a dozen float and complex arrays of this length are live at once,
# under 2 MB in all, which fits the 2 MB per-core L2 cache of the 2-core x86
# host it was timed on; 2^15 values per block ran a third slower there.
_CHUNK = 1 << 13


def axis_scale(axis: str, params: PhysParams) -> float:
    """Natural Gaussian width of the axis: gamma for positions, hbar/gamma for momenta."""
    if axis in ("q1", "q2"):
        return params.gamma
    if axis in ("p1", "p2"):
        return params.hbar / params.gamma
    raise ValueError(f"unknown axis {axis!r}")


def axis_norm(axis: str, params: PhysParams) -> float:
    """The paper's prefactor N_axis: a 1D density is 4 sqrt(pi) N_axis = h^2/s times its shape.

    pi^1.5 hbar^2/gamma for positions and pi^1.5 hbar gamma for momenta, each
    formed as hbar times an axis scale, so no intermediate hbar^2 overflows.
    """
    if axis in ("q1", "q2"):
        return math.pi ** 1.5 * params.hbar * (params.hbar / params.gamma)
    if axis in ("p1", "p2"):
        return math.pi ** 1.5 * params.hbar * params.gamma
    raise ValueError(f"unknown axis {axis!r}")


def position_plane_generating(alpha, beta, u, v):
    """Generating function of the position-plane shapes at (u, v) = (q1, q2)/gamma, vectorized.

    The (n, l) shape is 4/(n! l!) times its (n, n, l, l) derivative in (alpha1,
    beta1, alpha2, beta2) at zero.  Parameters and (u, v) broadcast together.
    """
    a1, a2 = (np.asarray(c, dtype=complex) for c in alpha)
    b1, b2 = (np.asarray(c, dtype=complex) for c in beta)
    z = np.asarray(u) + 1j * np.asarray(v)
    zb = np.conj(z)
    expo = -a1 * a2 - b1 * b2 + 1j * (a1 * zb - a2 * z) - 1j * (b1 * z - b2 * zb) - z * zb
    out = np.exp(expo) / (4.0 * math.pi)
    return out if out.ndim else complex(out)


def axis_generating(axis: str, alpha, beta, x):
    """Generating function of the 1D shapes at axis-unit x, vectorized as the plane's.

    The axis picks only the parameter shift.
    """
    a1, a2 = (np.asarray(c, dtype=complex) for c in alpha)
    b1, b2 = (np.asarray(c, dtype=complex) for c in beta)
    if axis == "q1":
        shift = -0.5j * (a1 - a2 - b1 + b2)
    elif axis == "p1":
        shift = -0.5 * (a1 - a2 + b1 - b2)
    elif axis == "q2":
        shift = -0.5 * (a1 + a2 + b1 + b2)
    elif axis == "p2":
        shift = +0.5j * (a1 + a2 - b1 - b2)
    else:
        raise ValueError(f"unknown axis {axis!r}")
    dot = a1 * b1 + a2 * b2
    out = np.exp(dot - (np.asarray(x) + shift) ** 2) / (4.0 * math.sqrt(math.pi))
    return out if out.ndim else complex(out)


def is_plane(plane) -> bool:
    """Whether ``plane`` is two distinct axes of AXES, in either order."""
    plane = tuple(plane)
    return plane in PLANES or plane[::-1] in PLANES


def marginal_1d(n: int, l: int, x):
    """Unit-integral shape of the (n, l) state's 1D marginal densities, the same on every axis.

    sum_{k=0}^{n+l} w_k phi_k(x)^2 at axis-unit x, phi_k the normalized
    Hermite functions and w_k = V[k, n]^2, V the eigenvectors of J_x in the
    spin-(n+l)/2 block (_mixture_weights).  4 sqrt(pi) times it is the paper's
    exp(-u^2) sum_{j<=n} sum_{k<=l} A_{nljk} H_{2(n+l-j-k)}(u) (_hermite_sum),
    whose terms alternate in sign and cancel to nothing from n+l ~ 20 on;
    these are non-negative and bounded.  One recurrence serves every point.
    """
    _check_quantum_numbers(n, l)
    u = np.asarray(x, dtype=float)
    acc = np.zeros_like(u)
    for w, phi in zip(_mixture_weights(n, l), hermite_functions(n + l, u)):
        acc += w * phi * phi
    return acc if acc.ndim else float(acc)


def _mixture_weights(n: int, l: int) -> np.ndarray:
    """Weights w_k, k = 0..n+l, of the 1D densities; non-negative, summing to 1.

    w_k = v_k^2 for the unit eigenvector v of the tridiagonal J_x (zero
    diagonal, off-diagonal e_k = sqrt((n+l-k)(k+1))/2) at its eigenvalue
    n - (n+l)/2.  That eigenvalue is known exactly, so v follows from the
    three-term recurrence e_{k-1} v_{k-1} + e_k v_{k+1} = (n - (n+l)/2) v_k
    with no eigensolver.  The run up from v_0 = 1 (w_0 = C(n+l, n)/2^(n+l)
    is never zero) grows from the edge into the oscillating middle, the
    direction in which it is stable.  The run down from k = n+l has the same
    coefficients, since e_k = e_{n+l-1-k}, so it is the up run mirrored:
    |v_k| = |v_{n+l-k}| (Wigner's small d at pi/2), and only the up run to
    the middle is computed.  When n = l the odd entries are exact zeros.
    The run grows by at most 2^((n+l)/2), so no step overflows.  Oracle:
    scipy.linalg.eigh_tridiagonal of the same matrix (tests/test_marginals.py).
    """
    top = n + l
    twice_eig = 2.0 * n - top
    v = [0.0, 1.0]
    for k in range(top // 2):
        v.append((twice_eig * v[-1] - math.sqrt(k * (top + 1 - k)) * v[-2])
                 / math.sqrt((k + 1) * (top - k)))
    half = np.square(v[1:])
    w = np.concatenate((half, half[:top + 1 - len(half)][::-1]))
    return w / w.sum()


def _hermite_sum(n: int, l: int, u):
    """The paper's Hermite sum of the 1D densities, without their Gaussian and prefactor.

    sum_{j<=n} sum_{k<=l} A_{nljk} H_{2(n+l-j-k)}(u).  Used only by
    integral_equality_residuals, whose identities are stated in it, and as
    the small-(n, l) oracle of marginal_1d: its terms alternate in sign, so
    it loses every digit to cancellation from n+l ~ 20 on.  Terms are
    accumulated in descending degree order so results are reproducible.
    """
    pairs = sorted(
        ((j, k) for j in range(n + 1) for k in range(l + 1)),
        key=lambda jk: (-(n + l - jk[0] - jk[1]), jk),
    )
    acc = np.zeros_like(u)
    for j, k in pairs:
        acc = acc + marginal_hermite_coeff(n, l, j, k) * hermite(2 * (n + l - j - k), u)
    return acc


def _radial_shape(n: int, l: int, u, v):
    """g(rho)^2/pi at rho = |u + iv|: |<n|D(rho)|l>|^2/pi by star.displacement_amplitude."""
    g = displacement_amplitude(np.hypot(u, v), n, l)
    return g * g / math.pi


def _mixed_shape(n: int, l: int, u, v):
    """phi_n((u - v)/sqrt 2)^2 phi_l((u + v)/sqrt 2)^2, phi_k the normalized Hermite functions."""
    s = math.sqrt(2.0)
    return (hermite_function(n, (u - v) / s) * hermite_function(l, (u + v) / s)) ** 2


def _conjugate_shape(n: int, l: int, u, v):
    """The signed (1/pi) sum_k (-1)^k w_k e^{-r^2} L_k(2r^2) at r = |u + iv|."""
    x = 2.0 * bounded_abs2(np.hypot(u, v))
    signed = _mixture_weights(n, l) * (-1.0) ** np.arange(n + l + 1)
    acc = np.zeros_like(x)
    for w, f in zip(signed, laguerre_functions(n + l, x)):
        acc += w * f
    return acc / math.pi


# Each plane's unit-integral density in axis units.  The position plane fixes
# a + conj(b) and the momentum plane a - conj(b); W depends on |a| and |b|
# only, which swapping the two leaves alone.  The conjugate planes (q_j, p_j)
# see one 50:50 mode, in the reduced state sum_k w_k |k><k|.  A 90 degree
# rotation of (q, p) maps (q1, p2) onto (q2, -p1).
_PLANE_SHAPES = {
    ("q1", "q2"): _radial_shape,
    ("q1", "p1"): _conjugate_shape,
    ("q1", "p2"): _mixed_shape,
    ("q2", "p1"): lambda n, l, u, v: _mixed_shape(n, l, u, -v),
    ("q2", "p2"): _conjugate_shape,
    ("p1", "p2"): _radial_shape,
}


def marginal_2d(n: int, l: int, plane, x, y):
    """Unit-integral shape of the 2D marginal on any coordinate plane, vectorized over (x, y).

    x and y are in axis units, in either axis order, for 0 <= n, l <=
    states.MAX_QUANTUM_NUMBER; the physical density is (h/s_x)(h/s_y) times
    this.  The shapes: radial on (q1, q2) and (p1, p2), Hermite products on
    (q1, p2) and (q2, p1), and a signed one-mode Wigner function on the
    conjugate planes (q1, p1) and (q2, p2).
    """
    plane = tuple(plane)
    if not is_plane(plane):
        raise ValueError(f"invalid plane {plane!r}")
    if plane not in PLANES:
        plane, x, y = plane[::-1], y, x
    _check_quantum_numbers(n, l)
    out = _PLANE_SHAPES[plane](n, l, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return out if out.ndim else float(out)


def marginal_2d_quadrature(n: int, l: int, plane, x, y, params: PhysParams,
                           rule: QuadratureRule | None = None):
    """Any-plane 2D marginal via quadrature over the complementary axes (oracle route)."""
    if not is_plane(plane):
        raise ValueError(f"invalid plane {plane!r}")
    return _complement_quadrature(n, l, plane, (x, y), params, rule)


def _complement_quadrature(n: int, l: int, fixed, values, params: PhysParams,
                           rule: QuadratureRule | None):
    """Integrate the (n, l) Wigner function over the axes not in ``fixed``.

    ``values`` holds one coordinate array per fixed axis, broadcast together
    to the output shape.  Each output point is one tensor-rule sum over the
    mesh of the complementary axes, order^2 or order^3 nodes.  The mesh is
    never built: it is walked in flat index order, a block of its nodes
    against a block of output points at a time, _CHUNK Wigner values per
    block, and each block is reduced by one weighted contraction.  So the
    memory held is a fixed multiple of _CHUNK values, whatever the order
    and the number of points.
    """
    if rule is None:
        rule = gauss_hermite(default_order(n, l))
    others = [ax for ax in AXES if ax not in fixed]
    nodes, weights = zip(*(rule.scaled(axis_scale(ax, params)) for ax in others))
    mesh = tuple(len(x) for x in nodes)
    size = math.prod(mesh)
    values = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    points = [v.reshape(-1) for v in values]
    out = np.zeros(points[0].size)
    cols = max(1, min(out.size, _CHUNK))
    rows = _CHUNK // cols
    for p0 in range(0, out.size, cols):
        block = slice(p0, p0 + cols)
        coords = {ax: v[None, block] for ax, v in zip(fixed, points)}
        for m0 in range(0, size, rows):
            idx = np.unravel_index(np.arange(m0, min(m0 + rows, size)), mesh)
            coords.update((ax, x[i][:, None]) for ax, x, i in zip(others, nodes, idx))
            w = functools.reduce(np.multiply, (wt[i] for wt, i in zip(weights, idx)))
            a, b = mode_coords_arrays(*(coords[ax] for ax in AXES), params)
            out[block] += w @ np.real(wigner_values(n, l, a, b))
    out = out.reshape(values[0].shape)
    return out if out.ndim else float(out)


def integral_equality_residuals(n: int, l: int, samples):
    """Residuals of the two quadrature identities behind the 1D/2D consistency, unit-free.

    At each sample y = q1/gamma the Hermite sum of the 1D shape (Gaussian
    stripped) is compared against the integral of each closed-form 2D shape
    over its second axis unit, likewise stripped of the shared Gaussian, which
    the raw Laguerre and Hermite-product integrands cancel exactly.  Returns a
    list of (y, lhs, |lhs - laguerre branch|, |lhs - hermite branch|); lhs is a
    positive mixture of squared Hermite functions, so it is never zero.  Refuses
    n + l > 16, where the alternating Hermite sum cancels to wrong digits.
    """
    if n < l:
        raise ValueError(f"pair ({n}, {l}): the position-plane branch requires n >= l")
    if n + l > _MAX_EQUALITY_ORDER:
        raise ValueError(f"integral equalities need n + l <= {_MAX_EQUALITY_ORDER}, got "
                         f"({n}, {l}): the paper's alternating sum cancels past that")
    # the rule's weight exp(-t^2) is the second axis' share of the Gaussian
    rule = gauss_hermite(default_order(n, l))
    t, w = rule.nodes, rule.weights
    n_lag = 4.0 * math.exp(log_factorial(l) - log_factorial(n)) / math.sqrt(math.pi)
    n_herm = 4.0 * math.exp(
        -log_factorial(n) - log_factorial(l) - (n + l) * math.log(2.0)
    ) / math.sqrt(math.pi)

    out = []
    for y in np.asarray(samples, dtype=float):
        lhs = _hermite_sum(n, l, y)
        # position-plane branch, integrated over q2
        rho2 = y * y + t * t
        rhs_lag = n_lag * np.sum(w * rho2 ** (n - l) * laguerre(l, n - l, rho2) ** 2)
        # mixed-plane branch, integrated over p2
        rhs_herm = n_herm * np.sum(w * hermite(n, (y - t) / math.sqrt(2.0)) ** 2
                                   * hermite(l, (y + t) / math.sqrt(2.0)) ** 2)
        out.append((float(y), float(lhs), abs(lhs - rhs_lag), abs(lhs - rhs_herm)))
    return out


def marginal_1d_quadrature(n: int, l: int, axis: str, x, params: PhysParams):
    """1D marginal by direct 3D quadrature of the Wigner function (oracle route)."""
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    return _complement_quadrature(n, l, (axis,), (x,), params, None)
