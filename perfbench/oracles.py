"""Reference answers the benchmark checks each operation against.

Each oracle takes a route independent of the production route it checks:
closed forms written here from the documented formulas (with SciPy's
orthogonal polynomials, not the package's recurrences), normal-ordered
moments instead of Fock-coefficient traces, and the package's own
quadrature routes for the marginal densities.  Oracles run outside the timed
region.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
from scipy.special import eval_laguerre

_marginals = importlib.import_module("landaustar.marginals")
_states = importlib.import_module("landaustar.states")
_quadrature = importlib.import_module("landaustar.quadrature")

HBAR = 1.0  # the benchmark runs the default PhysParams(hbar=1, mass=1, omega=1)
GAMMA = math.sqrt(2.0)


def mode_coords(q1, q2, p1, p2):
    """Canonical -> mode coordinates for hbar = mass = omega = 1."""
    kin = 1.0 / GAMMA
    pos = 1.0 / (2.0 * GAMMA)
    q1, q2, p1, p2 = (np.asarray(x, dtype=float) for x in (q1, q2, p1, p2))
    a = kin * (p1 + 1j * p2) - 1j * pos * (q1 + 1j * q2)
    b = -kin * (p1 - 1j * p2) + 1j * pos * (q1 - 1j * q2)
    return a, b


def wigner(n, l, a, b):
    """(-1)^(n+l) L_n(4|a|^2) L_l(4|b|^2) 4 exp(-2(|a|^2 + |b|^2))."""
    xa = 4.0 * np.abs(a) ** 2
    xb = 4.0 * np.abs(b) ** 2
    return ((-1.0) ** (n + l) * eval_laguerre(n, xa) * eval_laguerre(l, xb)
            * 4.0 * np.exp(-0.5 * (xa + xb)))


def coherent(alpha1, alpha2, a, b):
    return 4.0 * np.exp(-2.0 * (np.abs(a - alpha1) ** 2 + np.abs(b - alpha2) ** 2))


def displaced_wigner(n, l, alpha1, alpha2, a, b):
    """Generalized coherent state: the (n, l) Wigner function shifted in mode space."""
    return np.real(_states.wigner_values(n, l, a - alpha1, b - alpha2))


def marginal_1d(n, l, axis, x, params):
    """1D marginal by 3D tensor quadrature of the Wigner function."""
    return _marginals.marginal_1d_quadrature(n, l, axis, x, params)


def marginal_2d(n, l, plane, x, y, params):
    """2D marginal by quadrature, with a rule 8 orders above the CLI's."""
    rule = _quadrature.gauss_hermite(max(16, n + l + 8) + 8)
    return _marginals.marginal_2d_quadrature(n, l, plane, x, y, params, rule)


def uncertainty_product(n, l):
    """Exact Delta q1 * Delta p1 in the (n, l) state."""
    return HBAR * (n + l + 1) / 2.0


# -- normal-ordered moments ---------------------------------------------------

def _falling(n, k):
    return math.perm(n, k) if k <= n else 0


def _wigner_moment(n, l):
    """<abar^i a^j bbar^k b^m> in the (n, l) state."""
    def moment(i, j, k, m):
        if i != j or k != m:
            return 0.0
        return float(_falling(n, i) * _falling(l, k))
    return moment


def _coherent_moment(alpha1, alpha2):
    c1, c2 = complex(alpha1), complex(alpha2)

    def moment(i, j, k, m):
        return c1.conjugate() ** i * c1 ** j * c2.conjugate() ** k * c2 ** m
    return moment


def expectation_with_scale(poly, state):
    """<poly> from normal-ordered closed-form moments, and the sum of |terms|.

    ``state`` is ("wigner", n, l), ("coherent", alpha1, alpha2) or
    ("gencoherent", n, l, alpha1, alpha2); a generalized coherent state moves
    the displacement onto the polynomial and uses the (n, l) moments.  The
    sum of absolute terms bounds how much rounding the value can carry.
    """
    kind = state[0]
    if kind == "wigner":
        moment = _wigner_moment(state[1], state[2])
    elif kind == "coherent":
        moment = _coherent_moment(state[1], state[2])
    elif kind == "gencoherent":
        _, n, l, alpha1, alpha2 = state
        poly = _states.displaced_polynomial(poly, alpha1, alpha2)
        moment = _wigner_moment(n, l)
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    terms = [c * moment(*key) for key, c in poly.normal_form().items()]
    return sum(terms, 0j), max(1.0, sum(abs(t) for t in terms))


def variance(f, state):
    """<conj(f) * f> - <f><conj(f)>, and its rounding scale."""
    fbar = f.conjugate()
    second, scale = expectation_with_scale(fbar * f, state)
    mean_f, scale_f = expectation_with_scale(f, state)
    mean_fbar, _ = expectation_with_scale(fbar, state)
    return float((second - mean_f * mean_fbar).real), scale + scale_f ** 2


def rs_slack(f, g, state):
    """Robertson-Schrodinger slack, and its rounding scale."""
    fg, _ = expectation_with_scale(f * g, state)
    gf, _ = expectation_with_scale(g * f, state)
    mean_f, _ = expectation_with_scale(f, state)
    mean_g, _ = expectation_with_scale(g, state)
    bracket = fg - gf
    anti = fg + gf - 2.0 * mean_f * mean_g
    (var_f, scale_f), (var_g, scale_g) = variance(f, state), variance(g, state)
    bound = 0.25 * (bracket.imag ** 2 + anti.real ** 2)
    return var_f * var_g - bound, max(scale_f * scale_g, bound)
