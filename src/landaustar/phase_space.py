"""Physical parameters, phase-space points and the canonical/complex coordinate maps.

A spinless charge moving in a plane, in a uniform perpendicular magnetic field
(symmetric gauge).  Every quantity in this package is parametrized by hbar, the
mass and the cyclotron frequency; the magnetic length gamma = sqrt(2*hbar/(m*omega))
sets the Gaussian width of all densities.

The mode map is written once, in axis units (u = q/gamma, v = p gamma/hbar),
where it has no constant (axis_mode_coords); the physical-unit map divides by
the axis scales gamma and hbar/gamma and calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the system.  Defaults are the dimensionless regime."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.hbar, self.mass, self.omega)):
            raise ValueError("hbar, mass and omega must all be positive and finite")
        g = self.gamma if self.mass * self.omega > 0 else math.inf  # the product can underflow
        if not (0.0 < g < math.inf and 0.0 < self.hbar / g < math.inf):
            raise ValueError("these units put the axis scales gamma and hbar/gamma "
                             "outside the floating-point range")

    @property
    def gamma(self) -> float:
        """Magnetic length sqrt(2*hbar/(mass*omega))."""
        return math.sqrt(2.0 * self.hbar / (self.mass * self.omega))

    @property
    def planck_h(self) -> float:
        return 2.0 * math.pi * self.hbar


@dataclass(frozen=True)
class PhasePoint:
    """A point (q1, q2, p1, p2) of the four-dimensional phase space."""

    q1: float
    q2: float
    p1: float
    p2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.q1, self.q2, self.p1, self.p2))):
            raise ValueError("phase-space coordinates must be finite")


@dataclass(frozen=True)
class ModeCoords:
    """Complex coordinates of the two commuting oscillator modes."""

    a: complex
    b: complex

    @property
    def abar(self) -> complex:
        return self.a.conjugate()

    @property
    def bbar(self) -> complex:
        return self.b.conjugate()


def axis_mode_coords(u1, u2, v1, v2):
    """Vectorized canonical -> mode map in axis units; returns the complex pair (a, b).

    With u = q/gamma and v = p gamma/hbar the map has no constant:
    a - b = v1 - i u1 and a + b = u2 + i v2.
    """
    u1, u2, v1, v2 = (np.asarray(x, dtype=float) for x in (u1, u2, v1, v2))
    d = v1 - 1j * u1
    s = u2 + 1j * v2
    return 0.5 * (s + d), 0.5 * (s - d)


def mode_coords_arrays(q1, q2, p1, p2, params: PhysParams):
    """Vectorized canonical -> mode map: axis_mode_coords of the point in axis units."""
    sq, sp = params.gamma, params.hbar / params.gamma
    q1, q2, p1, p2 = (np.asarray(x, dtype=float) for x in (q1, q2, p1, p2))
    return axis_mode_coords(q1 / sq, q2 / sq, p1 / sp, p2 / sp)


def to_mode_coords(pt: PhasePoint, params: PhysParams) -> ModeCoords:
    a, b = mode_coords_arrays(pt.q1, pt.q2, pt.p1, pt.p2, params)
    return ModeCoords(complex(a), complex(b))


def from_mode_coords(mc: ModeCoords, params: PhysParams) -> PhasePoint:
    """Inverse of to_mode_coords: axis_mode_coords inverted, times the axis scales."""
    d, s = mc.a - mc.b, mc.a + mc.b
    sq, sp = params.gamma, params.hbar / params.gamma
    return PhasePoint(-sq * d.imag, sq * s.real, sp * d.real, sp * s.imag)


def velocities(pt: PhasePoint, params: PhysParams):
    """Kinematic velocity components in the symmetric gauge."""
    m, w = params.mass, params.omega
    v1 = (pt.p1 + m * w * pt.q2 / 2.0) / m
    v2 = (pt.p2 - m * w * pt.q1 / 2.0) / m
    return v1, v2


def classical_hamiltonian(pt: PhasePoint, params: PhysParams) -> float:
    """Kinetic energy m(v1^2 + v2^2)/2; equals hbar*omega*|a|^2 pointwise."""
    v1, v2 = velocities(pt, params)
    return 0.5 * params.mass * (v1 * v1 + v2 * v2)


def classical_angular_momentum(pt: PhasePoint, params: PhysParams) -> float:
    """Canonical angular momentum q1 p2 - q2 p1; equals hbar(|b|^2 - |a|^2)."""
    return pt.q1 * pt.p2 - pt.q2 * pt.p1
