import math

import numpy as np
import pytest

from landaustar.phase_space import (
    PhasePoint,
    PhysParams,
    axis_mode_coords,
    mode_coords_arrays,
    to_mode_coords,
)

PARAMS = PhysParams()


def kinetic_energy(pt, params):
    """m (v1^2 + v2^2)/2 with the symmetric-gauge velocities."""
    m, w = params.mass, params.omega
    v1 = (pt.p1 + m * w * pt.q2 / 2.0) / m
    v2 = (pt.p2 - m * w * pt.q1 / 2.0) / m
    return 0.5 * m * (v1 * v1 + v2 * v2)


def from_mode_coords(mc, params):
    """The inverse of to_mode_coords, from a - b = v1 - i u1 and a + b = u2 + i v2."""
    d, s = mc.a - mc.b, mc.a + mc.b
    sq, sp = params.gamma, params.hbar / params.gamma
    return PhasePoint(-sq * d.imag, sq * s.real, sp * d.real, sp * s.imag)


def test_default_regime():
    assert PARAMS.hbar == PARAMS.mass == PARAMS.omega == 1.0
    assert PARAMS.gamma == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert PARAMS.planck_h == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_gamma_invariant_other_units():
    p = PhysParams(hbar=0.7, mass=2.3, omega=1.9)
    assert p.gamma ** 2 == pytest.approx(2.0 * p.hbar / (p.mass * p.omega), rel=1e-15)
    assert p.planck_h == pytest.approx(2.0 * math.pi * p.hbar, rel=1e-15)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        PhysParams(hbar=-1.0)
    # gamma or hbar/gamma outside the float range: inf, 0, and mass * omega = 0
    for units in ({"hbar": 1e300, "mass": 1e-300}, {"hbar": 1e-300, "mass": 1e300},
                  {"mass": 1e-300, "omega": 1e-300}):
        with pytest.raises(ValueError, match="gamma"):
            PhysParams(**units)
    with pytest.raises(ValueError):
        PhasePoint(0.0, math.inf, 0.0, 0.0)


def test_mode_coords_at_origin():
    mc = to_mode_coords(PhasePoint(0, 0, 0, 0), PARAMS)
    assert mc.a == 0 and mc.b == 0


def test_mode_coords_momentum_point():
    mc = to_mode_coords(PhasePoint(0, 0, 1, 0), PARAMS)
    assert mc.a == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert mc.b == pytest.approx(-1 / math.sqrt(2), abs=1e-15)


def test_mode_coords_position_point():
    mc = to_mode_coords(PhasePoint(1, 0, 0, 0), PARAMS)
    assert mc.a == pytest.approx(-0.25j * math.sqrt(2), abs=1e-15)
    assert mc.b == pytest.approx(0.25j * math.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("params", [PARAMS, PhysParams(hbar=0.5, mass=3.0, omega=2.2)])
def test_energy_identity_random_points(params):
    rng = np.random.default_rng(7)
    for _ in range(50):
        pt = PhasePoint(*rng.uniform(-2, 2, size=4))
        mc = to_mode_coords(pt, params)
        want = params.hbar * params.omega * abs(mc.a) ** 2
        got = kinetic_energy(pt, params)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("params", [PARAMS, PhysParams(hbar=0.5, mass=3.0, omega=2.2)])
def test_angular_momentum_identity_random_points(params):
    rng = np.random.default_rng(8)
    for _ in range(50):
        pt = PhasePoint(*rng.uniform(-2, 2, size=4))
        mc = to_mode_coords(pt, params)
        want = params.hbar * (abs(mc.b) ** 2 - abs(mc.a) ** 2)
        got = pt.q1 * pt.p2 - pt.q2 * pt.p1
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("params", [PARAMS, PhysParams(hbar=2.0, mass=0.4, omega=1.3)])
def test_mode_map_round_trip(params):
    rng = np.random.default_rng(9)
    for _ in range(50):
        pt = PhasePoint(*rng.uniform(-3, 3, size=4))
        back = from_mode_coords(to_mode_coords(pt, params), params)
        for attr in ("q1", "q2", "p1", "p2"):
            assert getattr(back, attr) == pytest.approx(getattr(pt, attr), abs=1e-13)


@pytest.mark.parametrize("hbar", [1e-200, 1.0, 1e200])
def test_physical_map_is_the_axis_map_of_the_scaled_point(hbar):
    """The mode map is written once, in axis units; the physical one divides by the
    axis scales first, and from_mode_coords inverts it at any units."""
    params = PhysParams(hbar=hbar, mass=0.7)
    sq, sp = params.gamma, params.hbar / params.gamma
    rng = np.random.default_rng(10)
    u1, u2, v1, v2 = rng.uniform(-3, 3, size=(4, 50))
    a, b = mode_coords_arrays(sq * u1, sq * u2, sp * v1, sp * v2, params)
    a_axis, b_axis = axis_mode_coords(u1, u2, v1, v2)
    assert np.allclose(a, a_axis, rtol=1e-15, atol=1e-15)
    assert np.allclose(b, b_axis, rtol=1e-15, atol=1e-15)
    # a - b = v1 - i u1 and a + b = u2 + i v2, with no constant
    assert np.allclose(a_axis - b_axis, v1 - 1j * u1, rtol=1e-15, atol=1e-15)
    assert np.allclose(a_axis + b_axis, u2 + 1j * v2, rtol=1e-15, atol=1e-15)
    for point in zip(sq * u1, sq * u2, sp * v1, sp * v2):
        pt = PhasePoint(*point)
        back = from_mode_coords(to_mode_coords(pt, params), params)
        assert back.q1 == pytest.approx(pt.q1, rel=1e-14, abs=1e-14 * sq)
        assert back.q2 == pytest.approx(pt.q2, rel=1e-14, abs=1e-14 * sq)
        assert back.p1 == pytest.approx(pt.p1, rel=1e-14, abs=1e-14 * sp)
        assert back.p2 == pytest.approx(pt.p2, rel=1e-14, abs=1e-14 * sp)
