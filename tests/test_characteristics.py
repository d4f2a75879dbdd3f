"""The flux Jacobian and the wave fan against the closed-form characteristic
reference in characteristics.py, over the whole (D, Z) window.

States are drawn with D anywhere above the gas model's bound up to 12, Z =
Pi/p up to 0.99 of both window edges, rho and T in [0.1, 10], any velocity
in [-2, 2]^3 and any direction n.  The coupling condition takes its sound
eigenvectors from acceleration_wave, which these tests tie to the
reference at Pi = 0.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from characteristics import characteristics  # noqa: E402
from et6.eigen import acceleration_wave, flux_jacobian, wave_fan  # noqa: E402
from et6.gas import D_MIN, GasSpec, State6, conserved_from_primitive  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
EIGENPAIR_TOL = 1e-13   # |A r - lambda r|, relative to |A| |r|
SPEED_TOL = 1e-10       # numerical against closed-form speeds, relative to |v_n| + c


@st.composite
def states(draw, equilibrium: bool = False):
    """(spec, state, unit direction) anywhere in the window."""
    spec = GasSpec(D=draw(st.floats(D_MIN, 12.0)))
    edge = 0.0 if equilibrium else draw(st.floats(-0.99, 0.99))
    rho, T = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    z = edge if edge < 0.0 else edge * spec.z_upper
    v = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    n = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                      .filter(lambda x: np.linalg.norm(x) > 0.1)))
    s = State6(rho=rho, v=v, T=T, Pi=z * spec.gas_constant * rho * T)
    return spec, s, n / np.linalg.norm(n)


def reference(spec: GasSpec, s: State6, n: np.ndarray):
    return characteristics(s.rho, s.v, s.pressure(spec), s.Pi, spec.D, n)


def speed_scale(speeds: np.ndarray) -> float:
    """|v_n| + c from the reference speeds."""
    return abs(speeds[1]) + 0.5 * (speeds[-1] - speeds[0])


@PROPERTY
@given(states())
def test_flux_jacobian_has_the_closed_form_eigenpairs(case):
    spec, s, n = case
    a_matrix = flux_jacobian(conserved_from_primitive(s, spec), n, spec)
    speeds, vectors = reference(spec, s, n)
    scale = np.linalg.norm(a_matrix, 2)
    for speed, r in zip(speeds, vectors.T):
        residual = np.linalg.norm(a_matrix @ r - speed * r) / (scale * np.linalg.norm(r))
        assert residual <= EIGENPAIR_TOL, (speed, residual)


@PROPERTY
@given(states())
def test_wave_fan_speeds_match_the_closed_form(case):
    spec, s, n = case
    fan = wave_fan(conserved_from_primitive(s, spec), n, spec)
    speeds, _ = reference(spec, s, n)
    assert np.max(np.abs(fan.speeds - speeds)) <= SPEED_TOL * speed_scale(speeds)


@PROPERTY
@given(states(equilibrium=True))
def test_acceleration_wave_is_the_closed_form_sound_eigenvector(case):
    spec, s, n = case
    speeds, vectors = reference(spec, s, n)
    waves = acceleration_wave(conserved_from_primitive(s, spec), n, s.rho, spec)
    for speed, r, wave in zip(speeds[[0, -1]], vectors.T[[0, -1]], waves):
        assert wave.speed == pytest.approx(speed, rel=1e-14, abs=1e-14 * speed_scale(speeds))
        np.testing.assert_allclose(wave.conserved_jump, r, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(r)))
