import math

import numpy as np
import pytest

from et6.gas import GasSpec, State6, conserved_from_primitive, temperatures
from et6.closure import closed_fluxes, entropy_parts
from et6.eigen import (
    SYMMETRY_TOL,
    EquilibriumRequiredError,
    _du_dw,
    _entropy_derivatives,
    acceleration_wave,
    convexity_check,
    et6_sound_speed,
    euler_sound_speed,
    flux_jacobian,
    grad_pi_conserved,
    hyperbolicity_scan,
    k_condition,
    production_jacobian,
    wave_fan,
)
from finite_differences import fd_derivative, main_field_of

SOUND_D5 = 1.2909944487358056  # sqrt(5/3) at rho = p = 1


@pytest.fixture
def d5():
    return GasSpec(D=5.0)


def _conserved(rho, v, T, Pi, spec):
    return conserved_from_primitive(State6(rho=rho, v=v, T=T, Pi=Pi), spec)


def _flux_vector(u_vec, n, spec):
    from et6.gas import primitive_from_conserved

    return np.asarray(n, dtype=float) @ closed_fluxes(primitive_from_conserved(u_vec, spec), spec)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobian_matches_finite_differences(seed, d5):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0)
    T = rng.uniform(0.5, 2.0)
    v = rng.uniform(-1.0, 1.0, size=3)
    z = rng.uniform(-0.5, 0.5 * d5.z_upper)
    u = _conserved(rho, v, T, z * rho * T, d5)
    n = np.array([1.0, 0.0, 0.0])
    a_matrix = flux_jacobian(u, n, d5)
    a_fd = np.zeros((6, 6))
    for j in range(6):
        h = 1e-6 * max(abs(u[j]), 1.0)
        up = u.copy(); up[j] += h
        um = u.copy(); um[j] -= h
        a_fd[:, j] = (_flux_vector(up, n, d5) - _flux_vector(um, n, d5)) / (2 * h)
    scale = np.max(np.abs(a_matrix))
    assert np.max(np.abs(a_matrix - a_fd)) <= 1e-7 * scale


def test_jacobian_rest_frame_structure(d5):
    # at v = 0 with n = x the tangential momentum rows decouple entirely
    u = _conserved(1.0, 0.0, 1.0, 0.0, d5)
    a_matrix = flux_jacobian(u, [1.0, 0.0, 0.0], d5)
    np.testing.assert_allclose(a_matrix[2, :], 0.0, atol=1e-14)
    np.testing.assert_allclose(a_matrix[3, :], 0.0, atol=1e-14)


def test_trace_equals_eigenvalue_sum(d5):
    u = _conserved(1.3, [0.4, -0.1, 0.2], 0.8, 0.1, d5)
    a_matrix = flux_jacobian(u, [0.0, 1.0, 0.0], d5)
    fan = wave_fan(u, [0.0, 1.0, 0.0], d5)
    assert np.sum(fan.speeds) == pytest.approx(np.trace(a_matrix), rel=1e-10, abs=1e-12)


def test_wave_fan_equilibrium_speeds(d5):
    fan = wave_fan(_conserved(1.0, 0.0, 1.0, 0.0, d5), [1, 0, 0], d5)
    expected = np.array([-SOUND_D5, 0.0, 0.0, 0.0, 0.0, SOUND_D5])
    np.testing.assert_allclose(fan.speeds, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("D", [4.0, 5.0, 7.0, 12.0])
def test_sound_speed_independent_of_degrees_of_freedom(D):
    # fixed (rho, p): identical acoustic speeds for every D
    spec = GasSpec(D=D)
    T = 1.0  # rho = 1, kB = m = 1 gives p = 1 for any D
    fan = wave_fan(_conserved(1.0, 0.0, T, 0.0, spec), [1, 0, 0], spec)
    assert fan.speeds[-1] == pytest.approx(SOUND_D5, rel=1e-10)
    assert fan.speeds[0] == pytest.approx(-SOUND_D5, rel=1e-10)


def test_wave_fan_nonequilibrium_real(d5):
    fan = wave_fan(_conserved(1.0, 0.0, 1.0, 0.3, d5), [1, 0, 0], d5)
    assert fan.speeds.shape == (6,)
    assert np.all(np.isfinite(fan.speeds))
    # acoustic speeds stiffen with positive Pi
    assert fan.speeds[-1] == pytest.approx(et6_sound_speed(1.0, 1.0, 0.3), rel=1e-10)


def test_point_checks_take_a_plain_list(d5):
    u = _conserved(1.2, [0.5, -0.1, 0.3], 0.9, 0.15, d5)
    fan, listed = wave_fan(u, [1, 0, 0], d5), wave_fan(u.tolist(), [1, 0, 0], d5)
    assert listed.speeds.tobytes() == fan.speeds.tobytes()
    assert listed.right_eigenvectors.tobytes() == fan.right_eigenvectors.tobytes()
    assert convexity_check(u.tolist(), d5) == convexity_check(u, d5)


def test_zero_direction_is_refused(d5):
    u = _conserved(1.0, 0.0, 1.0, 0.0, d5)
    for check in (wave_fan, flux_jacobian, k_condition):
        with pytest.raises(ValueError, match="nonzero"):
            check(u, [0.0, 0.0, 0.0], d5)


def test_wave_fan_galilean_shift(d5):
    v = np.array([0.7, -0.3, 0.2])
    n = np.array([1.0, 0.0, 0.0])
    rest = wave_fan(_conserved(1.0, 0.0, 1.0, 0.2, d5), n, d5)
    moving = wave_fan(_conserved(1.0, v, 1.0, 0.2, d5), n, d5)
    np.testing.assert_allclose(moving.speeds, rest.speeds + v[0], rtol=1e-10, atol=1e-12)


def test_wave_fan_rotation_invariance(d5):
    rng = np.random.default_rng(3)
    angles = rng.uniform(0, 2 * math.pi, size=3)
    cx, sx = math.cos(angles[0]), math.sin(angles[0])
    cy, sy = math.cos(angles[1]), math.sin(angles[1])
    cz, sz = math.cos(angles[2]), math.sin(angles[2])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    rot = rz @ ry @ rx
    v = np.array([0.5, -0.1, 0.3])
    n = np.array([1.0, 0.0, 0.0])
    base = wave_fan(_conserved(1.2, v, 0.9, 0.15, d5), n, d5)
    rotated = wave_fan(_conserved(1.2, rot @ v, 0.9, 0.15, d5), rot @ n, d5)
    np.testing.assert_allclose(rotated.speeds, base.speeds, rtol=1e-10, atol=1e-12)


def test_acceleration_wave_amplitudes(d5):
    u = _conserved(1.0, 0.0, 1.0, 0.0, d5)  # eps = 2.5
    minus, plus = acceleration_wave(u, [1, 0, 0], 1.0, d5)
    for wave in (minus, plus):
        assert wave.delta_pi == pytest.approx(4.0 / 15.0, rel=1e-14)
        assert wave.delta_eps == pytest.approx(1.0, rel=1e-14)
    assert plus.delta_v[0] == pytest.approx(SOUND_D5, rel=1e-12)
    assert minus.delta_v[0] == pytest.approx(-SOUND_D5, rel=1e-12)


def test_acceleration_wave_linear_in_amplitude(d5):
    u = _conserved(1.0, 0.0, 1.0, 0.0, d5)
    minus, plus = acceleration_wave(u, [1, 0, 0], 0.0, d5)
    for wave in (minus, plus):
        assert wave.delta_pi == 0.0
        assert wave.delta_eps == 0.0
        np.testing.assert_allclose(wave.delta_v, 0.0)
        np.testing.assert_allclose(wave.conserved_jump, 0.0)


def test_acceleration_wave_requires_equilibrium(d5):
    with pytest.raises(EquilibriumRequiredError):
        acceleration_wave(_conserved(1.0, 0.0, 1.0, 0.2, d5), [1, 0, 0], 1.0, d5)


@pytest.mark.parametrize("D", [4.0, 5.0, 7.0])
def test_acceleration_wave_matches_eigenvector(D):
    spec = GasSpec(D=D)
    u = _conserved(1.0, [0.2, 0.0, 0.0], 1.0, 0.0, spec)
    fan = wave_fan(u, [1, 0, 0], spec)
    _, plus = acceleration_wave(u, [1, 0, 0], 1.0, spec)
    idx = int(np.argmax(fan.speeds))
    numeric = fan.right_eigenvectors[:, idx] / fan.right_eigenvectors[0, idx]
    analytic = plus.conserved_jump / plus.conserved_jump[0]
    np.testing.assert_allclose(numeric, analytic, rtol=1e-8, atol=1e-10)
    assert fan.speeds[idx] == pytest.approx(plus.speed, rel=1e-10)


def test_grad_pi_matches_finite_differences(d5):
    from et6.gas import primitive_from_conserved

    u = _conserved(1.1, [0.3, -0.2, 0.1], 0.9, 0.05, d5)
    grad = grad_pi_conserved(u, d5)
    for j in range(6):
        h = 1e-7 * max(abs(u[j]), 1.0)
        up = u.copy(); up[j] += h
        um = u.copy(); um[j] -= h
        pi_p = primitive_from_conserved(up, d5).Pi
        pi_m = primitive_from_conserved(um, d5).Pi
        assert grad[j] == pytest.approx((pi_p - pi_m) / (2 * h), rel=1e-6, abs=1e-9)


def test_production_jacobian_single_row(d5):
    u = _conserved(1.0, [0.1, 0.0, 0.0], 1.0, 0.05, d5)
    jac = production_jacobian(u, d5)
    np.testing.assert_allclose(jac[[0, 1, 2, 3, 5], :], 0.0)
    assert np.any(jac[4, :] != 0.0)


def test_contact_modes_are_eigenvectors(d5):
    # the analytic contact basis must satisfy A d = v_n d
    u = _conserved(1.0, [0.4, 0.1, -0.2], 1.0, 0.0, d5)
    n = np.array([1.0, 0.0, 0.0])
    a_matrix = flux_jacobian(u, n, d5)
    report = k_condition(u, n, d5)
    vn = 0.4
    for entry in report.entries:
        if entry.tag == "contact":
            assert entry.speed == pytest.approx(vn, rel=1e-12)
    # spot-check with an explicit contact jump: d_rho = 1, d_p = 0.3, d_Pi = -d_p
    from et6.gas import primitive_from_conserved

    s = primitive_from_conserved(u, d5)
    d_p = 0.3
    du = _du_dw(s, d5)
    jump = du @ np.array([1.0, 0.0, 0.0, 0.0, d_p, -d_p])
    np.testing.assert_allclose(a_matrix @ jump, vn * jump, atol=1e-10)


@pytest.mark.parametrize("D", [4.0, 5.0, 7.0, 12.0])
def test_k_condition_passes_at_equilibrium(D):
    spec = GasSpec(D=D)
    report = k_condition(_conserved(1.0, 0.0, 1.0, 0.0, spec), [1, 0, 0], spec)
    assert len(report.entries) == 6
    assert report.overall_pass
    sound = [e for e in report.entries if e.tag == "sound"]
    expected = 4.0 / (3.0 * D**2) * (D - 3.0) * (0.5 * D)
    for entry in sound:
        assert abs(entry.delta_pi) == pytest.approx(expected, rel=1e-8)


def test_k_condition_marginal_near_monatomic():
    spec = GasSpec(D=3.0 + 1e-6)
    report = k_condition(_conserved(1.0, 0.0, 1.0, 0.0, spec), [1, 0, 0], spec)
    assert report.overall_pass
    assert report.marginal
    sound = [e for e in report.entries if e.tag == "sound"]
    assert all(e.marginal for e in sound)


@pytest.mark.parametrize("D", [4.0, 5.0, 7.0])
def test_convexity_at_equilibrium(D):
    spec = GasSpec(D=D)
    report = convexity_check(_conserved(1.0, [0.2, 0.0, 0.1], 1.0, 0.0, spec), spec)
    assert report.passed, report
    assert report.gradient_mismatch <= 1e-6
    assert report.hessian_max_pivot < 0


@pytest.mark.parametrize("z", [-0.5, 0.3])
def test_convexity_off_equilibrium(z, d5):
    report = convexity_check(_conserved(1.0, 0.0, 1.0, z * 1.0, d5), d5)
    assert report.passed, report


def test_convexity_near_boundary(d5):
    z = 0.99 * d5.z_upper
    report = convexity_check(_conserved(1.0, 0.0, 1.0, z, d5), d5)
    assert report.passed, report


@pytest.mark.parametrize("D, z", [(5.0, 0.666), (5.0, -0.999), (3.5, 0.1666)])
def test_convexity_at_window_edges(D, z):
    # a finite-difference stencil reads a positive curvature here, or leaves
    # the window; the closed-form Hessian stays negative definite
    spec = GasSpec(D=D)
    report = convexity_check(_conserved(1.0, 0.0, 1.0, z, spec), spec)
    assert report.passed, report
    assert report.symmetrizer_mismatch <= SYMMETRY_TOL


@pytest.mark.parametrize("z", [0.66666666, -0.9999999999])
def test_convexity_within_round_off_of_the_window_edges(z, d5):
    # relative gaps of 1e-8 and 1e-10 to the window's edges, where H's
    # eigenvalues span 17 to 21 orders of magnitude: float64 eigvalsh of H
    # reads a positive one, while 60-digit arithmetic gives a largest
    # eigenvalue of -0.0115 (upper edge) and -0.0194 (lower edge).  The
    # closed-form pivots keep their sign.
    report = convexity_check(_conserved(1.0, [0.3, 0.0, 0.0], 1.0, z, d5), d5)
    assert report.hessian_negative_definite, report
    assert report.passed, report


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_entropy_hessian_matches_finite_differences_of_main_field(seed):
    rng = np.random.default_rng(seed)
    spec = GasSpec(D=float(rng.uniform(3.5, 12.0)))
    z = rng.uniform(-0.9, 0.9 * spec.z_upper)
    s = State6(rho=rng.uniform(0.5, 2.0), v=rng.uniform(-1.0, 1.0, size=3),
               T=rng.uniform(0.5, 2.0), Pi=0.0)
    s = State6(rho=s.rho, v=s.v, T=s.T, Pi=z * s.pressure())
    _, dmf = _entropy_derivatives(s, spec, *temperatures(s, spec), entropy_parts(s, spec).h)
    du = _du_dw(s, spec)
    hess = np.linalg.solve(du.T, dmf.T).T
    hess_fd = fd_derivative(lambda u: main_field_of(u, spec), conserved_from_primitive(s, spec))
    assert np.max(np.abs(hess - hess_fd)) <= 1e-6 * np.max(np.abs(hess))


@pytest.mark.parametrize("D", [3.0 + 1e-6, 3.5, 4.0, 5.0, 7.0, 12.0])
def test_subcharacteristic_ordering(D):
    # the five-field acoustic speed never exceeds the six-field one
    euler = euler_sound_speed(1.0, 1.0, D)
    full = et6_sound_speed(1.0, 1.0)
    assert euler <= full + 1e-15
    if D > 3.01:
        assert euler < full
    assert euler_sound_speed(1.0, 1.0, 3.0) == pytest.approx(full, rel=1e-15)


def test_hyperbolicity_scan_window():
    d_values = np.linspace(3.2, 12.0, 21)
    points = hyperbolicity_scan(d_values, n_z=21, coverage=0.99)
    assert len(points) == 21 * 21
    assert all(p.all_real for p in points)
    # the real speeds are (-c, 0, 0, 0, 0, c) to round-off: 3.7e-16 of c
    assert max(p.speed_gap for p in points) < 1e-14


def test_hyperbolicity_error_carries_state_and_margin(d5, monkeypatch):
    from et6 import eigen

    u = _conserved(1.0, 0.0, 1.0, 0.0, d5)
    # a negative tolerance turns any spectrum into a reported loss
    monkeypatch.setattr(eigen, "IMAG_TOL", -1.0)
    with pytest.raises(eigen.HyperbolicityError) as err:
        wave_fan(u, [1, 0, 0], d5)
    assert err.value.state.rho == 1.0
    assert err.value.margin >= 0.0
