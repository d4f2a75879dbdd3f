import math
import sys

import numpy as np
import pytest

from et6.gas import GasSpec, InadmissibleStateError, State6, conserved_from_primitive
from et6.closure import (
    boost_main_field,
    closed_fluxes,
    distribution_value,
    entropy_parts,
    equilibrium_distribution_value,
    main_field,
    multipliers_from_state,
    production_bgk,
    state_from_multipliers,
)
from et6.cli import ENTROPY_TOL
from et6.oracle import oracle_entropy, rel_err
from finite_differences import fd_gradient

# frozen reference values, kB = m = 1 units (30-digit arithmetic)
OMEGA_EQ = 0.063493635934240969786        # (2 pi)^(-3/2), rho=1 T=1 D=5
G_OVER_T_EQ = -1.7568155996140182253      # 1 + ln(OMEGA_EQ)
K_Z02_D5 = -0.083192608747800439595       # (1/2) ln[(1.2)^3 (0.7)^2]
H_EQ = 5.2568155996140182253              # 2.5 - ln(OMEGA_EQ)


@pytest.fixture
def d5():
    return GasSpec(D=5.0)


def eq_state():
    return State6(rho=1.0, v=0.0, T=1.0, Pi=0.0)


def test_multipliers_equilibrium(d5):
    mul = multipliers_from_state(eq_state(), d5)
    assert mul.xi == pytest.approx(0.5, rel=1e-15)
    assert mul.zeta == pytest.approx(1.0, rel=1e-15)
    assert math.exp(mul.log_omega) == pytest.approx(OMEGA_EQ, rel=1e-14)


def test_multipliers_nonequilibrium(d5):
    mul = multipliers_from_state(State6(rho=1.0, v=0.0, T=1.0, Pi=0.2), d5)
    assert mul.xi == pytest.approx(0.5 / 1.2, rel=1e-14)
    assert mul.zeta == pytest.approx(1.0 / 0.7, rel=1e-14)
    assert math.isfinite(mul.log_omega)


def test_multipliers_positive_across_window(d5):
    for z in np.linspace(-0.95, 0.95 * d5.z_upper, 41):
        mul = multipliers_from_state(State6(rho=1.0, v=0.0, T=1.0, Pi=z), d5)
        assert mul.xi > 0 and mul.zeta > 0 and math.isfinite(mul.log_omega)


def test_multipliers_identify_lost_positivity(d5):
    with pytest.raises(InadmissibleStateError, match="xi"):
        multipliers_from_state(State6(rho=1.0, v=0.0, T=1.0, Pi=-1.5), d5)
    with pytest.raises(InadmissibleStateError, match="zeta"):
        multipliers_from_state(State6(rho=1.0, v=0.0, T=1.0, Pi=0.8), d5)


def test_zeta_pole_state_verifies():
    # approaching the zeta pole from below: at large D the (D-3)/2 exponent
    # carries Omega past float range while Pi is still representable.  The
    # closure keeps ln Omega, which stays finite, and the oracle forms only
    # Omega L[0], of order rho xi^(3/2): the entropy verifies
    spec = GasSpec(D=80.0)
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=(1.0 - 5e-16) * spec.z_upper)   # p = 1
    log_omega = multipliers_from_state(s, spec).log_omega
    assert math.log(sys.float_info.max) < log_omega < math.inf
    h = entropy_parts(s, spec).h
    assert rel_err(oracle_entropy(s, spec), h) <= ENTROPY_TOL


def test_state_from_multipliers_round_trip(d5):
    mul = multipliers_from_state(eq_state(), d5)
    rho, ppi, rho_eps = state_from_multipliers(mul, d5)
    assert rho == pytest.approx(1.0, rel=1e-13)
    assert ppi == pytest.approx(1.0, rel=1e-13)
    assert rho_eps == pytest.approx(2.5, rel=1e-13)

    mul2 = multipliers_from_state(State6(rho=1.0, v=0.0, T=1.0, Pi=0.2), d5)
    rho, ppi, rho_eps = state_from_multipliers(mul2, d5)
    assert rho == pytest.approx(1.0, rel=1e-13)
    assert ppi == pytest.approx(1.2, rel=1e-13)
    assert rho_eps == pytest.approx(2.5, rel=1e-13)


@pytest.mark.parametrize("D", [3.5, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0])
def test_closure_round_trip_window_sweep(D):
    # 100-point sweep of the admissibility window, identity to 1e-12
    spec = GasSpec(D=D)
    for z in np.linspace(-0.97, 0.97 * spec.z_upper, 100):
        s = State6(rho=1.3, v=0.0, T=0.8, Pi=z * 1.3 * 0.8)
        p = s.pressure()
        mul = multipliers_from_state(s, spec)
        rho, ppi, rho_eps = state_from_multipliers(mul, spec)
        assert rho == pytest.approx(s.rho, rel=1e-12)
        assert ppi == pytest.approx(p + s.Pi, rel=1e-12)
        assert rho_eps == pytest.approx(0.5 * spec.D * p, rel=1e-12)


def test_gamma_factor_cancels_at_d5(d5):
    # alpha = 0 at D = 5, so Gamma(1 + alpha) = 1 plays no role
    assert math.gamma(1.0 + d5.alpha) == 1.0


def test_distribution_at_origin_equals_amplitude(d5):
    f = distribution_value([0.0, 0.0, 0.0], 0.0, eq_state(), d5)
    assert f == pytest.approx(OMEGA_EQ, rel=1e-14)


@pytest.mark.parametrize("D", [3.5, 5.0, 7.2])
def test_equilibrium_reduction_pointwise(D):
    # Pi = 0 closure equals the generalized Maxwellian on a 10x10x10 sample
    spec = GasSpec(D=D)
    s = State6(rho=1.7, v=0.0, T=0.6, Pi=0.0)
    cs = np.linspace(-3.0, 3.0, 10)
    eyes = np.linspace(0.0, 5.0, 10)
    for cx in cs:
        for cy in cs[::3]:
            for i_val in eyes:
                f = distribution_value([cx, cy, 0.4], i_val, s, spec)
                f_eq = equilibrium_distribution_value([cx, cy, 0.4], i_val, 1.7, 0.6, spec)
                assert f == pytest.approx(f_eq, rel=1e-12)


def test_distribution_matches_full_closed_form(d5):
    # cross-check the separable form against the direct nonequilibrium
    # formula written in (rho, T, Z) variables
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    z = 0.3
    alpha = d5.alpha
    pref = (
        1.0
        / (1.0 * math.gamma(1.0 + alpha))
        * (1.0 / (2.0 * math.pi) / (1.0 + z)) ** 1.5
        * (1.0 / (1.0 - 1.5 * z / (1.0 + alpha))) ** (1.0 + alpha)
    )
    for c2, i_val in [(0.0, 0.0), (1.0, 0.5), (4.0, 2.0)]:
        direct = pref * math.exp(-(0.5 * c2 / (1.0 + z) + i_val / (1.0 - 1.5 * z / (1.0 + alpha))))
        f = distribution_value([math.sqrt(c2), 0, 0], i_val, s, d5)
        assert f == pytest.approx(direct, rel=1e-13)


def test_distributions_on_arrays_match_their_points(d5):
    s = State6(rho=1.1, v=0.0, T=0.9, Pi=0.2)
    rng = np.random.default_rng(3)
    c, i_val = rng.normal(size=(4, 5, 3)), rng.uniform(0.0, 3.0, size=(4, 5))
    f = distribution_value(c, i_val, s, d5)
    f_eq = equilibrium_distribution_value(c, i_val, 1.1, 0.9, d5)
    assert f.shape == f_eq.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        assert f[idx] == pytest.approx(distribution_value(c[idx], i_val[idx], s, d5), rel=1e-15)
        assert f_eq[idx] == pytest.approx(
            equilibrium_distribution_value(c[idx], i_val[idx], 1.1, 0.9, d5), rel=1e-15)


@pytest.mark.parametrize("i_val", [-0.5, np.array([0.0, 1.0, -1e-3])])
def test_distributions_reject_negative_internal_energy(d5, i_val):
    c = np.zeros(np.shape(i_val) + (3,))
    with pytest.raises(ValueError, match="internal energy must be nonnegative"):
        distribution_value(c, i_val, eq_state(), d5)
    with pytest.raises(ValueError, match="internal energy must be nonnegative"):
        equilibrium_distribution_value(c, i_val, 1.0, 1.0, d5)


def test_distribution_positive_everywhere(d5):
    rng = np.random.default_rng(7)
    s = State6(rho=0.5, v=0.0, T=2.0, Pi=-0.4)
    for _ in range(200):
        c = rng.normal(size=3) * 3
        i_val = rng.uniform(0, 10)
        assert distribution_value(c, i_val, s, d5) > 0


def test_closed_fluxes_rest_frame(d5):
    fl = closed_fluxes(State6(rho=1.0, v=0.0, T=1.0, Pi=0.3), d5)
    np.testing.assert_allclose(fl.F_ik, 1.3 * np.eye(3), rtol=1e-15)
    np.testing.assert_allclose(fl.F_llk, 0.0, atol=1e-15)
    np.testing.assert_allclose(fl.G_llk, 0.0, atol=1e-15)


def test_closed_fluxes_moving(d5):
    fl = closed_fluxes(State6(rho=1.0, v=[1.0, 0.0, 0.0], T=1.0, Pi=0.0), d5)
    assert fl.F_ik[0, 0] == pytest.approx(2.0, rel=1e-15)
    assert fl.F_llk[0] == pytest.approx(6.0, rel=1e-15)
    assert fl.G_llk[0] == pytest.approx(8.0, rel=1e-15)


def test_closed_fluxes_symmetric_off_diagonal(d5):
    fl = closed_fluxes(State6(rho=1.0, v=[1.0, 2.0, 0.0], T=1.0, Pi=0.1), d5)
    np.testing.assert_allclose(fl.F_ik, fl.F_ik.T, rtol=1e-15)
    assert fl.F_ik[0, 1] == pytest.approx(2.0, rel=1e-15)


def test_production_bgk(d5):
    assert production_bgk(eq_state(), d5) == 0.0
    spec = GasSpec(D=5.0, tau=0.1)
    assert production_bgk(State6(rho=1, v=0, T=1, Pi=0.3), spec) == pytest.approx(-9.0, rel=1e-15)


def test_production_sign_opposes_pi(d5):
    for pi in [-0.5, -0.1, 0.1, 0.5]:
        s = State6(rho=1.0, v=0.0, T=1.0, Pi=pi)
        assert np.sign(production_bgk(s, d5)) == -np.sign(pi)


def test_entropy_parts_equilibrium(d5):
    parts = entropy_parts(eq_state(), d5)
    assert parts.k == 0.0
    assert parts.h == pytest.approx(H_EQ, rel=1e-14)
    assert parts.h == pytest.approx(parts.h_E, rel=1e-14)
    assert parts.g == pytest.approx(G_OVER_T_EQ, rel=1e-13)


def test_entropy_nonequilibrium_part_value(d5):
    parts = entropy_parts(State6(rho=1.0, v=0.0, T=1.0, Pi=0.2), d5)
    assert parts.k == pytest.approx(K_Z02_D5, rel=1e-13)
    assert parts.h == pytest.approx(parts.h_E + 1.0 * parts.k, rel=1e-13)


def test_chemical_potential_thermodynamic_identity(d5):
    # g = eps + p/rho - T s must agree with the closed expression
    for rho, T in [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0)]:
        s = State6(rho=rho, v=0.0, T=T, Pi=0.0)
        parts = entropy_parts(s, d5)
        p = s.pressure()
        eps = 2.5 * T
        g_indep = eps + p / rho - T * (parts.h_E / rho)
        assert parts.g == pytest.approx(g_indep, rel=1e-12)


@pytest.mark.parametrize("D", [3.5, 4.0, 5.0, 8.0])
def test_k_negative_off_equilibrium_with_max_at_zero(D):
    spec = GasSpec(D=D)
    zs = np.linspace(-0.97, 0.97 * spec.z_upper, 101)
    ks = []
    for z in zs:
        parts = entropy_parts(State6(rho=1.0, v=0.0, T=1.0, Pi=z), spec)
        ks.append(parts.k)
        if abs(z) > 1e-12:
            assert parts.k < 0.0
    # strict concavity near 0: negative second difference
    k0 = entropy_parts(State6(rho=1, v=0, T=1, Pi=0.0), spec).k
    kp = entropy_parts(State6(rho=1, v=0, T=1, Pi=1e-3), spec).k
    km = entropy_parts(State6(rho=1, v=0, T=1, Pi=-1e-3), spec).k
    assert k0 == 0.0
    assert kp + km - 2 * k0 < 0.0


def test_main_field_equilibrium_values(d5):
    mf = main_field(eq_state(), d5)
    assert mf.lam == pytest.approx(-G_OVER_T_EQ, rel=1e-13)
    np.testing.assert_allclose(mf.lam_i, 0.0, atol=1e-15)
    assert mf.lam_ll == 0.0
    assert mf.mu_ll == pytest.approx(0.5, rel=1e-15)


def test_main_field_equilibrium_moving(d5):
    # classical five-field values: lam_i = -v_i / T, mu_ll = 1/(2T)
    v = np.array([0.4, -0.2, 0.1])
    mf = main_field(State6(rho=1.0, v=v, T=2.0, Pi=0.0), d5)
    np.testing.assert_allclose(mf.lam_i, -v / 2.0, rtol=1e-14)
    assert mf.mu_ll == pytest.approx(0.25, rel=1e-14)
    assert mf.lam_ll == 0.0


def test_main_field_boost_consistency(d5):
    # velocity dependence is exactly the Galilean transformation
    v = np.array([0.7, -1.1, 0.3])
    s_rest = State6(rho=1.4, v=0.0, T=0.9, Pi=0.2)
    s_mov = State6(rho=1.4, v=v, T=0.9, Pi=0.2)
    boosted = boost_main_field(main_field(s_rest, d5), v)
    direct = main_field(s_mov, d5)
    assert direct.lam == pytest.approx(boosted.lam, rel=1e-12)
    np.testing.assert_allclose(direct.lam_i, boosted.lam_i, rtol=1e-12)
    assert direct.lam_ll == pytest.approx(boosted.lam_ll, rel=1e-12)
    assert direct.mu_ll == pytest.approx(boosted.mu_ll, rel=1e-12)


@pytest.mark.parametrize("D", [4.0, 5.0, 7.0])
def test_gradient_identity_dh(D):
    # dh = lam dF + lam_i dF_i + lam_ll dF_ll + mu_ll dG_ll
    spec = GasSpec(D=D)
    rng = np.random.default_rng(11)
    for _ in range(8):
        rho = rng.uniform(0.5, 2.0)
        T = rng.uniform(0.5, 2.0)
        v = rng.uniform(-1.0, 1.0, size=3)
        z = rng.uniform(-0.6, 0.6 * spec.z_upper)
        s = State6(rho=rho, v=v, T=T, Pi=z * rho * T)
        u = conserved_from_primitive(s, spec).as_array()
        grad = fd_gradient(u, spec)
        mf = main_field(s, spec).as_array()
        np.testing.assert_allclose(grad, mf, rtol=1e-6, atol=1e-9)


def test_equilibrium_part_is_the_entropy_at_pi_zero():
    # h_E is built from ln Omega_E, not as h - rho k, so it is the entropy of
    # the same (rho, v, T) at Pi = 0 to the last bit, and h = h_E + rho k is
    # a check rather than an identity
    rng = np.random.default_rng(11)
    for _ in range(1000):
        spec = GasSpec(D=float(rng.uniform(3.001, 12.0)))
        rho, T = rng.uniform(0.1, 10.0, size=2)
        z = float(rng.uniform(-0.999, 0.999 * spec.z_upper))
        v = rng.uniform(-2.0, 2.0, size=3)
        parts = entropy_parts(State6(rho=rho, v=v, T=T, Pi=z * rho * T), spec)
        assert parts.h_E == entropy_parts(State6(rho=rho, v=v, T=T, Pi=0.0), spec).h
