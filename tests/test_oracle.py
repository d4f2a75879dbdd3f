import types

import numpy as np
import pytest

from et6.gas import GasSpec, State6
from et6.closure import entropy_parts
from et6.oracle import (
    MomentWeight,
    OracleError,
    QuadratureSpec,
    mep_optimality_probe,
    oracle_constraint_check,
    oracle_entropy,
    oracle_flux_check,
    oracle_moment,
    rel_err,
)

H_EQ = 5.2568155996140182253   # rho (D/2 - ln Omega_E) at rho=T=1, D=5
K_Z02_D5 = -0.083192608747800439595


@pytest.fixture
def d5():
    return GasSpec(D=5.0)


@pytest.fixture
def quad():
    return QuadratureSpec()


def test_mass_moment_recovers_density(d5, quad):
    s = State6(rho=1.7, v=[0.3, -0.2, 0.5], T=0.9, Pi=0.2)
    val = oracle_moment(s, MomentWeight(), d5, quad)
    assert rel_err(val, 1.7) < 1e-10


def test_odd_moment_vanishes_at_rest(d5, quad):
    s = State6(rho=2.0, v=0.0, T=1.3, Pi=-0.4)
    val = oracle_moment(s, MomentWeight(ax=1), d5, quad)
    assert abs(val) < 1e-12 * 2.0 * np.sqrt(1.3)


def test_energy_moment_independent_of_pi(d5, quad):
    # weight C^2 + 2 I/m integrates to 2 rho eps regardless of Pi
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.2)
    weights = [MomentWeight(a2=1), MomentWeight(ai=1, coeff=2.0 / d5.m)]
    val = oracle_moment(s, weights, d5, quad)
    assert rel_err(val, 5.0) < 1e-10


def test_moment_rejects_high_degree(d5, quad):
    with pytest.raises(ValueError):
        oracle_moment(State6(rho=1, v=0, T=1), MomentWeight(a2=4), d5, quad)
    # an 8-node Laguerre rule is exact up to I^15
    with pytest.raises(ValueError, match="internal-energy power 16 exceeds 15$"):
        oracle_moment(State6(rho=1, v=0, T=1), MomentWeight(ai=16), d5,
                      QuadratureSpec(laguerre_order=8))


def test_flux_check_equilibrium(d5, quad):
    reports = oracle_flux_check(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5, quad)
    assert len(reports) == 12
    assert all(r.rel_err <= 1e-8 for r in reports)


def test_flux_check_near_upper_bound(d5, quad):
    # Pi/p = 0.6 with the bound at 2/3
    reports = oracle_flux_check(State6(rho=1.0, v=0.0, T=1.0, Pi=0.6), d5, quad)
    assert all(r.rel_err <= 1e-8 for r in reports)


def test_flux_check_off_diagonal_moving(d5, quad):
    s = State6(rho=1.0, v=[1.0, 2.0, 0.0], T=1.0, Pi=0.0)
    reports = {r.quantity: r for r in oracle_flux_check(s, d5, quad)}
    fxy = reports["F_xy"]
    assert fxy.closed_form == pytest.approx(2.0, rel=1e-14)
    assert rel_err(fxy.quadrature, 2.0) < 1e-8


@pytest.mark.parametrize("D", [3.5, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0])
def test_constraint_moments_across_window(D):
    spec = GasSpec(D=D)
    quad = QuadratureSpec()
    for z in np.linspace(-0.9, 0.95 * spec.z_upper, 7):
        s = State6(rho=1.2, v=[0.5, 0.0, -0.3], T=0.7, Pi=z * 1.2 * 0.7)
        for report in oracle_constraint_check(s, spec, quad):
            assert report.rel_err <= 1e-10, (D, z, report)


def test_gauss_agrees_with_adaptive_fallback(d5):
    quad = QuadratureSpec(validate=True)
    s = State6(rho=0.8, v=[0.2, 0.0, 0.0], T=1.4, Pi=0.3)
    # validation raises internally on disagreement; reaching here means pass
    reports = oracle_flux_check(s, d5, quad)
    assert all(r.rel_err <= 1e-8 for r in reports)


@pytest.fixture
def quad_calls(monkeypatch):
    """Record every adaptive quad call, starting from empty twin caches."""
    from et6 import oracle

    oracle._hermite_twin.cache_clear()
    oracle._laguerre_twin.cache_clear()
    calls = []
    quad_fn = oracle.integrate.quad
    monkeypatch.setattr(oracle, "integrate", types.SimpleNamespace(
        quad=lambda *args, **kwargs: calls.append(1) or quad_fn(*args, **kwargs)))
    return calls


def test_validation_computes_each_adaptive_twin_once(d5, quad_calls):
    s = State6(rho=0.8, v=[0.2, -0.1, 0.3], T=1.4, Pi=0.3)
    oracle_flux_check(s, d5, QuadratureSpec(validate=True))
    # S_a[0] once (it does not depend on the shift), S_a[1..3] for three
    # axes, L[0] and L[1] in two pieces each
    assert 0 < len(quad_calls) <= 1 + 3 * 3 + 2 * 2


def test_checks_of_one_state_share_their_adaptive_twins(d5, quad_calls):
    # lab-frame S_a[1..3] for three axes, S[0], peculiar S[2] (entropy),
    # L[0] and L[1] in two pieces each: 15 integrands for all three checks
    s = State6(rho=0.8, v=[0.2, -0.1, 0.3], T=1.4, Pi=0.3)
    quad = QuadratureSpec(validate=True)
    oracle_constraint_check(s, d5, quad)
    oracle_flux_check(s, d5, quad)
    oracle_entropy(s, d5, quad)
    assert 0 < len(quad_calls) <= 15


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_validation_disagreement_raises_at_once(quad_calls):
    # a tolerance below round-off cannot be met: the first quantity fails,
    # naming the rule, without trying another order
    quad = QuadratureSpec(validate=True, adaptive_tol=1e-16, laguerre_order=8)
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=0.1)
    with pytest.raises(OracleError, match=r"^gh64xgl8 gives .* the adaptive rule"):
        oracle_flux_check(s, GasSpec(D=3.5), quad)
    # F_xx alone: S_x[2], S[0] and L[0] in two pieces
    assert len(quad_calls) <= 4


def test_states_of_equal_d_share_their_laguerre_twins(d5, quad_calls):
    from et6 import oracle

    quad = QuadratureSpec(validate=True)
    for s in (State6(rho=0.8, v=[0.2, -0.1, 0.3], T=1.4, Pi=0.3),
              State6(rho=3.0, v=0.0, T=0.2, Pi=-0.1)):
        oracle_constraint_check(s, d5, quad)
    # L[0] and L[1], made once for both states
    assert oracle._laguerre_twin.cache_info().misses == 2


def test_entropy_quadrature_equilibrium(d5, quad):
    h = oracle_entropy(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5, quad)
    assert rel_err(h, H_EQ) < 1e-8


def test_entropy_decomposition(d5, quad):
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.2)
    h = oracle_entropy(s, d5, quad)
    parts = entropy_parts(s, d5)
    assert rel_err(h, parts.h) < 1e-8
    assert rel_err(h, parts.h_E + 1.0 * K_Z02_D5) < 1e-8


def test_entropy_maximal_at_equilibrium(d5, quad):
    h0 = oracle_entropy(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5, quad)
    for pi in [-0.5, -0.1, 0.1, 0.5]:
        h = oracle_entropy(State6(rho=1.0, v=0.0, T=1.0, Pi=pi), d5, quad)
        assert h < h0


def test_probe_beta_zero_recovers_closure(d5):
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.2)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[0.0])
    point = report.points[0]
    assert point.converged
    assert rel_err(point.entropy, report.reference_entropy) < 1e-9
    from et6.closure import multipliers_from_state

    mul = multipliers_from_state(s, d5)
    assert rel_err(point.xi, mul.xi) < 1e-9
    assert rel_err(point.zeta, mul.zeta) < 1e-12


def test_probe_equilibrium_state(d5):
    report = mep_optimality_probe(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5,
                                  trial_amplitudes=[0.01])
    assert report.points[0].converged
    assert report.points[0].entropy < report.reference_entropy
    assert report.optimal


def test_probe_sweep_monotone(d5):
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[0.001, 0.01, 0.05])
    assert all(p.converged for p in report.points)
    entropies = [p.entropy for p in report.points]
    assert all(e <= report.reference_entropy for e in entropies)
    assert all(entropies[i + 1] <= entropies[i] + 1e-13 for i in range(len(entropies) - 1))


def test_probe_solves_each_trial_in_few_quad_calls(d5, quad_calls):
    # `et6 check`'s probe: a downward bracket and Brent's method on M1/M0,
    # two integrals per residual, and M2 only at each solution
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[0.001, 0.01, 0.05])
    assert all(p.converged for p in report.points)
    assert len(quad_calls) <= 90


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(hermite_order=4)
    with pytest.raises(ValueError):
        QuadratureSpec(adaptive_tol=0.0)
