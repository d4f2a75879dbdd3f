import types
import warnings

import numpy as np
import pytest

from et6.gas import GasSpec, State6
from et6.closure import entropy_parts
from et6.oracle import (
    OracleError,
    mep_optimality_probe,
    oracle_constraint_check,
    oracle_entropy,
    oracle_flux_check,
    rel_err,
)

H_EQ = 5.2568155996140182253   # rho (D/2 - ln Omega_E) at rho=T=1, D=5
K_Z02_D5 = -0.083192608747800439595


@pytest.fixture
def d5():
    return GasSpec(D=5.0)


def test_flux_check_equilibrium(d5):
    reports = oracle_flux_check(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5)
    assert len(reports) == 12
    assert all(r.rel_err <= 1e-8 for r in reports)


def test_flux_check_near_upper_bound(d5):
    # Pi/p = 0.6 with the bound at 2/3
    reports = oracle_flux_check(State6(rho=1.0, v=0.0, T=1.0, Pi=0.6), d5)
    assert all(r.rel_err <= 1e-8 for r in reports)


def test_flux_check_off_diagonal_moving(d5):
    s = State6(rho=1.0, v=[1.0, 2.0, 0.0], T=1.0, Pi=0.0)
    reports = {r.quantity: r for r in oracle_flux_check(s, d5)}
    fxy = reports["F_xy"]
    assert fxy.closed_form == pytest.approx(2.0, rel=1e-14)
    assert rel_err(fxy.quadrature, 2.0) < 1e-8


@pytest.mark.parametrize("D", [3.5, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0])
def test_constraint_moments_across_window(D):
    spec = GasSpec(D=D)
    for z in np.linspace(-0.9, 0.95 * spec.z_upper, 7):
        s = State6(rho=1.2, v=[0.5, 0.0, -0.3], T=0.7, Pi=z * 1.2 * 0.7)
        for report in oracle_constraint_check(s, spec):
            assert report.rel_err <= 1e-10, (D, z, report)


def _constraint_moments(s, spec):
    return {r.quantity: r.quadrature for r in oracle_constraint_check(s, spec)}


def test_mass_moment_recovers_density(d5):
    s = State6(rho=1.7, v=[0.3, -0.2, 0.5], T=0.9, Pi=0.2)
    assert rel_err(_constraint_moments(s, d5)["F"], 1.7) < 1e-10


def test_odd_moment_vanishes_at_rest(d5):
    s = State6(rho=2.0, v=0.0, T=1.3, Pi=-0.4)
    moments = _constraint_moments(s, d5)
    for x in "xyz":
        assert abs(moments[f"F_{x}"]) < 1e-12 * 2.0 * np.sqrt(1.3)


def test_energy_moment_independent_of_pi(d5):
    # the energy moment 2 rho eps = D p at rest, regardless of Pi
    for Pi in (0.2, 0.5 * d5.z_upper):
        s = State6(rho=1.0, v=0.0, T=1.0, Pi=Pi)
        assert rel_err(_constraint_moments(s, d5)["G_ll"], 5.0) < 1e-10


def test_gauss_agrees_with_adaptive_fallback(d5):
    s = State6(rho=0.8, v=[0.2, 0.0, 0.0], T=1.4, Pi=0.3)
    # validation raises internally on disagreement; reaching here means pass
    reports = oracle_flux_check(s, d5)
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
    oracle_flux_check(s, d5)
    # the unit-scale M_0..M_3, shared by the three axes, and L[0] and L[1]
    # in two pieces each
    assert 0 < len(quad_calls) <= 4 + 2 * 2


def test_checks_of_one_state_share_their_adaptive_twins(d5, quad_calls):
    # M_0..M_3 serve the lab frame and the peculiar frame (entropy) alike,
    # with L[0] and L[1] in two pieces each: 8 integrands for all three checks
    s = State6(rho=0.8, v=[0.2, -0.1, 0.3], T=1.4, Pi=0.3)
    oracle_constraint_check(s, d5)
    oracle_flux_check(s, d5)
    oracle_entropy(s, d5)
    assert 0 < len(quad_calls) <= 8


def test_states_share_their_hermite_twins(d5, quad_calls):
    # different xi (T) and shifts (v), one set of unit-scale twins M_0..M_3
    from et6 import oracle

    for s in (State6(rho=0.8, v=[0.2, -0.1, 0.3], T=1.4, Pi=0.3),
              State6(rho=3.0, v=[-1.5, 0.0, 2.0], T=0.2, Pi=-0.1),
              State6(rho=1.0, v=0.0, T=5.0, Pi=0.5)):
        oracle_constraint_check(s, d5)
        oracle_flux_check(s, d5)
        oracle_entropy(s, d5)
    assert oracle._hermite_twin.cache_info().misses <= 4


def test_validation_disagreement_raises_at_once(quad_calls, monkeypatch):
    # a tolerance below round-off cannot be met: the first adaptive twin
    # reports it, naming its integrand, value and error estimate, without
    # trying another order and without an IntegrationWarning
    from et6 import oracle

    monkeypatch.setattr(oracle, "ADAPTIVE_TOL", 1e-16)
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=0.1)
    with pytest.raises(OracleError, match=r"^adaptive rule int .* gives \S+ with error "
                                          r"estimate \S+: The occurrence of roundoff"):
        oracle_flux_check(s, GasSpec(D=3.5))
    # the first twin of the table, M_0
    assert len(quad_calls) == 1


def test_gauss_value_off_its_twin_raises_naming_the_rule(monkeypatch):
    # a twin that converged but disagrees with the Gauss value: the error
    # names the Gauss rule and both values
    from et6 import oracle

    twin = oracle._laguerre_twin.__wrapped__
    monkeypatch.setattr(oracle, "_laguerre_twin",
                        lambda alpha, j, tol: twin(alpha, j, tol) * (1.0 + 1e-8))
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=0.1)
    with pytest.raises(OracleError, match=r"^gh64xgl128 gives .* the adaptive rule"):
        oracle_flux_check(s, GasSpec(D=3.5))


def test_hermite_weight_off_its_twins_raises_naming_the_rule(monkeypatch):
    # the twins check the Hermite rule itself: its largest weight 1e-8 off
    # moves every moment by far more than ADAPTIVE_TOL
    from et6 import oracle

    x, w = oracle._hermite_rule()
    w = w.copy()
    w[np.argmax(w)] *= 1.0 + 1e-8
    monkeypatch.setattr(oracle, "_hermite_rule", lambda: (x, w))
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=0.1)
    with pytest.raises(OracleError, match=r"^gh64xgl128 gives .* the adaptive rule"):
        oracle_flux_check(s, GasSpec(D=3.5))


def test_states_of_equal_d_share_their_laguerre_twins(d5, quad_calls):
    from et6 import oracle

    for s in (State6(rho=0.8, v=[0.2, -0.1, 0.3], T=1.4, Pi=0.3),
              State6(rho=3.0, v=0.0, T=0.2, Pi=-0.1)):
        oracle_constraint_check(s, d5)
    # L[0] and L[1], made once for both states
    assert oracle._laguerre_twin.cache_info().misses == 2


def test_entropy_quadrature_equilibrium(d5):
    h = oracle_entropy(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5)
    assert rel_err(h, H_EQ) < 1e-8


def test_entropy_decomposition(d5):
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.2)
    h = oracle_entropy(s, d5)
    parts = entropy_parts(s, d5)
    assert rel_err(h, parts.h) < 1e-8
    assert rel_err(h, parts.h_E + 1.0 * K_Z02_D5) < 1e-8


def test_entropy_maximal_at_equilibrium(d5):
    h0 = oracle_entropy(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5)
    for pi in [-0.5, -0.1, 0.1, 0.5]:
        h = oracle_entropy(State6(rho=1.0, v=0.0, T=1.0, Pi=pi), d5)
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


def test_probe_sweep_monotone(d5):
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[0.001, 0.01, 0.05])
    assert all(p.converged for p in report.points)
    entropies = [p.entropy for p in report.points]
    assert all(e <= report.reference_entropy for e in entropies)
    assert all(entropies[i + 1] <= entropies[i] + 1e-13 for i in range(len(entropies) - 1))


def test_probe_solves_each_trial_in_few_quad_calls(d5, quad_calls):
    # `et6 check`'s probe: a downward bracket and Brent's method on M1/M0,
    # two integrals per new residual, and M2 only at each solution; a
    # bracket end that Brent's method revisits, or M0 and M1 at the
    # solution, are not integrated again
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[0.001, 0.01, 0.05])
    assert all(p.converged for p in report.points)
    assert len(quad_calls) <= 53


def test_default_check_computes_each_twin_once(tmp_path, quad_calls):
    # 4 Hermite twins, 2 Laguerre twins in two pieces for each of the 7 D
    # values, and the probe's 53 radial moments
    from et6.cli import main

    assert main(["check", "--output-dir", str(tmp_path)]) == 0
    assert len(quad_calls) <= 4 + 7 * 2 * 2 + 53 <= 85


def test_probe_quad_failure_is_an_oracle_error(d5, monkeypatch):
    # quad cannot certify 1e-16 on the radial moments: one OracleError that
    # names the integrand and quad's error estimate, not warnings and a trial
    # reported as converged
    from et6 import oracle

    monkeypatch.setattr(oracle, "ADAPTIVE_TOL", 1e-16)
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OracleError, match=r"^adaptive rule int r\^\d+ exp\(.*\) dr gives "
                                              r"\S+ with error estimate \S+: "):
            mep_optimality_probe(s, d5, trial_amplitudes=[0.01])
    assert caught == []

