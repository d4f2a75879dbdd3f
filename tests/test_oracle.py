import math
import re
import sys
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


def _in_probe() -> bool:
    """Whether mep_optimality_probe is on the call stack."""
    frame = sys._getframe()
    while frame is not None and frame.f_code.co_name != "mep_optimality_probe":
        frame = frame.f_back
    return frame is not None


@pytest.fixture
def quad_calls(monkeypatch):
    """Record every call of oracle.integrate.quad (one set of radial
    moments): whether the probe made it."""
    from et6 import oracle

    calls = []
    quad_fn = oracle.integrate.quad
    monkeypatch.setattr(oracle, "integrate", types.SimpleNamespace(
        quad=lambda *args, **kwargs: calls.append(_in_probe()) or quad_fn(*args, **kwargs)))
    return calls


@pytest.mark.parametrize("D", [3.5, 5.0, 12.0, 1000.0])
def test_gauss_rules_match_closed_form_moments(D):
    # the gate's exact references: each Gauss sum of x^i on the rules' unit
    # scale, of unit mass for Laguerre, so that its x^j sums to the rising
    # factorial Gamma(alpha+1+j)/Gamma(alpha+1), finite at any D, within the
    # gate's own bound, up to the degree that the table's guard admits
    from et6 import oracle

    degree = 2 * oracle.GAUSS_ORDER - 1
    x, wx = oracle._hermite_rule()
    for i in range(degree + 1):
        # (i-1)!! = i! / (2^(i/2) (i/2)!) for even i
        moment = (math.sqrt(2.0 * math.pi) * math.factorial(i)
                  / (2 ** (i // 2) * math.factorial(i // 2)) if i % 2 == 0 else 0.0)
        assert oracle._hermite_moment(i) == pytest.approx(moment, rel=1e-15, abs=0.0), i
        assert abs(wx @ x**i - moment) <= oracle.ADAPTIVE_TOL * max(moment, 1.0), i
    alpha = GasSpec(D=D).alpha
    y, wy = oracle._laguerre_rule(alpha)
    for j in range(degree + 1):
        rising = math.prod(alpha + 1.0 + i for i in range(j))
        assert rel_err(wy @ y**j, rising) <= oracle.ADAPTIVE_TOL, j


@pytest.mark.parametrize("power", ["velocity", "internal-energy"])
def test_term_past_the_rules_degree_raises_naming_the_rule(power):
    # an n-point rule is exact to degree 2n - 1 only: a term of power
    # 2 GAUSS_ORDER on an axis, or in I, is an OracleError naming the rule
    from et6 import oracle

    n = 2 * oracle.GAUSS_ORDER
    term = (1.0, (0, n, 0), 0) if power == "velocity" else (1.0, (0, 0, 0), n)
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=0.1)
    with pytest.raises(OracleError, match=rf"^{re.escape(oracle.RULE)} is exact to degree "
                                          rf"{n - 1}, but the terms reach .*{power} power {n}"):
        oracle._Table(s, GasSpec(D=5.0), s.v, [term])


def test_terms_at_the_rules_degree_pass_the_twin_gate():
    # the guard admits degree 2 GAUSS_ORDER - 1, where the rules are still exact
    from et6 import oracle

    n = 2 * oracle.GAUSS_ORDER - 1
    terms = [(1.0, (n, 0, 0), 0), (1.0, (0, 0, n), 0), (1.0, (0, 0, 0), n)]
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=0.1)
    table = oracle._Table(s, GasSpec(D=5.0), s.v, terms)
    for term in terms:
        table.validated([term])


def test_validation_disagreement_raises_at_once(quad_calls, monkeypatch):
    # the rules' round-off puts F 2.2e-16 off its closed form at D = 3.5: a
    # bound of 1e-16 sees it on the first quantity, without a probe integral
    from et6 import oracle

    monkeypatch.setattr(oracle, "ADAPTIVE_TOL", 1e-16)
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=-0.9)
    with pytest.raises(OracleError, match=rf"^{re.escape(oracle.RULE)} gives \S+, the "
                                          r"closed-form moments \S+: they differ by more "
                                          r"than 1e-16$"):
        oracle_constraint_check(s, GasSpec(D=3.5))
    assert quad_calls == []


def test_gauss_value_off_its_twin_raises_naming_the_rule(monkeypatch):
    # the twins check the Laguerre rule itself: its largest weight 1e-8 off
    # moves every moment that reads L by far more than ADAPTIVE_TOL; the
    # error names the Gauss rule and both values
    from et6 import oracle

    alpha = GasSpec(D=3.5).alpha
    y, w = oracle._laguerre_rule(alpha)
    w = w.copy()
    w[np.argmax(w)] *= 1.0 + 1e-8
    monkeypatch.setattr(oracle, "_laguerre_rule", lambda a: (y, w))
    s = State6(rho=1.0, v=[0.4, -0.25, 0.15], T=1.0, Pi=0.1)
    with pytest.raises(OracleError,
                       match=rf"^{re.escape(oracle.RULE)} gives .* the closed-form moments"):
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
    with pytest.raises(OracleError,
                       match=rf"^{re.escape(oracle.RULE)} gives .* the closed-form moments"):
        oracle_flux_check(s, GasSpec(D=3.5))


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
    # `et6 check`'s probe: Newton's method on M1/M0 takes one set of
    # (M0, M1, M2) per step, and the entropy reuses the solution's set:
    # 5, 6 and 7 sets for these betas
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[0.001, 0.01, 0.05])
    assert all(p.converged for p in report.points)
    assert len(quad_calls) <= 18


def test_probe_converges_far_from_its_start(d5, quad_calls):
    # at beta = 5 the root xi = -38.87 lies far from the start, the root
    # 0.417 at beta = 0: the step bound follows the iterate, so it stays
    # above the float spacing there and Newton's method stops at the root
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[5.0])
    point = report.points[0]
    assert point.converged and not report.inconclusive
    assert point.xi == pytest.approx(-38.8709, abs=1e-4)
    assert point.entropy < report.reference_entropy
    assert len(quad_calls) <= 8


def test_default_check_computes_each_twin_once(tmp_path, quad_calls):
    # the twins are closed forms: the probe's 18 sets of radial moments are
    # the only integrals of a default check outside the Gauss rules
    from et6.cli import main

    assert main(["check", "--output-dir", str(tmp_path)]) == 0
    assert 0 < len(quad_calls) <= 18 and all(quad_calls)


def test_probe_quad_failure_is_an_oracle_error(d5, monkeypatch):
    # the two trapezoid levels cannot agree to 1e-16 on the radial moments:
    # one OracleError that names the integrand, the value and the gap, not
    # warnings and a trial reported as converged
    from et6 import oracle

    monkeypatch.setattr(oracle, "ADAPTIVE_TOL", 1e-16)
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OracleError, match=r"^trapezoid rule on int r\^\d+ exp\(.*\) dr gives "
                                              r"\S+, \S+ relative from its 128-panel value "
                                              r"\(bound 1e-16\)$"):
            mep_optimality_probe(s, d5, trial_amplitudes=[0.01])
    assert caught == []


def test_rule_of_infinite_mass_is_an_oracle_error():
    # an infinite mass, or a NaN in the Jacobi matrix: one OracleError, no
    # warning.  The Laguerre rule has unit mass, so it stays finite past
    # alpha = 171, where Gamma(alpha + 1) overflows
    from et6 import oracle

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OracleError, match=r"^Gauss rule of order 2 with mass inf "
                                              r"has non-finite nodes or weights$"):
            oracle._gauss_rule([0.0, 0.0], [1.0], math.inf)
        with pytest.raises(OracleError, match=r"^Gauss rule of order 2 with mass 1.0 "
                                              r"has non-finite nodes or weights$"):
            oracle._gauss_rule([0.0, math.nan], [1.0], 1.0)
        y, w = oracle._laguerre_rule(200.0)
    assert caught == []
    assert np.all(y > 0.0) and w.sum() == pytest.approx(1.0, rel=1e-14)


def test_mass_out_of_float_range_is_one_oracle_error():
    # Omega L[0] is of order rho xi^(3/2), so only a state whose rho and T
    # are far apart takes it out of float range
    with pytest.raises(OracleError, match=r"^ln Omega = \S+: Omega L\[0\] = exp\(1724\.\d+\) "
                                          r"is not a finite positive float$"):
        oracle_entropy(State6(rho=1e300, v=0.0, T=1e-300), GasSpec(D=5.0))


@pytest.mark.parametrize("xi, beta", [(1.5, 0.01), (0.2, 0.5), (-0.8, 0.3)])
def test_probe_range_ends_where_the_integrand_has_fallen(xi, beta):
    # the trapezoid range ends where the log of r^6 exp(-xi r^2 - beta r^4)
    # is TAIL_DROP below its peak, on the far side of the peak
    from et6 import oracle

    r = oracle._tail_end(xi, beta, 6)
    grid = np.linspace(1e-3, r, 100_001)
    log_f = 6.0 * np.log(grid) - xi * grid**2 - beta * grid**4
    assert np.argmax(log_f) < len(grid) - 1
    assert log_f[-1] == pytest.approx(log_f.max() - oracle.TAIL_DROP, abs=1e-6)


def test_radial_moments_at_beta_zero_are_closed_forms():
    from et6 import oracle

    xi = 0.7
    m0, m1, m2 = oracle._radial_moments(xi, 0.0)
    assert m0 == pytest.approx(math.pi**1.5 * xi**-1.5, rel=1e-15)
    assert m1 == pytest.approx(1.5 * m0 / xi, rel=1e-15)
    assert m2 == pytest.approx(3.75 * m0 / xi**2, rel=1e-15)



def test_probe_newton_cap_reports_an_unconverged_trial(d5, monkeypatch):
    # one Newton step cannot meet the step bound at beta > 0: the trial is
    # reported as not converged, and beta = 0 still recovers the closure
    from et6 import oracle

    monkeypatch.setattr(oracle, "NEWTON_STEPS", 1)
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    report = mep_optimality_probe(s, d5, trial_amplitudes=[0.0, 0.01])
    assert [p.converged for p in report.points] == [True, False]
    assert report.inconclusive
