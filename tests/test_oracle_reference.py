"""The oracle's numpy quadrature against scipy, an independent reference.

scipy is a test dependency only (the `test` extra): no et6 module imports
it, and these tests are its one use.
"""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy import integrate, optimize  # noqa: E402
from scipy.special import roots_genlaguerre, roots_hermitenorm  # noqa: E402

from et6 import oracle  # noqa: E402
from et6.closure import multipliers_from_state  # noqa: E402
from et6.gas import GasSpec, State6  # noqa: E402


def test_hermite_rule_matches_scipy():
    x, w = oracle._hermite_rule()
    x_ref, w_ref = roots_hermitenorm(oracle.GAUSS_ORDER)
    assert np.max(np.abs(x - x_ref) / np.maximum(np.abs(x_ref), 1.0)) <= 1e-13
    assert np.max(np.abs(w - w_ref)) <= 1e-14 * math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("D", [3.5, 4.0, 5.0, 7.0, 12.0, 40.0])
def test_laguerre_rule_matches_scipy(D):
    # the bounds leave room for scipy's own round-off, which grows with the
    # order; at 8 nodes the two rules agree to 5e-15.  The oracle's rule has
    # unit mass, scipy's the mass Gamma(alpha + 1)
    alpha = GasSpec(D=D).alpha
    y, w = oracle._laguerre_rule(alpha)
    y_ref, w_ref = roots_genlaguerre(oracle.GAUSS_ORDER, alpha)
    assert np.max(np.abs(y - y_ref) / y_ref) <= 1e-11
    assert np.max(np.abs(w - w_ref / math.gamma(alpha + 1.0))) <= 1e-12
    for j in range(4):
        exact = math.gamma(alpha + 1.0 + j) / math.gamma(alpha + 1.0)
        assert abs(w @ y**j - exact) <= 5e-15 * exact, j


def _quad_moment(k: int, xi: float, beta: float) -> float:
    # full_output returns quad's warnings instead of issuing them
    value = integrate.quad(lambda r: r ** (2 * k + 2) * math.exp(-xi * r * r - beta * r**4),
                           0.0, np.inf, epsabs=0.0, epsrel=2e-14, limit=200, full_output=1)[0]
    return 4.0 * math.pi * value


def test_radial_moments_match_quad():
    # seeded (xi, beta), negative xi included; beta stays large enough at
    # negative xi that the integrand does not overflow
    rng = np.random.default_rng(20)
    for _ in range(60):
        xi = float(rng.uniform(-1.0, 3.0))
        beta = float(10.0 ** rng.uniform(-1.5 if xi < 0.2 else -4.0, 0.5))
        moments = oracle._radial_moments(xi, beta)
        for k, value in enumerate(moments):
            reference = _quad_moment(k, xi, beta)
            assert abs(value - reference) <= 1e-13 * abs(reference), (xi, beta, k)


@pytest.mark.parametrize("beta", [0.001, 0.01, 0.05, 0.5])
def test_newton_xi_matches_brentq(beta):
    spec = GasSpec(D=5.0)
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.3)
    target = 3.0 * (s.pressure() + s.Pi) / s.rho
    xi0 = multipliers_from_state(s, spec).xi

    def resid(xi):
        m0, m1, _ = oracle._radial_moments(xi, beta)
        return m1 / m0 - target

    xi, (m0, m1, m2), converged = oracle._solve_trial_xi(target, beta, xi0)
    # the residual falls with xi and is negative at xi0: widen downward
    lo, step = xi0 - 0.1, 0.1
    while resid(lo) <= 0.0:
        lo, step = lo - step, 2.0 * step
    reference = optimize.brentq(resid, lo, xi0, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    assert converged
    assert abs(xi - reference) <= 1e-14 * max(abs(reference), 1e-3)
    assert (m0, m1, m2) == oracle._radial_moments(xi, beta)
