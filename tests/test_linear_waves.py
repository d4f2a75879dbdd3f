"""The exact linear acoustic mode (tests/linear_waves.py) against the
package's linearization, the eigenpairs of k A + i B at a rest state with A
the flux Jacobian and B the production Jacobian, and against the solver:
convergence ladders of each scheme toward the mode."""

import math

import numpy as np
import pytest

from et6.eigen import flux_jacobian, production_jacobian
from et6.gas import GasSpec, State6, conserved_from_primitive
from et6.solver import Scenario, run_scenario
from linear_waves import acoustic_mode

K = 2.0 * math.pi


# phase speed Re(omega)/k and damping rate -Im(omega) at D = 5, rho = p = 1:
# from the Euler speed sqrt(7/5) toward the six-field speed sqrt(5/3)
@pytest.mark.parametrize("tau, speed, damping", [(1e-3, 1.18322, 0.0053),
                                                 (0.05, 1.19681, 0.2354),
                                                 (0.2, 1.26314, 0.3097),
                                                 (10.0, 1.29098, 0.0080)])
def test_acoustic_mode_is_an_eigenpair_of_the_linearized_system(tau, speed, damping):
    spec = GasSpec(D=5.0, tau=tau)
    omega, mode = acoustic_mode(K, tau, spec.D)
    assert round(omega.real / K, 5) == speed
    assert round(-omega.imag, 4) == damping
    u = conserved_from_primitive(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), spec)
    values, vectors = np.linalg.eig(K * flux_jacobian(u, [1.0, 0.0, 0.0], spec)
                                    + 1j * production_jacobian(u, spec))
    j = int(np.argmin(np.abs(values - omega)))
    assert abs(values[j] - omega) <= 1e-13 * abs(omega)
    vector = vectors[:, j] / vectors[0, j]   # per unit density amplitude, as mode
    assert np.max(np.abs(vector - mode)) <= 1e-12 * np.max(np.abs(mode))


AMPLITUDE = 1e-6


def acoustic_error(N: int, tau: float, scheme: str, limiter: str, cfl: float) -> float:
    """L1 density error per unit amplitude at t = 0.5 of a run from the cell
    averages of the mode, amplitude 1e-6 about rho = p = 1 at rest, D = 5,
    one wavelength on [0, 1] periodic."""
    spec = GasSpec(D=5.0, tau=tau)
    omega, mode = acoustic_mode(K, tau, spec.D)
    sc = Scenario(spec=spec, N=N, t_end=0.5, cfl=cfl, scheme=scheme, limiter=limiter)
    average = math.sin(K * sc.dx / 2.0) / (K * sc.dx / 2.0)   # of exp(ikx) over a cell

    def wave(t):
        return average * np.exp(1j * (K * sc.centers - omega * t))

    rest = np.array([1.0, 0.0, 0.0, 0.0, 3.0, spec.D])
    U = rest[:, None] + AMPLITUDE * (mode[:, None] * wave(0.0)).real
    rho = run_scenario(sc, U).snapshots[-1]["rho"]
    return float(np.sum(np.abs(rho - 1.0 - AMPLITUDE * wave(sc.t_end).real))) * sc.dx / AMPLITUDE


# measured: orders (N = 50 -> 100, 100 -> 200) and the error at N = 200;
# each error is bounded 10% above its measured value
@pytest.mark.parametrize("tau, scheme, limiter, cfl, min_order, max_error", [
    (0.2, "muscl", "none", 0.25, 1.9, 2.25e-4),       # 2.007, 2.003; 2.049e-4
    (10.0, "muscl", "none", 0.25, 1.9, 2.57e-4),      # 2.003, 2.001; 2.336e-4
    (0.2, "muscl", "minmod", 0.25, 1.75, 1.40e-3),    # 1.798, 1.884; 1.269e-3
    (0.2, "rusanov", "minmod", 0.45, 0.9, 2.19e-2),   # 0.948, 0.974; 1.990e-2
    # 1.544, 1.228; 6.610e-4.  The second SSP stage fluxes a Pi that is
    # O(dt) from transport where the true Pi is O(tau), and the closing
    # update repairs Pi only at the end of the step (the stage-2 FOUND of
    # ROADMAP item 1)
    pytest.param(1e-5, "muscl", "none", 0.25, 1.8, math.inf,
                 marks=pytest.mark.xfail(strict=True, reason="O(dt) Pi in the second SSP "
                                         "stage where dt >> tau")),
], ids=["none-tau0.2", "none-tau10", "minmod-tau0.2", "rusanov-tau0.2", "none-tau1e-5"])
def test_schemes_converge_to_the_exact_mode(tau, scheme, limiter, cfl, min_order, max_error):
    errors = [acoustic_error(N, tau, scheme, limiter, cfl) for N in (50, 100, 200)]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= min_order, orders
    assert errors[-1] <= max_error, errors
