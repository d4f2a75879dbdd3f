"""The exact linear acoustic mode (tests/linear_waves.py) against the
package's linearization: the eigenpairs of k A + i B at a rest state, with A
the flux Jacobian and B the production Jacobian."""

import math

import numpy as np
import pytest

from et6.eigen import flux_jacobian, production_jacobian
from et6.gas import GasSpec, State6, conserved_from_primitive
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
