"""The exact linear acoustic mode of the six-field system, a reference at
every tau.

About a rest state (rho0, p0, Pi = 0), the one-dimensional equations
linearize to

    rho_t + rho0 v_x = 0,            rho0 v_t + (p + Pi)_x = 0,
    p_t = -gamma p0 v_x,             Pi_t = -beta p0 v_x - Pi / tau,

with gamma = (D+2)/D and beta = 2(D-3)/(3D); -beta p0 tau is the bulk
viscosity -nu.  A mode exp(i(k x - omega t)) exists where

    omega^2 (1 - i omega tau) = k^2 (p0/rho0) (gamma - (5/3) i omega tau),

since gamma + beta = 5/3.  This is Meixner's single-relaxation sound
dispersion: the phase speed runs from the Euler speed sqrt(gamma p0/rho0)
at k tau -> 0 to the six-field speed sqrt(5 p0 / (3 rho0)) at k tau -> inf.
Nothing here imports the package, so the tests can hold it against the
package's own linearization.
"""

import numpy as np


def acoustic_root(k: float, tau: float, D: float, rho0: float = 1.0,
                  p0: float = 1.0) -> complex:
    """The right-moving root omega of the dispersion cubic; -Im omega >= 0
    is its damping rate."""
    gamma = (D + 2.0) / D
    c2k2 = k * k * p0 / rho0
    roots = np.roots([-1j * tau, 1.0, 5.0 / 3.0 * 1j * tau * c2k2, -gamma * c2k2])
    return complex(roots[np.argmax(roots.real)])


def acoustic_mode(k: float, tau: float, D: float, rho0: float = 1.0,
                  p0: float = 1.0) -> tuple[complex, np.ndarray]:
    """omega and the mode's conserved rows (F, F_x, F_y, F_z, F_ll, G_ll) per
    unit density amplitude, to first order:

        v = omega rho / (k rho0),   p = gamma p0 rho / rho0,
        Pi = -i k beta p0 tau v / (1 - i omega tau),

    with rows (rho, rho0 v, 0, 0, 3 (p + Pi), D p).
    """
    omega = acoustic_root(k, tau, D, rho0, p0)
    gamma = (D + 2.0) / D
    beta = 2.0 * (D - 3.0) / (3.0 * D)
    rho = 1.0
    v = omega * rho / (k * rho0)
    p = gamma * p0 * rho / rho0
    Pi = -1j * k * beta * p0 * tau * v / (1.0 - 1j * omega * tau)
    return omega, np.array([rho, rho0 * v, 0.0, 0.0, 3.0 * (p + Pi), D * p])
