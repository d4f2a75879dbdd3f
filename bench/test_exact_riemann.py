"""Checks of the exact Riemann reference against published values.

Run with ``python3 -m pytest bench/test_exact_riemann.py``.
"""

import numpy as np

import exact_riemann
from exact_riemann import Side


def test_star_states_match_toro():
    assert exact_riemann.check_toro() == []


def test_sample_is_constant_outside_the_fan_and_conserves_mass():
    left, right = Side(1.0, 0.0, 1.0), Side(0.125, 0.0, 0.1)
    x = np.linspace(0.0, 1.0, 20001)
    rho, u, p = exact_riemann.sample(x, 0.2, 0.5, left, right, 1.4)
    assert rho[0] == 1.0 and u[0] == 0.0 and p[0] == 1.0
    assert rho[-1] == 0.125 and u[-1] == 0.0 and p[-1] == 0.1
    # no flux through either end while the waves are inside: mass is kept,
    # up to the sub-sampling error of the cells cut by a discontinuity
    mass = exact_riemann.cell_average_density(0.0, 1.0, 1000, 0.2, 0.5, left, right, 1.4).mean()
    assert abs(mass - 0.5625) < 1e-5
