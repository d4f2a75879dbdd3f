"""Exact Riemann solver for the 1-D Euler equations of an ideal gas.

Used as the reference for the small-tau Riemann workload: as tau -> 0 the
six-field balance laws relax to the Euler equations of a polyatomic gas
with gamma = (D + 2) / D.  The star state follows Toro, "Riemann Solvers
and Numerical Methods for Fluid Dynamics", ch. 4: Newton iteration on the
pressure function, then sampling of the self-similar solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Side:
    rho: float
    u: float
    p: float


def _pressure_function(p: float, side: Side, gamma: float) -> tuple[float, float]:
    """Toro's f_K(p) and its derivative for one side."""
    c = math.sqrt(gamma * side.p / side.rho)
    if p > side.p:  # shock
        a = 2.0 / ((gamma + 1.0) * side.rho)
        b = (gamma - 1.0) / (gamma + 1.0) * side.p
        root = math.sqrt(a / (p + b))
        return (p - side.p) * root, root * (1.0 - 0.5 * (p - side.p) / (b + p))
    ratio = p / side.p  # rarefaction
    f = 2.0 * c / (gamma - 1.0) * (ratio ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
    df = ratio ** (-(gamma + 1.0) / (2.0 * gamma)) / (side.rho * c)
    return f, df


def star_state(left: Side, right: Side, gamma: float,
               tol: float = 1e-14, max_iter: int = 100) -> tuple[float, float]:
    """Pressure and velocity between the two nonlinear waves."""
    c_l = math.sqrt(gamma * left.p / left.rho)
    c_r = math.sqrt(gamma * right.p / right.rho)
    du = right.u - left.u
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        raise ValueError("the data generate vacuum")
    # two-rarefaction guess, always positive
    z = (gamma - 1.0) / (2.0 * gamma)
    p = ((c_l + c_r - 0.5 * (gamma - 1.0) * du)
         / (c_l / left.p ** z + c_r / right.p ** z)) ** (1.0 / z)
    for _ in range(max_iter):
        f_l, df_l = _pressure_function(p, left, gamma)
        f_r, df_r = _pressure_function(p, right, gamma)
        p_new = max(p - (f_l + f_r + du) / (df_l + df_r), 1e-3 * p)
        converged = abs(p_new - p) <= tol * 0.5 * (p_new + p)
        p = p_new
        if converged:
            f_l, _ = _pressure_function(p, left, gamma)
            f_r, _ = _pressure_function(p, right, gamma)
            return p, 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    raise RuntimeError("star-pressure iteration did not converge")


def _sample_side(s: np.ndarray, side: Side, p_star: float, u_star: float,
                 gamma: float, sign: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solution at speeds s = x/t on one side of the contact.

    sign is -1 for the left state and +1 for the right one; the formulas of
    the right side follow from the left ones by mirroring u and s.
    """
    g1 = (gamma - 1.0) / (gamma + 1.0)
    u_k = sign * side.u
    us = sign * u_star
    sv = sign * s
    c_k = math.sqrt(gamma * side.p / side.rho)
    rho = np.empty_like(s)
    u = np.empty_like(s)
    p = np.empty_like(s)
    if p_star > side.p:
        rho_star = side.rho * (p_star / side.p + g1) / (g1 * p_star / side.p + 1.0)
        shock = u_k + c_k * math.sqrt((gamma + 1.0) / (2.0 * gamma) * p_star / side.p
                                      + (gamma - 1.0) / (2.0 * gamma))
        outside = sv >= shock
        rho[:] = np.where(outside, side.rho, rho_star)
        u[:] = np.where(outside, u_k, us)
        p[:] = np.where(outside, side.p, p_star)
    else:
        rho_star = side.rho * (p_star / side.p) ** (1.0 / gamma)
        c_star = c_k * (p_star / side.p) ** ((gamma - 1.0) / (2.0 * gamma))
        head = u_k + c_k
        tail = us + c_star
        fan_u = 2.0 / (gamma + 1.0) * (-c_k + 0.5 * (gamma - 1.0) * u_k + sv)
        fan_c = 2.0 / (gamma + 1.0) * (c_k - 0.5 * (gamma - 1.0) * (u_k - sv))
        fan_rho = side.rho * (np.maximum(fan_c, 0.0) / c_k) ** (2.0 / (gamma - 1.0))
        fan_p = side.p * (np.maximum(fan_c, 0.0) / c_k) ** (2.0 * gamma / (gamma - 1.0))
        rho[:] = np.where(sv >= head, side.rho, np.where(sv <= tail, rho_star, fan_rho))
        u[:] = np.where(sv >= head, u_k, np.where(sv <= tail, us, fan_u))
        p[:] = np.where(sv >= head, side.p, np.where(sv <= tail, p_star, fan_p))
    return rho, sign * u, p


def sample(x: np.ndarray, t: float, x0: float, left: Side, right: Side,
           gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density, velocity and pressure at positions x and time t > 0."""
    p_star, u_star = star_state(left, right, gamma)
    s = (np.asarray(x, dtype=float) - x0) / t
    rho_l, u_l, p_l = _sample_side(s, left, p_star, u_star, gamma, -1.0)
    rho_r, u_r, p_r = _sample_side(s, right, p_star, u_star, gamma, +1.0)
    on_left = s < u_star
    return (np.where(on_left, rho_l, rho_r), np.where(on_left, u_l, u_r),
            np.where(on_left, p_l, p_r))


# Toro's published star states (Table 4.3, gamma = 1.4), to the digits given
TORO_TESTS = (
    ("test 1", Side(1.0, 0.0, 1.0), Side(0.125, 0.0, 0.1), 0.30313, 0.92745),
    ("test 3", Side(1.0, 0.0, 1000.0), Side(1.0, 0.0, 0.01), 460.894, 19.5975),
)


def check_toro(gamma: float = 1.4) -> list[str]:
    """Compare star_state with Toro's tables; return the mismatches."""
    errors = []
    for name, left, right, p_ref, u_ref in TORO_TESTS:
        p_star, u_star = star_state(left, right, gamma)
        # the tables round to 5-6 significant digits
        if abs(p_star - p_ref) > 5e-5 * p_ref or abs(u_star - u_ref) > 5e-5 * u_ref:
            errors.append(f"Toro {name}: p* = {p_star:.6g}, u* = {u_star:.6g}, "
                          f"published {p_ref}, {u_ref}")
    return errors


def cell_average_density(x_left: float, x_right: float, n: int, t: float, x0: float,
                         left: Side, right: Side, gamma: float,
                         sub: int = 16) -> np.ndarray:
    """Density averaged over each of n uniform cells (midpoint sub-sampling)."""
    dx = (x_right - x_left) / n
    pts = x_left + (np.arange(n * sub) + 0.5) * dx / sub
    rho, _, _ = sample(pts, t, x0, left, right, gamma)
    return rho.reshape(n, sub).mean(axis=1)
