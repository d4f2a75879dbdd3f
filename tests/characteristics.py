"""Closed-form characteristic speeds and right eigenvectors of the six-field
system, the tests' independent reference for the flux Jacobian.

Nothing here comes from et6.  In the primitive variables w = (rho, v, p, Pi)
the six fields are the moments

    u = (rho, rho v, rho v^2 + 3 (p + Pi), rho v^2 + D p),

and along a unit direction n, at every state of the window
-p < Pi < (D - 3) p / 3, the system has
  - two sound waves at v_n -+ c, c = sqrt(5 (p + Pi) / (3 rho)), with
    dw = (rho, -+c n, dp, (5/3)(p + Pi) - dp) and dp = ((D + 2) p + 2 Pi) / D;
  - a fourfold contact wave at v_n, spanned by dw = (1, 0, 0, 0),
    (0, t1, 0, 0), (0, t2, 0, 0) and (0, 0, 1, -1), with t1 and t2
    tangent to n.
Each dw maps to its conserved jump du = (du/dw) dw.
"""

import numpy as np


def du_dw(rho: float, v, D: float) -> np.ndarray:
    """Derivative of the moment map u(w) for w = (rho, v1, v2, v3, p, Pi)."""
    v = np.asarray(v, dtype=float)
    jac = np.zeros((6, 6))
    jac[0, 0] = 1.0
    jac[1:4, 0] = v
    jac[1:4, 1:4] = rho * np.eye(3)
    jac[4:, 0] = v @ v
    jac[4:, 1:4] = 2.0 * rho * v
    jac[4, 4:] = 3.0
    jac[5, 4] = D
    return jac


def characteristics(rho: float, v, p: float, Pi: float, D: float,
                    n) -> tuple[np.ndarray, np.ndarray]:
    """(speeds, right eigenvectors) along the unit direction n: speeds
    v_n - c, v_n (four times), v_n + c, and the matching conserved jumps
    as columns."""
    v, n = np.asarray(v, dtype=float), np.asarray(n, dtype=float)
    vn, c = float(v @ n), float(np.sqrt(5.0 * (p + Pi) / (3.0 * rho)))
    dp = ((D + 2.0) * p + 2.0 * Pi) / D
    t1 = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    zero = np.zeros(3)
    primitive_jumps = [
        (rho, *(-c * n), dp, 5.0 / 3.0 * (p + Pi) - dp),
        (1.0, *zero, 0.0, 0.0),
        (0.0, *t1, 0.0, 0.0),
        (0.0, *t2, 0.0, 0.0),
        (0.0, *zero, 1.0, -1.0),
        (rho, *(c * n), dp, 5.0 / 3.0 * (p + Pi) - dp),
    ]
    speeds = np.array([vn - c, vn, vn, vn, vn, vn + c])
    return speeds, du_dw(rho, v, D) @ np.array(primitive_jumps).T
