"""The frozen limit (no source) against its exact Riemann solution.

With tau -> inf the rows (F, F_x, F_ll) are the 1-D Euler equations with
gamma = 5/3 in (rho, v, P = p + Pi = rho T_K), since F_ll = rho v^2 + 3P,
and G_ll - F_ll = (D-3) rho T_I has the flux (G_ll - F_ll) v: the internal
temperature T_I is carried by the flow and jumps only at the contact.  So
the exact solution is bench/exact_riemann.sample on (rho, v, P), with T_I
equal to the left or the right value on either side of the contact.  The
window -p < Pi < (D-3) p / 3 is T_K > 0 and T_I > 0: its lower edge is the
Euler vacuum, which the double rarefaction approaches.

Each L1 error, of 16-point cell averages of the exact solution, is bounded
by MARGIN times its value measured at N = 100, 200 and 400 (D = 5,
tau = 1e12, outflow ends, t = 0.15, CFL 0.45, minmod), and falls with N.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from et6.gas import GasSpec
from et6.solver import Scenario, run_scenario

_PATH = Path(__file__).resolve().parents[1] / "bench" / "exact_riemann.py"
_SPEC = importlib.util.spec_from_file_location("bench_exact_riemann", _PATH)
exact_riemann = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = exact_riemann   # dataclasses look their module up
_SPEC.loader.exec_module(exact_riemann)

D = 5.0
GAMMA = 5.0 / 3.0
T_END = 0.15
X_SPLIT = 0.5
SUB = 16
LADDER = (100, 200, 400)
MARGIN = 1.1

CASES = {
    # Sod's tube with Pi/p = 0.3 on the left and -0.5 on the right
    "sod": dict(rho_left=1.0, p_left=1.0, pi_left=0.3,
                rho_right=0.125, p_right=0.1, pi_right=-0.05),
    # the data of bench/cases/window_edges.ini: Pi/p = -0.9 and 0.6, at 90%
    # of the window's lower and upper edge
    "window_edges": dict(rho_left=1.0, p_left=1.0, pi_left=-0.9,
                         rho_right=1.0, p_right=1.0, pi_right=0.6),
    # two rarefactions: T_K falls to 0.05 at the centre, where Pi/p = -0.88
    "double_rarefaction": dict(rho_left=1.0, p_left=1.0, v_left=-3.0,
                               rho_right=1.0, p_right=1.0, v_right=3.0),
}

# L1 errors of (rho, T_I) at N = 100, 200, 400, as measured
MEASURED = {
    ("sod", "muscl"): ((1.034e-2, 5.459e-3, 2.893e-3), (1.645e-2, 1.061e-2, 6.433e-3)),
    ("sod", "rusanov"): ((1.984e-2, 1.408e-2, 9.355e-3), (3.376e-2, 2.571e-2, 1.816e-2)),
    ("window_edges", "muscl"): ((5.275e-2, 3.192e-2, 1.950e-2),
                                (5.678e-2, 3.547e-2, 2.216e-2)),
    ("double_rarefaction", "muscl"): ((1.496e-2, 9.622e-3, 5.284e-3),
                                      (8.532e-3, 7.386e-3, 5.885e-3)),
}


def internal_temperature(rho, p, Pi):
    """T_I = (p - 3 Pi/(D-3)) / rho."""
    return (p - 3.0 * Pi / (D - 3.0)) / rho


def side(case: dict, name: str):
    """The Euler state (rho, v, P = p + Pi) and T_I of one side."""
    rho, p, Pi = case[f"rho_{name}"], case[f"p_{name}"], case.get(f"pi_{name}", 0.0)
    return (exact_riemann.Side(rho, case.get(f"v_{name}", 0.0), p + Pi),
            internal_temperature(rho, p, Pi))


def exact_cell_averages(case: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """rho and T_I of the exact solution, averaged over SUB points per cell."""
    (left, t_left), (right, t_right) = side(case, "left"), side(case, "right")
    x = (np.arange(n * SUB) + 0.5) / (n * SUB)
    rho, _, _ = exact_riemann.sample(x, T_END, X_SPLIT, left, right, GAMMA)
    _, u_star = exact_riemann.star_state(left, right, GAMMA)
    t_i = np.where(x < X_SPLIT + u_star * T_END, t_left, t_right)
    return rho.reshape(n, SUB).mean(axis=1), t_i.reshape(n, SUB).mean(axis=1)


def frozen_run(case: dict, scheme: str, n: int) -> dict:
    sc = Scenario(kind="riemann", spec=GasSpec(D=D, tau=1e12), N=n, boundary="outflow",
                  t_end=T_END, scheme=scheme, x_split=X_SPLIT, **case)
    ts = run_scenario(sc)
    assert ts.snapshot_times[-1] == T_END
    return ts.snapshots[-1]


@pytest.mark.parametrize("name, scheme", MEASURED, ids=[f"{n}-{s}" for n, s in MEASURED])
def test_frozen_limit_converges_to_euler_and_a_passive_internal_temperature(name, scheme):
    errors = []
    for n in LADDER:
        w = frozen_run(CASES[name], scheme, n)
        rho, t_i = exact_cell_averages(CASES[name], n)
        errors.append((float(np.mean(np.abs(w["rho"] - rho))),
                       float(np.mean(np.abs(internal_temperature(w["rho"], w["p"], w["Pi"])
                                            - t_i)))))
    for field, measured, got in zip(("rho", "T_I"), MEASURED[name, scheme], zip(*errors)):
        assert all(e <= MARGIN * m for e, m in zip(got, measured)), (field, got)
        assert got[0] > got[1] > got[2], (field, got)


def test_rusanov_carries_a_uniform_internal_temperature_exactly():
    # T_I = 1 on both sides, so it stays 1 through both rarefactions: the
    # Rusanov flux of G_ll - F_ll is T_I times that of (D-3) rho
    w = frozen_run(CASES["double_rarefaction"], "rusanov", 100)
    t_i = internal_temperature(w["rho"], w["p"], w["Pi"])
    assert np.max(np.abs(t_i - 1.0)) <= 1e-13
    assert np.min(w["Pi"] / w["p"]) < -0.3
