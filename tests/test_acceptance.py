"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS/FAIL line with the measured quantity and its
threshold, then asserts.  Run with `pytest tests/test_acceptance.py -v -s`
to see every line.
"""

import math
import time

import numpy as np
import pytest

from et6.gas import GasSpec, State6, conserved_from_primitive, temperatures
from et6.closure import (
    distribution_value,
    entropy_parts,
    equilibrium_distribution_value,
    main_field,
)
from et6.oracle import (
    oracle_constraint_check,
    oracle_entropy,
    oracle_flux_check,
    rel_err,
)
from et6.config import NsLimitConfig
from et6.eigen import _du_dw, _entropy_derivatives, acceleration_wave, convexity_check, \
    k_condition, wave_fan
from et6.solver import (
    Scenario,
    bulk_viscosity,
    euler_reference,
    ns_limit_diagnostic,
    run_scenario,
)
from finite_differences import fd_gradient

SOUND = 1.2909944487358056  # sqrt(5/3)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_c01_closure_oracle_equivalence():
    """7x7 (Z, D) grid: constraint moments and flux entries vs quadrature."""
    start = time.time()
    velocity = np.array([0.4, -0.25, 0.15])
    worst = 0.0
    d_values = (3.5, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0)
    for d_val in d_values:
        spec = GasSpec(D=d_val)
        for z in np.linspace(-0.9, 0.95 * spec.z_upper, 7):
            s = State6(rho=1.0, v=velocity, T=1.0, Pi=float(z))
            for rep in oracle_constraint_check(s, spec):
                worst = max(worst, rep.rel_err)
            for rep in oracle_flux_check(s, spec):
                worst = max(worst, rep.rel_err)
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed <= 60.0
    report(1, ok, f"max rel err {worst:.3e} <= 1e-8 over 7x7 grid, "
                  f"runtime {elapsed:.1f}s <= 60s")


def test_c02_equilibrium_reduction():
    """Pi = 0 distribution equals the generalized Maxwellian pointwise."""
    worst = 0.0
    spec = GasSpec(D=5.0)
    s = State6(rho=1.0, v=0.0, T=1.0, Pi=0.0)
    for cx in np.linspace(-3.0, 3.0, 10):
        for cy in np.linspace(-2.0, 2.0, 10):
            for i_val in np.linspace(0.0, 5.0, 10):
                f = distribution_value([cx, cy, 0.7], i_val, s, spec)
                f_eq = equilibrium_distribution_value([cx, cy, 0.7], i_val, 1.0, 1.0, spec)
                worst = max(worst, rel_err(f, f_eq))
    report(2, worst <= 1e-12,
           f"max rel err {worst:.3e} <= 1e-12 on 10^3 (C, I) sample")


def test_c03_entropy_structure():
    """k(0) = 0, k < 0 off equilibrium, h matches quadrature and decomposes."""
    spec = GasSpec(D=5.0)
    k0 = entropy_parts(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), spec).k
    k_neg = True
    worst_h = 0.0
    worst_split = 0.0
    for d_val in (3.5, 5.0, 9.0):
        spec_d = GasSpec(D=d_val)
        for z in np.linspace(-0.95, 0.95 * spec_d.z_upper, 21):
            s = State6(rho=1.0, v=0.0, T=1.0, Pi=float(z))
            parts = entropy_parts(s, spec_d)
            if abs(z) > 1e-12 and parts.k >= 0.0:
                k_neg = False
            worst_h = max(worst_h, rel_err(oracle_entropy(s, spec_d), parts.h))
            worst_split = max(worst_split, rel_err(parts.h, parts.h_E + parts.k))
    ok = (k0 == 0.0) and k_neg and worst_h <= 1e-8 and worst_split <= 1e-10
    report(3, ok, f"k(0) = {k0}, k < 0 off equilibrium: {k_neg}, "
                  f"h vs quadrature {worst_h:.3e} <= 1e-8, "
                  f"decomposition {worst_split:.3e} <= 1e-10")


def test_c04_main_field_gradient_identity():
    """Entropy gradient equals the multipliers, analytically and by finite
    differences; Hessian concave, by the closed-form pivots and by the
    eigenvalues of the assembled H; H A_n symmetric."""
    rng = np.random.default_rng(314)
    worst_grad = 0.0
    worst_fd = 0.0
    worst_eig = -np.inf
    all_passed = True
    for _ in range(50):
        d_val = float(rng.choice([4.0, 5.0, 7.0]))
        spec = GasSpec(D=d_val)
        rho = float(rng.uniform(0.5, 2.0))
        temperature = float(rng.uniform(0.5, 2.0))
        v = rng.uniform(-1.0, 1.0, size=3)
        z = float(rng.uniform(-0.7, 0.7 * spec.z_upper))
        s = State6(rho=rho, v=v, T=temperature, Pi=z * rho * temperature)
        u = conserved_from_primitive(s, spec)
        rep = convexity_check(u, spec)
        all_passed &= rep.passed
        worst_grad = max(worst_grad, rep.gradient_mismatch)
        # an independent concavity verdict: eigvalsh resolves H this far
        # inside the window
        _, dmf = _entropy_derivatives(s, spec, *temperatures(s, spec), entropy_parts(s, spec).h)
        hess = np.linalg.solve(_du_dw(s, spec).T, dmf.T).T
        worst_eig = max(worst_eig, float(np.max(np.linalg.eigvalsh(0.5 * (hess + hess.T)))))
        mf = main_field(s, spec).as_array()
        grad = fd_gradient(u, spec)
        relative = np.abs(grad - mf) / np.maximum(np.abs(mf), np.max(np.abs(mf)))
        worst_fd = max(worst_fd, float(np.max(relative)))
    ok = all_passed and worst_grad <= 1e-6 and worst_fd <= 1e-6 and worst_eig < 0.0
    report(4, ok, f"gradient mismatch {worst_grad:.3e} (finite differences {worst_fd:.3e}) "
                  f"<= 1e-6 and max Hessian eigenvalue {worst_eig:.3e} < 0 on 50 random states")


def test_c05_equilibrium_eigenstructure():
    """Speeds v_n x4 and v_n +- sqrt(5p/3rho); D-independent sound speed."""
    speeds_by_d = {}
    worst = 0.0
    for d_val in (4.0, 5.0, 7.0, 12.0):
        spec = GasSpec(D=d_val)
        vx = 0.35
        u = conserved_from_primitive(State6(rho=1.0, v=[vx, 0, 0], T=1.0, Pi=0.0), spec)
        fan = wave_fan(u, [1, 0, 0], spec)
        expected = np.array([vx - SOUND, vx, vx, vx, vx, vx + SOUND])
        worst = max(worst, float(np.max(np.abs(fan.speeds - expected))))
        speeds_by_d[d_val] = fan.speeds[-1] - vx
    spread = max(speeds_by_d.values()) - min(speeds_by_d.values())
    ok = worst <= 1e-10 and spread <= 1e-10 and abs(speeds_by_d[5.0] - SOUND) <= 1e-7
    report(5, ok, f"max speed error {worst:.3e} <= 1e-10, D-spread {spread:.3e}, "
                  f"sound speed {speeds_by_d[5.0]:.7f} (= 1.2909944)")


def test_c06_k_condition():
    """All six eigenvectors couple to the production at equilibrium."""
    all_pass = True
    for d_val in (4.0, 5.0, 7.0, 12.0):
        spec = GasSpec(D=d_val)
        u = conserved_from_primitive(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), spec)
        rep = k_condition(u, [1, 0, 0], spec)
        all_pass &= rep.overall_pass and len(rep.entries) == 6
    spec5 = GasSpec(D=5.0)
    u5 = conserved_from_primitive(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), spec5)
    _, plus = acceleration_wave(u5, [1, 0, 0], 1.0, spec5)
    dpi_err = abs(plus.delta_pi - 4.0 / 15.0)
    ok = all_pass and dpi_err <= 1e-8
    report(6, ok, f"overall pass for D in (4, 5, 7, 12): {all_pass}; sound-branch "
                  f"dPi = {plus.delta_pi:.6f} (expected 4/15 = 0.266667, "
                  f"err {dpi_err:.2e} <= 1e-8)")


def test_c07_homogeneous_relaxation():
    """Pi(t) = Pi0 exp(-t/tau) at every output time, three decades of tau."""
    worst, fewest = 0.0, math.inf
    for tau in (1.0, 0.1, 1e-3):
        spec = GasSpec(D=5.0, tau=tau)
        t_end = min(1.0, 10.0 * tau)
        sc = Scenario(kind="uniform_relaxation", spec=spec, N=50, t_end=t_end,
                      output_cadence=t_end / 10.0, z0=0.3)
        ts = run_scenario(sc)
        fewest = min(fewest, len(ts.snapshot_times))
        for t, snap in zip(ts.snapshot_times, ts.snapshots):
            exact = 0.3 * math.exp(-t / tau)   # p = 1
            worst = max(worst, float(np.max(np.abs(snap["Pi"] - exact))))
    report(7, worst <= 1e-12 and fewest >= 10,
           f"max |Pi - Pi0 exp(-t/tau)| = {worst:.3e} <= 1e-12 (pressure scale) "
           f"and fewest output times {fewest} >= 10, for tau in (1, 0.1, 1e-3)")


def test_c08_ns_limit():
    """Maxwellian-iteration relation Pi = -nu dv/dx in the stiff limit, at
    the transport time steps of `et6 nslimit` (dt about 3.5 tau)."""
    start = time.time()
    sc = NsLimitConfig().scenario(GasSpec())
    spec = sc.spec
    ts = run_scenario(sc)
    rep = ns_limit_diagnostic(ts, sc)
    elapsed = time.time() - start
    steps = len(ts.diag_t) - 1
    nu = bulk_viscosity(1.0, spec)
    bound = 10.0 * spec.tau
    ok = (rep.max_rel_deviation <= bound and not rep.reduced_confidence and steps <= 500
          and elapsed <= 120.0)
    report(8, ok, f"max rel deviation {rep.max_rel_deviation:.3e} <= {bound:g} "
                  f"(nu = {nu:.6g}), N = 400, {steps} steps <= 500, "
                  f"runtime {elapsed:.1f}s <= 120s")


def test_c09_monatomic_limit():
    """D -> 3+ with Pi(0) = 0 collapses onto the five-field reference."""
    spec = GasSpec(D=3.0 + 1e-6, tau=1e-2)
    sc = Scenario(kind="smooth_wave", spec=spec, N=200, t_end=0.4, amplitude=1e-2,
                  cfl=0.45, scheme="rusanov")
    ts = run_scenario(sc)
    eu = euler_reference(sc)
    worst = 0.0
    for name in ("rho", "vx", "T"):
        diff = float(np.sum(np.abs(ts.snapshots[-1][name] - eu.snapshots[-1][name]))) * sc.dx
        worst = max(worst, diff)
    report(9, worst <= 1e-6,
           f"max L1 distance to the five-field reference {worst:.3e} <= 1e-6")


def test_c10_conservation_and_entropy():
    """Periodic conservation to 1e-13 over 1000+ steps; entropy monotone."""
    spec = GasSpec(D=5.0, tau=1e-2)
    sc = Scenario(kind="smooth_wave", spec=spec, N=100, t_end=3.2, amplitude=1e-2)
    ts = run_scenario(sc)
    n_steps = len(ts.diag_t) - 1
    worst_drift = 0.0
    for series in (ts.total_F, ts.total_Fx, ts.total_Gll):
        arr = np.array(series)
        scale = max(abs(arr[0]), float(np.max(np.abs(arr))))
        worst_drift = max(worst_drift, float(np.max(np.abs(arr - arr[0]))) / scale)
    h = np.array(ts.total_entropy)
    min_step = float(np.min(np.diff(h)))
    entropy_ok = min_step >= -1e-10 * abs(h[0])
    ok = n_steps >= 1000 and worst_drift <= 1e-13 and entropy_ok
    report(10, ok, f"{n_steps} steps: conservation drift {worst_drift:.3e} <= 1e-13, "
                   f"min entropy step {min_step:.3e} >= {-1e-10 * abs(h[0]):.1e}")
