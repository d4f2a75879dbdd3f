"""Characteristic structure of the six-field balance laws.

Flux Jacobian, wave fans, acceleration-wave jump amplitudes, the
production-coupling (Shizuta-Kawashima type) condition at equilibrium, and
entropy convexity / symmetrizer checks.

The flux Jacobian and the entropy Hessian H = d(main field)/du are
assembled analytically by the chain rule through the primitive variables
w = (rho, v, p, Pi), so the convexity check needs no finite differences:
it compares dh/dw with the main field times du/dw, requires H A_n to be
symmetric for each axis n, and reads concavity off the signs of H's six
closed-form pivots, which hold to the window's edges.  The wave fan is
that Jacobian's eigendecomposition by a general dense eigensolver, with no
wave-type tags; across the window its spectrum is
(v_n x4, v_n +- sqrt(5 (p + Pi) / 3 rho)).  The coupling condition needs no
eigensolver: its sound eigenvectors are the closed-form acceleration-wave
jumps and its contact eigenvectors an analytic basis, and it reads the Pi
jump of each off the primitive jump that builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closure import _main_field, entropy_parts
from .gas import GasSpec, State6, primitive_from_conserved, temperatures

K_CONDITION_TOL = 1e-10     # |dPi| threshold, relative to the pressure scale
K_MARGINAL_FACTOR = 1e-4    # below this the pass is flagged marginal
EQUILIBRIUM_TOL = 1e-10     # |Pi|/p defining "on the equilibrium manifold"
SYMMETRY_TOL = 1e-10        # |H A - (H A)^T|, relative to the largest entry of |H| |A|
GRADIENT_TOL = 1e-6         # |dh/dw - main field . du/dw|, relative to its largest entry
IMAG_TOL = 1e-9             # imaginary part of a speed, relative to the speed scale


class HyperbolicityError(RuntimeError):
    """Complex characteristic speeds beyond tolerance."""

    def __init__(self, message: str, state: State6, margin: float):
        super().__init__(message)
        self.state = state
        self.margin = margin


class EquilibriumRequiredError(ValueError):
    """Operation defined only on the equilibrium manifold (Pi = 0)."""


def et6_sound_speed(rho, p, Pi=0.0):
    """Acoustic speed sqrt(5 (p + Pi) / (3 rho)) of the six-field system (floats or arrays)."""
    return np.sqrt(5.0 * (p + Pi) / (3.0 * rho))


def euler_sound_speed(rho, p, D: float):
    """Acoustic speed sqrt((D+2)/D * p/rho) of the five-field subsystem (floats or arrays)."""
    return np.sqrt((D + 2.0) / D * p / rho)


def _unit(n) -> np.ndarray:
    """n / |n|.  A direction whose squares could leave float range is first
    divided by its largest |component|; a zero or infinite one raises."""
    n = np.asarray(n, dtype=float)
    big = max(map(abs, n.tolist()))
    if not 1e-150 < big < 1e150:
        if not 0.0 < big < math.inf:
            raise ValueError("direction must be a nonzero finite vector")
        n = n / big
    return n / math.sqrt(float(n.dot(n)))


def _du_dw(s: State6, spec: GasSpec) -> np.ndarray:
    """du/dw for w = (rho, v1, v2, v3, p, Pi): the derivative of the moment
    map (gas.momentum_flux_trace and gas.energy_moment), which maps a
    primitive jump dw to its conserved jump du @ dw."""
    rho = s.rho
    v2 = float(np.dot(s.v, s.v))
    vx, vy, vz = s.v.tolist()
    energy = [v2, 2.0 * rho * vx, 2.0 * rho * vy, 2.0 * rho * vz]
    return np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [vx, rho, 0.0, 0.0, 0.0, 0.0],
        [vy, 0.0, rho, 0.0, 0.0, 0.0],
        [vz, 0.0, 0.0, rho, 0.0, 0.0],
        [*energy, 3.0, 3.0],
        [*energy, spec.D, 0.0],
    ])


def _df_dw(s: State6, directions, spec: GasSpec) -> np.ndarray:
    """d flux_n / dw for w = (rho, v1, v2, v3, p, Pi), stacked (k, 6, 6)
    over the k unit directions n of directions (arrays of 3).  Built from
    Python floats in one np.array call, row by row: setting entries one by
    one, or converting nested lists, costs more than the arithmetic."""
    p = s.pressure()
    rho, Pi, d2 = s.rho, s.Pi, spec.D + 2.0
    v2 = float(np.dot(s.v, s.v))
    vx, vy, vz = s.v.tolist()
    rvx, rvy, rvz = rho * vx, rho * vy, rho * vz
    # the trace and energy rows by v_k: a n_k + b v_k, with b = 2 rho v_n
    at, ae = 5.0 * (p + Pi) + rho * v2, rho * v2 + d2 * p + 2.0 * Pi
    flat = []
    for n in directions:
        vn = float(np.dot(s.v, n))
        nx, ny, nz = n.tolist()
        rvn, b = rho * vn, 2.0 * rho * vn
        flat += [
            vn, rho * nx, rho * ny, rho * nz, 0.0, 0.0,
            vx * vn, rvx * nx + rvn, rvx * ny, rvx * nz, nx, nx,
            vy * vn, rvy * nx, rvy * ny + rvn, rvy * nz, ny, ny,
            vz * vn, rvz * nx, rvz * ny, rvz * nz + rvn, nz, nz,
            v2 * vn, at * nx + b * vx, at * ny + b * vy, at * nz + b * vz, 5.0 * vn, 5.0 * vn,
            v2 * vn, ae * nx + b * vx, ae * ny + b * vy, ae * nz + b * vz, d2 * vn, 2.0 * vn,
        ]
    return np.array(flat).reshape(-1, 6, 6)


def flux_jacobian(u, n, spec: GasSpec) -> np.ndarray:
    """Jacobian of the flux projected on the unit direction n.

    Conserved ordering (F, F_x, F_y, F_z, F_ll, G_ll).
    """
    return _flux_jacobian(primitive_from_conserved(u, spec), _unit(n), spec)


def _flux_jacobian(s: State6, n: np.ndarray, spec: GasSpec) -> np.ndarray:
    # A = df/dw * (du/dw)^-1, solved rather than inverted
    return np.linalg.solve(_du_dw(s, spec).T, _df_dw(s, (n,), spec)[0].T).T


@dataclass(frozen=True)
class WaveFan:
    """Eigenstructure of the flux Jacobian along a direction.

    speeds ascend; right_eigenvectors are the eigensolver's unit-norm
    columns in the same order.  Eigenvectors inside the fourfold contact
    eigenspace are basis-arbitrary.
    """

    n: np.ndarray
    speeds: np.ndarray
    right_eigenvectors: np.ndarray


def wave_fan(u, n, spec: GasSpec) -> WaveFan:
    """Full numerical eigendecomposition of flux_jacobian(u, n).

    Raises HyperbolicityError when an eigenvalue pair is complex beyond
    IMAG_TOL relative to the characteristic speed scale.
    """
    s, n = primitive_from_conserved(u, spec), _unit(n)
    values, vectors = np.linalg.eig(_flux_jacobian(s, n, spec))
    scale = abs(float(np.dot(s.v, n))) + et6_sound_speed(s.rho, s.pressure(), s.Pi)
    max_imag = float(np.maximum.reduce(np.abs(values.imag)))
    if max_imag > IMAG_TOL * scale:
        raise HyperbolicityError(
            f"complex characteristic speeds (max imaginary part {max_imag:.3e} "
            f"at speed scale {scale:.3e})",
            state=s,
            margin=max_imag / scale,
        )
    order = np.argsort(values.real)
    return WaveFan(n=n, speeds=values.real[order], right_eigenvectors=vectors.real[:, order])


@dataclass(frozen=True)
class AccelerationWave:
    """Jump amplitudes carried by one acoustic branch at equilibrium."""

    speed: float          # U = v_n + V
    delta_rho: float
    delta_v: np.ndarray
    delta_eps: float
    delta_pi: float
    conserved_jump: np.ndarray


def _require_equilibrium(u, spec: GasSpec) -> State6:
    s = primitive_from_conserved(u, spec)
    p = s.pressure()
    if abs(s.Pi) > EQUILIBRIUM_TOL * p:
        raise EquilibriumRequiredError(
            f"state is not on the equilibrium manifold: Pi/p = {s.Pi / p:.3e}"
        )
    return s


def acceleration_wave(u_eq, n, delta_rho: float,
                      spec: GasSpec) -> tuple[AccelerationWave, AccelerationWave]:
    """Acoustic jump amplitudes at an equilibrium state, both branches.

    delta_v = n V delta_rho / rho, delta_eps = (2/D)(eps/rho) delta_rho and
    delta_pi = (4 / 3D^2)(D - 3) eps delta_rho, with V = +-sqrt(5p/3rho).
    """
    n = _unit(n)
    s = _require_equilibrium(u_eq, spec)
    p, eps = s.pressure(), 0.5 * spec.D * s.T
    vn = float(np.dot(s.v, n))
    du = _du_dw(s, spec)
    waves = []
    d_eps = 2.0 / spec.D * eps / s.rho * delta_rho
    d_pi = 4.0 / (3.0 * spec.D**2) * (spec.D - 3.0) * eps * delta_rho
    # p = (2/D) rho eps
    d_p = 2.0 / spec.D * (eps * delta_rho + s.rho * d_eps)
    for branch in (-1, +1):
        v_char = branch * et6_sound_speed(s.rho, p)
        d_v = n * v_char * delta_rho / s.rho
        waves.append(AccelerationWave(speed=vn + v_char, delta_rho=delta_rho, delta_v=d_v,
                                      delta_eps=d_eps, delta_pi=d_pi,
                                      conserved_jump=du @ np.array([delta_rho, *d_v, d_p, d_pi])))
    return waves[0], waves[1]


def grad_pi_conserved(u, spec: GasSpec) -> np.ndarray:
    """Analytic gradient of Pi with respect to (F, F_i, F_ll, G_ll)."""
    v = primitive_from_conserved(u, spec).v
    coeff = 1.0 / 3.0 - 1.0 / spec.D
    return np.array([coeff * float(np.dot(v, v)), *(-2.0 * coeff * v), 1.0 / 3.0, -1.0 / spec.D])


def production_jacobian(u, spec: GasSpec) -> np.ndarray:
    """Jacobian of the production vector (0, 0_i, -3 Pi / tau, 0).

    Only the momentum-flux-trace row is nonzero.
    """
    jac = np.zeros((6, 6))
    jac[4, :] = -3.0 / spec.tau * grad_pi_conserved(u, spec)
    return jac


@dataclass(frozen=True)
class KConditionEntry:
    """Production coupling of one characteristic eigenvector."""

    speed: float
    tag: str
    delta_pi: float
    coupling: float        # the nonzero component of (grad f) d
    passed: bool
    marginal: bool


@dataclass(frozen=True)
class KConditionReport:
    """Coupling condition at an equilibrium state.

    The fourfold contact eigenspace is represented by four analytic basis
    eigenvectors (delta v_n = 0, delta Pi = -delta p), each given the
    generic pressure jump delta p = p, so delta Pi = -p: contact modes
    couple to the production through delta p alone, so a basis vector with
    delta p = 0 would sit in the production kernel.  The two sound
    eigenvectors are the closed-form acceleration-wave jumps with density
    jump delta rho = rho, so their delta Pi (acceleration_wave's delta_pi)
    is 2 (D-3) p / 3D, and every verdict depends on D alone.
    """

    entries: tuple[KConditionEntry, ...]
    overall_pass: bool
    marginal: bool


def k_condition(u_eq, n, spec: GasSpec) -> KConditionReport:
    """Check that every characteristic eigenvector couples to the production.

    Coupling is measured by the dynamic-pressure jump delta_pi of the
    eigenvector; the pass threshold is |delta_pi| > 1e-10 p and a pass below
    1e-4 p is flagged marginal (the D -> 3 limit collapses the sound-branch
    coupling).  Every eigenvector is in closed form, built from a primitive
    jump dw with w = (rho, v, p, Pi): the sound ones by acceleration_wave,
    the contact ones from an analytic basis.  Pi is itself a primitive, so
    grad Pi(u) . du/dw = e_Pi and delta_pi is read off dw, no product with
    du/dw needed.
    """
    n = _unit(n)
    s = _require_equilibrium(u_eq, spec)
    p = s.pressure()
    vn = float(np.dot(s.v, n))
    # closed-form sound eigenvectors, each with the density jump rho
    entries = [_k_entry(wave.speed, "sound", wave.delta_pi, p, spec)
               for wave in acceleration_wave(u_eq, n, s.rho, spec)]
    # the contact basis (see KConditionReport): delta Pi = -delta p = -p
    entries += [_k_entry(vn, "contact", -p, p, spec)] * 4
    entries.sort(key=lambda e: e.speed)
    overall = all(e.passed for e in entries)
    marginal = overall and any(e.marginal for e in entries)
    return KConditionReport(entries=tuple(entries), overall_pass=overall, marginal=marginal)


def _k_entry(speed: float, tag: str, delta_pi: float, p_scale: float,
             spec: GasSpec) -> KConditionEntry:
    passed = abs(delta_pi) > K_CONDITION_TOL * p_scale
    marginal = passed and abs(delta_pi) <= K_MARGINAL_FACTOR * p_scale
    return KConditionEntry(speed=speed, tag=tag, delta_pi=delta_pi,
                           coupling=-3.0 * delta_pi / spec.tau, passed=passed, marginal=marginal)


@dataclass(frozen=True)
class ConvexityReport:
    """Entropy-gradient, concavity and symmetrizer check in conserved variables."""

    gradient_mismatch: float
    hessian_max_pivot: float
    gradient_ok: bool
    hessian_negative_definite: bool
    passed: bool
    symmetrizer_mismatch: float


def _entropy_derivatives(s: State6, spec: GasSpec, t_k: float, t_i: float,
                         h: float) -> tuple[np.ndarray, np.ndarray]:
    """(dh/dw, d(main field)/dw) for w = (rho, v1, v2, v3, p, Pi), given
    the temperatures (T_K, T_I) of gas.temperatures and h of entropy_parts.

    With q = rho T_K = p + Pi, r = rho T_I = p - 3 Pi/(D-3) and c0 a constant,
        h / rho = c0 - ln rho + (3/2) ln T_K + ((D-3)/2) ln T_I
        lam     = h / rho - (D/2 + 1) + v^2 / 2 T_K
        lam_i   = -v_i / T_K,   mu_ll = 1 / 2 T_I,   lam_ll + mu_ll = 1 / 2 T_K
    so dh/drho = h / rho - (D/2 + 1).
    """
    rho, D = s.rho, spec.D
    q, r, dr_dpi = rho * t_k, rho * t_i, -3.0 / (D - 3.0)
    q2, r2 = q**2, r**2
    v2 = float(np.dot(s.v, s.v))
    vx, vy, vz = s.v.tolist()
    dh = np.array([h / rho - (0.5 * D + 1.0), 0.0, 0.0, 0.0,
                   1.5 * rho / q + 0.5 * (D - 3.0) * rho / r, 1.5 * rho / q - 1.5 * rho / r])
    lam_p = 0.5 * rho * v2 / q2
    # rows lam_ll = 1/2T_K - mu_ll and mu_ll, by p and Pi
    half_k_p = -0.5 * rho / q2
    mu_p, mu_pi = -0.5 * rho / r2, -0.5 * rho * dr_dpi / r2
    return dh, np.array([
        [-(0.5 * D + 1.0) / rho + 0.5 * v2 / q, rho * vx / q, rho * vy / q, rho * vz / q,
         1.5 / q + 0.5 * (D - 3.0) / r - lam_p, 1.5 / q + 0.5 * (D - 3.0) * dr_dpi / r - lam_p],
        [-vx / q, -rho / q, 0.0, 0.0, rho * vx / q2, rho * vx / q2],
        [-vy / q, 0.0, -rho / q, 0.0, rho * vy / q2, rho * vy / q2],
        [-vz / q, 0.0, 0.0, -rho / q, rho * vz / q2, rho * vz / q2],
        [0.5 / q - 0.5 / r, 0.0, 0.0, 0.0, half_k_p - mu_p, half_k_p - mu_pi],
        [0.5 / r, 0.0, 0.0, 0.0, mu_p, mu_pi],
    ])


def _hessian_pivots(s: State6, spec: GasSpec, t_k: float, t_i: float) -> list[float]:
    """The pivots of the entropy Hessian H in w' = (rho, v, q, r), with
    q = rho T_K = p + Pi and r = rho T_I = p - 3 Pi/(D-3), given the
    temperatures (T_K, T_I) of gas.temperatures.  M = (du/dw')^T H
    (du/dw') is an arrowhead: M_rho,rho = -(D/2 + 1)/rho, M_vv = -(rho^2/q) I,
    M_rho,q = 3/(2q), M_rho,r = (D-3)/(2r), M_qq = -3 rho/(2 q^2) and
    M_rr = -(D-3) rho/(2 r^2); eliminating v, q and r before rho leaves the
    Schur complement -1/rho.  By Sylvester's law of inertia H is negative
    definite iff all six are negative, as on the whole open window."""
    rho, dm3 = s.rho, spec.D - 3.0
    q, r = rho * t_k, rho * t_i
    return [-rho * rho / q] * 3 + [-1.5 * rho / (q * q), -0.5 * dm3 * rho / (r * r), -1.0 / rho]


def convexity_check(u, spec: GasSpec) -> ConvexityReport:
    """Verify that the main field is the entropy gradient, that h(u) is
    concave, and that the entropy Hessian symmetrizes the system.

    All in closed form through w = (rho, v, p, Pi), from one evaluation of
    the state's temperatures and entropy:
    - gradient: dh/dw against main field . du/dw, relative to the largest
      entry of the latter, passing below GRADIENT_TOL;
    - concavity: every pivot of H = d(main field)/dw . (du/dw)^-1 from
      _hessian_pivots must be negative, and the largest is reported.  They
      are negative wherever rho > 0, p + Pi > 0 and D > 3, and a state
      outside the window raises before they are formed, so this verdict
      restates the window; the closed form itself is checked by the tests'
      numerical eigvalsh of H (C04) and LDL^T (tests/test_verdicts.py);
    - symmetrizer: H A_n must be symmetric for n = x, y, z, the mismatch
      measured relative to the largest entry of |H| |A_n|, the round-off
      scale of the product (entries of H A_n itself can cancel to far
      less), and passing below SYMMETRY_TOL.
    """
    s = primitive_from_conserved(u, spec)
    t_k, t_i = temperatures(s, spec)
    parts = entropy_parts(s, spec)
    dh, dmf = _entropy_derivatives(s, spec, t_k, t_i, parts.h)
    du = _du_dw(s, spec)
    mf_du = _main_field(s, parts, t_k, t_i).as_array() @ du
    # H and the three A_n from one factorization of du^T
    rhs = np.concatenate(([dmf], _df_dw(s, np.eye(3), spec))).transpose(2, 0, 1).reshape(6, 24)
    solved = np.linalg.solve(du.T, rhs).T.reshape(4, 6, 6)
    hess, a_matrices = solved[0], solved[1:]
    ha, peak = hess @ a_matrices, np.maximum.reduce
    asymmetry = float(peak(peak(np.abs(ha - ha.transpose(0, 2, 1)), axis=(1, 2))
                           / peak(np.abs(hess) @ np.abs(a_matrices), axis=(1, 2))))
    mismatch = float(peak(np.abs(dh - mf_du)) / peak(np.abs(mf_du)))
    max_pivot = max(_hessian_pivots(s, spec, t_k, t_i))
    grad_ok, hess_ok = mismatch <= GRADIENT_TOL, max_pivot < 0.0
    return ConvexityReport(gradient_mismatch=mismatch, hessian_max_pivot=max_pivot,
                           gradient_ok=grad_ok, hessian_negative_definite=hess_ok,
                           passed=grad_ok and hess_ok and asymmetry <= SYMMETRY_TOL,
                           symmetrizer_mismatch=asymmetry)


@dataclass(frozen=True)
class ScanPoint:
    """One state of the (Z, D) hyperbolicity scan."""

    D: float
    z: float
    max_imag_over_scale: float
    all_real: bool
    speed_gap: float    # sorted real speeds against (-c, 0, 0, 0, 0, c), relative to c


def hyperbolicity_scan(d_values, n_z: int = 21, coverage: float = 0.99) -> list[ScanPoint]:
    """Eigenvalue reality over a (Z, D) grid spanning the window, at
    rho = T = 1 at rest, along x.

    Never suppresses a failure: each point records the largest imaginary
    part, and the largest gap between the sorted real parts and the closed
    spectrum (-c, 0, 0, 0, 0, c) with c = sqrt(5 (p + Pi) / 3 rho), each
    relative to c.
    """
    n = np.array([1.0, 0.0, 0.0])
    points = []
    for d_val in d_values:
        spec = GasSpec(D=float(d_val))
        zs = np.linspace(-coverage, coverage * spec.z_upper, n_z)
        for z in zs:
            s = State6(rho=1.0, v=0.0, T=1.0, Pi=z)   # p = 1
            values = np.linalg.eigvals(_flux_jacobian(s, n, spec))
            c = et6_sound_speed(1.0, 1.0, s.Pi)
            ratio = float(np.maximum.reduce(np.abs(values.imag))) / c
            gap = np.sort(values.real) - np.array([-c, 0.0, 0.0, 0.0, 0.0, c])
            points.append(ScanPoint(D=float(d_val), z=float(z),
                                    max_imag_over_scale=ratio,
                                    all_real=ratio <= IMAG_TOL,
                                    speed_gap=float(np.maximum.reduce(np.abs(gap))) / c))
    return points
