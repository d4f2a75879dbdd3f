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

from dataclasses import dataclass

import numpy as np

from .closure import entropy_parts, main_field
from .gas import Conserved6, GasSpec, State6, eos_evaluate, primitive_from_conserved

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
    n = np.asarray(n, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("direction must be a nonzero vector")
    return n / norm


def _du_dw(s: State6, spec: GasSpec) -> np.ndarray:
    """du/dw for w = (rho, v1, v2, v3, p, Pi): the derivative of the moment
    map (gas.momentum_flux_trace and gas.energy_moment), which maps a
    primitive jump dw to its conserved jump du @ dw."""
    rho, v = s.rho, s.v
    du = np.zeros((6, 6))
    du[0, 0] = 1.0
    for i in range(3):
        du[1 + i, 0] = v[i]
        du[1 + i, 1 + i] = rho
    du[4, 0] = du[5, 0] = float(np.dot(v, v))
    du[4, 1:4] = du[5, 1:4] = 2.0 * rho * v
    du[4, 4] = 3.0
    du[4, 5] = 3.0
    du[5, 4] = spec.D
    return du


def _df_dw(s: State6, n: np.ndarray, spec: GasSpec) -> np.ndarray:
    """d flux_n / dw for w = (rho, v1, v2, v3, p, Pi).  Built row by row
    from Python floats: setting 6x6 entries one by one costs more than the
    arithmetic."""
    p = s.pressure()
    rho, Pi, D = s.rho, s.Pi, spec.D
    v2 = float(np.dot(s.v, s.v))
    vn = float(np.dot(s.v, n))
    v, n = s.v.tolist(), n.tolist()
    ppi = p + Pi
    two_rho_vn = 2.0 * rho * vn

    def momentum(i: int) -> list[float]:
        row = [v[i] * vn, *(rho * v[i] * nk for nk in n), n[i], n[i]]
        row[1 + i] += rho * vn
        return row

    def energy(a: float, d_p: float, d_pi: float) -> list[float]:
        return [v2 * vn, *(a * n[k] + two_rho_vn * v[k] for k in range(3)), d_p * vn, d_pi * vn]

    return np.array([
        [vn, rho * n[0], rho * n[1], rho * n[2], 0.0, 0.0],
        momentum(0), momentum(1), momentum(2),
        energy(5.0 * ppi + rho * v2, 5.0, 5.0),
        energy(rho * v2 + (D + 2.0) * p + 2.0 * Pi, D + 2.0, 2.0),
    ])


def flux_jacobian(u: Conserved6, n, spec: GasSpec) -> np.ndarray:
    """Jacobian of the flux projected on the unit direction n.

    Conserved ordering (F, F_x, F_y, F_z, F_ll, G_ll).
    """
    return _flux_jacobian(primitive_from_conserved(u, spec), _unit(n), spec)


def _flux_jacobian(s: State6, n: np.ndarray, spec: GasSpec) -> np.ndarray:
    # A = df/dw * (du/dw)^-1, solved rather than inverted
    return np.linalg.solve(_du_dw(s, spec).T, _df_dw(s, n, spec).T).T


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


def wave_fan(u: Conserved6, n, spec: GasSpec) -> WaveFan:
    """Full numerical eigendecomposition of flux_jacobian(u, n).

    Raises HyperbolicityError when an eigenvalue pair is complex beyond
    IMAG_TOL relative to the characteristic speed scale.
    """
    s, n = primitive_from_conserved(u, spec), _unit(n)
    values, vectors = np.linalg.eig(_flux_jacobian(s, n, spec))
    scale = abs(float(np.dot(s.v, n))) + et6_sound_speed(s.rho, s.pressure(), s.Pi)
    max_imag = float(np.max(np.abs(values.imag)))
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


def _require_equilibrium(u: Conserved6, spec: GasSpec) -> State6:
    s = primitive_from_conserved(u, spec)
    p = s.pressure()
    if abs(s.Pi) > EQUILIBRIUM_TOL * p:
        raise EquilibriumRequiredError(
            f"state is not on the equilibrium manifold: Pi/p = {s.Pi / p:.3e}"
        )
    return s


def acceleration_wave(u_eq: Conserved6, n, delta_rho: float,
                      spec: GasSpec) -> tuple[AccelerationWave, AccelerationWave]:
    """Acoustic jump amplitudes at an equilibrium state, both branches.

    delta_v = n V delta_rho / rho, delta_eps = (2/D)(eps/rho) delta_rho and
    delta_pi = (4 / 3D^2)(D - 3) eps delta_rho, with V = +-sqrt(5p/3rho).
    """
    n = _unit(n)
    s = _require_equilibrium(u_eq, spec)
    p, eps = eos_evaluate(s.rho, s.T, spec)
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
        waves.append(
            AccelerationWave(
                speed=vn + v_char,
                delta_rho=delta_rho,
                delta_v=d_v,
                delta_eps=d_eps,
                delta_pi=d_pi,
                conserved_jump=du @ np.array([delta_rho, *d_v, d_p, d_pi]),
            )
        )
    return waves[0], waves[1]


def grad_pi_conserved(u: Conserved6, spec: GasSpec) -> np.ndarray:
    """Analytic gradient of Pi with respect to (F, F_i, F_ll, G_ll)."""
    v = primitive_from_conserved(u, spec).v
    coeff = 1.0 / 3.0 - 1.0 / spec.D
    return np.array([coeff * float(np.dot(v, v)), *(-2.0 * coeff * v), 1.0 / 3.0, -1.0 / spec.D])


def production_jacobian(u: Conserved6, spec: GasSpec) -> np.ndarray:
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


def k_condition(u_eq: Conserved6, n, spec: GasSpec) -> KConditionReport:
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
    return KConditionEntry(
        speed=speed,
        tag=tag,
        delta_pi=delta_pi,
        coupling=-3.0 * delta_pi / spec.tau,
        passed=passed,
        marginal=marginal,
    )


@dataclass(frozen=True)
class ConvexityReport:
    """Entropy-gradient, concavity and symmetrizer check in conserved variables."""

    gradient_mismatch: float
    hessian_max_pivot: float
    gradient_ok: bool
    hessian_negative_definite: bool
    passed: bool
    symmetrizer_mismatch: float


def _entropy_derivatives(s: State6, spec: GasSpec) -> tuple[np.ndarray, np.ndarray]:
    """(dh/dw, d(main field)/dw) for w = (rho, v1, v2, v3, p, Pi).

    With q = p + Pi, r = p - 3 Pi/(D-3) and c0 a constant,
        h / rho = c0 - (D/2 + 1) ln rho + (3/2) ln q + ((D-3)/2) ln r
        lam     = h / rho - (D/2 + 1) + rho v^2 / 2q
        lam_i   = -rho v_i / q,   mu_ll = rho / 2r,   lam_ll + mu_ll = rho / 2q
    so dh/drho = h / rho - (D/2 + 1), with h from entropy_parts.
    """
    p = s.pressure()
    rho, v, D = s.rho, s.v, spec.D
    q, r, dr_dpi = p + s.Pi, p - 3.0 * s.Pi / (D - 3.0), -3.0 / (D - 3.0)
    v2 = float(np.dot(v, v))
    h = entropy_parts(s, spec).h
    dh = np.zeros(6)
    dh[0] = h / rho - (0.5 * D + 1.0)
    dh[4] = 1.5 * rho / q + 0.5 * (D - 3.0) * rho / r
    dh[5] = 1.5 * rho / q - 1.5 * rho / r

    dmf = np.zeros((6, 6))
    dmf[0, 0] = -(0.5 * D + 1.0) / rho + 0.5 * v2 / q
    dmf[0, 1:4] = rho * v / q
    dmf[0, 4] = 1.5 / q + 0.5 * (D - 3.0) / r - 0.5 * rho * v2 / q**2
    dmf[0, 5] = 1.5 / q + 0.5 * (D - 3.0) * dr_dpi / r - 0.5 * rho * v2 / q**2
    dmf[1:4, 0] = -v / q
    dmf[1:4, 1:4] = -rho / q * np.eye(3)
    dmf[1:4, 4] = dmf[1:4, 5] = rho * v / q**2
    # mu_ll, then lam_ll = rho / 2q - mu_ll
    dmf[5] = [0.5 / r, 0.0, 0.0, 0.0, -0.5 * rho / r**2, -0.5 * rho * dr_dpi / r**2]
    dmf[4] = [0.5 / q, 0.0, 0.0, 0.0, -0.5 * rho / q**2, -0.5 * rho / q**2]
    dmf[4] -= dmf[5]
    return dh, dmf


def _hessian_pivots(s: State6, spec: GasSpec) -> np.ndarray:
    """The pivots of the entropy Hessian H in w' = (rho, v, q, r), with
    q = p + Pi and r = p - 3 Pi/(D-3).  M = (du/dw')^T H (du/dw') is an
    arrowhead: M_rho,rho = -(D/2 + 1)/rho, M_vv = -(rho^2/q) I,
    M_rho,q = 3/(2q), M_rho,r = (D-3)/(2r), M_qq = -3 rho/(2 q^2) and
    M_rr = -(D-3) rho/(2 r^2); eliminating v, q and r before rho leaves the
    Schur complement -1/rho.  By Sylvester's law of inertia H is negative
    definite iff all six are negative, as on the whole open window."""
    p = s.pressure()
    rho, dm3 = s.rho, spec.D - 3.0
    q, r = p + s.Pi, p - 3.0 * s.Pi / dm3
    return np.array([-rho * rho / q] * 3
                    + [-1.5 * rho / (q * q), -0.5 * dm3 * rho / (r * r), -1.0 / rho])


def convexity_check(u: Conserved6, spec: GasSpec) -> ConvexityReport:
    """Verify that the main field is the entropy gradient, that h(u) is
    concave, and that the entropy Hessian symmetrizes the system.

    All in closed form through w = (rho, v, p, Pi):
    - gradient: dh/dw against main field . du/dw, relative to the largest
      entry of the latter, passing below GRADIENT_TOL;
    - concavity: every pivot of H = d(main field)/dw . (du/dw)^-1 from
      _hessian_pivots must be negative, and the largest is reported;
    - symmetrizer: H A_n must be symmetric for n = x, y, z, the mismatch
      measured relative to the largest entry of |H| |A_n|, the round-off
      scale of the product (entries of H A_n itself can cancel to far
      less), and passing below SYMMETRY_TOL.
    """
    s = primitive_from_conserved(u, spec)
    dh, dmf = _entropy_derivatives(s, spec)
    du = _du_dw(s, spec)
    mf_du = main_field(s, spec).as_array() @ du
    # H and the three A_n from one factorization of du^T
    solved = np.linalg.solve(du.T, np.hstack([dmf.T] + [_df_dw(s, n, spec).T
                                                        for n in np.eye(3)]))
    hess, *a_matrices = solved.T.reshape(4, 6, 6)
    asymmetry = 0.0
    for a_matrix in a_matrices:
        ha = hess @ a_matrix
        scale = np.max(np.abs(hess) @ np.abs(a_matrix))
        asymmetry = max(asymmetry, float(np.max(np.abs(ha - ha.T)) / scale))
    mismatch = float(np.max(np.abs(dh - mf_du)) / np.max(np.abs(mf_du)))
    max_pivot = float(np.max(_hessian_pivots(s, spec)))
    grad_ok = mismatch <= GRADIENT_TOL
    hess_ok = max_pivot < 0.0
    return ConvexityReport(
        gradient_mismatch=mismatch,
        hessian_max_pivot=max_pivot,
        gradient_ok=grad_ok,
        hessian_negative_definite=hess_ok,
        passed=grad_ok and hess_ok and asymmetry <= SYMMETRY_TOL,
        symmetrizer_mismatch=asymmetry,
    )


@dataclass(frozen=True)
class ScanPoint:
    """One state of the (Z, D) hyperbolicity scan."""

    D: float
    z: float
    max_imag_over_scale: float
    all_real: bool


def hyperbolicity_scan(d_values, n_z: int = 21, coverage: float = 0.99) -> list[ScanPoint]:
    """Eigenvalue reality over a (Z, D) grid spanning the window, at
    rho = T = 1 at rest, along x.

    Never suppresses a failure: each point records the largest imaginary
    part relative to the speed scale.
    """
    n = np.array([1.0, 0.0, 0.0])
    points = []
    for d_val in d_values:
        spec = GasSpec(D=float(d_val))
        zs = np.linspace(-coverage, coverage * spec.z_upper, n_z)
        for z in zs:
            s = State6(rho=1.0, v=0.0, T=1.0, Pi=z)   # p = 1
            values = np.linalg.eigvals(_flux_jacobian(s, n, spec))
            scale = et6_sound_speed(1.0, 1.0, s.Pi)
            ratio = float(np.max(np.abs(values.imag))) / scale
            points.append(ScanPoint(D=float(d_val), z=float(z),
                                    max_imag_over_scale=ratio,
                                    all_real=ratio <= IMAG_TOL))
    return points
