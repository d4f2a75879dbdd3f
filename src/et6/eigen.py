"""Characteristic structure of the six-field balance laws.

Flux Jacobian, wave fans, acceleration-wave jump amplitudes, the
production-coupling (Shizuta-Kawashima type) condition at equilibrium, and
entropy convexity / symmetrizer checks.

The Jacobian is assembled analytically by the chain rule through the
primitive variables w = (rho, v, p, Pi); eigenpairs are computed with a
general dense eigensolver.  At equilibrium the spectrum is (v_n x4,
v_n +- sqrt(5 p / 3 rho)) independently of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closure import entropy_parts, main_field
from .gas import Conserved6, GasSpec, State6, admissibility, conserved_from_primitive, \
    eos_evaluate, primitive_from_conserved

K_CONDITION_TOL = 1e-10     # |dPi| threshold, relative to the pressure scale
K_MARGINAL_FACTOR = 1e-4    # below this the pass is flagged marginal
EQUILIBRIUM_TOL = 1e-10     # |Pi|/p defining "on the equilibrium manifold"


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


def _jacobians_primitive(s: State6, n: np.ndarray, spec: GasSpec):
    """(d flux_n / dw, d u / dw) for w = (rho, v1, v2, v3, p, Pi)."""
    p, _ = eos_evaluate(s.rho, s.T, spec)
    rho, v, Pi, D = s.rho, s.v, s.Pi, spec.D
    v2 = float(np.dot(v, v))
    vn = float(np.dot(v, n))
    ppi = p + Pi

    du = np.zeros((6, 6))
    du[0, 0] = 1.0
    for i in range(3):
        du[1 + i, 0] = v[i]
        du[1 + i, 1 + i] = rho
    du[4, 0] = v2
    du[4, 1:4] = 2.0 * rho * v
    du[4, 4] = 3.0
    du[4, 5] = 3.0
    du[5, 0] = v2
    du[5, 1:4] = 2.0 * rho * v
    du[5, 4] = D

    df = np.zeros((6, 6))
    df[0, 0] = vn
    df[0, 1:4] = rho * n
    for i in range(3):
        df[1 + i, 0] = v[i] * vn
        df[1 + i, 1:4] = rho * v[i] * n
        df[1 + i, 1 + i] += rho * vn
        df[1 + i, 4] = n[i]
        df[1 + i, 5] = n[i]
    df[4, 0] = v2 * vn
    df[4, 1:4] = (5.0 * ppi + rho * v2) * n + 2.0 * rho * vn * v
    df[4, 4] = 5.0 * vn
    df[4, 5] = 5.0 * vn
    df[5, 0] = v2 * vn
    df[5, 1:4] = (rho * v2 + (D + 2.0) * p + 2.0 * Pi) * n + 2.0 * rho * vn * v
    df[5, 4] = (D + 2.0) * vn
    df[5, 5] = 2.0 * vn
    return df, du


def flux_jacobian(u: Conserved6, n, spec: GasSpec) -> np.ndarray:
    """Jacobian of the flux projected on the unit direction n.

    Conserved ordering (F, F_x, F_y, F_z, F_ll, G_ll).
    """
    n = _unit(n)
    s = primitive_from_conserved(u, spec)
    df, du = _jacobians_primitive(s, n, spec)
    # A = df/dw * (du/dw)^-1, solved rather than inverted
    return np.linalg.solve(du.T, df.T).T


@dataclass(frozen=True)
class WaveFan:
    """Eigenstructure of the flux Jacobian along a direction.

    speeds ascend; right_eigenvectors columns match speeds and are
    normalized to unit density component where possible, unit norm
    otherwise.  tags classify each wave as contact / sound / other.
    Eigenvectors inside the fourfold contact eigenspace are basis-arbitrary.
    """

    n: np.ndarray
    speeds: np.ndarray
    right_eigenvectors: np.ndarray
    tags: tuple[str, ...]


def wave_fan(u: Conserved6, n, spec: GasSpec, imag_tol: float = 1e-9) -> WaveFan:
    """Full eigendecomposition of flux_jacobian(u, n).

    Raises HyperbolicityError when an eigenvalue pair is complex beyond
    imag_tol relative to the characteristic speed scale.
    """
    n = _unit(n)
    s = primitive_from_conserved(u, spec)
    p, _ = eos_evaluate(s.rho, s.T, spec)
    a_matrix = flux_jacobian(u, n, spec)
    values, vectors = np.linalg.eig(a_matrix)
    vn = float(np.dot(s.v, n))
    scale = abs(vn) + et6_sound_speed(s.rho, p, s.Pi)
    max_imag = float(np.max(np.abs(values.imag)))
    if max_imag > imag_tol * scale:
        raise HyperbolicityError(
            f"complex characteristic speeds (max imaginary part {max_imag:.3e} "
            f"at speed scale {scale:.3e})",
            state=s,
            margin=max_imag / scale,
        )
    order = np.argsort(values.real)
    speeds = values.real[order]
    vecs = vectors.real[:, order]
    for j in range(6):
        col = vecs[:, j]
        if abs(col[0]) > 1e-9 * np.linalg.norm(col):
            vecs[:, j] = col / col[0]
        else:
            vecs[:, j] = col / np.linalg.norm(col)
    c_noneq = et6_sound_speed(s.rho, p, s.Pi)
    tags = []
    for lam in speeds:
        if abs(lam - vn) <= 1e-7 * scale:
            tags.append("contact")
        elif abs(abs(lam - vn) - c_noneq) <= 1e-6 * scale:
            tags.append("sound")
        else:
            tags.append("other")
    return WaveFan(n=n, speeds=speeds, right_eigenvectors=vecs, tags=tuple(tags))


def _conserved_jump(s: State6, spec: GasSpec, d_rho: float, d_v: np.ndarray,
                    d_eps: float, d_pi: float) -> np.ndarray:
    """Jump of (F, F_i, F_ll, G_ll) induced by primitive jumps at state s."""
    v = s.v
    _, eps = eos_evaluate(s.rho, s.T, spec)
    d_rho_v2 = float(np.dot(v, v)) * d_rho + 2.0 * s.rho * float(np.dot(v, d_v))
    d_rho_eps = eps * d_rho + s.rho * d_eps
    d_p = 2.0 * d_rho_eps / spec.D
    return np.array([
        d_rho,
        *(v * d_rho + s.rho * d_v),
        d_rho_v2 + 3.0 * (d_p + d_pi),
        d_rho_v2 + 2.0 * d_rho_eps,
    ])


@dataclass(frozen=True)
class AccelerationWave:
    """Jump amplitudes carried by one acoustic branch at equilibrium."""

    speed: float          # U = v_n + V
    branch: int           # +1 or -1
    delta_rho: float
    delta_v: np.ndarray
    delta_eps: float
    delta_pi: float
    conserved_jump: np.ndarray


def _require_equilibrium(u: Conserved6, spec: GasSpec) -> State6:
    s = primitive_from_conserved(u, spec)
    p, _ = eos_evaluate(s.rho, s.T, spec)
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
    waves = []
    d_eps = 2.0 / spec.D * eps / s.rho * delta_rho
    d_pi = 4.0 / (3.0 * spec.D**2) * (spec.D - 3.0) * eps * delta_rho
    for branch in (-1, +1):
        v_char = branch * et6_sound_speed(s.rho, p)
        d_v = n * v_char * delta_rho / s.rho
        waves.append(
            AccelerationWave(
                speed=vn + v_char,
                branch=branch,
                delta_rho=delta_rho,
                delta_v=d_v,
                delta_eps=d_eps,
                delta_pi=d_pi,
                conserved_jump=_conserved_jump(s, spec, delta_rho, d_v, d_eps, d_pi),
            )
        )
    return waves[0], waves[1]


def grad_pi_conserved(u: Conserved6, spec: GasSpec) -> np.ndarray:
    """Analytic gradient of Pi with respect to (F, F_i, F_ll, G_ll)."""
    s = primitive_from_conserved(u, spec)
    coeff = 1.0 / 3.0 - 1.0 / spec.D
    v = s.v
    v2 = float(np.dot(v, v))
    return np.array([
        coeff * v2,
        *(-2.0 * coeff * v),
        1.0 / 3.0,
        -1.0 / spec.D,
    ])


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
    eigenvectors (delta v_n = 0, delta Pi = -delta p), each given a generic
    pressure jump: contact modes couple to the production through delta p
    alone, so a basis vector with delta p = 0 would sit in the production
    kernel.  The sound eigenvectors are the numerically computed ones.
    """

    entries: tuple[KConditionEntry, ...]
    overall_pass: bool
    marginal: bool


def k_condition(u_eq: Conserved6, n, spec: GasSpec) -> KConditionReport:
    """Check that every characteristic eigenvector couples to the production.

    Coupling is measured by the dynamic-pressure jump delta_pi implied by the
    eigenvector; the pass threshold is |delta_pi| > 1e-10 p and a pass below
    1e-4 p is flagged marginal (the D -> 3 limit collapses the sound-branch
    coupling).
    """
    n = _unit(n)
    s = _require_equilibrium(u_eq, spec)
    p, _ = eos_evaluate(s.rho, s.T, spec)
    vn = float(np.dot(s.v, n))
    grad = grad_pi_conserved(u_eq, spec)
    entries = []

    fan = wave_fan(u_eq, n, spec)
    for j in range(6):
        if fan.tags[j] != "sound":
            continue
        d = fan.right_eigenvectors[:, j]
        # density-normalized already where possible
        delta_pi = float(np.dot(grad, d))
        entries.append(_k_entry(fan.speeds[j], "sound", delta_pi, p, spec))

    # analytic contact basis: delta v_n = 0, delta Pi = -delta p, generic
    # delta p = p in every basis vector (see class docstring)
    t1, t2 = _tangent_basis(n)
    c_speed = math.sqrt(p / s.rho)
    contact_modes = [
        {"d_rho": s.rho, "d_v": np.zeros(3), "d_p": p},
        {"d_rho": 0.0, "d_v": c_speed * t1, "d_p": p},
        {"d_rho": 0.0, "d_v": c_speed * t2, "d_p": p},
        {"d_rho": 0.0, "d_v": np.zeros(3), "d_p": p},
    ]
    for mode in contact_modes:
        d_p = mode["d_p"]
        d_pi = -d_p
        # eps follows from the thermal/caloric relations: p = (2/D) rho eps
        d_eps = 0.5 * spec.D * (d_p - mode["d_rho"] / s.rho * p) / s.rho
        jump = _conserved_jump(s, spec, mode["d_rho"], mode["d_v"], d_eps, d_pi)
        delta_pi = float(np.dot(grad, jump))
        entries.append(_k_entry(vn, "contact", delta_pi, p, spec))

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


def _tangent_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pick = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(n, pick)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


@dataclass(frozen=True)
class ConvexityReport:
    """Entropy-gradient and concavity check in conserved variables."""

    gradient_mismatch: float
    hessian_max_eigenvalue: float
    gradient_ok: bool
    hessian_negative_definite: bool
    passed: bool
    reduced_confidence: bool = field(default=False)


def _entropy_of(u_vec: np.ndarray, spec: GasSpec) -> float:
    s = primitive_from_conserved(Conserved6.from_array(u_vec), spec)
    return entropy_parts(s, spec).h


def _safe_step(u_vec: np.ndarray, j: int, step: float, spec: GasSpec) -> float:
    """Shrink the step until the full central stencil stays admissible."""
    for _ in range(40):
        try:
            up = u_vec.copy()
            um = u_vec.copy()
            up[j] += step
            um[j] -= step
            _entropy_of(up, spec)
            _entropy_of(um, spec)
            return step
        except Exception:
            step *= 0.5
    raise FloatingPointError(f"no admissible finite-difference step for component {j}")


def convexity_check(u: Conserved6, spec: GasSpec, grad_tol: float = 1e-6) -> ConvexityReport:
    """Verify that the main field is the entropy gradient and h(u) is concave.

    Central differences with one Richardson halving for the gradient; plain
    central second differences for the Hessian.  Near the window boundary
    the steps are shrunk to stay admissible and the report is flagged
    reduced-confidence.
    """
    s = primitive_from_conserved(u, spec)
    rep = admissibility(s, spec)
    window = rep.margin_lower + rep.margin_upper
    near_boundary = min(rep.margin_lower, rep.margin_upper) < 0.02 * window
    u_vec = u.as_array()
    mf = main_field(s, spec).as_array()
    mf_scale = float(np.max(np.abs(mf)))

    grad = np.zeros(6)
    reduced = near_boundary
    for j in range(6):
        base = 1e-6 * max(abs(u_vec[j]), 1.0)
        try:
            step = _safe_step(u_vec, j, base, spec)
        except FloatingPointError:
            return ConvexityReport(
                gradient_mismatch=math.inf,
                hessian_max_eigenvalue=math.inf,
                gradient_ok=False,
                hessian_negative_definite=False,
                passed=False,
                reduced_confidence=True,
            )
        if step < base:
            reduced = True
        estimates = []
        for h in (step, 0.5 * step):
            up = u_vec.copy()
            um = u_vec.copy()
            up[j] += h
            um[j] -= h
            estimates.append((_entropy_of(up, spec) - _entropy_of(um, spec)) / (2 * h))
        grad[j] = (4.0 * estimates[1] - estimates[0]) / 3.0

    mismatch = float(np.max(np.abs(grad - mf) / np.maximum(np.abs(mf), mf_scale)))

    steps = np.zeros(6)
    for j in range(6):
        base = 1e-4 * max(abs(u_vec[j]), 1.0)
        try:
            steps[j] = _safe_step(u_vec, j, base, spec)
        except FloatingPointError:
            steps[j] = 0.0
        if steps[j] < base:
            reduced = True
    hess = np.zeros((6, 6))
    h0 = _entropy_of(u_vec, spec)
    for i in range(6):
        hi = steps[i]
        upi = u_vec.copy()
        umi = u_vec.copy()
        upi[i] += hi
        umi[i] -= hi
        hess[i, i] = (_entropy_of(upi, spec) - 2.0 * h0 + _entropy_of(umi, spec)) / hi**2
        for j in range(i + 1, 6):
            hj = steps[j]
            upp = u_vec.copy(); upp[i] += hi; upp[j] += hj
            upm = u_vec.copy(); upm[i] += hi; upm[j] -= hj
            ump = u_vec.copy(); ump[i] -= hi; ump[j] += hj
            umm = u_vec.copy(); umm[i] -= hi; umm[j] -= hj
            val = (
                _entropy_of(upp, spec) - _entropy_of(upm, spec)
                - _entropy_of(ump, spec) + _entropy_of(umm, spec)
            ) / (4.0 * hi * hj)
            hess[i, j] = hess[j, i] = val

    max_eig = float(np.max(np.linalg.eigvalsh(0.5 * (hess + hess.T))))
    grad_ok = mismatch <= grad_tol
    hess_ok = max_eig < 0.0
    return ConvexityReport(
        gradient_mismatch=mismatch,
        hessian_max_eigenvalue=max_eig,
        gradient_ok=grad_ok,
        hessian_negative_definite=hess_ok,
        passed=grad_ok and hess_ok,
        reduced_confidence=reduced,
    )


@dataclass(frozen=True)
class ScanPoint:
    """One state of the (Z, D) hyperbolicity scan."""

    D: float
    z: float
    max_imag_over_scale: float
    all_real: bool


def hyperbolicity_scan(d_values, n_z: int = 21, coverage: float = 0.99,
                       rho: float = 1.0, T: float = 1.0,
                       n=(1.0, 0.0, 0.0)) -> list[ScanPoint]:
    """Eigenvalue reality over a (Z, D) grid spanning the window.

    Never suppresses a failure: each point records the largest imaginary
    part relative to the speed scale.
    """
    points = []
    for d_val in d_values:
        spec = GasSpec(D=float(d_val))
        zs = np.linspace(-coverage, coverage * spec.z_upper, n_z)
        for z in zs:
            s = State6(rho=rho, v=0.0, T=T, Pi=z * rho * spec.gas_constant * T)
            u = conserved_from_primitive(s, spec)
            a_matrix = flux_jacobian(u, n, spec)
            values = np.linalg.eigvals(a_matrix)
            p, _ = eos_evaluate(rho, T, spec)
            scale = et6_sound_speed(rho, p, s.Pi)
            ratio = float(np.max(np.abs(values.imag))) / scale
            points.append(ScanPoint(D=float(d_val), z=float(z),
                                    max_imag_over_scale=ratio,
                                    all_real=ratio <= 1e-9))
    return points
