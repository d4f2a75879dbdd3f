"""Non-linear six-field moment closure.

Maximizing the kinetic entropy subject to the six prescribed moments gives a
phase-space density of the separable form

    f(C, I) = Omega * exp(-zeta * I) * exp(-xi * C^2),

with C the peculiar velocity and I the internal-mode energy weighted by the
measure I**alpha dI.  The three parameters (xi, zeta, Omega) are in closed
one-to-one correspondence with (rho, p + Pi, rho*eps) on the admissibility
window; this module implements that inversion, the resulting closed fluxes,
the BGK production, the entropy decomposition and the Lagrange multipliers
(the main field that symmetrizes the balance laws).

No near-equilibrium expansion is involved anywhere: formulas are exact on
the whole window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gas import GasSpec, State6, energy_moment, require_admissible, temperatures

@dataclass(frozen=True)
class Multipliers:
    """Parameters (xi, zeta, ln Omega) of the closed distribution function.

    xi and zeta are strictly positive on admissible states (integrability).
    ln Omega is finite on the whole window, while Omega leaves float range
    near its edges or at large D: nothing forms Omega itself, and the
    kinetic oracle forms Omega L[0] of order rho xi^(3/2).
    """

    xi: float
    zeta: float
    log_omega: float


@dataclass(frozen=True)
class MainField:
    """Lagrange multipliers (lam, lam_i, lam_ll, mu_ll) of the moment problem.

    Ordered against the densities (F, F_i, F_ll, G_ll): the gradient of the
    entropy density with respect to the conserved variables equals exactly
    (lam, lam_i, lam_ll, mu_ll), which is what makes the system symmetric
    hyperbolic in these variables.
    """

    lam: float
    lam_i: np.ndarray
    lam_ll: float
    mu_ll: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lam, *self.lam_i, self.lam_ll, self.mu_ll])


@dataclass(frozen=True)
class FluxSet:
    """Closed fluxes of the six balance laws plus the trace production."""

    F_ik: np.ndarray    # symmetric 3x3 momentum flux
    F_llk: np.ndarray   # flux of the momentum-flux trace
    G_llk: np.ndarray   # flux of the energy moment
    P_ll: float         # BGK production of F_ll


@dataclass(frozen=True)
class EntropyParts:
    """Entropy density h, its equilibrium part h_E, the specific
    nonequilibrium part k (h = h_E + rho*k) and the chemical potential g."""

    h: float
    h_E: float
    k: float
    g: float


def entropy_terms(rho, p, z, spec: GasSpec):
    """(h, k, ln Omega, ln Omega_E) of (rho, p, Z = Pi/p), on floats or arrays.

    The one home of these formulas, for the point API and the solver alike:

        ln Omega_E = (D/2 + 1) ln rho - (D/2) ln p - (3/2) ln(2 pi)
                     - ln Gamma((D-3)/2)
        k          = (1/2) ln[(1+Z)^3 (1 - 3Z/(D-3))^{D-3}]
        ln Omega   = ln Omega_E - k
        h          = rho (D/2 - ln Omega)

    All in log space, so states near the window boundaries only overflow
    once Omega itself is formed.  Outside the window arrays give NaN and
    single numbers raise ValueError.
    """
    # math is several times faster than numpy's ufuncs on single numbers
    log, log1p = (np.log, np.log1p) if isinstance(rho, np.ndarray) else (math.log, math.log1p)
    dm3 = spec.D - 3.0
    log_omega_eq = (
        (0.5 * spec.D + 1.0) * log(rho)
        - 0.5 * spec.D * log(p)
        - 1.5 * math.log(2.0 * math.pi)
        - math.lgamma(0.5 * dm3)
    )
    k = 0.5 * (3.0 * log1p(z) + dm3 * log1p(-3.0 * z / dm3))
    log_omega = log_omega_eq - k
    h = rho * (0.5 * spec.D - log_omega)
    return h, k, log_omega, log_omega_eq


def multipliers_from_state(s: State6, spec: GasSpec) -> Multipliers:
    """Invert the constraint moments for (xi, zeta, ln Omega).

    xi   = 1 / (2 T_K)
    zeta = 1 / T_I
    Omega = rho / (pi^{3/2} Gamma((D-3)/2)) * xi^{3/2} * zeta^{(D-3)/2}

    with the temperatures (T_K, T_I) of gas.temperatures, and ln Omega from
    entropy_terms.  Positivity of xi and zeta is admissibility; an
    inadmissible state raises naming the multiplier that would lose it.
    """
    t_k, t_i = temperatures(s, spec)
    p = s.pressure()
    return Multipliers(xi=0.5 / t_k, zeta=1.0 / t_i,
                       log_omega=entropy_terms(s.rho, p, s.Pi / p, spec)[2])


def state_from_multipliers(mul: Multipliers, spec: GasSpec) -> tuple[float, float, float]:
    """Closed-form zero-velocity moments of the distribution.

    Returns (rho, p + Pi, rho*eps) = (rho, rho T_K, rho (3 T_K + (D-3) T_I)/2)
    with T_K = 1/(2 xi) and T_I = 1/zeta.  Composed with
    multipliers_from_state this is the identity on admissible states.
    """
    alpha = spec.alpha
    log_rho = (
        1.5 * math.log(math.pi)
        + math.lgamma(1.0 + alpha)
        + mul.log_omega
        - 1.5 * math.log(mul.xi)
        - (1.0 + alpha) * math.log(mul.zeta)
    )
    rho = math.exp(log_rho)
    t_k, t_i = 0.5 / mul.xi, 1.0 / mul.zeta
    return rho, rho * t_k, 0.5 * rho * (3.0 * t_k + (spec.D - 3.0) * t_i)


def _speed2_energy(C, I):
    """(C^2, I) as arrays, C's last axis holding the 3 components of the
    peculiar velocity; ValueError where I < 0."""
    C, I = np.asarray(C, dtype=float), np.asarray(I, dtype=float)
    if np.any(I < 0):
        raise ValueError(f"internal energy must be nonnegative, got {np.min(I)}")
    return np.sum(C * C, axis=-1), I


def distribution_value(C, I, s: State6, spec: GasSpec):
    """Phase-space density f(C, I) of the closed distribution, on floats or
    arrays.

    C is the peculiar velocity (last axis: 3 components), I >= 0 the
    internal energy, broadcast against C[..., 0].  Strictly positive on
    admissible states; at Pi = 0 this is the generalized Maxwellian of the
    polyatomic equilibrium.
    """
    c2, I = _speed2_energy(C, I)
    mul = multipliers_from_state(s, spec)
    return np.exp(mul.log_omega - mul.zeta * I - mul.xi * c2)


def equilibrium_distribution_value(C, I, rho: float, T: float, spec: GasSpec):
    """Generalized Maxwellian for a polyatomic gas in equilibrium, on floats
    or arrays (C and I as in distribution_value).

    f_E = rho / (T^{1+alpha} Gamma(1+alpha)) * (2 pi T)^{-3/2}
          * exp(-(C^2/2 + I) / T)

    Written independently of the nonequilibrium closure so the Pi -> 0
    reduction can be tested against it.
    """
    c2, I = _speed2_energy(C, I)
    alpha = spec.alpha
    log_pref = (
        math.log(rho)
        - (1.0 + alpha) * math.log(T)
        - math.lgamma(1.0 + alpha)
        - 1.5 * math.log(2.0 * math.pi * T)
    )
    return np.exp(log_pref - (0.5 * c2 + I) / T)


def flux_rows(F_i, G_ll, rho_v2, ppi, v_k, k: int) -> np.ndarray:
    """Flux along axis k of (F, F_i, F_ll, G_ll), on floats or arrays, as
    one array of rows, shape (3 + len(F_i), ...):

        F_k,  F_i v_k + (p + Pi) delta_ik,  (5 (p + Pi) + rho v^2) v_k,
        (G_ll + 2 (p + Pi)) v_k

    with F_i = (F_x, F_y, F_z), rho_v2 = rho v^2 and ppi = p + Pi.  The
    solver may pass F_i = (F_x,) alone, and gets the four rows of
    (F, F_x, F_ll, G_ll).  The rows are computed in place in the array
    returned.  closed_fluxes applies it along x, y and z, the solver along
    x.  No checks.
    """
    F_i = np.asarray(F_i)
    rows = np.empty((len(F_i) + 3, *F_i.shape[1:]))
    # `[i, ...]` is a view even on a 1-D array, so every row takes out=
    mass, momentum, trace, energy = rows[0, ...], rows[1:-2], rows[-2, ...], rows[-1, ...]
    np.copyto(mass, F_i[k])
    np.multiply(F_i, v_k, out=momentum)
    np.add(momentum[k, ...], ppi, out=momentum[k, ...])
    np.multiply(ppi, 5.0, out=trace)
    trace += rho_v2
    trace *= v_k
    np.multiply(ppi, 2.0, out=energy)
    energy += G_ll
    energy *= v_k
    return rows


def closed_fluxes(s: State6, spec: GasSpec) -> FluxSet:
    """Closed fluxes of the six-field system, flux_rows along x, y and z.

    F_ik  = rho v_i v_k + (p + Pi) delta_ik
    F_llk = (5(p + Pi) + rho v^2) v_k
    G_llk = (rho v^2 + 2 rho eps + 2(p + Pi)) v_k

    The closure carries no shear stress and no heat flux.  The production
    value is delegated to production_bgk.
    """
    require_admissible(s, spec)
    p = s.pressure()
    v = s.v.tolist()
    rho_v2 = s.rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    G_ll = energy_moment(rho_v2, p, spec.D)
    F_i = [s.rho * v_a for v_a in v]
    columns = np.array([flux_rows(F_i, G_ll, rho_v2, p + s.Pi, v[k], k) for k in range(3)])
    # row k holds (rho v_i) v_k + ppi delta_ik, column k of F_ik; the mirror
    # entry (rho v_k) v_i differs by round-off, so copy one triangle over
    F_ik = columns[:, 1:4]
    F_ik[[0, 0, 1], [1, 2, 2]] = F_ik[[1, 2, 2], [0, 0, 1]]
    return FluxSet(F_ik=F_ik, F_llk=columns[:, 4], G_llk=columns[:, 5],
                   P_ll=production_bgk(s, spec))


def production_bgk(s: State6, spec: GasSpec) -> float:
    """BGK production of the momentum-flux trace: P_ll = -3 Pi / tau."""
    return -3.0 * s.Pi / spec.tau


def entropy_parts(s: State6, spec: GasSpec) -> EntropyParts:
    """Entropy density and its equilibrium/nonequilibrium decomposition.

    h   = rho (D/2 - ln Omega)
    h_E = rho (D/2 - ln Omega_E)      (Omega at Pi = 0)
    k   = (1/2) ln[(1+Z)^3 (1 - 3Z/(D-3))^{D-3}]
    g/T = 1 + ln Omega_E              (chemical potential)

    k(0) = 0 is the global maximum.  h_E is computed from ln Omega_E, not as
    h - rho*k, so h = h_E + rho*k holds to round-off and is a check.
    """
    z = require_admissible(s, spec)
    p = s.pressure()
    h, k, _, log_omega_eq = entropy_terms(s.rho, p, z, spec)
    g = s.T * (1.0 + log_omega_eq)
    return EntropyParts(h=h, h_E=s.rho * (0.5 * spec.D - log_omega_eq), k=k, g=g)


def main_field(s: State6, spec: GasSpec) -> MainField:
    """Lagrange multipliers of the entropy maximization, as field variables,
    in the temperatures (T_K, T_I) of gas.temperatures:

    lam    = -g/T - ln(Omega/Omega_E) + v^2 / (2 T_K)
    lam_i  = -v_i / T_K
    lam_ll = 1/(2 T_K) - mu_ll
    mu_ll  = 1/(2 T_I)

    At Pi = 0, T_K = T_I = T and these reduce to the classical
    convex-extension values of the five-field gas dynamics with lam_ll = 0.
    An inadmissible state raises from entropy_parts.
    """
    parts = entropy_parts(s, spec)
    t_k, t_i = temperatures(s, spec)
    v2 = float(np.dot(s.v, s.v))
    # ln(Omega/Omega_E) = -k
    lam = -parts.g / s.T + parts.k + 0.5 * v2 / t_k
    mu_ll = 0.5 / t_i
    return MainField(lam=lam, lam_i=-s.v / t_k, lam_ll=0.5 / t_k - mu_ll, mu_ll=mu_ll)


def boost_main_field(rest: MainField, v) -> MainField:
    """Galilean transformation of the multipliers from the rest frame.

    With hatted rest-frame components:
        lam    = lam^ - lam_i^ v_i + (lam_ll^ + mu_ll^) v^2
        lam_i  = lam_i^ - 2 (lam_ll^ + mu_ll^) v_i
        lam_ll = lam_ll^,   mu_ll = mu_ll^
    """
    v = np.asarray(v, dtype=float)
    coeff = rest.lam_ll + rest.mu_ll
    v2 = float(np.dot(v, v))
    return MainField(
        lam=rest.lam - float(np.dot(rest.lam_i, v)) + coeff * v2,
        lam_i=rest.lam_i - 2.0 * coeff * v,
        lam_ll=rest.lam_ll,
        mu_ll=rest.mu_ll,
    )
