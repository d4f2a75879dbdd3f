"""Independent kinetic verification of the closed-form moment relations.

Every constraint moment, flux entry and entropy value produced by the
closure has a definition as an integral of the distribution function over
peculiar velocity C in R^3 and internal energy I in [0, inf) with measure
I**alpha dI.  This module evaluates those integrals numerically and never
touches the closed-form flux expressions; the only shared ingredient is the
multiplier inversion (xi, zeta, ln Omega).

The distribution is separable, so every moment is Omega times a short sum
of products of 1-D integrals, and each state needs one small table of them:
S_a[k] = int c^k exp(-xi (c - v_a)^2) dc per velocity axis, by Gauss-Hermite
nodes scaled by s = 1/sqrt(2 xi) and shifted by v_a (by 0 for moments in
peculiar velocity), and L[j] = int I^(alpha+j) exp(-zeta I) dI, by
generalized Gauss-Laguerre nodes (weight I^alpha e^-I) scaled by 1/zeta.
The Laguerre weight absorbs I**alpha exactly, which keeps the integrable
singularity at I = 0 harmless for 3 < D < 5.  An n-point rule is exact up
to degree 2n - 1.  Both rules have GAUSS_ORDER = 8 nodes (rule gh8xgl8),
exact to degree 15, and the terms summed here reach velocity power 3 on an
axis and internal-energy power 1.  A table asked for a higher power raises
OracleError naming the rule before it sums anything, so every value comes
from a rule that is exact on its polynomial.

Both rules come from their Jacobi matrices (Golub & Welsch 1969): the
nodes are the eigenvalues, and each weight is the measure's mass times the
squared first component of its node's unit eigenvector.

Beside the Gauss table each state builds a twin table from the closed-form
moments of the rules' unit scale: M_i = int x^i exp(-x^2/2) dx =
sqrt(2 pi) (i-1)!! (0 for odd i), mapped by the binomial expansion
S_a[k] = s sum_i C(k, i) s^i v_a^(k-i) M_i, and int x^(alpha+j) e^-x dx =
Gamma(alpha+1+j), scaled by zeta^-(alpha+1+j) in log space so that no factor
overflows.  Each quantity is compared once with the same sum over the twin
table, within ADAPTIVE_TOL, and any disagreement raises OracleError.  In
exact arithmetic the comparison holds for every state iff each Gauss sum of
x^i (and of x^(alpha+j)) equals its closed form, so the twins check the
rules exactly, while the closed forms of the closure check the affine maps.

The optimality probe's radial moments have no elementary closed form once
the quartic term is on.  Their integrands are even and entire, so the
trapezoid rule converges exponentially on them (Trefethen & Weideman 2014),
and a value is accepted only where two levels of it agree.

The oracle measures and its callers judge: its one pass bound is
ADAPTIVE_TOL, on the agreement of each Gauss value with its twin and of
the two trapezoid levels.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .closure import closed_fluxes, entropy_parts, multipliers_from_state
from .gas import GasSpec, State6, conserved_from_primitive, eos_evaluate

REL_ERR_FLOOR = 1e-300
GAUSS_ORDER = 8        # nodes of each rule: exact to degree 2 GAUSS_ORDER - 1
RULE = f"gh{GAUSS_ORDER}xgl{GAUSS_ORDER}"
ADAPTIVE_TOL = 1e-10   # agreement of each Gauss value with its twin; the probe's cap
TRAPEZOID_NODES = 128  # the probe's coarse level; its fine level has twice as many
TAIL_DROP = 60.0       # the probe integrates until the log-integrand is this far below its peak
NEWTON_STEPS = 100     # the probe's cap on the steps of each Newton solve


class OracleError(RuntimeError):
    """Quadrature failed to converge or to validate."""


@dataclass(frozen=True)
class OracleReport:
    """One verified quantity: closed form vs quadrature."""

    quantity: str
    closed_form: float
    quadrature: float
    rel_err: float
    rule: str


def rel_err(a, b, floor: float = REL_ERR_FLOOR):
    """|a - b| / max(|a|, |b|, floor), on floats or arrays.

    The floor carries the scale of the quantity family so that entries whose
    exact value is zero (odd moments, rest-frame fluxes) are judged against
    the size of their nonzero siblings instead of against themselves.
    """
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


# One product of the table: coeff * S_x[kx] S_y[ky] S_z[kz] L[j], as
# (coeff, (kx, ky, kz), j).  A quantity is a short list of them.
Term = tuple[float, tuple[int, int, int], int]


def _powers(*axes: int) -> tuple[int, int, int]:
    """Velocity powers of the product of c_a over the given axes."""
    return tuple(axes.count(a) for a in range(3))


def _speed2(*axes: int) -> list[Term]:
    """c^2 times the product of c_a over axes: one term per axis."""
    return [(1.0, _powers(b, b, *axes), 0) for b in range(3)]


def _energy(*axes: int) -> list[Term]:
    """(c^2 + 2 I) times the product of c_a over axes."""
    return _speed2(*axes) + [(2.0, _powers(*axes), 1)]


def _gauss_rule(diagonal, off_diagonal, mu0: float):
    """Nodes and weights of the Gauss rule whose orthonormal polynomials have
    the given Jacobi matrix, for a measure of mass mu0 (Golub & Welsch 1969).

    The weights are mu0 times the squared first eigenvector components.
    OracleError unless every node and weight is finite.
    """
    jacobi = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    with np.errstate(all="ignore"):
        weights = mu0 * vectors[0] ** 2
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise OracleError(f"Gauss rule of order {len(diagonal)} with mass {mu0!r} "
                          f"has non-finite nodes or weights")
    return nodes, weights


@lru_cache(maxsize=1)
def _hermite_rule():
    """Weight exp(-x^2/2) on R: recurrence He_{n+1} = x He_n - n He_{n-1}.

    The rule is even, and is made so exactly: odd moments then vanish to
    round-off of their own terms, not of the eigensolver.
    """
    n = np.arange(1.0, GAUSS_ORDER)
    x, w = _gauss_rule(np.zeros(GAUSS_ORDER), np.sqrt(n), math.sqrt(2.0 * math.pi))
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


@lru_cache(maxsize=64)
def _laguerre_rule(alpha: float):
    """Weight x^alpha e^-x on [0, inf), of mass Gamma(alpha + 1) (inf once
    that overflows): recurrence (n + 1) L_{n+1} = (2n + alpha + 1 - x) L_n
    - (n + alpha) L_{n-1}."""
    n = np.arange(float(GAUSS_ORDER))
    with np.errstate(over="ignore"):
        mu0 = float(np.exp(math.lgamma(alpha + 1.0)))
    return _gauss_rule(2.0 * n + alpha + 1.0, np.sqrt(n[1:] * (n[1:] + alpha)), mu0)


def _laguerre_integrals(alpha: float, zeta: float, power: int) -> np.ndarray:
    """L[j] = int I^(alpha+j) exp(-zeta I) dI for j = 0..power, by the Laguerre rule."""
    y, wy = _laguerre_rule(alpha)
    return (wy * zeta ** (-(alpha + 1.0))) @ (y / zeta)[:, None] ** np.arange(power + 1)


def _hermite_moment(i: int) -> float:
    """M_i = int x^i exp(-x^2/2) dx over R = sqrt(2 pi) (i-1)!!, 0 for odd i."""
    return 0.0 if i % 2 else math.sqrt(2.0 * math.pi) * math.prod(range(i - 1, 0, -2))


class _Table:
    """The 1-D integrals of one state's density, seen through one lens.

    S_a[k] = int c^k exp(-xi (c - v_a)^2) dc over R: Gauss-Hermite nodes
             s x_i + v_a with s = 1/sqrt(2 xi) (v = 0 in peculiar velocity)
    L[j]   = int I^(alpha+j) exp(-zeta I) dI over [0, inf): generalized
             Gauss-Laguerre nodes y_i / zeta

    Every moment is Omega times a sum of products S_x[kx] S_y[ky] S_z[kz]
    L[j].  The table holds the powers that the given terms use, by the
    Gauss rules (S, L) and by the closed-form twins (S_twin, L_twin).
    OracleError if a power exceeds 2 GAUSS_ORDER - 1, where the rules stop
    being exact, or if Omega = exp(ln Omega) is not a finite positive
    float, as near the window's edges or at large D.
    """

    def __init__(self, s: State6, spec: GasSpec, v, terms: list[Term]):
        k_max = max(max(powers) for _, powers, _ in terms)
        j_max = max(j for _, _, j in terms)
        degree = 2 * GAUSS_ORDER - 1
        if max(k_max, j_max) > degree:
            raise OracleError(f"{RULE} is exact to degree {degree}, but the terms reach "
                              f"velocity power {k_max} and internal-energy power {j_max}")
        self.mul = multipliers_from_state(s, spec)
        try:
            self.omega = math.exp(self.mul.log_omega)   # 0.0 below float range
        except OverflowError:
            self.omega = math.inf
        if not 0.0 < self.omega < math.inf:
            raise OracleError(f"ln Omega = {self.mul.log_omega!r}: Omega is out of float range")
        v, alpha, zeta = np.asarray(v, dtype=float), spec.alpha, self.mul.zeta
        k, j = np.arange(k_max + 1), np.arange(j_max + 1)
        x, wx = _hermite_rule()
        scale = 1.0 / math.sqrt(2.0 * self.mul.xi)
        nodes = x * scale + v[:, None]
        self.S = (wx * scale) @ nodes[:, :, None] ** k
        self.L = _laguerre_integrals(alpha, zeta, j[-1])
        # (s x + v_a)^k = sum_i C(k, i) v_a^(k-i) s^i x^i, with C(k, i) = 0 for i > k
        binomial = np.array([[math.comb(n, i) for i in k] for n in k], dtype=float)
        affine = binomial * v[:, None, None] ** np.maximum(k[:, None] - k, 0)
        unit = np.array([_hermite_moment(int(i)) for i in k])
        self.S_twin = scale * affine @ (scale**k * unit)
        a = alpha + 1.0 + j
        self.L_twin = np.exp([math.lgamma(n) for n in a] - a * math.log(zeta))

    def _sum(self, S: np.ndarray, L: np.ndarray, terms: list[Term]) -> float:
        return self.omega * float(sum(
            c * S[0, kx] * S[1, ky] * S[2, kz] * L[j] for c, (kx, ky, kz), j in terms))

    def validated(self, terms: list[Term]) -> float:
        """Omega times the sum of the terms, by the Gauss rules; OracleError
        unless the twin table agrees (a NaN on either side fails too)."""
        tol = ADAPTIVE_TOL
        value = self._sum(self.S, self.L, terms)
        reference = self._sum(self.S_twin, self.L_twin, terms)
        if not abs(value - reference) <= tol * max(abs(value), abs(reference), 1.0):
            raise OracleError(f"{RULE} gives {value!r}, the closed-form moments "
                              f"{reference!r}: they differ by more than {tol:g}")
        return value


def _check(s: State6, spec: GasSpec,
           targets: list[tuple[str, float, list[Term]]]) -> list[OracleReport]:
    """Report each (name, closed value, terms) target against the lab-frame table.

    Relative errors are floored at the largest closed value of the family.
    """
    table = _Table(s, spec, s.v, [t for _, _, terms in targets for t in terms])
    family_scale = max(abs(closed) for _, closed, _ in targets)
    reports = []
    for name, closed, terms in targets:
        value = table.validated(terms)
        reports.append(OracleReport(name, closed, value,
                                    rel_err(closed, value, floor=family_scale), RULE))
    return reports


def oracle_flux_check(s: State6, spec: GasSpec) -> list[OracleReport]:
    """Compare every closed flux entry against quadrature.

    Twelve entries: the six independent components of F_ik, and the three
    components each of F_llk and G_llk.  The reports are returned, not
    judged: each caller holds its own tolerance for rel_err.
    """
    fl = closed_fluxes(s, spec)
    labels = "xyz"
    targets = [
        (f"F_{labels[i]}{labels[k]}", fl.F_ik[i, k], [(1.0, _powers(i, k), 0)])
        for i in range(3) for k in range(i, 3)
    ]
    targets += [(f"F_ll{labels[k]}", fl.F_llk[k], _speed2(k)) for k in range(3)]
    targets += [(f"G_ll{labels[k]}", fl.G_llk[k], _energy(k)) for k in range(3)]
    return _check(s, spec, targets)


def oracle_constraint_check(s: State6, spec: GasSpec) -> list[OracleReport]:
    """Verify the six constraint moments (F, F_i, F_ll, G_ll) by quadrature."""
    u = conserved_from_primitive(s, spec)
    targets = [("F", u.F, [(1.0, _powers(), 0)])]
    targets += [(f"F_{x}", u.F_i[a], [(1.0, _powers(a), 0)]) for a, x in enumerate("xyz")]
    targets += [("F_ll", u.F_ll, _speed2()), ("G_ll", u.G_ll, _energy())]
    return _check(s, spec, targets)


def oracle_entropy(s: State6, spec: GasSpec) -> float:
    """Entropy density -int int f ln f I^alpha dI dC by quadrature.

    ln f is expanded as ln(Omega) - zeta I - xi C^2, which turns the
    integrand into the same polynomial-weighted family as the moments (no
    logarithms near the underflow region).
    """
    number, internal, speed2 = [(1.0, _powers(), 0)], [(1.0, _powers(), 1)], _speed2()
    table = _Table(s, spec, np.zeros(3), number + internal + speed2)
    mul = table.mul
    return -(mul.log_omega * table.validated(number)
             - mul.zeta * table.validated(internal)
             - mul.xi * table.validated(speed2))


@dataclass(frozen=True)
class ProbePoint:
    """One trial amplitude of the optimality probe."""

    beta: float
    converged: bool
    entropy: float
    xi: float
    zeta: float
    log_omega: float


@dataclass(frozen=True)
class ProbeReport:
    """Entropy along the trial family f ~ exp(-zeta I - xi C^2 - beta C^4).

    The closure is optimal iff entropy(beta) <= entropy(0) with equality
    only at beta = 0; the caller judges.  Non-converged points are
    reported, not fatal.
    """

    points: list[ProbePoint] = field(default_factory=list)
    reference_entropy: float = 0.0

    @property
    def inconclusive(self) -> bool:
        return any(not p.converged for p in self.points)


def _tail_end(xi: float, beta: float, power: int) -> float:
    """R > 0 where ln(r^power exp(-xi r^2 - beta r^4)) is TAIL_DROP below its peak.

    In u = r^2 the log-integrand g(u) = (power/2) ln u - xi u - beta u^2 is
    concave, with its peak at u* = (-xi + sqrt(xi^2 + 4 beta power)) / (4 beta)
    and g'' <= -2 beta, so u* + sqrt(TAIL_DROP / beta) lies beyond the level,
    and Newton's method from there decreases monotonically onto it.
    """
    root = math.sqrt(xi * xi + 4.0 * beta * power)
    # the two forms of u*, each free of cancellation on its side of xi = 0
    peak = power / (xi + root) if xi > 0.0 else (root - xi) / (4.0 * beta)

    def g(u: float) -> float:
        return 0.5 * power * math.log(u) - xi * u - beta * u * u

    level = g(peak) - TAIL_DROP
    u = peak + math.sqrt(TAIL_DROP / beta)
    for _ in range(NEWTON_STEPS):
        step = (g(u) - level) / (0.5 * power / u - xi - 2.0 * beta * u)
        u -= step
        if step <= 1e-9 * u:
            break
    return math.sqrt(u)


def _radial_moments(xi: float, beta: float) -> tuple[float, float, float]:
    """(M0, M1, M2), M_k = int_R3 (C^2)^k exp(-xi C^2 - beta C^4) dC.

    M_k = 4 pi int r^(2k+2) exp(-xi r^2 - beta r^4) dr over r >= 0.  For
    beta > 0 it exists for any real xi; negative xi arises when the quartic
    suppression must be compensated to meet the trace constraint.  At
    beta = 0 it is 2 pi Gamma(k + 3/2) xi^-(k + 3/2).  Otherwise the three
    share one trapezoid rule on [0, R], R from _tail_end, with
    2 TRAPEZOID_NODES panels.  Each value is accepted only within
    min(ADAPTIVE_TOL, 1e-12) of the rule with half the panels; any other
    value (a NaN or an overflow included) is an OracleError.
    """
    if beta == 0.0:
        return tuple(2.0 * math.pi * math.gamma(k + 1.5) * xi ** -(k + 1.5) for k in range(3))
    tol = min(ADAPTIVE_TOL, 1e-12)
    # r^6, the integrand of M2, reaches furthest
    r, h = np.linspace(0.0, _tail_end(xi, beta, 6), 2 * TRAPEZOID_NODES + 1, retstep=True)
    r2 = r * r
    with np.errstate(all="ignore"):
        f = r2 ** np.arange(1, 4)[:, None] * np.exp(-xi * r2 - beta * r2 * r2)
        # f vanishes at r = 0
        fine = h * (f.sum(axis=1) - 0.5 * f[:, -1])
        coarse = 2.0 * h * (f[:, ::2].sum(axis=1) - 0.5 * f[:, -1])
        gap = (np.abs(fine - coarse) / np.abs(fine)).tolist()
    for i, value in enumerate(fine.tolist()):
        if not gap[i] <= tol:
            raise OracleError(
                f"trapezoid rule on int r^{2 * i + 2} exp({-xi:.6g} r^2 {-beta:+.6g} r^4) dr "
                f"gives {value!r}, {gap[i]:.3g} relative from its "
                f"{TRAPEZOID_NODES}-panel value (bound {tol:g})")
    return tuple((4.0 * math.pi * fine).tolist())


# The probe's quadrature, looked up at each call so that a tracer can wrap
# integrate.quad (bench/spans.py counts its calls).
integrate = types.SimpleNamespace(quad=_radial_moments)


def _solve_trial_xi(target_ratio: float, beta: float, xi0: float):
    """xi with M1(xi)/M0(xi) = target_ratio, the moments (M0, M1, M2) there,
    and whether Newton's method converged, starting from xi0, which solves
    it at beta = 0.

    dM_k/dxi = -M_(k+1), so the residual M1/M0 - target has the exact
    derivative -(M0 M2 - M1^2) / M0^2 < 0.  The residual is positive below
    the root and negative above it; each evaluation narrows that bracket, and
    a step that leaves it is replaced by bisection.  Converged once a step
    is at most 1e-14 max(|xi0|, 1e-3); the moments returned are those of the
    xi returned.
    """
    xtol = 1e-14 * max(abs(xi0), 1e-3)
    lo, hi, xi_next = -math.inf, math.inf, xi0
    for _ in range(NEWTON_STEPS):
        xi = xi_next
        moments = m0, m1, m2 = integrate.quad(xi, beta)
        resid = m1 / m0 - target_ratio
        if resid > 0.0:
            lo = xi
        else:
            hi = xi
        step = resid * m0 * m0 / (m0 * m2 - m1 * m1)
        if abs(step) <= xtol:
            return xi, moments, True
        xi_next = xi + step
        if not lo < xi_next < hi:
            xi_next = 0.5 * (lo + hi)
    return xi, moments, False


def mep_optimality_probe(s: State6, spec: GasSpec, trial_amplitudes) -> ProbeReport:
    """Probe entropy optimality against a quartic-perturbed trial family.

    For each beta >= 0 the three constraint equations (rho, trace pressure,
    energy) are re-solved for (Omega', xi', zeta') by Newton's method on xi'
    using quadrature moments, and the trial entropy is compared with the
    closure entropy.  beta = 0 must recover the closure.  Each Newton step
    takes one set of radial moments, and the entropy reuses the set of the
    solution.
    """
    p, eps = eos_evaluate(s.rho, s.T, spec)
    ppi = p + s.Pi
    alpha = spec.alpha
    mul = multipliers_from_state(s, spec)
    # zeta decouples from beta: fixed by the internal-energy split
    zeta_trial = (alpha + 1.0) / (eps - 1.5 * ppi / s.rho)
    target_ratio = 3.0 * ppi / s.rho

    # Laguerre factors for the internal-energy part
    l0, l1 = _laguerre_integrals(alpha, zeta_trial, 1).tolist()

    points = []
    for beta in trial_amplitudes:
        beta = float(beta)
        if beta < 0:
            raise ValueError("trial amplitude beta must be nonnegative")
        xi_trial, (m0, m1, m2), converged = _solve_trial_xi(target_ratio, beta, mul.xi)
        omega_trial = s.rho / (m0 * l0)
        log_omega_trial = math.log(omega_trial)
        mean_i = omega_trial * m0 * l1
        mean_c2 = omega_trial * m1 * l0
        mean_c4 = omega_trial * m2 * l0
        h_trial = -(
            log_omega_trial * s.rho
            - zeta_trial * mean_i
            - xi_trial * mean_c2
            - beta * mean_c4
        )
        points.append(
            ProbePoint(
                beta=beta,
                converged=converged,
                entropy=h_trial,
                xi=xi_trial,
                zeta=zeta_trial,
                log_omega=log_omega_trial,
            )
        )
    return ProbeReport(points=points, reference_entropy=entropy_parts(s, spec).h)
