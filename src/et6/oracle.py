"""Independent kinetic verification of the closed-form moment relations.

Every constraint moment, flux entry and entropy value produced by the
closure has a definition as an integral of the distribution function over
peculiar velocity C in R^3 and internal energy I in [0, inf) with measure
I**alpha dI.  This module evaluates those integrals numerically and never
touches the closed-form flux expressions; the only shared ingredient is the
multiplier inversion (xi, zeta, Omega).

The distribution is separable, so every moment is Omega times a short sum
of products of 1-D integrals, and each state needs one small table of them:
S_a[k] = int c^k exp(-xi (c - v_a)^2) dc per velocity axis, by Gauss-Hermite
nodes scaled by s = 1/sqrt(2 xi) and shifted by v_a (by 0 for moments in
peculiar velocity), and L[j] = int I^(alpha+j) exp(-zeta I) dI, by
generalized Gauss-Laguerre nodes (weight I^alpha e^-I) scaled by 1/zeta.
The Laguerre weight absorbs I**alpha exactly, which keeps the integrable
singularity at I = 0 harmless for 3 < D < 5.  An n-point rule is exact up
to degree 2n - 1, which covers every polynomial weight used here, so the
orders are fixed (64 Hermite, 128 Laguerre nodes: rule gh64xgl128) and no
other order could change a value beyond round-off.

Beside the Gauss table each state builds a twin table from adaptive
integrals (QUADPACK) on the rules' unit scale: M_i = int x^i exp(-x^2/2) dx,
mapped by the binomial expansion S_a[k] = s sum_i C(k, i) s^i v_a^(k-i) M_i,
and int x^(alpha+j) e^-x dx, scaled by zeta^-(alpha+1+j).  Each quantity is
compared once with the same sum over the twin table, within ADAPTIVE_TOL,
and any disagreement raises OracleError, as does a twin that quad reports
short of its tolerance (with quad's error estimate; no IntegrationWarning
reaches stderr).  In exact arithmetic the comparison holds for every state
iff each Gauss sum of x^i (and of x^(alpha+j)) equals its twin, so the twins
check the rules, while the closed forms check the affine maps.  A twin
depends on (i, tol) or (alpha, j, tol) only, tol being the ADAPTIVE_TOL in
force, so all states share the Hermite twins, and all states of one D the
Laguerre twins: a default `et6 check` computes 4 Hermite and 28 Laguerre
integrals.

The oracle measures and its callers judge: its one pass bound is
ADAPTIVE_TOL, on the agreement of each Gauss value with its twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize
from scipy.special import roots_genlaguerre, roots_hermitenorm

from .closure import closed_fluxes, entropy_parts, multipliers_from_state
from .gas import GasSpec, State6, conserved_from_primitive, eos_evaluate

REL_ERR_FLOOR = 1e-300
HERMITE_ORDER = 64
LAGUERRE_ORDER = 128
RULE = f"gh{HERMITE_ORDER}xgl{LAGUERRE_ORDER}"
ADAPTIVE_TOL = 1e-10   # agreement of each Gauss value with its adaptive twin


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


def _energy(spec: GasSpec, *axes: int) -> list[Term]:
    """(c^2 + 2 I/m) times the product of c_a over axes."""
    return _speed2(*axes) + [(2.0 / spec.m, _powers(*axes), 1)]


def _finite(rule, *args):
    """scipy's nodes and weights of a Gauss rule, which must be finite."""
    with np.errstate(all="ignore"):
        nodes, weights = rule(*args)
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise OracleError(f"scipy returned non-finite nodes or weights: {rule.__name__}{args}")
    return nodes, weights


@lru_cache(maxsize=1)
def _hermite_rule():
    return _finite(roots_hermitenorm, HERMITE_ORDER)


@lru_cache(maxsize=64)
def _laguerre_rule(alpha: float):
    return _finite(roots_genlaguerre, LAGUERRE_ORDER, alpha)


def _laguerre_integrals(alpha: float, zeta: float, power: int) -> np.ndarray:
    """L[j] = int I^(alpha+j) exp(-zeta I) dI for j = 0..power, by the Laguerre rule."""
    y, wy = _laguerre_rule(alpha)
    return (wy * zeta ** (-(alpha + 1.0))) @ (y / zeta)[:, None] ** np.arange(power + 1)


def _adaptive(rule: str, f, a: float, b: float, **options) -> float:
    """integrate.quad of f over [a, b]; OracleError naming the rule, the
    value and quad's error estimate where quad reports a failure."""
    value, error, _, *failure = integrate.quad(f, a, b, full_output=1, **options)
    if failure:
        raise OracleError(f"adaptive rule {rule} gives {value!r} with error estimate "
                          f"{error:.3g}: {' '.join(failure[0].split())}")
    return value


@lru_cache(maxsize=64)
def _hermite_twin(i: int, tol: float) -> float:
    """M_i = int x^i exp(-x^2/2) dx over R by adaptive quadrature."""
    return _adaptive(f"int x^{i} exp(-x^2/2) dx", lambda x: x**i * math.exp(-0.5 * x * x),
                     -np.inf, np.inf, epsabs=tol * math.sqrt(2.0 * math.pi), epsrel=tol)


@lru_cache(maxsize=1024)
def _laguerre_twin(alpha: float, j: int, tol: float) -> float:
    """int x^(alpha+j) e^-x dx over [0, inf) by adaptive quadrature."""
    # split at 1: algebraic endpoint weight on the inner part (alpha may be
    # negative), plain decaying tail outside
    rule = f"int x^({alpha:.6g}+{j}) e^-x dx"
    inner = _adaptive(rule + " over [0, 1]", lambda x: x**j * math.exp(-x), 0.0, 1.0,
                      weight="alg", wvar=(alpha, 0.0), epsabs=tol, epsrel=tol)
    outer = _adaptive(rule + " over [1, inf)", lambda x: x ** (alpha + j) * math.exp(-x),
                      1.0, np.inf, epsabs=tol, epsrel=tol)
    return inner + outer


class _Table:
    """The 1-D integrals of one state's density, seen through one lens.

    S_a[k] = int c^k exp(-xi (c - v_a)^2) dc over R: Gauss-Hermite nodes
             s x_i + v_a with s = 1/sqrt(2 xi) (v = 0 in peculiar velocity)
    L[j]   = int I^(alpha+j) exp(-zeta I) dI over [0, inf): generalized
             Gauss-Laguerre nodes y_i / zeta

    Every moment is Omega times a sum of products S_x[kx] S_y[ky] S_z[kz]
    L[j].  The table holds the powers that the given terms use, by the
    Gauss rules (S, L) and by the adaptive twins (S_twin, L_twin).
    """

    def __init__(self, s: State6, spec: GasSpec, v, terms: list[Term]):
        self.mul = multipliers_from_state(s, spec)
        self.tol = ADAPTIVE_TOL
        v, alpha, zeta = np.asarray(v, dtype=float), spec.alpha, self.mul.zeta
        k = np.arange(max(max(powers) for _, powers, _ in terms) + 1)
        j = np.arange(max(j for _, _, j in terms) + 1)
        x, wx = _hermite_rule()
        scale = 1.0 / math.sqrt(2.0 * self.mul.xi)
        nodes = x * scale + v[:, None]
        self.S = (wx * scale) @ nodes[:, :, None] ** k
        self.L = _laguerre_integrals(alpha, zeta, j[-1])
        # (s x + v_a)^k = sum_i C(k, i) v_a^(k-i) s^i x^i, with C(k, i) = 0 for i > k
        binomial = np.array([[math.comb(n, i) for i in k] for n in k], dtype=float)
        affine = binomial * v[:, None, None] ** np.maximum(k[:, None] - k, 0)
        unit = np.array([_hermite_twin(int(i), self.tol) for i in k])
        self.S_twin = scale * affine @ (scale**k * unit)
        self.L_twin = (np.array([_laguerre_twin(alpha, int(i), self.tol) for i in j])
                       * zeta ** -(alpha + 1.0 + j))

    def _sum(self, S: np.ndarray, L: np.ndarray, terms: list[Term]) -> float:
        return self.mul.omega * float(sum(
            c * S[0, kx] * S[1, ky] * S[2, kz] * L[j] for c, (kx, ky, kz), j in terms))

    def validated(self, terms: list[Term]) -> float:
        """Omega times the sum of the terms, by the Gauss rules; OracleError
        unless the twin table agrees (a NaN on either side fails too)."""
        tol = self.tol
        value = self._sum(self.S, self.L, terms)
        reference = self._sum(self.S_twin, self.L_twin, terms)
        if not abs(value - reference) <= tol * max(abs(value), abs(reference), 1.0):
            raise OracleError(f"{RULE} gives {value!r}, the adaptive rule "
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
        value = spec.m * table.validated(terms)
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
    targets += [(f"G_ll{labels[k]}", fl.G_llk[k], _energy(spec, k)) for k in range(3)]
    return _check(s, spec, targets)


def oracle_constraint_check(s: State6, spec: GasSpec) -> list[OracleReport]:
    """Verify the six constraint moments (F, F_i, F_ll, G_ll) by quadrature."""
    u = conserved_from_primitive(s, spec)
    targets = [("F", u.F, [(1.0, _powers(), 0)])]
    targets += [(f"F_{x}", u.F_i[a], [(1.0, _powers(a), 0)]) for a, x in enumerate("xyz")]
    targets += [("F_ll", u.F_ll, _speed2()), ("G_ll", u.G_ll, _energy(spec))]
    return _check(s, spec, targets)


def oracle_entropy(s: State6, spec: GasSpec) -> float:
    """Entropy density -kB int int f ln f I^alpha dI dC by quadrature.

    ln f is expanded as ln(Omega) - zeta I - xi C^2, which turns the
    integrand into the same polynomial-weighted family as the moments (no
    logarithms near the underflow region).
    """
    number, internal, speed2 = [(1.0, _powers(), 0)], [(1.0, _powers(), 1)], _speed2()
    table = _Table(s, spec, np.zeros(3), number + internal + speed2)
    mul = table.mul
    return -spec.kB * (mul.log_omega * table.validated(number)
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
    only at beta = 0.  Non-converged points are reported, not fatal.
    """

    points: list[ProbePoint] = field(default_factory=list)
    reference_entropy: float = 0.0

    @property
    def optimal(self) -> bool:
        converged = [p for p in self.points if p.converged]
        return all(
            p.entropy <= self.reference_entropy + 1e-12 * abs(self.reference_entropy)
            for p in converged
        )

    @property
    def inconclusive(self) -> bool:
        return any(not p.converged for p in self.points)


def _radial_moment(k: int, xi: float, beta: float, tol: float) -> float:
    """M_k = int_R3 (C^2)^k exp(-xi C^2 - beta C^4) dC.

    Reduced to the radial integral 4 pi int r^(2k+2) exp(-xi r^2 - beta r^4) dr.
    For beta > 0 the integral exists for any real xi; negative xi arises when
    the quartic suppression must be compensated to meet the trace constraint.
    A quad failure is an OracleError, as for the twins.
    """
    val = _adaptive(f"int r^{2 * k + 2} exp({-xi:.6g} r^2 {-beta:+.6g} r^4) dr",
                    lambda r: r ** (2 * k + 2) * math.exp(-xi * r * r - beta * r**4),
                    0.0, np.inf, epsabs=tol, epsrel=tol)
    return 4.0 * math.pi * val


def _solve_trial_xi(target_ratio: float, beta: float, xi0: float, moment) -> tuple[float, bool]:
    """Solve M1(xi)/M0(xi) = target_ratio for xi, given that xi0 solves it
    at beta = 0, with M_k = moment(k, xi, beta).

    The ratio is strictly decreasing in xi and beta, so for beta > 0 the
    root lies below xi0: a bracket is widened downward by doubling steps,
    then Brent's method runs inside it.
    """
    if beta == 0.0:
        return xi0, True

    def resid(xi: float) -> float:
        return moment(1, xi, beta) / moment(0, xi, beta) - target_ratio

    scale = max(abs(xi0), 1e-3)
    hi, step = xi0, scale
    for _ in range(200):
        lo = hi - step
        if resid(lo) > 0.0:
            break
        hi, step = lo, 2.0 * step
    else:
        return xi0, False
    xi, result = optimize.brentq(resid, lo, hi, xtol=1e-14 * scale, full_output=True,
                                 disp=False)
    return xi, result.converged


def mep_optimality_probe(s: State6, spec: GasSpec,
                         trial_amplitudes=(0.001, 0.01, 0.05)) -> ProbeReport:
    """Probe entropy optimality against a quartic-perturbed trial family.

    For each beta >= 0 the three constraint equations (rho, trace pressure,
    energy) are re-solved for (Omega', xi', zeta') by Brent's method on xi'
    using quadrature moments, and the trial entropy is compared with the
    closure entropy.  beta = 0 must recover the closure.  Each radial
    moment is integrated once per call: Brent's method revisits its bracket
    ends, and the entropy reuses the moments of the solution.
    """
    tol = min(ADAPTIVE_TOL, 1e-12)
    moment = lru_cache(maxsize=None)(lambda k, xi, beta: _radial_moment(k, xi, beta, tol))
    p, eps = eos_evaluate(s.rho, s.T, spec)
    ppi = p + s.Pi
    alpha = spec.alpha
    mul = multipliers_from_state(s, spec)
    # zeta decouples from beta: fixed by the internal-energy split
    zeta_trial = (alpha + 1.0) / (spec.m * (eps - 1.5 * ppi / s.rho))
    target_ratio = 3.0 * ppi / s.rho

    # Laguerre factors for the internal-energy part
    l0, l1 = _laguerre_integrals(alpha, zeta_trial, 1).tolist()

    points = []
    for beta in trial_amplitudes:
        beta = float(beta)
        if beta < 0:
            raise ValueError("trial amplitude beta must be nonnegative")
        xi_trial, converged = _solve_trial_xi(target_ratio, beta, mul.xi, moment)
        m0, m1, m2 = (moment(k, xi_trial, beta) for k in range(3))
        omega_trial = s.rho / (spec.m * m0 * l0)
        log_omega_trial = math.log(omega_trial)
        number = s.rho / spec.m
        mean_i = omega_trial * m0 * l1
        mean_c2 = omega_trial * m1 * l0
        mean_c4 = omega_trial * m2 * l0
        h_trial = -spec.kB * (
            log_omega_trial * number
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
