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
nodes scaled by 1/sqrt(2 xi) and shifted by v_a (by 0 for moments in
peculiar velocity), and L[j] = int I^(alpha+j) exp(-zeta I) dI, by
generalized Gauss-Laguerre nodes (weight I^alpha e^-I) scaled by 1/zeta.
The Laguerre weight absorbs I**alpha exactly, which keeps the integrable
singularity at I = 0 harmless for 3 < D < 5.  An n-point rule is exact up
to degree 2n - 1, which covers every monomial weight used here.  With
validation on, each quantity is compared once with the same sum of adaptive
twins, and any disagreement raises OracleError.  The twins integrate on the
rules' unit scale, (s x + v_a)^k exp(-x^2/2) with s = 1/sqrt(2 xi) and
x^(alpha+j) e^-x, so they check the rules, while the closed forms check the
affine maps.  A twin is keyed by its integrand, so the checks of one state
(and the Laguerre twins of all states of one D) compute it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize
from scipy.special import roots_genlaguerre, roots_hermitenorm

from .closure import entropy_parts, multipliers_from_state
from .gas import GasSpec, State6, conserved_from_primitive, eos_evaluate

REL_ERR_FLOOR = 1e-300


class OracleError(RuntimeError):
    """Quadrature failed to converge or to validate."""


class OracleVerificationError(OracleError):
    """Closed form and quadrature disagree beyond tolerance.

    Carries the offending reports in .failures and the full table in
    .reports.
    """

    def __init__(self, failures, reports):
        lines = ", ".join(f"{r.quantity} (rel_err={r.rel_err:.3e})" for r in failures)
        super().__init__(f"verification failure: {lines}")
        self.failures = failures
        self.reports = reports


@dataclass(frozen=True)
class QuadratureSpec:
    """Orders and tolerances of the verification quadrature.  The orders are
    exact for every degree checked here; `validate` compares each value once
    with its adaptive twin, within adaptive_tol."""

    hermite_order: int = 64
    laguerre_order: int = 128
    adaptive_tol: float = 1e-10
    flux_tol: float = 1e-8
    validate: bool = False   # cross-check every value against the adaptive rule

    def __post_init__(self):
        if self.hermite_order < 8 or self.laguerre_order < 8:
            raise ValueError("quadrature orders must be >= 8")
        if not self.adaptive_tol > 0:
            raise ValueError("adaptive tolerance must be positive")


@dataclass(frozen=True)
class OracleReport:
    """One verified quantity: closed form vs quadrature."""

    quantity: str
    closed_form: float
    quadrature: float
    rel_err: float
    rule: str


def rel_err(a: float, b: float, floor: float = REL_ERR_FLOOR) -> float:
    """|a - b| / max(|a|, |b|, floor).

    The floor carries the scale of the quantity family so that entries whose
    exact value is zero (odd moments, rest-frame fluxes) are judged against
    the size of their nonzero siblings instead of against themselves.
    """
    return abs(a - b) / max(abs(a), abs(b), floor)


@dataclass(frozen=True)
class MomentWeight:
    """Monomial weight coeff * Cx^ax Cy^ay Cz^az (C^2)^a2 I^ai."""

    ax: int = 0
    ay: int = 0
    az: int = 0
    a2: int = 0
    ai: int = 0
    coeff: float = 1.0

    @property
    def velocity_degree(self) -> int:
        return self.ax + self.ay + self.az + 2 * self.a2


# One product of the table: coeff * S_x[kx] S_y[ky] S_z[kz] L[j], as
# (coeff, (kx, ky, kz), j).  A quantity is a short list of them.
Term = tuple[float, tuple[int, int, int], int]


def _expand_c2(w: MomentWeight) -> list[Term]:
    """Expand (C^2)^a2 into axis monomials via the multinomial theorem."""
    terms = []
    n = w.a2
    for i in range(n + 1):
        for j in range(n - i + 1):
            k = n - i - j
            mult = math.factorial(n) // (
                math.factorial(i) * math.factorial(j) * math.factorial(k)
            )
            terms.append((w.coeff * mult, (w.ax + 2 * i, w.ay + 2 * j, w.az + 2 * k), w.ai))
    return terms


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


@lru_cache(maxsize=32)
def _hermite_rule(order: int):
    return _finite(roots_hermitenorm, order)


@lru_cache(maxsize=64)
def _laguerre_rule(order: int, alpha: float):
    return _finite(roots_genlaguerre, order, alpha)


def _laguerre_integrals(order: int, alpha: float, zeta: float, power: int) -> np.ndarray:
    """L[j] = int I^(alpha+j) exp(-zeta I) dI for j = 0..power, by the Laguerre rule."""
    y, wy = _laguerre_rule(order, alpha)
    return (wy * zeta ** (-(alpha + 1.0))) @ (y / zeta)[:, None] ** np.arange(power + 1)


@lru_cache(maxsize=1024)
def _hermite_twin(xi: float, shift: float, k: int, tol: float) -> float:
    """int c^k exp(-xi (c - shift)^2) dc over R by adaptive quadrature, as
    s int (s x + shift)^k exp(-x^2/2) dx with s = 1/sqrt(2 xi)."""
    s = 1.0 / math.sqrt(2.0 * xi)
    size = math.sqrt(2.0 * math.pi) * (s + abs(shift)) ** k   # of the integrand
    value, _ = integrate.quad(lambda x: (s * x + shift) ** k * math.exp(-0.5 * x * x),
                              -np.inf, np.inf, epsabs=tol * size, epsrel=tol)
    return s * value


@lru_cache(maxsize=1024)
def _laguerre_twin(alpha: float, j: int, tol: float) -> float:
    """int x^(alpha+j) e^-x dx over [0, inf) by adaptive quadrature."""
    # split at 1: algebraic endpoint weight on the inner part (alpha may be
    # negative), plain decaying tail outside
    inner, _ = integrate.quad(lambda x: x**j * math.exp(-x), 0.0, 1.0,
                              weight="alg", wvar=(alpha, 0.0), epsabs=tol, epsrel=tol)
    outer, _ = integrate.quad(lambda x: x ** (alpha + j) * math.exp(-x), 1.0, np.inf,
                              epsabs=tol, epsrel=tol)
    return inner + outer


class _Table:
    """The 1-D integrals of one state's density, seen through one lens.

    S_a[k] = int c^k exp(-xi (c - v_a)^2) dc over R: Gauss-Hermite nodes
             x_i / sqrt(2 xi) shifted by v_a (v = 0 in peculiar velocity)
    L[j]   = int I^(alpha+j) exp(-zeta I) dI over [0, inf): generalized
             Gauss-Laguerre nodes y_i / zeta

    Every moment is Omega times a sum of products S_x[kx] S_y[ky] S_z[kz]
    L[j].  The table holds the powers that the given terms use.
    """

    def __init__(self, s: State6, spec: GasSpec, quad: QuadratureSpec, v,
                 terms: list[Term]):
        self.mul = multipliers_from_state(s, spec)
        self.v, self.alpha, self.quad = np.asarray(v, dtype=float), spec.alpha, quad
        self.rule = f"gh{quad.hermite_order}xgl{quad.laguerre_order}"
        degree = max(max(k) for _, k, _ in terms)
        x, wx = _hermite_rule(quad.hermite_order)
        scale = 1.0 / math.sqrt(2.0 * self.mul.xi)
        nodes = x * scale + self.v[:, None]
        self.S = (wx * scale) @ nodes[:, :, None] ** np.arange(degree + 1)
        self.L = _laguerre_integrals(quad.laguerre_order, self.alpha, self.mul.zeta,
                                     max(j for _, _, j in terms))

    def integral(self, terms: list[Term]) -> float:
        """Omega times the sum of the terms, by the Gauss rules."""
        S, L = self.S, self.L
        return self.mul.omega * float(sum(
            c * S[0, kx] * S[1, ky] * S[2, kz] * L[j] for c, (kx, ky, kz), j in terms))

    def adaptive_integral(self, terms: list[Term]) -> float:
        """Omega times the sum of the terms, by the adaptive rule."""
        xi, zeta, tol = self.mul.xi, self.mul.zeta, self.quad.adaptive_tol

        def hermite(axis: int, k: int) -> float:
            # S_a[0] does not depend on the shift
            return _hermite_twin(xi, float(self.v[axis]) if k else 0.0, k, tol)

        return self.mul.omega * sum(
            c * hermite(0, kx) * hermite(1, ky) * hermite(2, kz)
            * _laguerre_twin(self.alpha, j, tol) * zeta ** (-(self.alpha + 1.0 + j))
            for c, (kx, ky, kz), j in terms)

    def validated(self, terms: list[Term]) -> float:
        """Gauss value; with validation on, OracleError unless the adaptive
        twin agrees (a NaN on either side fails too)."""
        value = self.integral(terms)
        if not self.quad.validate:
            return value
        reference = self.adaptive_integral(terms)
        tol = self.quad.adaptive_tol
        if not abs(value - reference) <= tol * max(abs(value), abs(reference), 1.0):
            raise OracleError(f"{self.rule} gives {value!r}, the adaptive rule "
                              f"{reference!r}: they differ by more than {tol:g}")
        return value


def oracle_moment(s: State6, weight, spec: GasSpec, quad: QuadratureSpec | None = None) -> float:
    """Numeric moment int int m f w(C, I) I^alpha dI dC.

    `weight` is a MomentWeight (or an iterable of them, summed).  A weight
    beyond the degrees the rules integrate exactly is a ValueError; with
    quad.validate set, a disagreement with the adaptive twins an OracleError.
    """
    quad = quad or QuadratureSpec()
    ws = [weight] if isinstance(weight, MomentWeight) else list(weight)
    for w in ws:
        if w.velocity_degree > 6:
            raise ValueError(f"velocity degree {w.velocity_degree} exceeds 6")
        if w.ai >= 2 * quad.laguerre_order:
            raise ValueError(f"internal-energy power {w.ai} exceeds {2 * quad.laguerre_order - 1}")
    terms = [t for w in ws for t in _expand_c2(w)]
    return spec.m * _Table(s, spec, quad, np.zeros(3), terms).validated(terms)


def _check(s: State6, spec: GasSpec, quad: QuadratureSpec,
           targets: list[tuple[str, float, list[Term]]]) -> list[OracleReport]:
    """Report each (name, closed value, terms) target against the lab-frame table.

    Relative errors are floored at the largest closed value of the family.
    """
    table = _Table(s, spec, quad, s.v, [t for _, _, terms in targets for t in terms])
    family_scale = max(abs(closed) for _, closed, _ in targets)
    reports = []
    for name, closed, terms in targets:
        value = spec.m * table.validated(terms)
        reports.append(OracleReport(name, closed, value,
                                    rel_err(closed, value, floor=family_scale), table.rule))
    return reports


def oracle_flux_check(s: State6, spec: GasSpec, quad: QuadratureSpec | None = None,
                      raise_on_failure: bool = True) -> list[OracleReport]:
    """Compare every closed flux entry against quadrature.

    Twelve entries: the six independent components of F_ik, and the three
    components each of F_llk and G_llk.  Raises OracleVerificationError when
    any relative error exceeds quad.flux_tol (unless raise_on_failure is
    cleared, in which case the reports are returned for inspection).
    """
    from .closure import closed_fluxes

    quad = quad or QuadratureSpec()
    fl = closed_fluxes(s, spec)
    labels = "xyz"
    targets = [
        (f"F_{labels[i]}{labels[k]}", fl.F_ik[i, k], [(1.0, _powers(i, k), 0)])
        for i in range(3) for k in range(i, 3)
    ]
    targets += [(f"F_ll{labels[k]}", fl.F_llk[k], _speed2(k)) for k in range(3)]
    targets += [(f"G_ll{labels[k]}", fl.G_llk[k], _energy(spec, k)) for k in range(3)]
    reports = _check(s, spec, quad, targets)
    failures = [r for r in reports if not r.rel_err <= quad.flux_tol]
    if failures and raise_on_failure:
        raise OracleVerificationError(failures, reports)
    return reports


def oracle_constraint_check(s: State6, spec: GasSpec,
                            quad: QuadratureSpec | None = None) -> list[OracleReport]:
    """Verify the six constraint moments (F, F_i, F_ll, G_ll) by quadrature."""
    quad = quad or QuadratureSpec()
    u = conserved_from_primitive(s, spec)
    targets = [("F", u.F, [(1.0, _powers(), 0)])]
    targets += [(f"F_{x}", u.F_i[a], [(1.0, _powers(a), 0)]) for a, x in enumerate("xyz")]
    targets += [("F_ll", u.F_ll, _speed2()), ("G_ll", u.G_ll, _energy(spec))]
    return _check(s, spec, quad, targets)


def oracle_entropy(s: State6, spec: GasSpec, quad: QuadratureSpec | None = None) -> float:
    """Entropy density -kB int int f ln f I^alpha dI dC by quadrature.

    ln f is expanded as ln(Omega) - zeta I - xi C^2, which turns the
    integrand into the same polynomial-weighted family as the moments (no
    logarithms near the underflow region).
    """
    quad = quad or QuadratureSpec()
    number, internal, speed2 = [(1.0, _powers(), 0)], [(1.0, _powers(), 1)], _speed2()
    table = _Table(s, spec, quad, np.zeros(3), number + internal + speed2)
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
    """
    val, _ = integrate.quad(lambda r: r ** (2 * k + 2) * math.exp(-xi * r * r - beta * r**4),
                            0.0, np.inf, epsabs=tol, epsrel=tol)
    return 4.0 * math.pi * val


def _solve_trial_xi(target_ratio: float, beta: float, xi0: float, tol: float) -> tuple[float, bool]:
    """Solve M1(xi)/M0(xi) = target_ratio for xi, given that xi0 solves it
    at beta = 0.

    The ratio is strictly decreasing in xi and beta, so for beta > 0 the
    root lies below xi0: a bracket is widened downward by doubling steps,
    then Brent's method runs inside it.
    """
    if beta == 0.0:
        return xi0, True

    def resid(xi: float) -> float:
        return _radial_moment(1, xi, beta, tol) / _radial_moment(0, xi, beta, tol) - target_ratio

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


def mep_optimality_probe(s: State6, spec: GasSpec, trial_amplitudes=(0.001, 0.01, 0.05),
                         quad: QuadratureSpec | None = None) -> ProbeReport:
    """Probe entropy optimality against a quartic-perturbed trial family.

    For each beta >= 0 the three constraint equations (rho, trace pressure,
    energy) are re-solved for (Omega', xi', zeta') by Brent's method on xi'
    using quadrature moments, and the trial entropy is compared with the
    closure entropy.  beta = 0 must recover the closure.
    """
    quad = quad or QuadratureSpec()
    tol = min(quad.adaptive_tol, 1e-12)
    p, eps = eos_evaluate(s.rho, s.T, spec)
    ppi = p + s.Pi
    alpha = spec.alpha
    mul = multipliers_from_state(s, spec)
    # zeta decouples from beta: fixed by the internal-energy split
    zeta_trial = (alpha + 1.0) / (spec.m * (eps - 1.5 * ppi / s.rho))
    target_ratio = 3.0 * ppi / s.rho

    # Laguerre factors for the internal-energy part
    l0, l1 = _laguerre_integrals(quad.laguerre_order, alpha, zeta_trial, 1).tolist()

    points = []
    for beta in trial_amplitudes:
        beta = float(beta)
        if beta < 0:
            raise ValueError("trial amplitude beta must be nonnegative")
        xi_trial, converged = _solve_trial_xi(target_ratio, beta, mul.xi, tol)
        m0, m1, m2 = (_radial_moment(k, xi_trial, beta, tol) for k in range(3))
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
