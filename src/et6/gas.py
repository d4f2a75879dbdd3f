"""Gas model: equations of state, primitive/conserved conversions, the window.

The six fields are mass density rho, velocity v (3 components), kinetic
temperature T and the dynamic pressure Pi (the trace part of the viscous
stress, the single dissipative field of the six-field model).  The dynamic
pressure is only meaningful inside an open window around equilibrium,

    -p < Pi < (D - 3) * p / 3,       p = rho * T,

outside of which the underlying phase-space density ceases to be integrable.
So the window is two positive temperatures, of the closed density's
Maxwellian and Gamma factors (Ruggeri & Sugiyama 2015): the translational
T_K = (p + Pi)/rho and the internal T_I = (p - 3 Pi/(D-3))/rho.  The window,
the moment map and its inverse are small functions on floats or numpy
arrays, shared by the point API, the solver and the oracle.  A conserved
state is the moment vector (F, F_x, F_y, F_z, F_ll, G_ll), in the order of
the solver's rows.  moment_vector is the one home of the moment map, for
the point API (conserved_from_primitive) and the solver's initial data
alike, and primitive_from_conserved inverts any 6-sequence.
require_admissible is the one window check of a single state and returns
Z = Pi/p; temperatures checks a state and returns (T_K, T_I).

Units: the Boltzmann constant and the molecular mass are 1 throughout the
package (kB = m = 1), so p = rho T and eps = (D/2) T.  They enter the
six-field system only through kB/m in p = (kB/m) rho T, which a rescaled T
absorbs, and through the normalization of f and an additive entropy
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

D_MIN = 3.0 + 1e-6


class GasModelError(ValueError):
    """Base error for gas-model domain violations."""


class InadmissibleStateError(GasModelError):
    """Dynamic pressure outside the admissibility window.

    Attributes
    ----------
    bound : str
        Which bound was violated, "lower" (Pi <= -p) or "upper"
        (Pi >= (D-3) p / 3).
    margin : float
        Signed distance of Pi/p to the violated bound (negative when
        violated).
    """

    def __init__(self, message: str, bound: str, margin: float):
        super().__init__(message)
        self.bound = bound
        self.margin = margin


class ReconstructionError(GasModelError):
    """Conserved state cannot be inverted to a physical primitive state."""


@dataclass(frozen=True)
class GasSpec:
    """Molecular parameters of the gas.

    D is the effective number of degrees of freedom fixing the caloric
    equation of state eps = (D/2) T.  It is a real parameter strictly
    above 3 so that the monatomic limit D -> 3+ can be probed.  tau is the
    relaxation time of the BGK production term.
    """

    D: float = 5.0
    tau: float = 1.0

    def __post_init__(self):
        if not D_MIN <= self.D < math.inf:
            raise GasModelError(f"degrees of freedom D must be finite and >= {D_MIN}, "
                                f"got {self.D}")
        if not 0 < self.tau < math.inf:
            raise GasModelError(f"relaxation time tau must be positive and finite, got {self.tau}")

    @property
    def alpha(self) -> float:
        """Exponent weighting the internal-energy measure I**alpha dI."""
        return 0.5 * (self.D - 5.0)

    @property
    def gas_constant(self) -> float:
        """kB / m = 1 (see the module docstring).  Kept only because
        bench/workloads.py reads it; the package does not."""
        return 1.0

    @property
    def z_upper(self) -> float:
        """Upper admissibility bound on Z = Pi/p (the lower bound is -1)."""
        return window_bounds(1.0, self.D)[1]


def _as_vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape == ():
        arr = np.array([float(arr), 0.0, 0.0])
    if arr.shape != (3,):
        raise GasModelError(f"velocity must have 3 components, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class State6:
    """Primitive nonequilibrium state at a point: (rho, v, T, Pi)."""

    rho: float
    v: np.ndarray
    T: float
    Pi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v", _as_vec3(self.v))
        if not self.rho > 0:
            raise GasModelError(f"density must be positive, got {self.rho}")
        if not self.T > 0:
            raise GasModelError(f"temperature must be positive, got {self.T}")

    def pressure(self) -> float:
        """p = rho T."""
        return self.rho * self.T


def window_bounds(p, D: float):
    """(-p, (D-3) p / 3): the open window of admissible Pi, on floats or
    arrays.  At p = 1 these are the bounds on Z = Pi/p."""
    return -p, (D - 3.0) / 3.0 * p


def momentum_flux_trace(rho_v2, p, Pi):
    """F_ll = rho v^2 + 3 (p + Pi), on floats or arrays, given rho_v2 =
    rho v^2; dynamic_pressure inverts it.  No checks."""
    return rho_v2 + 3.0 * (p + Pi)


def energy_moment(rho_v2, p, D: float):
    """G_ll = rho v^2 + D p, on floats or arrays, given rho_v2 = rho v^2;
    velocity_pressure inverts it.  No checks."""
    return rho_v2 + D * p


def velocity_pressure(F, F_i, G_ll, D: float):
    """(v, rho v^2, p) of F, the array F_i of momentum components and
    G_ll (scalars, or arrays with F_i one axis longer): the inverse moment
    map but for Pi (see dynamic_pressure), all the five-field subsystem
    needs.  F_i is (F_x, F_y, F_z), or (F_x,) alone where the others are 0,
    which gives the same rho v^2 to the last bit.  v = F_i / F keeps F_i's
    shape, and rho v^2 = F v^2 is formed once for every caller.  No checks:
    callers guard F > 0, p > 0."""
    v = F_i / F
    vv = v * v
    rho_v2 = F * sum(vv[1:], vv[0])
    return v, rho_v2, (G_ll - rho_v2) / D


def dynamic_pressure(F_ll, rho_v2, p):
    """Pi = (F_ll - rho v^2) / 3 - p, on floats or arrays, given rho_v2 =
    rho v^2."""
    return (F_ll - rho_v2) / 3.0 - p


def require_admissible(s: State6, spec: GasSpec) -> float:
    """Z = Pi/p of a state inside the window -1 < Z < (D-3)/3.

    Outside it raises InadmissibleStateError naming the bound violated and
    the signed margin Z + 1 or (D-3)/3 - Z to it; a NaN Z reports the upper
    bound.
    """
    z = s.Pi / s.pressure()
    lower, upper = window_bounds(1.0, spec.D)
    margin_lower, margin_upper = z - lower, upper - z
    if margin_lower <= 0.0:
        raise InadmissibleStateError(
            f"Pi/p = {z:.6g} violates the lower bound -1 "
            f"(margin {margin_lower:.3g}): xi would lose positivity",
            bound="lower",
            margin=margin_lower,
        )
    if not margin_upper > 0.0:
        raise InadmissibleStateError(
            f"Pi/p = {z:.6g} violates the upper bound (D-3)/3 = "
            f"{upper:.6g} (margin {margin_upper:.3g}): zeta would lose positivity",
            bound="upper",
            margin=margin_upper,
        )
    return z


def temperatures(s: State6, spec: GasSpec) -> tuple[float, float]:
    """(T_K, T_I) = ((p + Pi)/rho, (p - 3 Pi/(D-3))/rho) of a state inside
    the window, where both are positive; outside it raises as
    require_admissible does."""
    require_admissible(s, spec)
    p = s.pressure()
    return (p + s.Pi) / s.rho, (p - 3.0 * s.Pi / (spec.D - 3.0)) / s.rho


def moment_vector(rho, v, p, Pi, D: float) -> np.ndarray:
    """The moment map: (F, F_x, F_y, F_z, F_ll, G_ll) of rho, the velocity
    components v = (vx, vy, vz), p and Pi, stacked along a new first axis,
    on floats or on arrays that broadcast to rho's shape.  No checks."""
    vx, vy, vz = v
    rho_v2 = rho * (vx * vx + vy * vy + vz * vz)
    return np.array([rho, rho * vx, rho * vy, rho * vz, momentum_flux_trace(rho_v2, p, Pi),
                     energy_moment(rho_v2, p, D)])


def conserved_from_primitive(s: State6, spec: GasSpec) -> np.ndarray:
    """Map (rho, v, T, Pi) to the moment vector (F, F_x, F_y, F_z, F_ll,
    G_ll), in the order of the solver's rows."""
    return moment_vector(s.rho, s.v.tolist(), s.pressure(), s.Pi, spec.D)


def primitive_from_conserved(u, spec: GasSpec) -> State6:
    """Invert the moment map of a 6-sequence u = (F, F_x, F_y, F_z, F_ll,
    G_ll) back to (rho, v, T, Pi).

    Raises ReconstructionError for a u of any other shape, for F <= 0 or
    NaN and for non-positive internal energy, and InadmissibleStateError
    when the recovered Pi leaves the window.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (6,):
        raise ReconstructionError(f"conserved state must have 6 components, got shape {u.shape}")
    rho = float(u[0])
    if not rho > 0:
        raise ReconstructionError(f"mass density F must be positive, got {rho}")
    v, rho_v2, p = velocity_pressure(rho, u[1:4], float(u[5]), spec.D)
    rho_v2, p = float(rho_v2), float(p)
    if not p > 0:
        raise ReconstructionError(f"non-positive internal energy rho*eps = {0.5 * spec.D * p}")
    Pi = dynamic_pressure(float(u[4]), rho_v2, p)
    s = State6(rho=rho, v=v, T=p / rho, Pi=Pi)
    require_admissible(s, spec)
    return s
