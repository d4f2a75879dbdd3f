"""One-dimensional finite-volume solver for the six-field balance laws.

Each step relaxes Pi exactly over half the step, transports, and then
closes with an exponential update of Pi over the whole step.  The half step
solves the homogeneous subproblem dPi/dt = -Pi/tau (at frozen rho, v, eps)
in closed form.  The closing update solves dPi/dt = S - Pi/tau from the
step's initial Pi, with the transport rate S of Pi held fixed, also in
closed form: Pi <- Pi E + tau (1 - E) S with E = exp(-dt/tau) (exponential
time differencing, Cox & Matthews 2002).  In uniform cells S = 0 and the
step is Strang's; for dt << tau it differs from Strang's by
dt^3 S / (24 tau^2); for dt >> tau it gives Pi = tau S, which is the
bulk-viscosity law Pi = -nu dv/dx.  So the stiff limit holds at transport
time steps (asymptotic preservation, Jin 1999), and no implicit solve is
needed.  The hyperbolic substep is a first-order Rusanov (local
Lax-Friedrichs) update, optionally second-order MUSCL, with minmod or
unlimited central slopes (limiter "none"), and a two-stage SSP time
integration.

The admissible window -p < Pi < (D-3) p / 3 is convex in conserved
variables, and the window lemma holds: for a state u in it with x-flux f,
u -+ f/a lies in it too once a >= |v_x| + c.  Of its three parts rho and
the passive G_ll - F_ll scale by 1 -+ v_x/a, and (F, F_i, F_ll) is an
Euler state with gamma = 5/3 and pressure p + Pi, whose internal energy
stays positive from a >= |v_x| + sqrt(1/5) c (Perthame & Shu 1996).  The
tests check the lemma to within 1e-6 of both edges.  The Rusanov update
u_j (1 - lam (a+ + a-)/2) + (lam a+/2)(u_{j+1} - f_{j+1}/a+)
+ (lam a-/2)(u_{j-1} + f_{j-1}/a-), with lam = dt/dx and face speeds
a+-, is then a convex combination of window states while dt a / dx <= 1
at every face.  MUSCL splits each cell average into its two edge values
with weight 1/2 (Zhang & Shu 2010), and a cell whose faces leave the
window, or outrun the speed dt was chosen from, takes its average on both
faces, so each SSP stage keeps the window while dt a / dx <= 1/2.  The
step's dt gives dt a / dx <= cfl/1.1 at rest and <= cfl in general, with
a = |v_x| + c, at the faces of the step's own data.  The second MUSCL
stage is the gap: its cell averages are not bounded by the speed dt was
chosen from, so its faces can exceed cfl (0.528 at cfl = 0.45 on Sod).

One marching kernel also runs the five-field equilibrium subsystem (the
classical polyatomic gas dynamics) as a reference; a `System` supplies what
differs.  Each state is decoded once per stage.  A `Scenario` holds the
grid (N cells on [x_left, x_right], the boundary policy) and the scheme;
the kernel marches bare arrays of cell averages, shape (6, N) with rows
(F, F_x, F_y, F_z, F_ll, G_ll); the five-field rows drop F_ll.  F_y and F_z
rows that are zero everywhere stay zero, since their flux is F_y v_x, so the
kernel then marches without them, rows (F, F_x, F_ll, G_ll): every function
below reads F_ll and G_ll as the last two rows and the momentum in between,
and gives the same numbers to the last bit either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .closure import entropy_terms, flux_rows
from .eigen import et6_sound_speed, euler_sound_speed
from .gas import GasSpec, dynamic_pressure, energy_moment, momentum_flux_trace, \
    velocity_pressure, window_bounds

WAVE_SPEED_SAFETY = 1.1
BOUNDARIES = ("periodic", "outflow", "reflective")
SCHEMES = ("rusanov", "muscl")
LIMITERS = ("minmod", "none")
SCENARIO_KINDS = ("riemann", "smooth_wave", "uniform_relaxation")
LIMITER_ACTIVITY_THRESHOLD = 0.03  # zeroed-slope fraction above which confidence is reduced


class SolverError(RuntimeError):
    """Fatal solver failure (inadmissible data, bad setup)."""


# ---------------------------------------------------------------------------
# vectorized state algebra
# ---------------------------------------------------------------------------

def _require(ok: np.ndarray, values: np.ndarray, what: str, place: str):
    """Raise SolverError at the first entry where ok fails (NaN fails too)."""
    if not np.logical_and.reduce(ok, axis=None):
        first = np.unravel_index(np.argmin(ok), ok.shape)
        raise SolverError(f"{what} {values[first]:.6g} at {place} {', '.join(map(str, first))}")


def _require_positive(values: np.ndarray, what: str):
    """Raise SolverError at the first entry that is not positive (NaN
    included); one reduction when all are."""
    if not np.minimum.reduce(values, axis=None) > 0.0:
        _require(values > 0.0, values, what, "index")


def _require_finite_max(speed: np.ndarray, what: str, place: str) -> float:
    """The largest of nonnegative speeds; SolverError at the first
    non-finite one (NaN included), which a finite maximum rules out."""
    top = float(np.maximum.reduce(speed, axis=None))
    if not math.isfinite(top):
        _require(np.isfinite(speed), speed, what, place)
    return top


def _decode(U: np.ndarray, F_i: np.ndarray, spec: GasSpec) -> dict[str, np.ndarray]:
    """rho, velocity (vx, and vy, vz when F_i has them), v^2, rho v^2, p and T
    from rows (F, ..., G_ll) of any trailing shape with momentum rows F_i;
    density and internal energy must be positive."""
    rho = U[0]
    _require_positive(rho, "non-positive density")
    v, v2, rho_v2, p = velocity_pressure(rho, F_i, U[-1], spec.D)
    _require_positive(p, "non-positive pressure")
    return {"rho": rho, **dict(zip(("vx", "vy", "vz"), v)), "v2": v2, "rho_v2": rho_v2,
            "p": p, "T": p / rho}


def primitive_fields(U: np.ndarray, spec: GasSpec) -> dict[str, np.ndarray]:
    """Primitive arrays (rho, vx, vy, vz, v2, rho_v2, p, T, Pi) from
    six-field data (vy and vz only where U has their rows)."""
    w = _decode(U, U[1:-2], spec)
    w["Pi"] = dynamic_pressure(U[-2], w["rho_v2"], w["p"])
    return w


def flux_fields(U: np.ndarray, w: dict[str, np.ndarray]) -> np.ndarray:
    """Physical flux along x of six-field data U with primitives w."""
    return flux_rows(U[1:-2], U[-1], w["rho_v2"], w["p"] + w["Pi"], w["vx"], 0)


def _require_window(w: dict, spec: GasSpec, what: str = "Pi/p outside the window:"):
    """Raise SolverError at the first cell whose Pi leaves the open window."""
    lower, upper = window_bounds(w["p"], spec.D)
    Pi = w["Pi"]
    ok = (lower < Pi) & (Pi < upper)
    if not np.logical_and.reduce(ok, axis=None):
        _require(ok, Pi / w["p"], what, "index")


def _inside_window(F: np.ndarray, F_i: np.ndarray, X: np.ndarray,
                   G_ll: np.ndarray | None = None) -> np.ndarray:
    """Where F, momentum rows F_i and X lie in the open window: F > 0,
    F X > |F_i|^2 (p + Pi > 0 when X is F_ll, p > 0 when X is the five-field
    G_ll) and, given G_ll on six-field rows, G_ll > F_ll (Pi < (D-3) p / 3)."""
    ok = (F > 0.0) & (F * X > np.einsum("i...,i...->...", F_i, F_i))
    if G_ll is not None:
        ok &= G_ll > X
    return ok


class System(NamedTuple):
    """What the marching kernel needs from one set of balance laws."""

    decode: Callable        # (U, spec) -> primitives w
    sound_speed: Callable   # (rho, p, Pi, spec) -> c; |v_x| + c bounds the spectrum
    flux: Callable          # (U, w) -> physical x-flux
    relax: Callable         # (U, w, dt, spec, rate) -> (U, primitives) after the source substep
    inside: Callable        # U -> where the states of U lie in the window
    rows: int               # rows of the full layout, F_y and F_z included


# The six-field decode and relaxation are looked up when called, not bound
# here, so that wrappers installed on this module's functions (tracing,
# counting) see every call the kernel makes.
SIX_FIELD = System(
    decode=lambda U, spec: primitive_fields(U, spec),
    sound_speed=lambda rho, p, Pi, spec: et6_sound_speed(rho, p, Pi),
    flux=flux_fields,
    relax=lambda U, w, dt, spec, rate: relaxation_step_exact(U, w, dt, spec, rate),
    inside=lambda U: _inside_window(U[0], U[1:-2], U[-2], U[-1]),
    rows=6,
)
# The equilibrium subsystem, rows (F, F_x, F_y, F_z, G_ll): no dynamic
# pressure, so its window is p > 0 alone, and no production, so its source
# substep is the identity.
FIVE_FIELD = System(
    decode=lambda U, spec: {**_decode(U, U[1:-1], spec), "Pi": np.zeros(U.shape[1:])},
    sound_speed=lambda rho, p, Pi, spec: euler_sound_speed(rho, p, spec.D),
    flux=lambda U, w: np.delete(flux_rows(U[1:-1], U[-1], w["rho_v2"], w["p"], w["vx"], 0),
                                -2, axis=0),
    relax=lambda U, w, dt, spec, rate: (U, w),
    inside=lambda U: _inside_window(U[0], U[1:-1], U[-1]),
    rows=5,
)


def max_wave_speed(w: dict[str, np.ndarray], spec: GasSpec, system: System) -> float:
    """CFL bound max(|v_x| + WAVE_SPEED_SAFETY * c) over cells with primitives w.

    The six-field c = sqrt(5 (p+Pi) / 3 rho) carries (p + Pi), not p: for
    Pi > 0.21 p the equilibrium value under-estimates the spectrum even
    with the 10% safety margin.  The relaxation half step that precedes the
    transport moves Pi toward 0, so c is bounded with max(Pi, 0).  A
    non-finite speed raises SolverError.
    """
    c = system.sound_speed(w["rho"], w["p"], np.maximum(w["Pi"], 0.0), spec)
    speed = np.abs(w["vx"]) + WAVE_SPEED_SAFETY * c
    return _require_finite_max(speed, "non-finite wave speed", "cell")


# ---------------------------------------------------------------------------
# scenario and time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A complete run description, the grid included: N uniform cells on
    [x_left, x_right] with the boundary policy, and the scheme.

    kind selects the initial condition:
      riemann            - two constant states split at x_split
      smooth_wave        - small right-moving acoustic mode of the relaxed
                           (five-field) dynamics, at Pi = 0
      uniform_relaxation - spatially uniform state with Pi0 = z0 * p
    """

    kind: str = "smooth_wave"
    spec: GasSpec = field(default_factory=GasSpec)
    N: int = 200
    x_left: float = 0.0
    x_right: float = 1.0
    cfl: float = 0.45
    t_end: float = 0.5
    output_cadence: float = 0.0      # 0: snapshots only at t = 0 and t_end
    boundary: str = "periodic"
    scheme: str = "rusanov"
    limiter: str = "minmod"
    # riemann parameters
    rho_left: float = 1.0
    p_left: float = 1.0
    rho_right: float = 0.125
    p_right: float = 0.1
    v_left: float = 0.0
    v_right: float = 0.0
    pi_left: float = 0.0
    pi_right: float = 0.0
    x_split: float = 0.5
    # smooth-wave parameters
    rho0: float = 1.0
    T0: float = 1.0
    amplitude: float = 1e-2
    # uniform-relaxation parameters
    z0: float = 0.3

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SolverError(f"{name} must be finite, got {value}")
        if self.kind not in SCENARIO_KINDS:
            raise SolverError(f"unknown scenario kind {self.kind!r}")
        if self.N < 4:
            raise SolverError(f"need at least 4 cells, got {self.N}")
        if not self.x_right > self.x_left:
            raise SolverError(f"empty domain [{self.x_left}, {self.x_right}]")
        if self.kind == "riemann" and not self.x_left < self.x_split < self.x_right:
            raise SolverError(f"split point {self.x_split} outside the domain "
                              f"({self.x_left}, {self.x_right})")
        if not 0.0 < self.cfl < 1.0:
            raise SolverError(f"CFL must lie in (0, 1), got {self.cfl}")
        if not self.t_end > 0.0:
            raise SolverError(f"end time must be positive, got {self.t_end}")
        if self.scheme not in SCHEMES:
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.limiter not in LIMITERS:
            raise SolverError(f"unknown limiter {self.limiter!r}")
        if self.boundary not in BOUNDARIES:
            raise SolverError(f"unknown boundary policy {self.boundary!r}")
        if not self.output_cadence >= 0.0:
            raise SolverError("output cadence must be nonnegative")
        for name in ("rho_left", "p_left", "rho_right", "p_right", "rho0", "T0"):
            if not getattr(self, name) > 0.0:
                raise SolverError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.N

    @property
    def centers(self) -> np.ndarray:
        """Cell centres, where the initial data are sampled (not
        x_left + (j + 0.5) dx, which rounds differently in the last bit)."""
        return self.x_left + (np.arange(self.N) + 0.5) * (self.x_right - self.x_left) / self.N


@dataclass
class TimeSeries:
    """Snapshots and per-step diagnostics of a run."""

    x: np.ndarray
    snapshot_times: list[float] = field(default_factory=list)
    snapshots: list[dict[str, np.ndarray]] = field(default_factory=list)
    diag_t: list[float] = field(default_factory=list)
    total_F: list[float] = field(default_factory=list)
    total_Fx: list[float] = field(default_factory=list)
    total_Gll: list[float] = field(default_factory=list)
    total_entropy: list[float] = field(default_factory=list)
    max_abs_z: list[float] = field(default_factory=list)
    # always 0: the scheme keeps the window by construction; the column
    # stays for readers of the diagnostics CSV
    projections: list[int] = field(default_factory=list)
    entropy_outflow: list[float] = field(default_factory=list)  # per step, dt * [h v_x]
    limiter_fraction: float = 0.0    # max per-step fraction of zeroed slopes


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def _pack(rho, vx, p, Pi, spec) -> np.ndarray:
    """Six-field rows of states at rest in y and z."""
    rho = np.asarray(rho, dtype=float)
    rho_v2 = rho * (vx * vx)
    U = np.zeros((6, rho.size))
    U[0] = rho
    U[1] = rho * vx
    U[4] = momentum_flux_trace(rho_v2, p, Pi)
    U[5] = energy_moment(rho_v2, p, spec.D)
    return U


def bulk_viscosity(p, spec: GasSpec):
    """nu = (2/3) ((D - 3) / D) p tau, the stiff-limit coefficient of
    Pi = -nu dv/dx."""
    return 2.0 / 3.0 * (spec.D - 3.0) / spec.D * p * spec.tau


def initial_grid(sc: Scenario) -> np.ndarray:
    """The cell-averaged initial data of a scenario, shape (6, N)."""
    spec = sc.spec
    x = sc.centers
    if sc.kind == "riemann":
        left = x < sc.x_split
        rho = np.where(left, sc.rho_left, sc.rho_right)
        p = np.where(left, sc.p_left, sc.p_right)
        vx = np.where(left, sc.v_left, sc.v_right)
        Pi = np.where(left, sc.pi_left, sc.pi_right)
        return _pack(rho, vx, p, Pi, spec)
    if sc.kind == "smooth_wave":
        kwave = 2.0 * math.pi / (sc.x_right - sc.x_left)   # one period across the domain
        p0 = sc.rho0 * sc.T0
        gamma_eq = (spec.D + 2.0) / spec.D
        c_eq = euler_sound_speed(sc.rho0, p0, spec.D)
        shape = np.sin(kwave * (x - sc.x_left))
        rho = sc.rho0 * (1.0 + sc.amplitude * shape)
        vx = c_eq * sc.amplitude * shape
        p = p0 * (1.0 + gamma_eq * sc.amplitude * shape)
        return _pack(rho, vx, p, np.zeros_like(x), spec)
    # uniform_relaxation
    p0 = sc.rho0 * sc.T0
    return _pack(np.full(sc.N, sc.rho0), 0.0, p0, sc.z0 * p0, spec)


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------

def _pad(U: np.ndarray, boundary: str, ng: int) -> np.ndarray:
    """U with ng ghost cells at each end, written into one new buffer."""
    Up = np.empty((U.shape[0], U.shape[1] + 2 * ng))
    Up[:, ng:-ng] = U
    if boundary == "periodic":
        Up[:, :ng] = U[:, -ng:]
        Up[:, -ng:] = U[:, :ng]
    elif boundary == "outflow":
        Up[:, :ng] = U[:, :1]
        Up[:, -ng:] = U[:, -1:]
    else:  # reflective: mirrored cells with F_x negated
        Up[:, :ng] = U[:, ng - 1::-1]
        Up[:, -ng:] = U[:, :-ng - 1:-1]
        Up[1, :ng] *= -1.0
        Up[1, -ng:] *= -1.0
    return Up


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b clipped to [min(a, 0), max(a, 0)]: the argument of least magnitude
    when a and b share a sign, else 0."""
    return np.minimum(np.maximum(b, np.minimum(a, 0.0)), np.maximum(a, 0.0))


def _reconstruct(U: np.ndarray, sc: Scenario, system: System,
                 max_speed: float) -> tuple[np.ndarray, dict, np.ndarray, int]:
    """Edge states of the cells and one ghost each side, shape (rows, K, N+2),
    their primitives and signal speeds |v_x| + c, and the count of zeroed
    slopes.  Along K, 0 is the right edge and -1 the left edge (one and the
    same at first order, K = 1).  A cell with a face outside the window, or
    faster than max_speed, takes its average on both faces, so all its
    slopes count as zeroed, those of F_y and F_z too when U leaves their
    rows out (their slopes are 0 otherwise, which minmod does not count)."""

    def decoded(edges):
        w = system.decode(edges, sc.spec)
        return w, np.abs(w["vx"]) + system.sound_speed(w["rho"], w["p"], w["Pi"], sc.spec)

    if sc.scheme == "rusanov":
        edges = _pad(U, sc.boundary, 1)[:, None, :]
        return (edges, *decoded(edges), 0)
    Up = _pad(U, sc.boundary, 2)
    diff = Up[:, 1:] - Up[:, :-1]
    bwd, fwd = diff[:, :-1], diff[:, 1:]
    if sc.limiter == "minmod":
        half = _minmod(bwd, fwd)
        half *= 0.5
        zeroed = bwd * fwd <= 0.0
        nonzero = diff != 0.0
        zeroed &= nonzero[:, :-1] | nonzero[:, 1:]
    else:
        half = bwd + fwd
        half *= 0.25
        if sc.boundary == "outflow":
            # zero-gradient ghosts: both states of an end face are the
            # boundary cell, as minmod makes them
            half[:, [1, -2]] = 0.0
        zeroed = np.zeros(half.shape, dtype=bool)
    cells = Up[:, 1:-1]
    edges = np.empty((U.shape[0], 2, cells.shape[1]))
    np.add(cells, half, out=edges[:, 0])
    np.subtract(cells, half, out=edges[:, 1])

    fallback = np.zeros(cells.shape[1], dtype=bool)

    def first_order(bad):
        edges[:, :, bad] = cells[:, None, bad]
        zeroed[:, bad] = True
        fallback[bad] = True

    inside = system.inside(edges)
    if not np.logical_and.reduce(inside, axis=None):
        first_order(~np.logical_and.reduce(inside, axis=0))
    w, speed = decoded(edges)
    if np.maximum.reduce(speed, axis=None) > max_speed:
        first_order(np.logical_or.reduce(speed > max_speed, axis=0))
        w, speed = decoded(edges)
    left_out = (system.rows - U.shape[0]) * int(np.count_nonzero(fallback))
    return edges, w, speed, int(np.count_nonzero(zeroed)) + left_out


def _stage(U: np.ndarray, sc: Scenario, system: System,
           max_speed: float) -> tuple[np.ndarray, int, np.ndarray | None]:
    """-d/dx of the numerical flux, the count of zeroed slopes and, at
    outflow ends, rho, p, Pi and v_x of the domain-side states at the left
    and right end faces, shape (4, 2) (None for the other policies)."""
    edges, w, speed, clipped = _reconstruct(U, sc, system, max_speed)
    a = np.maximum(speed[0, :-1], speed[-1, 1:])
    _require_finite_max(a, "non-finite wave speed", "the face left of cell")
    f = system.flux(edges, w)
    F = np.add(f[:, 0, :-1], f[:, -1, 1:])
    F *= 0.5
    jump = np.subtract(edges[:, -1, 1:], edges[:, 0, :-1])
    a *= 0.5
    jump *= a
    F -= jump
    rhs = np.subtract(F[:, :-1], F[:, 1:])
    rhs /= sc.dx
    ends = None
    if sc.boundary == "outflow":
        # both states of an end face equal the boundary cell, so the flux
        # h v_x there is exact
        ends = np.array([(w[key][-1, 1], w[key][0, -2]) for key in ("rho", "p", "Pi", "vx")])
    return rhs, clipped, ends


class TransportStep(NamedTuple):
    """Result of hyperbolic_step."""

    U: np.ndarray
    w: dict[str, np.ndarray]       # primitives of U
    clipped: int                   # zeroed slopes, the larger of the stages
    entropy_outflow: float         # dt * net h v_x out through outflow ends


def hyperbolic_step(U: np.ndarray, dt: float, sc: Scenario, system: System,
                    max_speed: float = math.inf) -> TransportStep:
    """One conservative transport step of U on the grid of sc, by its scheme.

    Rusanov is a forward-Euler monotone update; MUSCL reconstructs limited
    slopes and uses two-stage SSP time integration, whose flux is the mean
    of the two stages' fluxes.  A MUSCL cell falls back to first order
    where a face would leave the window or outrun max_speed, the signal
    speed dt was chosen from.  The new state is decoded once; a cell
    outside the window raises SolverError.
    """
    if sc.scheme == "rusanov":
        # U + dt rhs, in the buffer of rhs
        U_new, clipped, ends = _stage(U, sc, system, max_speed)
        U_new *= dt
        U_new += U
    else:
        # U* = U + dt rhs(U), then (U + U* + dt rhs(U*)) / 2, in the buffer of rhs(U)
        U_new, c1, ends1 = _stage(U, sc, system, max_speed)
        U_new *= dt
        U_new += U
        rhs2, c2, ends2 = _stage(U_new, sc, system, max_speed)
        rhs2 *= dt
        U_new += U
        U_new += rhs2
        U_new *= 0.5
        clipped = max(c1, c2)
        ends = None if ends1 is None else np.hstack([ends1, ends2])
    outflow = 0.0
    if ends is not None:
        # h v_x at each end face, once for all stages: outflow is the right
        # face's minus the left face's, averaged over the stages
        rho, p, Pi, vx = ends
        hv = entropy_terms(rho, p, Pi / p, sc.spec)[0] * vx
        outflow = float(hv[1] - hv[0])
        if len(hv) == 4:
            outflow = 0.5 * (outflow + float(hv[3] - hv[2]))
    w = system.decode(U_new, sc.spec)
    _require_window(w, sc.spec)
    return TransportStep(U_new, w, clipped, dt * outflow)


def relaxation_step_exact(U: np.ndarray, w: dict[str, np.ndarray], dt: float,
                          spec: GasSpec, rate=0.0) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Exact solution of dPi/dt = rate - Pi/tau over dt, rate held fixed.

    Holding F, F_i, G_ll (hence rho, v, eps, p) of U fixed, Pi starts from
    w["Pi"] and ends at Pi E + tau (1 - E) rate with E = exp(-dt/tau); F_ll
    is rebuilt as rho v^2 + 3 (p + Pi).  rate = 0 is the homogeneous
    relaxation Pi <- Pi E, under which admissibility can only improve since
    |Pi| shrinks toward 0.  w are the primitives of U, except that Pi may
    be that of an earlier state.  Returns the new data and its primitives,
    which differ from w only in Pi, so the caller need not decode it again.
    That Pi is read back from the new F_ll row, as primitive_fields would
    read it.
    """
    x = -dt / spec.tau
    Pi = w["Pi"] * math.exp(x) - spec.tau * math.expm1(x) * rate
    U_new = U.copy()
    U_new[-2] = momentum_flux_trace(w["rho_v2"], w["p"], Pi)
    Pi = dynamic_pressure(U_new[-2], w["rho_v2"], w["p"])
    return U_new, {**w, "Pi": Pi}


# ---------------------------------------------------------------------------
# time marching
# ---------------------------------------------------------------------------

def _record_diag(ts: TimeSeries, t: float, U: np.ndarray, w: dict[str, np.ndarray],
                 sc: Scenario, entropy_outflow: float):
    z = w["Pi"] / w["p"]
    h = entropy_terms(w["rho"], w["p"], z, sc.spec)[0]
    total = np.add.reduce
    ts.diag_t.append(t)
    ts.total_F.append(float(total(U[0])) * sc.dx)
    ts.total_Fx.append(float(total(U[1])) * sc.dx)
    ts.total_Gll.append(float(total(U[-1])) * sc.dx)
    ts.total_entropy.append(float(total(h)) * sc.dx)
    ts.max_abs_z.append(float(np.maximum.reduce(np.abs(z))))
    ts.projections.append(0)
    ts.entropy_outflow.append(entropy_outflow)


def _record_snapshot(ts: TimeSeries, t: float, w: dict[str, np.ndarray], spec: GasSpec):
    z = w["Pi"] / w["p"]
    h, k, _, _ = entropy_terms(w["rho"], w["p"], z, spec)
    snap = {key: w[key].copy() for key in ("rho", "vx", "T", "p", "Pi")}
    ts.snapshot_times.append(t)
    ts.snapshots.append({**snap, "Pi_over_p": z, "h": h, "k": k})


def _step(U: np.ndarray, w: dict[str, np.ndarray], dt: float, sc: Scenario, system: System,
          speed: float) -> tuple[np.ndarray, dict[str, np.ndarray], TransportStep]:
    """One time step of U, with primitives w, over dt; speed is the signal
    speed dt was chosen from.

    The exact relaxation over dt/2, the hyperbolic step, then the
    exponential update of Pi over the whole step from its initial value, at
    the rate S = (Pi after transport - Pi after the half step) / dt (see the
    module docstring).  Returns the new data, its primitives and the
    transport step; a cell outside the window raises SolverError naming it.
    """
    spec = sc.spec
    half, w_half = system.relax(U, w, 0.5 * dt, spec, 0.0)
    step = hyperbolic_step(half, dt, sc, system, speed)
    rate = (step.w["Pi"] - w_half["Pi"]) / dt
    U, w = system.relax(step.U, {**step.w, "Pi": w["Pi"]}, dt, spec, rate)
    _require_window(w, spec)
    return U, w, step


def _march(sc: Scenario, U: np.ndarray, system: System) -> TimeSeries:
    """Advance U to sc.t_end by _step, recording snapshots and per-step
    diagnostics.

    The time step honors the CFL bound and is clipped to land exactly on
    output-cadence times and on t_end.  A cell outside the window,
    initially or after a step, raises SolverError naming it.
    """
    spec = sc.spec
    slopes = U.size
    if not U[2:4].any():
        U = np.delete(U, (2, 3), axis=0)    # F_y = F_z = 0 stay 0 (module docstring)
    ts = TimeSeries(x=sc.centers)
    t = 0.0
    w = system.decode(U, spec)
    _require_window(w, spec, "initial Pi/p outside the window:")
    _record_diag(ts, t, U, w, sc, 0.0)
    _record_snapshot(ts, t, w, spec)
    next_out = sc.output_cadence if sc.output_cadence > 0 else sc.t_end
    for _ in range(10_000_000):
        if t >= sc.t_end - 1e-14 * sc.t_end:
            break
        try:
            speed = max_wave_speed(w, spec, system)
            dt = sc.cfl * sc.dx / speed
            dt = min(dt, sc.t_end - t, next_out - t if next_out > t else dt)
            U, w, step = _step(U, w, dt, sc, system, speed)
        except SolverError as err:
            raise SolverError(f"step from t = {t:.6g}: {err}") from err
        t += dt
        ts.limiter_fraction = max(ts.limiter_fraction, step.clipped / slopes)
        _record_diag(ts, t, U, w, sc, step.entropy_outflow)
        if t >= next_out - 1e-14 * max(next_out, 1.0):
            _record_snapshot(ts, t, w, spec)
            next_out = min(next_out + sc.output_cadence, sc.t_end) if sc.output_cadence > 0 else sc.t_end
            if next_out <= t:
                next_out = sc.t_end
    else:
        raise SolverError("step budget exhausted")
    if ts.snapshot_times[-1] < sc.t_end - 1e-12 * sc.t_end:
        _record_snapshot(ts, t, w, spec)
    return ts


def run_scenario(sc: Scenario, initial: np.ndarray | None = None) -> TimeSeries:
    """March a scenario of the six-field system to its end time.

    Each transport step sits between an exact relaxation half step and an
    exponential update of Pi over the whole step (see _step), so the
    stiff limit Pi = -nu dv/dx holds at transport time steps.
    `initial`, of shape (6, sc.N), overrides the scenario's built-in
    initial condition.
    """
    U = initial_grid(sc) if initial is None else np.asarray(initial, dtype=float)
    if U.shape != (6, sc.N):
        raise SolverError(f"initial data must have shape {(6, sc.N)}, got {U.shape}")
    return _march(sc, U, SIX_FIELD)


def euler_reference(sc: Scenario) -> TimeSeries:
    """Run the same kernel on the five-field equilibrium subsystem.

    The dynamic pressure is dropped entirely (lam_ll frozen at its
    equilibrium value); state rows are (F, F_x, F_y, F_z, G_ll), and the
    signal speed is the equilibrium sound speed sqrt((D+2) p / (D rho)).
    """
    return _march(sc, np.delete(initial_grid(sc), 4, axis=0), FIVE_FIELD)


# ---------------------------------------------------------------------------
# stiff-limit diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NsLimitReport:
    """Deviation of the computed Pi field from -nu dv/dx.

    Pointwise relative deviations are evaluated on the mask of cells whose
    target magnitude is at least mask_fraction of the field maximum (the
    relation is singular where dv/dx vanishes).
    """

    max_rel_deviation: float
    reduced_confidence: bool
    x: np.ndarray
    pi: np.ndarray
    target: np.ndarray


def ns_limit_diagnostic(ts: TimeSeries, sc: Scenario,
                        mask_fraction: float = 0.5) -> NsLimitReport:
    """Compare the last recorded Pi of a periodic run of sc with the
    first-order relaxation limit.

    The target is -nu dv/dx with nu = (2/3)((D-3)/D) p tau evaluated with
    the local pressure, dv/dx by central differences on the periodic grid
    of sc; a run with other ends raises SolverError.  A run whose limiter
    zeroed more than LIMITER_ACTIVITY_THRESHOLD of its slopes is flagged
    reduced_confidence.
    """
    if sc.boundary != "periodic":
        raise SolverError(f"the stiff-limit check needs periodic ends, got {sc.boundary!r}")
    snap = ts.snapshots[-1]
    vx = snap["vx"]
    pi = snap["Pi"]
    dvdx = (np.roll(vx, -1) - np.roll(vx, 1)) / (2.0 * sc.dx)
    target = -bulk_viscosity(snap["p"], sc.spec) * dvdx
    scale = float(np.max(np.abs(target)))
    if scale == 0.0:
        raise SolverError("no velocity gradient in the snapshot; nothing to compare")
    mask = np.abs(target) >= mask_fraction * scale
    dev = np.abs(pi - target)[mask] / np.abs(target)[mask]
    return NsLimitReport(
        max_rel_deviation=float(np.max(dev)),
        reduced_confidence=ts.limiter_fraction > LIMITER_ACTIVITY_THRESHOLD,
        x=ts.x.copy(),
        pi=pi.copy(),
        target=target,
    )
