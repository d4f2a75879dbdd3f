"""Closure identities over the whole (D, Z) window, by property-based tests.

States are drawn with D in [3.001, 12], Z = Pi/p up to 0.999 of both window
edges and any velocity in [-2, 2]^3; the validated kinetic oracle draws its
states closer to the edges and with rho and T in [0.1, 10], and the eigen
checks' stacked three-axis paths meet the one-direction path at rho and T
in [0.01, 100] up to 0.99 of the edges.  The solver's slope limiter is
checked against its textbook definition on any finite pair, and its steps
keep two-state Riemann data inside the window at the default CFL 0.45 of
either scheme, for tau from 1e-6 to 1.  The exponential update that
closes each step matches the Strang half step when dt << tau.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from et6.cli import ENTROPY_TOL, FLUX_TOL, MOMENT_TOL  # noqa: E402
from et6.closure import (  # noqa: E402
    closed_fluxes,
    entropy_parts,
    multipliers_from_state,
    state_from_multipliers,
)
from et6.eigen import (  # noqa: E402
    SYMMETRY_TOL,
    _df_dw,
    _du_dw,
    _entropy_derivatives,
    convexity_check,
    flux_jacobian,
)
from et6.gas import (  # noqa: E402
    GasSpec,
    InadmissibleStateError,
    State6,
    conserved_from_primitive,
    primitive_from_conserved,
    temperatures,
    window_bounds,
)
from et6.oracle import (  # noqa: E402
    oracle_constraint_check,
    oracle_entropy,
    oracle_flux_check,
    rel_err,
)
from et6.solver import (  # noqa: E402
    SIX_FIELD,
    Scenario,
    _minmod,
    _step,
    flux_fields,
    initial_grid,
    max_wave_speed,
    primitive_fields,
    relaxation_step_exact,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def states(draw):
    spec = GasSpec(D=draw(st.floats(3.001, 12.0)))
    edge = draw(st.floats(-0.999, 0.999))
    z = edge if edge < 0.0 else edge * spec.z_upper
    v = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    return spec, State6(rho=1.0, v=v, T=1.0, Pi=z)


def primitives_close(a: dict, b: dict, p: float, tol: float):
    """Each primitive within tol, relative to its own size floored at the
    state's scale: rho for rho, sqrt(p / rho) for velocities, p for p and Pi."""
    c = np.sqrt(p / b["rho"])
    floors = {"rho": b["rho"], "vx": c, "vy": c, "vz": c, "T": b["T"], "p": p, "Pi": p}
    for key, floor in floors.items():
        assert rel_err(a[key], b[key], floor=floor) <= tol, (key, a[key], b[key])


def point_primitives(s: State6, spec: GasSpec) -> dict:
    vx, vy, vz = s.v
    return {"rho": s.rho, "vx": vx, "vy": vy, "vz": vz, "T": s.T, "p": s.pressure(),
            "Pi": s.Pi}


@PROPERTY
@given(states())
def test_moment_map_round_trip(drawn):
    spec, s = drawn
    back = primitive_from_conserved(conserved_from_primitive(s, spec), spec)
    primitives_close(point_primitives(back, spec), point_primitives(s, spec),
                     s.pressure(), 1e-12)


@PROPERTY
@given(states())
def test_solver_columns_match_point_values(drawn):
    spec, s = drawn
    u = conserved_from_primitive(s, spec)
    U = u[:, None]
    w = primitive_fields(U, spec)
    point = primitive_from_conserved(u, spec)
    column = {key: value[0] for key, value in w.items()}
    column["T"] = column["p"] / column["rho"]       # as the snapshots form it
    primitives_close(column, point_primitives(point, spec), point.pressure(), 1e-13)
    f = closed_fluxes(point, spec)
    np.testing.assert_array_equal(f[:, 1:4], f[:, 1:4].T)
    expected = f[0]
    flux = flux_fields(U, w)[:, 0]
    scale = np.max(np.abs(expected))
    for row, (a, b) in enumerate(zip(flux, expected)):
        assert rel_err(a, b, floor=scale) <= 1e-13, (row, a, b)


@PROPERTY
@given(states())
def test_temperatures_decode_the_moments_and_are_the_window(drawn):
    # T_K = (F_ll - rho v^2)/(3 rho), T_I = (G_ll - F_ll)/((D-3) rho), each
    # within round-off of the rows it is read from; back to p and Pi
    spec, s = drawn
    t_k, t_i = temperatures(s, spec)
    F_ll, G_ll = conserved_from_primitive(s, spec)[4:].tolist()
    rho, p, dm3 = s.rho, s.pressure(), spec.D - 3.0
    rho_v2 = rho * float(np.dot(s.v, s.v))
    assert rel_err(t_k, (F_ll - rho_v2) / (3.0 * rho), floor=F_ll / (3.0 * rho)) <= 1e-15
    assert rel_err(t_i, (G_ll - F_ll) / (dm3 * rho), floor=G_ll / (dm3 * rho)) <= 1e-15
    assert rel_err(rho * (3.0 * t_k + dm3 * t_i) / spec.D, p) <= 1e-15
    assert rel_err(dm3 * rho * (t_k - t_i) / spec.D, s.Pi, floor=p) <= 1e-15
    # the solver's window is both temperatures positive, 1e-6 beyond and
    # within either edge too
    lower, upper = window_bounds(p, spec.D)
    for Pi in (s.Pi, lower * (1.0 + 1e-6), lower * (1.0 - 1e-6),
               upper * (1.0 - 1e-6), upper * (1.0 + 1e-6)):
        trial = State6(rho=s.rho, v=s.v, T=s.T, Pi=Pi)
        try:
            positive = min(temperatures(trial, spec)) > 0.0
        except InadmissibleStateError:
            positive = False
        inside = SIX_FIELD.inside(conserved_from_primitive(trial, spec)[:, None])
        assert bool(inside[0]) == positive == (lower < Pi < upper), Pi


@PROPERTY
@given(states())
def test_multiplier_round_trip(drawn):
    spec, s = drawn
    p = s.pressure()
    rho, ppi, rho_eps = state_from_multipliers(multipliers_from_state(s, spec), spec)
    assert rel_err(rho, s.rho) <= 1e-12
    assert rel_err(ppi, p + s.Pi) <= 1e-12
    assert rel_err(rho_eps, 0.5 * spec.D * p) <= 1e-12


@PROPERTY
@given(states())
def test_entropy_splits_into_equilibrium_part_and_nonpositive_k(drawn):
    spec, s = drawn
    parts = entropy_parts(s, spec)
    equilibrium = entropy_parts(State6(rho=s.rho, v=s.v, T=s.T, Pi=0.0), spec)
    assert rel_err(parts.h_E, equilibrium.h) <= 1e-12
    assert rel_err(parts.h, parts.h_E + s.rho * parts.k) <= 1e-12
    assert parts.k <= 0.0


@PROPERTY
@given(states())
def test_main_field_is_entropy_gradient_and_hessian_symmetrizes(drawn):
    spec, s = drawn
    report = convexity_check(conserved_from_primitive(s, spec), spec)
    assert report.gradient_ok, report
    assert report.hessian_negative_definite, report
    assert report.symmetrizer_mismatch <= SYMMETRY_TOL, report
    assert report.passed


@st.composite
def scaled_states(draw):
    """D in [3.01, 12], Z up to 0.99 of either window edge, rho and T
    log-uniformly in [0.01, 100] and v in [-2, 2]^3."""
    spec = GasSpec(D=draw(st.floats(3.01, 12.0)))
    edge = draw(st.floats(-0.99, 0.99))
    z = edge if edge < 0.0 else edge * spec.z_upper
    rho, T = (10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(2))
    v = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    return spec, State6(rho=rho, v=v, T=T, Pi=z * rho * T)


@PROPERTY
@given(scaled_states())
def test_stacked_axes_match_the_single_direction_path(drawn):
    # convexity_check builds df/dw of the three axes as one stack and forms
    # every H A_n in one stacked product; each must agree with the
    # one-direction path of flux_jacobian and wave_fan
    spec, s = drawn
    u = conserved_from_primitive(s, spec)
    s = primitive_from_conserved(u, spec)
    axes = np.eye(3)
    stacked = _df_dw(s, axes, spec)
    for k, n in enumerate(axes):
        assert stacked[k].tobytes() == _df_dw(s, (n,), spec)[0].tobytes(), k
    _, dmf = _entropy_derivatives(s, spec, *temperatures(s, spec), entropy_parts(s, spec).h)
    hess = np.linalg.solve(_du_dw(s, spec).T, dmf.T).T
    per_axis = []
    for n in axes:
        a_matrix = flux_jacobian(u, n, spec)
        ha = hess @ a_matrix
        per_axis.append(np.max(np.abs(ha - ha.T)) / np.max(np.abs(hess) @ np.abs(a_matrix)))
    reference = max(per_axis)
    assert abs(convexity_check(u, spec).symmetrizer_mismatch - reference) <= 1e-12 * reference


@st.composite
def oracle_states(draw):
    """Z at 0 to 0.999 of either edge, its distance to the edge drawn
    log-uniformly; rho and T log-uniformly in [0.1, 10]."""
    spec = GasSpec(D=draw(st.floats(3.001, 12.0)))
    fraction = 1.0 - 10.0 ** draw(st.floats(-3.0, 0.0))
    z = fraction * (spec.z_upper if draw(st.booleans()) else -1.0)
    rho, T = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2))
    v = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    return spec, State6(rho=rho, v=v, T=T, Pi=z * rho * T)


@PROPERTY
@given(oracle_states())
def test_validated_oracle_checks_are_finite_and_pass(drawn):
    # validation raises OracleError unless every Gauss value agrees with its
    # closed-form twin; each must also match its closed form at the `et6 check`
    # tolerances
    spec, s = drawn
    for reports, tol in ((oracle_constraint_check(s, spec), MOMENT_TOL),
                         (oracle_flux_check(s, spec), FLUX_TOL)):
        for r in reports:
            assert math.isfinite(r.quadrature) and r.rel_err <= tol, r
    h = oracle_entropy(s, spec)
    assert math.isfinite(h) and rel_err(h, entropy_parts(s, spec).h) <= ENTROPY_TOL


def textbook_minmod(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0 or (a > 0.0) != (b > 0.0):
        return 0.0
    return math.copysign(min(abs(a), abs(b)), a)


slopes = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0]))
slope_pairs = st.one_of(st.tuples(slopes, slopes), slopes.map(lambda a: (a, a)),
                        slopes.map(lambda a: (a, -a)))


@PROPERTY
@given(st.lists(slope_pairs, min_size=1, max_size=16))
def test_minmod_is_textbook_minmod(pairs):
    a, b = np.array(pairs).T
    assert _minmod(a, b).tolist() == [textbook_minmod(x, y) for x, y in pairs]


@st.composite
def riemann_sides(draw, spec: GasSpec, side: str) -> dict:
    """One constant state with Z at 0.9 to 0.999 of either window edge."""
    edge = draw(st.sampled_from([-1.0, spec.z_upper]))
    p = draw(st.floats(1e-3, 1e4))
    return {f"rho_{side}": draw(st.floats(0.1, 10.0)), f"p_{side}": p,
            f"v_{side}": draw(st.floats(-2.0, 2.0)),
            f"pi_{side}": draw(st.floats(0.9, 0.999)) * edge * p}


@st.composite
def riemann_problems(draw):
    spec = GasSpec(D=draw(st.floats(3.001, 12.0)), tau=10.0 ** draw(st.floats(-6.0, 0.0)))
    return spec, {**draw(riemann_sides(spec, "left")), **draw(riemann_sides(spec, "right"))}


@PROPERTY
@pytest.mark.parametrize("scheme, limiter, cfl", [("rusanov", "minmod", 0.45),
                                                  ("muscl", "minmod", 0.45),
                                                  ("muscl", "none", 0.45)])
@given(riemann_problems())
def test_ten_steps_stay_admissible(scheme, limiter, cfl, drawn):
    spec, sides = drawn
    sc = Scenario(kind="riemann", spec=spec, N=32, boundary="outflow", scheme=scheme,
                  limiter=limiter, cfl=cfl, **sides)
    U = initial_grid(sc)
    w = primitive_fields(U, spec)
    for _ in range(10):
        # the steps of solver._march
        speed = max_wave_speed(w, spec, SIX_FIELD)
        U, w, step = _step(U, w, sc.cfl * sc.dx / speed, sc, SIX_FIELD, speed)
        lower, upper = window_bounds(step.w["p"], spec.D)
        assert np.all(step.w["rho"] > 0.0)
        assert np.all((lower < step.w["Pi"]) & (step.w["Pi"] < upper))
        assert np.all((lower < w["Pi"]) & (w["Pi"] < upper))


@PROPERTY
@given(st.floats(3.001, 12.0), st.floats(-6.0, 0.0), st.floats(-4.0, -2.0),
       st.floats(-1.0, 1.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
       st.floats(-0.999, 0.999), st.floats(-0.999, 0.999))
def test_closing_update_matches_strang_when_dt_is_small(D, log_tau, log_ratio, log_rho, log_p,
                                                         vx, edge_n, edge_t):
    # one step from Pi^n, transported to Pi*: the exponential update differs
    # from the Strang half step Pi* e^(-dt/2tau) by dt^3 S / (24 tau^2)
    spec = GasSpec(D=D, tau=10.0 ** log_tau)
    dt = 10.0 ** log_ratio * spec.tau
    rho, p = 10.0 ** log_rho, 10.0 ** log_p

    def grid(edge):
        s = State6(rho=rho, v=[vx, 0.0, 0.0], T=p / rho,
                   Pi=(edge if edge < 0.0 else edge * spec.z_upper) * p)
        U = conserved_from_primitive(s, spec)
        return np.repeat(U[:, None], 4, axis=1)

    start, moved = grid(edge_n), grid(edge_t)
    w_n, w_t = primitive_fields(start, spec), primitive_fields(moved, spec)
    _, w_half = relaxation_step_exact(start, w_n, 0.5 * dt, spec)
    rate = (w_t["Pi"] - w_half["Pi"]) / dt
    _, strang = relaxation_step_exact(moved, w_t, 0.5 * dt, spec)
    _, closing = relaxation_step_exact(moved, {**w_t, "Pi": w_n["Pi"]}, dt, spec, rate)
    # round-off of the F_ll row, rho v^2 + 3 (p + Pi), and of the rate
    roundoff = 8.0 * np.finfo(float).eps * (rho * vx * vx + 3.0 * p + np.abs(w_n["Pi"])
                                            + np.abs(w_t["Pi"]))
    bound = dt**3 * np.abs(rate) / spec.tau**2 + roundoff
    assert np.all(np.abs(closing["Pi"] - strang["Pi"]) <= bound)
