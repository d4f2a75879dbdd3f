"""Closure identities over the whole (D, Z) window, by property-based tests.

States are drawn with D in [3.001, 12], Z = Pi/p up to 0.999 of both window
edges and any velocity in [-2, 2]^3.  The solver's slope limiter is checked
against its textbook definition on any finite pair, and its steps keep
two-state Riemann data inside the window at the CFL the guarantee rests on.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from et6.closure import (  # noqa: E402
    closed_fluxes,
    entropy_parts,
    multipliers_from_state,
    state_from_multipliers,
)
from et6.eigen import SYMMETRY_TOL, convexity_check  # noqa: E402
from et6.gas import (  # noqa: E402
    GasSpec,
    State6,
    conserved_from_primitive,
    primitive_from_conserved,
    window_bounds,
)
from et6.oracle import rel_err  # noqa: E402
from et6.solver import (  # noqa: E402
    SIX_FIELD,
    Scenario,
    _minmod,
    flux_fields,
    hyperbolic_step,
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
    return spec, State6(rho=1.0, v=v, T=1.0, Pi=z * spec.gas_constant)


def primitives_close(a: dict, b: dict, p: float, tol: float):
    """Each primitive within tol, relative to its own size floored at the
    state's scale: rho for rho, sqrt(p / rho) for velocities, p for p and Pi."""
    c = np.sqrt(p / b["rho"])
    floors = {"rho": b["rho"], "vx": c, "vy": c, "vz": c, "T": b["T"], "p": p, "Pi": p}
    for key, floor in floors.items():
        assert rel_err(a[key], b[key], floor=floor) <= tol, (key, a[key], b[key])


def point_primitives(s: State6, spec: GasSpec) -> dict:
    vx, vy, vz = s.v
    return {"rho": s.rho, "vx": vx, "vy": vy, "vz": vz, "T": s.T, "p": s.pressure(spec),
            "Pi": s.Pi}


@PROPERTY
@given(states())
def test_moment_map_round_trip(drawn):
    spec, s = drawn
    back = primitive_from_conserved(conserved_from_primitive(s, spec), spec)
    primitives_close(point_primitives(back, spec), point_primitives(s, spec),
                     s.pressure(spec), 1e-12)


@PROPERTY
@given(states())
def test_solver_columns_match_point_values(drawn):
    spec, s = drawn
    u = conserved_from_primitive(s, spec)
    U = u.as_array()[:, None]
    w = primitive_fields(U, spec)
    point = primitive_from_conserved(u, spec)
    column = {key: value[0] for key, value in w.items()}
    primitives_close(column, point_primitives(point, spec), point.pressure(spec), 1e-13)
    fl = closed_fluxes(point, spec)
    np.testing.assert_array_equal(fl.F_ik, fl.F_ik.T)
    expected = np.array([u.F_i[0], *fl.F_ik[:, 0], fl.F_llk[0], fl.G_llk[0]])
    flux = flux_fields(U, w)[:, 0]
    scale = np.max(np.abs(expected))
    for row, (a, b) in enumerate(zip(flux, expected)):
        assert rel_err(a, b, floor=scale) <= 1e-13, (row, a, b)


@PROPERTY
@given(states())
def test_multiplier_round_trip(drawn):
    spec, s = drawn
    p = s.pressure(spec)
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
    spec = GasSpec(D=draw(st.floats(3.001, 12.0)))
    return spec, {**draw(riemann_sides(spec, "left")), **draw(riemann_sides(spec, "right"))}


@PROPERTY
@pytest.mark.parametrize("scheme, limiter, cfl", [("rusanov", "minmod", 0.45),
                                                  ("muscl", "minmod", 0.25),
                                                  ("muscl", "none", 0.25)])
@given(riemann_problems())
def test_ten_steps_stay_admissible(scheme, limiter, cfl, drawn):
    spec, sides = drawn
    g = initial_grid(Scenario(kind="riemann", spec=spec, N=32, boundary="outflow", **sides))
    w = primitive_fields(g.U, spec)
    for _ in range(10):
        speed = max_wave_speed(w, spec, SIX_FIELD)
        dt = cfl * g.dx / speed
        g, w = relaxation_step_exact(g, w, 0.5 * dt, spec)
        step = hyperbolic_step(g, dt, spec, SIX_FIELD, scheme, limiter, speed)
        lower, upper = window_bounds(step.w["p"], spec.D)
        assert np.all(step.w["rho"] > 0.0)
        assert np.all((lower < step.w["Pi"]) & (step.w["Pi"] < upper))
        g, w = relaxation_step_exact(step.grid, step.w, 0.5 * dt, spec)
