"""Closure identities over the whole (D, Z) window, by property-based tests.

States are drawn with D in [3.001, 12], Z = Pi/p up to 0.999 of both window
edges and any velocity in [-2, 2]^3.
"""

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
)
from et6.oracle import rel_err  # noqa: E402
from et6.solver import flux_fields, primitive_fields  # noqa: E402

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
