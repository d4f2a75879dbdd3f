"""Point verdicts depend on D and Z = Pi/p alone, by property-based tests.

Each state is drawn at rho = T = 1 with D in [3.001, 12], Z up to 0.999 of
both window edges and v in [-2, 2]^3, then moved to other units and another
frame: rho and T scaled by factors in [1e-6, 1e6] (v by the square root of
the T factor, so the Mach numbers stay) and a Galilean boost of up to
5 sqrt(T) per component added.  The window check, the coupling condition
and the concavity verdict must not change, the multipliers xi and zeta must
scale as 1/T, and the main field must transform by boost_main_field.  The
closed-form concavity pivots are checked against an LDL^T factorization of
the numerical congruent Hessian, away from the window's edges.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from et6.closure import (  # noqa: E402
    boost_main_field,
    entropy_parts,
    main_field,
    multipliers_from_state,
)
from et6.eigen import (  # noqa: E402
    _du_dw,
    _entropy_derivatives,
    _hessian_pivots,
    convexity_check,
    k_condition,
)
from et6.gas import (  # noqa: E402
    GasSpec,
    State6,
    conserved_from_primitive,
    require_admissible,
    temperatures,
)
from et6.oracle import rel_err  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
EPS = np.finfo(float).eps


@st.composite
def moved_states(draw, equilibrium: bool = False):
    """(spec, z, base, moved, T factor): base at rho = T = 1, moved in other
    units and frame, both at Z = z."""
    spec = GasSpec(D=draw(st.floats(3.001, 12.0)))
    edge = 0.0 if equilibrium else draw(st.floats(-0.999, 0.999))
    z = edge if edge < 0.0 else edge * spec.z_upper
    v = np.array(draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3)))
    boost = np.array(draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)))
    rho, T = (10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2))
    base = State6(rho=1.0, v=v, T=1.0, Pi=z)
    moved = State6(rho=rho, v=math.sqrt(T) * (v + boost), T=T, Pi=z * (rho * T))
    return spec, z, base, moved, T


def window_gap(z: float, spec: GasSpec) -> float:
    """The smaller of 1 + Z and 1 - 3Z/(D-3), the relative distances of the
    two multipliers' denominators from zero."""
    return min(1.0 + z, 1.0 - 3.0 * z / (spec.D - 3.0))


@PROPERTY
@given(moved_states())
def test_window_check_is_invariant(drawn):
    spec, z, _, moved, _ = drawn
    assert abs(require_admissible(moved, spec) - z) <= 2.0 * EPS * abs(z)


@PROPERTY
@given(moved_states(equilibrium=True), st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_coupling_verdict_is_invariant(drawn, n):
    spec, _, base, moved, _ = drawn
    n = n if np.linalg.norm(n) > 1e-3 else (1.0, 0.0, 0.0)
    verdicts = []
    for s in (base, moved):
        report = k_condition(conserved_from_primitive(s, spec), n, spec)
        verdicts.append((report.overall_pass, report.marginal))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0]


@PROPERTY
@given(moved_states())
def test_concavity_verdict_is_invariant(drawn):
    spec, _, base, moved, _ = drawn
    reports = [convexity_check(conserved_from_primitive(s, spec), spec) for s in (base, moved)]
    assert reports[0].passed, reports[0]
    assert reports[1].passed, reports[1]


@PROPERTY
@given(moved_states())
def test_multipliers_scale_as_one_over_temperature(drawn):
    spec, z, base, moved, T = drawn
    at_base, at_moved = multipliers_from_state(base, spec), multipliers_from_state(moved, spec)
    tol = 4.0 * EPS / window_gap(z, spec)
    assert rel_err(at_moved.xi * T, at_base.xi) <= tol
    assert rel_err(at_moved.zeta * T, at_base.zeta) <= tol


@PROPERTY
@given(moved_states())
def test_main_field_transforms_by_the_boost(drawn):
    spec, z, _, moved, _ = drawn
    rest = State6(rho=moved.rho, v=0.0, T=moved.T, Pi=moved.Pi)
    direct = main_field(moved, spec).as_array()
    boosted = boost_main_field(main_field(rest, spec), moved.v).as_array()
    scale = np.max(np.abs(direct))
    assert np.max(rel_err(direct, boosted, floor=scale)) <= 32.0 * EPS / window_gap(z, spec)


def congruent_hessian(s: State6, spec: GasSpec) -> np.ndarray:
    """M = (du/dw')^T d(main field)/dw' for w' = (rho, v, q, r), from the
    numerical du/dw and d(main field)/dw, with p = (3 q + (D-3) r)/D and
    Pi = (D-3)(q - r)/D."""
    dm3 = spec.D - 3.0
    dw = np.eye(6)
    dw[4:, 4:] = np.array([[3.0, dm3], [dm3, -dm3]]) / spec.D
    _, dmf = _entropy_derivatives(s, spec, *temperatures(s, spec), entropy_parts(s, spec).h)
    return (_du_dw(s, spec) @ dw).T @ (dmf @ dw)


def ldl_pivots(m: np.ndarray) -> np.ndarray:
    """Diagonal of D in m = L D L^T, eliminating in the given order."""
    m = m.copy()
    pivots = []
    for k in range(len(m)):
        pivots.append(m[k, k])
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k], m[k, k + 1:]) / m[k, k]
    return np.array(pivots)


@PROPERTY
@given(st.floats(3.01, 12.0), st.floats(-0.9, 0.9), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_pivots_match_the_factorization_of_the_numerical_hessian(D, edge, log_rho, log_T, v):
    spec = GasSpec(D=D)
    z = edge if edge < 0.0 else edge * spec.z_upper
    rho, T = 10.0 ** log_rho, 10.0 ** log_T
    s = State6(rho=rho, v=math.sqrt(T) * np.array(v), T=T, Pi=z * rho * T)
    # v, q and r before rho, the order in which _hessian_pivots lists them
    m = congruent_hessian(s, spec)[np.ix_([1, 2, 3, 4, 5, 0], [1, 2, 3, 4, 5, 0])]
    np.testing.assert_allclose(ldl_pivots(m), _hessian_pivots(s, spec, *temperatures(s, spec)),
                               rtol=1e-11, atol=0)
