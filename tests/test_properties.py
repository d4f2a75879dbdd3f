"""Closure identities over the whole (D, Z) window, by property-based tests.

States are drawn with D in [3.001, 12], Z = Pi/p up to 0.999 of both window
edges and any velocity in [-2, 2]^3.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from et6.closure import entropy_parts, multipliers_from_state, state_from_multipliers  # noqa: E402
from et6.eigen import SYMMETRY_TOL, convexity_check  # noqa: E402
from et6.gas import GasSpec, State6, conserved_from_primitive  # noqa: E402
from et6.oracle import rel_err  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def states(draw):
    spec = GasSpec(D=draw(st.floats(3.001, 12.0)))
    edge = draw(st.floats(-0.999, 0.999))
    z = edge if edge < 0.0 else edge * spec.z_upper
    v = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    return spec, State6(rho=1.0, v=v, T=1.0, Pi=z * spec.gas_constant)


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
