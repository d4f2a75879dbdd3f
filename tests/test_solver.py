import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from et6 import solver as solver_module
from et6.closure import flux_rows
from et6.config import NsLimitConfig
from et6.eigen import et6_sound_speed
from et6.gas import D_MIN, GasSpec, energy_moment, momentum_flux_trace
from et6.solver import (
    BOUNDARIES,
    FIVE_FIELD,
    LIMITERS,
    SCHEMES,
    SIX_FIELD,
    Scenario,
    SolverError,
    bulk_viscosity,
    euler_reference,
    flux_fields,
    hyperbolic_step,
    initial_grid,
    max_wave_speed,
    ns_limit_diagnostic,
    primitive_fields,
    relaxation_step_exact,
    run_scenario,
)


def uniform_grid(spec, N=16, rho=1.0, T=1.0, vx=0.0, z=0.0):
    p = rho * T
    U = np.zeros((6, N))
    U[0] = rho
    U[1] = rho * vx
    U[4] = rho * vx**2 + 3.0 * (p + z * p)
    U[5] = rho * vx**2 + spec.D * p
    return U


def holding(U, spec, **fields):
    """A scenario on [0, 1] whose grid holds the cells of U."""
    return Scenario(spec=spec, N=U.shape[1], **fields)


def test_primitive_fields_match_point_conversions():
    from et6.gas import Conserved6, primitive_from_conserved

    spec = GasSpec(D=7.0)
    rng = np.random.default_rng(5)
    N = 32
    U = np.zeros((6, N))
    for j in range(N):
        rho = rng.uniform(0.2, 3.0)
        v = rng.uniform(-1, 1, size=3)
        T = rng.uniform(0.3, 2.0)
        z = rng.uniform(-0.8, 0.8 * spec.z_upper)
        p = rho * T
        v2 = float(np.dot(v, v))
        U[:, j] = [rho, rho * v[0], rho * v[1], rho * v[2],
                   rho * v2 + 3 * (p + z * p), rho * v2 + spec.D * p]
    w = primitive_fields(U, spec)
    # the decode leaves T to the snapshots
    ts = solver_module.TimeSeries(x=np.zeros(N))
    solver_module._record_snapshot(ts, 0.0, w, spec)
    T = ts.snapshots[0]["T"]
    for j in range(N):
        s = primitive_from_conserved(Conserved6.from_array(U[:, j]), spec)
        assert w["rho"][j] == pytest.approx(s.rho, rel=1e-13)
        assert w["vx"][j] == pytest.approx(s.v[0], rel=1e-13)
        assert w["p"][j] == pytest.approx(s.pressure(), rel=1e-12)
        assert T[j] == pytest.approx(s.T, rel=1e-12)
        assert w["Pi"][j] == pytest.approx(s.Pi, rel=1e-10, abs=1e-13)


def test_flux_fields_match_closed_fluxes():
    from et6.closure import closed_fluxes
    from et6.gas import State6

    spec = GasSpec(D=5.0)
    U = uniform_grid(spec, N=4, rho=1.2, T=0.8, vx=0.6, z=0.2)
    fl_arrays = flux_fields(U, primitive_fields(U, spec))
    s = State6(rho=1.2, v=[0.6, 0.0, 0.0], T=0.8, Pi=0.2 * 1.2 * 0.8)
    fl = closed_fluxes(s, spec)
    assert fl_arrays[1, 0] == pytest.approx(fl.F_ik[0, 0], rel=1e-14)
    assert fl_arrays[4, 0] == pytest.approx(fl.F_llk[0], rel=1e-14)
    assert fl_arrays[5, 0] == pytest.approx(fl.G_llk[0], rel=1e-14)


def test_entropy_fields_match_point_values():
    from et6.closure import entropy_parts, entropy_terms
    from et6.gas import State6

    spec = GasSpec(D=4.5)
    U = uniform_grid(spec, N=4, rho=0.7, T=1.1, z=-0.3)
    w = primitive_fields(U, spec)
    h, k, _, _ = entropy_terms(w["rho"], w["p"], w["Pi"] / w["p"], spec)
    parts = entropy_parts(State6(rho=0.7, v=0.0, T=1.1, Pi=-0.3 * 0.7 * 1.1), spec)
    assert h[0] == pytest.approx(parts.h, rel=1e-13)
    assert k[0] == pytest.approx(parts.k, rel=1e-13)


@pytest.mark.parametrize("scheme", ["rusanov", "muscl"])
def test_uniform_state_is_exact_steady_state(scheme):
    spec = GasSpec(D=5.0)
    U = uniform_grid(spec, vx=0.3, z=0.1)
    step = hyperbolic_step(U, 1e-3, holding(U, spec, scheme=scheme), SIX_FIELD)
    np.testing.assert_array_equal(step.U, U)


def test_decode_rejects_nan_state():
    spec = GasSpec(D=5.0)
    U = uniform_grid(spec)
    U[0, 3] = np.nan
    with pytest.raises(SolverError, match="density nan at index 3"):
        primitive_fields(U, spec)


def test_muscl_vacuum_rarefaction_stays_in_window():
    # two strong rarefactions would drive a reconstructed face state to
    # p + Pi < 0; its cell falls back to first order and the run completes
    spec = GasSpec(D=5.0)
    sc = Scenario(kind="riemann", spec=spec, N=400, boundary="outflow", t_end=0.15,
                  scheme="muscl", rho_left=1.0, rho_right=1.0, p_left=0.4, p_right=0.4,
                  v_left=-2.0, v_right=2.0)
    ts = run_scenario(sc)
    assert ts.diag_t[-1] == pytest.approx(sc.t_end, rel=1e-12)
    assert ts.limiter_fraction > 0.0
    for snap in ts.snapshots:
        assert np.all(snap["rho"] > 0.0)
        assert np.all((-1.0 < snap["Pi_over_p"]) & (snap["Pi_over_p"] < spec.z_upper))


def below_window(U, cells, spec):
    """U with p + Pi = -0.5 p in the given cells, at rest with rho = p = 1."""
    U = U.copy()
    U[:, cells] = uniform_grid(spec, N=1, z=-1.5)
    return U


def perturbed(U, cells):
    """U with its density, F_ll and G_ll raised by 30% in the given cells."""
    U = U.copy()
    U[[0, -2, -1], cells] *= 1.3
    return U


def test_rusanov_step_on_cell_below_window_raises_on_nan_face_speed():
    # p + Pi < 0 in a cell: its NaN wave speed must stop the step instead of
    # turning the flux into NaN, at the first such face of the whole grid,
    # under either scheme; numpy warns on the sqrt of p + Pi < 0
    spec = GasSpec(D=5.0)
    cases = [
        # p + Pi < 0 everywhere
        (uniform_grid(spec, z=-1.5), "periodic", 0),
        # a constant block below the window at the left end, away from a
        # perturbation: its first face lies beyond the span of changed cells
        (perturbed(below_window(uniform_grid(spec, N=32), slice(0, 10), spec), slice(26, 29)),
         "outflow", 0),
        # the block at the right end: its first face lies inside the span,
        # which starts past cell 0
        (perturbed(below_window(uniform_grid(spec, N=32), slice(22, 32), spec), slice(3, 6)),
         "outflow", 22),
    ]
    for U, boundary, cell in cases:
        for scheme in ("rusanov", "muscl"):
            sc = holding(U, spec, scheme=scheme, boundary=boundary)
            with pytest.raises(SolverError,
                               match=f"non-finite wave speed nan at the face left of cell {cell}$"), \
                    pytest.warns(RuntimeWarning, match="invalid value encountered in sqrt"):
                hyperbolic_step(U, 1e-3, sc, SIX_FIELD)


def test_zeroed_slope_count_includes_first_order_fallback_cells():
    # Pi at the upper window edge in cell 8 sends a face of it outside the
    # window, and max_speed below the fastest cells makes other faces outrun
    # it, among them a constant block at the right end, which reaches beyond
    # the span of changed cells: the count holds every slope of both kinds
    # of fallback cell beside those minmod zeroes, counted here from the
    # one-sided slopes of the whole grid
    spec = GasSpec(D=5.0)
    N, block = 40, 24
    j = np.arange(N)
    rho = np.where(j < block, 1.0 + 0.2 * np.sin(0.7 * j), 1.0)
    p = np.where(j < block, 1.0 + 0.5 * j / N, 1.0)
    vx = np.where(j < block, 0.1 * np.cos(0.5 * j), 2.0)
    Pi = np.where(j == 8, 0.999 * spec.z_upper, 0.0) * p
    U = np.zeros((6, N))
    U[0] = rho
    U[1] = rho * vx
    U[4] = rho * vx**2 + 3.0 * (p + Pi)
    U[5] = rho * vx**2 + spec.D * p
    sc = holding(U, spec, scheme="muscl", boundary="outflow")
    cell_speed = np.abs(vx) + et6_sound_speed(rho, p, Pi)
    max_speed = float(np.quantile(cell_speed[:block], 0.8))
    _, _, _, count, span = solver_module._reconstruct(U, sc, SIX_FIELD, max_speed)
    assert span[1] < N - 10

    Up = np.concatenate([U[:, :1], U[:, :1], U, U[:, -1:], U[:, -1:]], axis=1)
    bwd, fwd = Up[:, 1:-1] - Up[:, :-2], Up[:, 2:] - Up[:, 1:-1]
    cells = Up[:, 1:-1]
    half = 0.5 * np.where(bwd * fwd > 0.0, np.sign(bwd) * np.minimum(abs(bwd), abs(fwd)), 0.0)
    edges = np.stack([cells + half, cells - half], axis=1)
    F, F_x, F_ll, G_ll = edges[0], edges[1], edges[4], edges[5]
    outside = ~((F > 0.0) & (F * F_ll > F_x**2) & (G_ll > F_ll)).all(axis=0)
    assert np.flatnonzero(outside).tolist() == [9]      # cell 8, after the ghost
    edges[:, :, outside] = cells[:, None, outside]
    w = primitive_fields(edges, spec)
    fast = (np.abs(w["vx"]) + et6_sound_speed(w["rho"], w["p"], w["Pi"]) > max_speed).any(axis=0)
    assert (fast & ~outside).any() and not fast.all()
    assert fast[block + 1:].all()
    zeroed = (bwd * fwd <= 0.0) & ((bwd != 0.0) | (fwd != 0.0))
    zeroed[:, outside | fast] = True
    assert count == np.count_nonzero(zeroed)


@pytest.mark.parametrize("scheme, limiter", [("muscl", "minmod"), ("muscl", "none"),
                                             ("rusanov", "minmod")],
                         ids=["minmod", "none", "rusanov"])
def test_outflow_end_faces_take_the_boundary_cells(scheme, limiter):
    # zero-gradient ghosts: both states of an end face are the boundary
    # cell, whose h v_x is the outflow entropy flux, and a stage reads them
    # from the first and last columns of its edge decode, cells beyond the
    # span or inner ghosts where the span reaches an end.  A boundary cell
    # in the span keeps a zero slope, so its end face is the cell itself.
    # A moving light gas with Pi, and the dense state of Sod in the cells
    # listed, which bring the span to the left end, the right end, both
    # ends or neither
    spec = GasSpec(D=5.0)
    sc = Scenario(kind="riemann", spec=spec, N=12, boundary="outflow", scheme=scheme,
                  limiter=limiter)
    for dense, reaches in [((0,), (True, False)), ((11,), (False, True)),
                           ((0, 11), (True, True)), ((6,), (False, False))]:
        j = np.isin(np.arange(sc.N), dense)
        p = np.where(j, 1.0, 0.1)
        U = solver_module._pack(np.where(j, 1.0, 0.125), np.where(j, -0.2, 0.3), p, 0.1 * p,
                                spec)
        edges, _, _, count, (lo, hi) = solver_module._reconstruct(U, sc, SIX_FIELD, math.inf)
        assert (lo == 0, hi == sc.N) == reaches, dense
        if dense == (0,):
            assert (lo, hi) == (0, 3 if scheme == "muscl" else 2)
        if lo == 0:     # column 1 is cell 0
            assert edges[:, -1, 1].tobytes() == U[:, 0].tobytes(), dense
        if hi == sc.N:  # column -2 is cell N - 1
            assert edges[:, 0, -2].tobytes() == U[:, -1].tobytes(), dense
        ends = np.empty((4, 2))
        solver_module._stage(U, sc, SIX_FIELD, math.inf, ends)
        boundary = primitive_fields(U[:, [0, -1]], spec)
        expected = np.array([boundary[key] for key in ("rho", "p", "Pi", "vx")])
        assert ends.tobytes() == expected.tobytes(), dense
        if (scheme, limiter, dense) == ("muscl", "none", (0,)):
            # an unlimited slope (U2 - U0) / 4 gives cell 1 a right face
            # with rho < 0, so it alone falls back: its six slopes count,
            # the end slopes set to 0 do not
            assert count == U.shape[0]


@st.composite
def perturbed_backgrounds(draw):
    """U, gas and max_speed of a stage: a constant background within 90% of
    the window and a compact perturbation of any window states that touches
    the left end, the right end or neither, in the six-row, four-row
    (F_y = F_z = 0) or five-field layout; max_speed is inf or within a
    factor 2 of the background's signal speed.  A background at rest equals
    its mirror cells, so that reflective walls can lie beyond the span."""
    layout = draw(st.sampled_from(["six", "four", "five"]))
    spec = GasSpec(D=draw(st.floats(3.5, 9.0)))
    N = draw(st.integers(6, 40))

    def cells(n, margin, at_rest=False):
        rho = np.array(draw(st.lists(st.floats(0.2, 4.0), min_size=n, max_size=n)))
        T = np.array(draw(st.lists(st.floats(0.2, 4.0), min_size=n, max_size=n)))
        vx = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        vy = 0.0 if layout == "four" else draw(st.floats(-1.0, 1.0))
        if at_rest:
            vx, vy = 0.0 * vx, 0.0
        edge = np.array(draw(st.lists(st.floats(-margin, margin), min_size=n, max_size=n)))
        p = rho * T
        Pi = np.where(edge < 0.0, edge, edge * spec.z_upper) * p
        rho_v2 = rho * (vx * vx + vy * vy)
        return np.array([rho, rho * vx, rho * vy, np.zeros(n),
                         momentum_flux_trace(rho_v2, p, Pi), energy_moment(rho_v2, p, spec.D)])

    U = np.repeat(cells(1, 0.9, draw(st.booleans())), N, axis=1)
    width = draw(st.integers(1, N // 2))
    start = {"left": 0, "right": N - width,
             "neither": draw(st.integers(1, N - width - 1))}[draw(st.sampled_from(
                 ["left", "right", "neither"]))]
    U[:, start:start + width] = cells(width, 0.999)
    system = FIVE_FIELD if layout == "five" else SIX_FIELD
    U = {"six": U, "four": np.delete(U, (2, 3), axis=0), "five": np.delete(U, 4, axis=0)}[layout]
    w = system.decode(U, spec)
    speed = np.abs(w["vx"]) + system.sound_speed(w["rho"], w["p"], w["Pi"], spec)
    factor = draw(st.floats(0.5, 2.5))
    return U, spec, math.inf if factor > 2.0 else factor * float(speed[start - 1])


def wall_at_rest():
    """Cells at rest with F_x = -0.0 beside reflective walls, whose mirror
    cells hold +0.0, and a bump between them."""
    spec = GasSpec(D=5.0)
    U = uniform_grid(spec, N=20)
    U[1] = -0.0
    U[0, 9:11] = 1.3
    return U, spec, math.inf


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("scheme, limiter", [("rusanov", "minmod"), ("muscl", "minmod"),
                                             ("muscl", "none")])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perturbed_backgrounds())
@example(wall_at_rest())
def test_stage_on_its_span_matches_the_whole_grid(boundary, scheme, limiter, drawn):
    # the span changes no bit: rhs, the zeroed-slope count and the end-face
    # states of a stage on the span of changed cells are those of the same
    # stage given the whole grid as its span.  A zero rhs may differ in sign
    # only: beside a reflective wall an F_x = -0.0 and its mirror +0.0 are
    # equal cells, and the whole grid's Rusanov face fluxes there give -0.0
    U, spec, max_speed = drawn
    sc = Scenario(spec=spec, N=U.shape[1], boundary=boundary, scheme=scheme, limiter=limiter)
    system = FIVE_FIELD if U.shape[0] == 5 else SIX_FIELD
    ends, whole_ends = np.empty((4, 2)), np.empty((4, 2))
    rhs, count = solver_module._stage(U, sc, system, max_speed, ends)
    whole, whole_count = solver_module._stage(U, sc, system, max_speed, whole_ends, (0, sc.N))
    assert (rhs + 0.0).tobytes() == (whole + 0.0).tobytes()
    assert count == whole_count
    assert boundary != "outflow" or ends.tobytes() == whole_ends.tobytes()


@pytest.mark.parametrize("scheme", ["rusanov", "muscl"])
def test_step_without_zero_transverse_rows_matches_the_full_layout(scheme):
    # the kernel marches (F, F_x, F_ll, G_ll) while F_y = F_z = 0; a step
    # with faces outrunning max_speed (first-order cells) gives the same
    # bits, primitives and zeroed-slope count as the six-row step
    spec = GasSpec(D=5.0)
    sc = Scenario(kind="riemann", spec=spec, N=48, boundary="outflow", scheme=scheme,
                  pi_left=-0.9, pi_right=0.06, v_left=0.5)
    U = initial_grid(sc)
    speed = max_wave_speed(primitive_fields(U, spec), spec, SIX_FIELD)
    dt = 0.2 * sc.dx / speed
    full = hyperbolic_step(U, dt, sc, SIX_FIELD, 0.6 * speed)
    reduced = hyperbolic_step(np.delete(U, (2, 3), axis=0), dt, sc, SIX_FIELD, 0.6 * speed)
    assert not full.U[2:4].any()
    assert np.delete(full.U, (2, 3), axis=0).tobytes() == reduced.U.tobytes()
    assert reduced.clipped == full.clipped and (scheme == "rusanov" or full.clipped > 0)
    assert reduced.entropy_outflow == full.entropy_outflow
    for key, value in reduced.w.items():
        assert value.tobytes() == full.w[key].tobytes(), key


def test_muscl_face_faster_than_the_step_speed_falls_back():
    # unlimited slopes at a contact (density 4.47 | 0.1, equal pressure) put
    # faces near vacuum inside the window but up to 9x faster than the speed
    # dt came from; without the fallback a density turns negative at step 9
    spec = GasSpec(D=4.0)
    sc = Scenario(kind="riemann", spec=spec, N=32, boundary="outflow", t_end=0.02, cfl=0.25,
                  scheme="muscl", limiter="none", rho_left=4.46875, rho_right=0.1,
                  p_left=1.0, p_right=1.0, pi_left=0.3125, pi_right=0.3125)
    ts = run_scenario(sc)
    assert len(ts.diag_t) > 10
    assert np.all(ts.snapshots[-1]["rho"] > 0.0)


def test_single_sod_step_conserves_mass():
    spec = GasSpec(D=5.0, tau=1e-2)
    sc = Scenario(kind="riemann", spec=spec, N=200, boundary="outflow", t_end=0.1)
    U = initial_grid(sc)
    dt = 0.45 * sc.dx / max_wave_speed(primitive_fields(U, spec), spec, SIX_FIELD)
    U2 = hyperbolic_step(U, dt, sc, SIX_FIELD).U
    before = np.sum(U[0]) * sc.dx
    after = np.sum(U2[0]) * sc.dx
    assert abs(after - before) <= 1e-14 * before


def test_relaxation_identity_at_equilibrium():
    spec = GasSpec(D=5.0, tau=0.1)
    U = uniform_grid(spec, z=0.0)
    U2, _ = relaxation_step_exact(U, primitive_fields(U, spec), 0.05, spec)
    np.testing.assert_allclose(U2, U, rtol=0, atol=1e-15)


def test_relaxation_exact_exponential():
    spec = GasSpec(D=5.0, tau=0.1)
    U = uniform_grid(spec, z=0.3)  # p = 1, Pi = 0.3
    U2, _ = relaxation_step_exact(U, primitive_fields(U, spec), 0.1, spec)
    w = primitive_fields(U2, spec)
    assert w["Pi"][0] == pytest.approx(0.3 / math.e, rel=1e-14)
    # rho, v, p untouched
    assert w["rho"][0] == 1.0
    assert w["p"][0] == pytest.approx(1.0, rel=1e-14)


def test_relaxation_semigroup_composition():
    spec = GasSpec(D=5.0, tau=0.07)
    U = uniform_grid(spec, z=-0.5)
    dt = 0.033
    one, _ = relaxation_step_exact(U, primitive_fields(U, spec), dt, spec)
    half, _ = relaxation_step_exact(U, primitive_fields(U, spec), dt / 2, spec)
    two, _ = relaxation_step_exact(half, primitive_fields(half, spec), dt / 2, spec)
    np.testing.assert_allclose(two, one, rtol=1e-14)


def test_relaxation_at_a_frozen_rate_reaches_tau_times_rate():
    # dt >> tau: Pi forgets its start and settles on tau S, the stiff limit
    spec = GasSpec(D=5.0, tau=1e-4)
    U = uniform_grid(spec, vx=0.4, z=-0.5)
    _, w = relaxation_step_exact(U, primitive_fields(U, spec), 0.1, spec, rate=2.0)
    np.testing.assert_allclose(w["Pi"], 2.0 * spec.tau, rtol=1e-12)


def test_relaxation_returns_primitives_of_new_grid():
    spec = GasSpec(D=5.0, tau=0.07)
    U = uniform_grid(spec, vx=0.4, z=-0.5)
    U2, w2 = relaxation_step_exact(U, primitive_fields(U, spec), 0.033, spec)
    decoded = primitive_fields(U2, spec)
    assert w2.keys() == decoded.keys()
    for key, value in decoded.items():
        np.testing.assert_array_equal(w2[key], value, err_msg=key)


@pytest.mark.parametrize("run, decode", [(run_scenario, "primitive_fields"),
                                         (euler_reference, "_decode")])
def test_one_cell_decode_per_muscl_step(run, decode, monkeypatch):
    # per step: the edge states of both stages and the post-transport cells;
    # the source substep hands back its primitives, so the step ends decoded
    calls = []
    original = getattr(solver_module, decode)
    monkeypatch.setattr(solver_module, decode,
                        lambda *args: calls.append(1) or original(*args))
    ts = run(Scenario(kind="smooth_wave", N=32, t_end=0.05, scheme="muscl"))
    steps = len(ts.diag_t) - 1
    assert steps > 0
    assert len(calls) == 3 * steps + 1


def decode_widths(run, sc, monkeypatch):
    """The steps of a run of sc, the width of each edge-state decode,
    counted around primitive_fields, and how many of those decodes were
    repeats: a stage decodes its edge states again after faces that
    outran the step's speed fall back to first order."""
    widths, cell_decodes, last = [], [], [None]
    repeats = 0
    original = solver_module.primitive_fields

    def counted(U, spec):
        nonlocal repeats
        if U.ndim == 3:
            repeats += U is last[0]
            widths.append(U.shape[-1])
            last[0] = U
        else:
            cell_decodes.append(U.shape[-1])
        return original(U, spec)

    monkeypatch.setattr(solver_module, "primitive_fields", counted)
    steps = len(run(sc).diag_t) - 1
    # the cells once per step and at the start, the edge states once per stage
    assert steps > 0 and len(cell_decodes) == steps + 1
    assert len(widths) - repeats == 2 * steps
    return steps, np.array(widths), repeats


# mean width of the edge decodes of the Sod run below: measured 55.96 of the
# N + 2 = 202 a whole-grid decode takes, bounded 10% above
SOD_EDGE_WIDTH_BOUND = 61.6


def test_muscl_stage_decodes_only_the_span_of_changed_cells(monkeypatch):
    # Sod at N = 200: a stage decodes its span, the cells whose stencil holds
    # two unequal cells, and the cell beyond each end of it; still 3 decodes
    # per step
    sc = Scenario(kind="riemann", N=200, boundary="outflow", t_end=0.05, scheme="muscl")
    steps, widths, repeats = decode_widths(run_scenario, sc, monkeypatch)
    assert repeats == 4     # as on the whole grid: 3 decodes per step, plus these
    assert widths.mean() < SOD_EDGE_WIDTH_BOUND
    # a smooth periodic wave changes every cell: the span is the whole grid,
    # ghosts included
    sc = Scenario(kind="smooth_wave", N=64, t_end=0.05, scheme="muscl")
    steps, widths, repeats = decode_widths(run_scenario, sc, monkeypatch)
    assert repeats == 0 and widths.tolist() == [sc.N + 2] * (2 * steps)


@pytest.mark.parametrize("tau", [1.0, 0.1, 1e-3])
def test_homogeneous_relaxation_matches_ode(tau):
    spec = GasSpec(D=5.0, tau=tau)
    t_end = min(1.0, 10.0 * tau)
    sc = Scenario(kind="uniform_relaxation", spec=spec, N=50, t_end=t_end,
                  output_cadence=t_end / 10.0, z0=0.3)
    ts = run_scenario(sc)
    assert len(ts.snapshot_times) >= 10
    p_scale = 1.0
    for t, snap in zip(ts.snapshot_times, ts.snapshots):
        exact = 0.3 * p_scale * math.exp(-t / tau)
        assert np.max(np.abs(snap["Pi"] - exact)) <= 1e-12 * p_scale


def test_uniform_relaxation_exact_at_steps_beyond_tau():
    # dt = 10 tau: no gradient, so the transport rate of Pi is exactly 0 and
    # the closing update is the exact exponential, step by step
    tau = 5e-4
    spec = GasSpec(D=5.0, tau=tau)
    sc = Scenario(kind="uniform_relaxation", spec=spec, N=50, t_end=40.0 * tau,
                  output_cadence=10.0 * tau, z0=0.3)
    ts = run_scenario(sc)
    assert np.all(np.diff(ts.diag_t) >= 10.0 * tau * (1.0 - 1e-12))
    assert len(ts.snapshot_times) == 5   # one per step, p = 1
    for time_, snap in zip(ts.snapshot_times, ts.snapshots):
        assert np.max(np.abs(snap["Pi"] - 0.3 * math.exp(-time_ / tau))) <= 1e-12


def _boundary_flux(rho: float, v: float, p: float, pi: np.ndarray, D: float) -> np.ndarray:
    """x-flux of (F, F_x, G_ll) for a constant state, one column per Pi."""
    g_ll = rho * v * v + D * p
    return np.vstack([np.full_like(pi, rho * v), rho * v * v + p + pi,
                      (g_ll + 2.0 * (p + pi)) * v])


def test_outflow_totals_follow_boundary_fluxes_at_step_midpoints():
    # Pi/p at 90% of both window edges, tau = 1: until the waves reach them,
    # the end cells keep rho, v and p and relax Pi = Pi_0 exp(-t/tau), and
    # each transport step sees them at its midpoint t_n + dt_n / 2, so the
    # totals move by dt_n times the boundary-flux difference there.  A
    # relaxation moved inside the SSP stages breaks this at about 1e-8.
    spec = GasSpec(D=5.0, tau=1.0)
    sc = Scenario(kind="riemann", spec=spec, N=100, boundary="outflow", t_end=0.15,
                  scheme="muscl", limiter="minmod", pi_left=-0.9, pi_right=0.6,
                  rho_right=1.0, p_right=1.0)
    ts = run_scenario(sc)
    t = np.array(ts.diag_t)
    dt = np.diff(t)
    decay = np.exp(-(t[:-1] + 0.5 * dt) / spec.tau)
    flux_in = (_boundary_flux(sc.rho_left, sc.v_left, sc.p_left, sc.pi_left * decay, spec.D)
               - _boundary_flux(sc.rho_right, sc.v_right, sc.p_right, sc.pi_right * decay,
                                spec.D))
    totals = np.array([ts.total_F, ts.total_Fx, ts.total_Gll])
    expected = totals[:, :1] + np.hstack([np.zeros((3, 1)), np.cumsum(flux_in * dt, axis=1)])
    mass, energy = np.max(np.abs(totals[0])), np.max(np.abs(totals[2]))
    scale = np.array([mass, math.sqrt(mass * energy), energy])
    drift = np.max(np.abs(totals - expected), axis=1) / scale
    assert len(t) > 20 and np.all(drift <= 1e-12), drift


def test_sod_entropy_nondecreasing_every_step():
    spec = GasSpec(D=5.0, tau=1e-3)
    sc = Scenario(kind="riemann", spec=spec, N=200, t_end=0.15, boundary="outflow")
    ts = run_scenario(sc)
    h = np.array(ts.total_entropy)
    assert np.min(np.diff(h)) >= -1e-10 * abs(h[0])


def test_periodic_conservation_thousand_steps():
    spec = GasSpec(D=5.0, tau=1e-2)
    sc = Scenario(kind="smooth_wave", spec=spec, N=100, t_end=3.2, amplitude=1e-2)
    ts = run_scenario(sc)
    assert len(ts.diag_t) > 1000
    for series in (ts.total_F, ts.total_Fx, ts.total_Gll):
        arr = np.array(series)
        scale = max(abs(arr[0]), float(np.max(np.abs(arr))))
        assert np.max(np.abs(arr - arr[0])) <= 1e-13 * scale


def _trace_moment_totals(ts, sc):
    """Total F_ll = rho v^2 + 3 (p + Pi) of each snapshot."""
    return np.array([np.sum(s["rho"] * s["vx"] ** 2 + 3.0 * (s["p"] + s["Pi"])) * sc.dx
                     for s in ts.snapshots])


def test_trace_moment_obeys_discrete_production_balance():
    # d(total F_ll)/dt = total P_ll; with the exact relaxation substep the
    # discrete balance is sum Delta F_ll = 3 (p + Pi)(e^-dt/tau - 1) summed
    spec = GasSpec(D=5.0, tau=0.05)
    sc = Scenario(kind="uniform_relaxation", spec=spec, N=50, t_end=0.2, z0=0.3,
                  output_cadence=0.01)
    ts = run_scenario(sc)
    assert len(ts.snapshots) >= 20
    # no gradients: F_ll(t) - F_ll(0) = 3 (Pi(t) - Pi(0)) * volume
    f_ll = _trace_moment_totals(ts, sc)
    t = np.array(ts.snapshot_times)
    exact = f_ll[0] + 3.0 * 0.3 * (np.exp(-t / 0.05) - 1.0)
    np.testing.assert_allclose(f_ll, exact, rtol=1e-12)


def test_transport_alone_conserves_trace_moment():
    # with the production switched off (huge tau) the periodic hyperbolic
    # update must conserve total F_ll to round-off, so the only source of
    # total F_ll change in a real run is the relaxation substep
    spec = GasSpec(D=5.0, tau=1e12)
    sc = Scenario(kind="smooth_wave", spec=spec, N=100, t_end=1.0, amplitude=1e-2,
                  output_cadence=0.05)
    ts = run_scenario(sc)
    assert len(ts.snapshots) >= 20
    arr = _trace_moment_totals(ts, sc)
    assert np.max(np.abs(arr - arr[0])) <= 1e-13 * abs(arr[0])


@pytest.mark.parametrize("scheme,limiter,threshold", [
    ("rusanov", "minmod", 0.9),
    ("muscl", "minmod", 1.8),
])
def test_smooth_wave_convergence_order(scheme, limiter, threshold):
    spec = GasSpec(D=5.0, tau=1e-2)
    sols = {}
    for N in (100, 200, 400):
        sc = Scenario(kind="smooth_wave", spec=spec, N=N, t_end=0.3, amplitude=1e-2,
                      cfl=0.4, scheme=scheme, limiter=limiter)
        sols[N] = run_scenario(sc).snapshots[-1]["rho"]

    def restrict(f):
        return 0.5 * (f[0::2] + f[1::2])

    e1 = np.mean(np.abs(restrict(sols[200]) - sols[100]))
    e2 = np.mean(np.abs(restrict(sols[400]) - sols[200]))
    assert math.log2(e1 / e2) >= threshold


def test_step_ending_outside_window_raises():
    # Pi = p in cell 5 lies above (D - 3) p / 3; a step that ends there
    # raises naming the cell instead of editing the state
    spec = GasSpec(D=5.0)
    U = uniform_grid(spec, N=8, z=0.0)
    U[4, 5] = 3.0 * (1.0 + 1.0)
    with pytest.raises(SolverError, match="^Pi/p outside the window: 1 at index 5$"):
        hyperbolic_step(U, 1e-9, holding(U, spec), SIX_FIELD)


def test_run_aborts_on_mass_projection():
    # an initial state far outside the window on every cell is rejected
    # before the t = 0 diagnostics, at its first cell
    spec = GasSpec(D=5.0, tau=1e9)
    sc = Scenario(kind="uniform_relaxation", spec=spec, N=50, t_end=0.1, z0=0.3)
    U = initial_grid(sc)
    U[4, :] = 3.0 * (1.0 + 2.0)  # Pi = 2 p, far above (D-3)/3 = 2/3
    with pytest.raises(SolverError, match="initial Pi/p outside the window: 2 at index 0$"):
        run_scenario(sc, initial=U)


def test_run_rejects_one_inadmissible_initial_cell():
    # one cell at Pi = 2 p: once a NaN entropy at t = 0 and a completed run
    spec = GasSpec(D=5.0, tau=1e9)
    sc = Scenario(kind="uniform_relaxation", spec=spec, N=200, t_end=0.1, z0=0.3)
    U = initial_grid(sc)
    U[4, 7] = 9.0
    with pytest.raises(SolverError, match="outside the window: 2 at index 7$"):
        run_scenario(sc, initial=U)


def test_scenario_rejects_too_few_cells():
    with pytest.raises(SolverError, match="need at least 4 cells, got 2"):
        Scenario(N=2)


def test_cfl_bound_dominates_wave_fan():
    from et6.eigen import wave_fan
    from et6.gas import Conserved6

    spec = GasSpec(D=12.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = rng.uniform(0.3, 2.0)
        T = rng.uniform(0.3, 2.0)
        vx = rng.uniform(-1.5, 1.5)
        z = rng.uniform(-0.9, 0.95 * spec.z_upper)
        p = rho * T
        U = np.zeros((6, 4))
        U[0] = rho
        U[1] = rho * vx
        U[4] = rho * vx**2 + 3 * (p + z * p)
        U[5] = rho * vx**2 + spec.D * p
        bound = max_wave_speed(primitive_fields(U, spec), spec, SIX_FIELD)
        fan = wave_fan(Conserved6.from_array(U[:, 0]), [1, 0, 0], spec)
        assert bound >= np.max(np.abs(fan.speeds))


def test_cfl_bound_covers_pi_relaxing_toward_zero():
    # Pi/p = -0.99 on both sides: the relaxation half step before the
    # transport moves Pi toward 0, which raises c up to tenfold, so the
    # bound must take c at max(Pi, 0) or the first step empties a cell
    spec = GasSpec(D=5.0, tau=1e-3)
    sc = Scenario(kind="riemann", spec=spec, N=64, boundary="outflow", t_end=0.05,
                  scheme="rusanov", pi_left=-0.99, pi_right=-0.099)
    ts = run_scenario(sc)
    assert ts.diag_t[-1] == pytest.approx(sc.t_end, rel=1e-12)
    assert np.all(ts.snapshots[-1]["rho"] > 0.0)


def test_window_lemma_holds_at_the_signal_speed():
    # u -+ f/a lies in the window for every state u in it once a >= |v_x| + c,
    # so a Rusanov update at dt a / dx <= 1 is a convex combination of window
    # states (the solver module's docstring).  Z comes within 1e-6 of the
    # width of [-1, 0] or [0, (D-3)/3] from either edge, |v_x| up to 5 sqrt(p/rho)
    rng = np.random.default_rng(25)
    n = 100_000
    D = rng.uniform(D_MIN, 12.0, n)
    gap = 10.0 ** rng.uniform(-6.0, 0.0, n)
    z = np.where(rng.random(n) < 0.5, gap - 1.0, (1.0 - gap) * (D - 3.0) / 3.0)
    rho, p = 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
    v = rng.uniform(-5.0, 5.0, (3, n)) * np.sqrt(p / rho)
    Pi = z * p
    rho_v2 = rho * np.sum(v * v, axis=0)
    U = np.array([rho, *(rho * v), momentum_flux_trace(rho_v2, p, Pi),
                  energy_moment(rho_v2, p, D)])
    assert np.all(SIX_FIELD.inside(U))
    f = flux_rows(U[1:4], U[5], rho_v2, p + Pi, v[0], 0)
    a = np.abs(v[0]) + et6_sound_speed(rho, p, Pi)
    assert np.all(SIX_FIELD.inside(U - f / a))
    assert np.all(SIX_FIELD.inside(U + f / a))


def test_ns_limit_diagnostic_formula():
    spec = GasSpec(D=5.0, tau=1.0)
    assert bulk_viscosity(1.0, spec) == pytest.approx(4.0 / 15.0, rel=1e-15)


def test_ns_limit_diagnostic_needs_periodic_ends():
    # `et6 nslimit` runs periodic waves only; dv/dx is a periodic difference
    sc = Scenario(kind="smooth_wave", N=16, boundary="outflow", t_end=0.05)
    with pytest.raises(SolverError, match="needs periodic ends, got 'outflow'"):
        ns_limit_diagnostic(run_scenario(sc), sc)


@pytest.mark.parametrize("x_split", [1.5, -0.2, 0.0, 1.0])
def test_riemann_split_outside_the_domain_is_rejected(x_split):
    # a split at or beyond an end would run one uniform state
    with pytest.raises(SolverError, match="split point .* outside the domain"):
        Scenario(kind="riemann", x_split=x_split)
    Scenario(kind="smooth_wave", x_split=x_split)   # read by riemann runs only


def test_ns_limit_smooth_acoustic_run():
    spec = GasSpec(D=5.0, tau=1e-3)
    sc = Scenario(kind="smooth_wave", spec=spec, N=400, x_right=8.0,
                  t_end=0.75, amplitude=1e-3, cfl=0.02, scheme="muscl",
                  limiter="minmod")
    ts = run_scenario(sc)
    rep = ns_limit_diagnostic(ts, sc)
    assert rep.max_rel_deviation <= 10.0 * spec.tau
    assert not rep.reduced_confidence


def test_ns_limit_is_reached_from_pi_zero_in_two_steps():
    # the default `et6 nslimit` wave starts at Pi = 0 and steps at dt = 3.5
    # tau: the closing update leaves e^(-dt/tau), about 3%, of the initial
    # gap to -nu dv/dx after one step, and the relation holds after two
    sc = NsLimitConfig().scenario(GasSpec())
    U = initial_grid(sc)
    w = primitive_fields(U, sc.spec)
    assert np.max(np.abs(w["Pi"])) <= 1e-15   # Pi = 0, read back from F_ll
    dt = sc.cfl * sc.dx / max_wave_speed(w, sc.spec, SIX_FIELD)
    bound = 10.0 * sc.spec.tau
    deviations = []
    for steps in (1, 2):
        run = replace(sc, t_end=steps * dt)
        ts = run_scenario(run)
        assert len(ts.diag_t) - 1 == steps
        deviations.append(ns_limit_diagnostic(ts, run).max_rel_deviation)
    assert bound < deviations[0] <= math.exp(-dt / sc.spec.tau) + bound
    assert deviations[1] <= bound


def test_ns_limit_monatomic_collapse():
    # nu ~ (D-3): both the coefficient and the measured Pi vanish
    pis = []
    nus = []
    for D in (3.0 + 1e-6, 3.5, 5.0):
        spec = GasSpec(D=D, tau=1e-3)
        sc = Scenario(kind="smooth_wave", spec=spec, N=200, x_right=8.0,
                      t_end=0.4, amplitude=1e-3, cfl=0.05,
                      scheme="muscl")
        ts = run_scenario(sc)
        nus.append(bulk_viscosity(1.0, spec))
        pis.append(float(np.max(np.abs(ts.snapshots[-1]["Pi"]))))
    assert nus[0] < 1e-9 and pis[0] < 1e-11
    assert pis[0] < pis[1] < pis[2]


def test_euler_reference_steady_uniform():
    spec = GasSpec(D=5.0, tau=1e-2)
    sc = Scenario(kind="uniform_relaxation", spec=spec, N=50, t_end=0.05, z0=0.0)
    ts = euler_reference(sc)
    rho0 = ts.snapshots[0]["rho"]
    rho1 = ts.snapshots[-1]["rho"]
    np.testing.assert_array_equal(rho0, rho1)


def test_monatomic_limit_matches_euler():
    spec = GasSpec(D=3.0 + 1e-6, tau=1e-2)
    sc = Scenario(kind="smooth_wave", spec=spec, N=200, t_end=0.4, amplitude=1e-2,
                  cfl=0.45, scheme="rusanov")
    ts = run_scenario(sc)
    eu = euler_reference(sc)
    for name in ("rho", "vx", "T"):
        diff = np.sum(np.abs(ts.snapshots[-1][name] - eu.snapshots[-1][name])) * sc.dx
        assert diff <= 1e-6


def test_riemann_et6_approaches_euler_for_small_tau():
    spec = GasSpec(D=5.0, tau=1e-3)
    sc = Scenario(kind="riemann", spec=spec, N=400, t_end=0.15, boundary="outflow")
    ts = run_scenario(sc)
    eu = euler_reference(sc)
    rho_et6 = ts.snapshots[-1]["rho"]
    rho_eu = eu.snapshots[-1]["rho"]
    # L1 distance, allowing up to two cells of shift
    best = min(
        float(np.sum(np.abs(np.roll(rho_et6, shift) - rho_eu))) * sc.dx
        for shift in range(-2, 3)
    )
    assert best <= 1e-2


def test_reflective_walls_conserve_mass():
    # mirrored ghosts with flipped normal momentum give exactly zero mass
    # flux through the walls
    spec = GasSpec(D=5.0, tau=1e-2)
    sc = Scenario(kind="smooth_wave", spec=spec, N=100, t_end=0.3, amplitude=1e-2,
                  boundary="reflective", scheme="muscl")
    ts = run_scenario(sc)
    arr = np.array(ts.total_F)
    assert np.max(np.abs(arr - arr[0])) <= 1e-13 * abs(arr[0])


def test_scenario_validation():
    with pytest.raises(SolverError):
        Scenario(cfl=1.5)
    with pytest.raises(SolverError):
        Scenario(t_end=-1.0)
    with pytest.raises(SolverError):
        Scenario(kind="warp")
    with pytest.raises(SolverError):
        Scenario(scheme="weno5")


def test_run_rejects_initial_data_of_another_shape():
    sc = Scenario(N=16)
    with pytest.raises(SolverError, match=r"^initial data must have shape \(6, 16\), "
                                          r"got \(6, 15\)$"):
        run_scenario(sc, initial=np.ones((6, sc.N - 1)))


def test_snapshot_x_is_where_the_initial_data_were_built():
    # the x written beside every snapshot is the centre each cell's initial
    # value was sampled at, bit for bit
    sc = Scenario(kind="smooth_wave", N=200, x_right=8.0, t_end=0.05)
    expected = sc.x_left + (np.arange(sc.N) + 0.5) * (sc.x_right - sc.x_left) / sc.N
    np.testing.assert_array_equal(run_scenario(sc).x, expected)
