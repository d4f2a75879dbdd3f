from dataclasses import fields

import numpy as np
import pytest

from et6.gas import (
    Conserved6,
    GasModelError,
    GasSpec,
    InadmissibleStateError,
    ReconstructionError,
    State6,
    admissibility,
    conserved_from_primitive,
    eos_evaluate,
    primitive_from_conserved,
)


@pytest.fixture
def d5():
    return GasSpec(D=5.0)


def test_eos_identity_scale(d5):
    p, eps = eos_evaluate(1.0, 1.0, d5)
    assert p == 1.0
    assert eps == 2.5


def test_eos_scaled_inputs(d5):
    p, eps = eos_evaluate(2.0, 0.5, d5)
    assert p == pytest.approx(1.0, rel=1e-15)
    assert eps == pytest.approx(1.25, rel=1e-15)


def test_eos_d7():
    p, eps = eos_evaluate(1.0, 1.0, GasSpec(D=7.0))
    assert p == 1.0
    assert eps == 3.5


def test_eos_rejects_nonpositive(d5):
    with pytest.raises(GasModelError):
        eos_evaluate(-1.0, 1.0, d5)
    with pytest.raises(GasModelError):
        eos_evaluate(1.0, 0.0, d5)


def test_gas_spec_invariants():
    assert GasSpec(D=5).alpha == 0.0
    assert GasSpec(D=7).alpha == 1.0
    with pytest.raises(GasModelError):
        GasSpec(D=3.0)
    with pytest.raises(GasModelError):
        GasSpec(D=2.9)
    with pytest.raises(GasModelError):
        GasSpec(D=5, tau=0.0)
    # units kB = m = 1: neither is a parameter
    assert [f.name for f in fields(GasSpec)] == ["D", "tau"]
    for key in ("m", "kB"):
        with pytest.raises(TypeError):
            GasSpec(D=5, **{key: 2.0})


def test_conserved_equilibrium_rest(d5):
    u = conserved_from_primitive(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), d5)
    assert u.F == 1.0
    assert np.all(u.F_i == 0.0)
    assert u.G_ll == pytest.approx(5.0, rel=1e-15)
    assert u.F_ll == pytest.approx(3.0, rel=1e-15)


def test_conserved_moving_nonequilibrium(d5):
    u = conserved_from_primitive(State6(rho=1.0, v=[1.0, 0.0, 0.0], T=1.0, Pi=0.1), d5)
    assert u.F == 1.0
    assert u.F_i[0] == pytest.approx(1.0, rel=1e-15)
    assert u.G_ll == pytest.approx(6.0, rel=1e-15)
    assert u.F_ll == pytest.approx(4.3, rel=1e-15)


def test_primitive_inversion_rest(d5):
    s = primitive_from_conserved(Conserved6(F=1.0, F_i=[0, 0, 0], F_ll=3.0, G_ll=5.0), d5)
    assert s.rho == 1.0
    assert np.all(s.v == 0.0)
    assert s.T == pytest.approx(1.0, rel=1e-15)
    assert s.Pi == pytest.approx(0.0, abs=1e-15)


def test_primitive_inversion_nonequilibrium(d5):
    s = primitive_from_conserved(Conserved6(F=1.0, F_i=[0, 0, 0], F_ll=3.6, G_ll=5.0), d5)
    assert s.T == pytest.approx(1.0, rel=1e-14)
    assert s.Pi == pytest.approx(0.2, rel=1e-14)


def test_primitive_inversion_rejects_window_violation(d5):
    with pytest.raises(InadmissibleStateError) as err:
        primitive_from_conserved(Conserved6(F=1.0, F_i=[0, 0, 0], F_ll=6.0, G_ll=5.0), d5)
    assert err.value.bound == "upper"


def test_primitive_inversion_rejects_negative_energy(d5):
    with pytest.raises(ReconstructionError):
        primitive_from_conserved(Conserved6(F=1.0, F_i=[3.0, 0, 0], F_ll=3.0, G_ll=5.0), d5)


@pytest.mark.parametrize("D", [3.5, 4.0, 5.0, 7.0, 12.0])
def test_round_trip_random_states(D):
    spec = GasSpec(D=D)
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = rng.uniform(0.1, 5.0)
        T = rng.uniform(0.1, 4.0)
        v = rng.uniform(-2.0, 2.0, size=3)
        p = rho * T
        z = rng.uniform(-0.9, 0.9 * spec.z_upper)
        s = State6(rho=rho, v=v, T=T, Pi=z * p)
        back = primitive_from_conserved(conserved_from_primitive(s, spec), spec)
        assert back.rho == pytest.approx(s.rho, rel=1e-12)
        assert back.T == pytest.approx(s.T, rel=1e-12)
        np.testing.assert_allclose(back.v, s.v, rtol=1e-12, atol=1e-14)
        assert back.Pi == pytest.approx(s.Pi, rel=1e-11, abs=1e-13)


def test_admissibility_margins(d5):
    rep = admissibility(State6(rho=1.0, v=0.0, T=1.0, Pi=0.5), d5)
    assert rep.admissible
    assert rep.margin_lower == pytest.approx(1.5, rel=1e-15)
    assert rep.margin_upper == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_admissibility_upper_violation(d5):
    rep = admissibility(State6(rho=1.0, v=0.0, T=1.0, Pi=0.7), d5)
    assert not rep.admissible
    assert rep.margin_upper < 0


def test_admissibility_lower_violation(d5):
    rep = admissibility(State6(rho=1.0, v=0.0, T=1.0, Pi=-1.0), d5)
    assert not rep.admissible
    assert rep.margin_lower <= 0


@pytest.mark.parametrize("D", [3.0 + 1e-6, 3.5, 4.0, 5.0, 9.0])
def test_equilibrium_strictly_inside_window(D):
    spec = GasSpec(D=D)
    rep = admissibility(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), spec)
    assert rep.admissible
    assert rep.margin_lower == 1.0
    assert rep.margin_upper == pytest.approx(spec.z_upper)


def test_window_collapses_monatomic_limit():
    # upper bound (D-3)p/3 -> 0 as D -> 3+
    assert GasSpec(D=3.0 + 1e-6).z_upper == pytest.approx(1e-6 / 3.0, rel=1e-9)
    assert GasSpec(D=3.001).z_upper < GasSpec(D=4.0).z_upper
