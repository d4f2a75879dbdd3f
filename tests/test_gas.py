import math
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
    conserved_from_primitive,
    primitive_from_conserved,
    require_admissible,
    temperatures,
)


@pytest.fixture
def d5():
    return GasSpec(D=5.0)


def test_state_rejects_nonpositive_density_and_temperature():
    for bad in ({"rho": -1.0}, {"rho": 0.0}, {"T": 0.0}, {"T": -1.0}, {"T": math.nan}):
        with pytest.raises(GasModelError, match="must be positive"):
            State6(**{"rho": 1.0, "v": 0.0, "T": 1.0, **bad})


def test_temperatures_are_the_window(d5):
    # p = 1, Pi = 0.2: T_K = (p + Pi)/rho and T_I = (p - 3 Pi/(D-3))/rho
    assert temperatures(State6(rho=2.0, v=1.0, T=0.5, Pi=0.2), d5) == (0.6, 0.35)
    # outside the window the check of require_admissible raises, with its bound
    for Pi, bound in ((0.7, "upper"), (-1.0, "lower")):
        with pytest.raises(InadmissibleStateError) as err:
            temperatures(State6(rho=1.0, v=0.0, T=1.0, Pi=Pi), d5)
        assert err.value.bound == bound


def test_gas_spec_invariants():
    assert GasSpec(D=5).alpha == 0.0
    assert GasSpec(D=7).alpha == 1.0
    with pytest.raises(GasModelError):
        GasSpec(D=3.0)
    with pytest.raises(GasModelError):
        GasSpec(D=2.9)
    with pytest.raises(GasModelError):
        GasSpec(D=5, tau=0.0)
    for bad in ({"D": math.inf}, {"tau": math.inf}):
        with pytest.raises(GasModelError):
            GasSpec(**bad)
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
    assert require_admissible(State6(rho=1.0, v=0.0, T=1.0, Pi=0.5), d5) == 0.5
    assert require_admissible(State6(rho=2.0, v=1.0, T=0.5, Pi=-0.25), d5) == -0.25


def test_admissibility_upper_violation(d5):
    with pytest.raises(InadmissibleStateError) as err:
        require_admissible(State6(rho=1.0, v=0.0, T=1.0, Pi=0.7), d5)
    assert err.value.bound == "upper"
    assert err.value.margin < 0


def test_admissibility_lower_violation(d5):
    with pytest.raises(InadmissibleStateError) as err:
        require_admissible(State6(rho=1.0, v=0.0, T=1.0, Pi=-1.0), d5)
    assert err.value.bound == "lower"
    assert err.value.margin <= 0


def test_window_violations_say_which_multiplier_fails(d5):
    cases = [(0.7, "Pi/p = 0.7 violates the upper bound (D-3)/3 = 0.666667 (margin -0.0333): "
                   "zeta would lose positivity"),
             (-1.0, "Pi/p = -1 violates the lower bound -1 (margin 0): "
                    "xi would lose positivity")]
    for Pi, message in cases:
        with pytest.raises(InadmissibleStateError) as err:
            require_admissible(State6(rho=1.0, v=0.0, T=1.0, Pi=Pi), d5)
        assert str(err.value) == message
    # NaN fails both comparisons and is reported at the upper bound
    with pytest.raises(InadmissibleStateError) as err:
        require_admissible(State6(rho=1.0, v=0.0, T=1.0, Pi=float("nan")), d5)
    assert err.value.bound == "upper"


@pytest.mark.parametrize("D", [3.0 + 1e-6, 3.5, 4.0, 5.0, 9.0])
def test_equilibrium_strictly_inside_window(D):
    assert require_admissible(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), GasSpec(D=D)) == 0.0


def test_window_collapses_monatomic_limit():
    # upper bound (D-3)p/3 -> 0 as D -> 3+
    assert GasSpec(D=3.0 + 1e-6).z_upper == pytest.approx(1e-6 / 3.0, rel=1e-9)
    assert GasSpec(D=3.001).z_upper < GasSpec(D=4.0).z_upper
