"""The three benchmark workloads: inputs from a seed, the timed job, checks.

Each workload has ``setup(seed, out_dir)``, which builds the inputs (this
is part of ``setup_s``), ``job(inputs)``, the timed part (``wall_s``), and
``check(inputs, outcomes)``, which runs after the clock has stopped and
compares the program's outputs with figures computed here, apart from the
program.  An operation that raises or whose ``et6`` command exits non-zero
counts as failed; the checks apply to the operations that did not fail.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import et6.cli
from et6 import closure, config, eigen, gas

import exact_riemann

CASES = Path(__file__).resolve().parent / "cases"


@dataclass
class Outcome:
    """Result of one operation of a job."""

    name: str
    failed: bool = False
    detail: str = ""
    data: dict = field(default_factory=dict)


def _et6(argv: list[str]) -> tuple[int, str]:
    """Run the et6 command line in-process; return exit code and its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = et6.cli.main(argv)
    return code, out.getvalue()


def _command_op(name: str, argv: list[str]) -> Outcome:
    try:
        code, text = _et6(argv)
    except Exception:  # a crash of the program is a failed operation
        return Outcome(name, failed=True, detail=traceback.format_exc(limit=3))
    lines = text.strip().splitlines()
    return Outcome(name, failed=code != 0,
                   detail=f"exit {code}: {' | '.join(lines[-3:])}" if code else "")


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    cols = list(zip(*rows[1:]))
    return {key: np.array(col, dtype=float) for key, col in zip(rows[0], cols)}


def _seeded_config(case: str, out_path: Path, overrides: dict[str, dict[str, str]]) -> Path:
    """Copy a case file from cases/ with the seed-dependent keys filled in."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(CASES / case, encoding="utf-8")
    for section, pairs in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in pairs.items():
            parser.set(section, key, value)
    with out_path.open("w", encoding="utf-8") as handle:
        parser.write(handle)
    return out_path


# ---------------------------------------------------------------------------
# verify: et6 check plus closure/eigen point calls on random states
# ---------------------------------------------------------------------------

VERIFY_STATES = 300
ROUND_TRIP_TOL = 1e-12
SPLIT_TOL = 1e-12
SPEED_TOL = 1e-8          # relative to |v_n| + c, eigenvalues of a 6x6 solve


def verify_setup(seed: int, out_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    defaults = config.load_config(None)
    states = []
    for _ in range(VERIFY_STATES):
        spec = gas.GasSpec(D=float(rng.uniform(3.5, 12.0)))
        z = float(rng.uniform(-0.9, 0.9 * spec.z_upper))
        rho = float(rng.uniform(0.5, 2.0))
        temperature = float(rng.uniform(0.5, 2.0))
        v = rng.uniform(-1.0, 1.0, size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        s = gas.State6(rho=rho, v=v, T=temperature, Pi=z * spec.gas_constant * rho * temperature)
        states.append((spec, s, n))
    return {"out_dir": out_dir, "states": states, "grid_states":
            len(defaults.check.grid_d_values) * defaults.check.grid_z_count}


def _verify_state(spec, s, n) -> Outcome:
    try:
        mul = closure.multipliers_from_state(s, spec)
        round_trip = closure.state_from_multipliers(mul, spec)
        parts = closure.entropy_parts(s, spec)
        field_ = closure.main_field(s, spec).as_array()
        u = gas.conserved_from_primitive(s, spec)
        fan = eigen.wave_fan(u, n, spec)
        conv = eigen.convexity_check(u, spec)
    except Exception:
        return Outcome("state", failed=True, detail=traceback.format_exc(limit=3))
    return Outcome("state", data={"spec": spec, "s": s, "n": n, "round_trip": round_trip,
                                  "parts": parts, "main_field": field_,
                                  "speeds": fan.speeds, "convexity": conv})


def verify_job(inputs: dict) -> list[Outcome]:
    outcomes = [_command_op("check", ["check", "--output-dir", str(inputs["out_dir"])])]
    outcomes += [_verify_state(*state) for state in inputs["states"]]
    return outcomes


def _check_state(o: Outcome) -> list[str]:
    d = o.data
    spec, s = d["spec"], d["s"]
    p = spec.gas_constant * s.rho * s.T
    errors = []
    rho, ppi, rho_eps = d["round_trip"]
    want = (s.rho, p + s.Pi, 0.5 * spec.D * p)
    worst = max(abs(a - b) / abs(b) for a, b in zip((rho, ppi, rho_eps), want))
    if not worst <= ROUND_TRIP_TOL:
        errors.append(f"multiplier round trip off by {worst:.3e}")
    parts = d["parts"]
    scale = max(abs(parts.h), abs(parts.h_E), abs(s.rho * parts.k))
    if not abs(parts.h - (parts.h_E + s.rho * parts.k)) <= SPLIT_TOL * scale:
        errors.append("h != h_E + rho k")
    if not parts.k <= 0.0:
        errors.append(f"k = {parts.k:.3e} > 0")
    if not np.all(np.isfinite(d["main_field"])):
        errors.append("main field not finite")
    v_n = float(np.dot(s.v, d["n"]))
    c = math.sqrt(5.0 * (p + s.Pi) / (3.0 * s.rho))
    expected = np.array([v_n - c, v_n, v_n, v_n, v_n, v_n + c])
    speed_err = float(np.max(np.abs(d["speeds"] - expected))) / (abs(v_n) + c)
    if not speed_err <= SPEED_TOL:
        errors.append(f"wave fan off by {speed_err:.3e} of the speed scale")
    if not d["convexity"].passed:
        errors.append(f"convexity check failed: {d['convexity']}")
    return [f"D={spec.D:.4g} Z={s.Pi / p:.4g}: {e}" for e in errors]


def verify_check(inputs: dict, outcomes: list[Outcome]) -> list[str]:
    errors = []
    for o in outcomes:
        if o.failed:
            continue
        if o.name == "check":
            report = inputs["out_dir"] / "oracle_report.csv"
            with report.open(encoding="utf-8") as handle:
                n_entropy = sum(1 for line in handle if line.startswith("entropy["))
            if n_entropy != inputs["grid_states"]:
                errors.append(f"check reported {n_entropy} states, "
                              f"expected {inputs['grid_states']}")
        else:
            errors += _check_state(o)
    return errors


# ---------------------------------------------------------------------------
# riemann: et6 run on three Riemann problems
# ---------------------------------------------------------------------------

# Contact smearing limits a second-order TVD scheme to L1 rate 2/3 on data
# with a contact, so the density error must stay below C N^(-2/3).  The
# scheme measures e N^(2/3) = 0.17, 0.15, 0.13, 0.13 at N = 400 ... 3200;
# C = 1/4 sits above all of them, and a first-order scheme exceeds it.
SOD_L1_CONSTANT = 0.25
CONSERVATION_TOL = 1e-12   # relative to the mass, momentum and energy scales
# cases in cases/, with the key the seed moves; strong_shock.ini is left
# seed-independent because its failure is counted (see README)
RIEMANN_CASES = ("sod.ini", "window_edges.ini", "strong_shock.ini")


def riemann_setup(seed: int, out_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for case in RIEMANN_CASES:
        overrides = {"output": {"directory": str(out_dir / case[:-4])}}
        if case != "strong_shock.ini":
            overrides["scenario"] = {"x_split": f"{rng.uniform(0.45, 0.55):.6f}"}
        path = _seeded_config(case, out_dir / case, overrides)
        cases.append((case[:-4], path, config.load_config(path)))
    return {"cases": cases}


def riemann_job(inputs: dict) -> list[Outcome]:
    return [_command_op(name, ["run", "--config", str(path)])
            for name, path, _ in inputs["cases"]]


def _boundary_flux(rho: float, v: float, p: float, pi: np.ndarray, D: float) -> np.ndarray:
    """x-flux of (F, F_x, G_ll) for a constant state, one column per Pi value."""
    g_ll = rho * v * v + D * p
    return np.vstack([np.full_like(pi, rho * v), rho * v * v + p + pi,
                      (g_ll + 2.0 * (p + pi)) * v])


def _expected_totals(cfg, diag: dict[str, np.ndarray], totals: np.ndarray) -> np.ndarray:
    """Totals of (F, F_x, G_ll) implied by conservation form and outflow ends.

    While the waves stay inside, the outflow boundary cells keep rho, v and p
    and only relax Pi = Pi_0 exp(-t/tau) exactly.  Strang splitting puts each
    transport step at the midpoint of its relaxation, so step n moves the
    totals by dt_n times the boundary-flux difference at t_n + dt_n / 2.
    """
    sc, gas_ = cfg.scenario, cfg.gas
    t = diag["t"]
    dt = np.diff(t)
    decay = np.exp(-(t[:-1] + 0.5 * dt) / gas_.tau)
    flux_in = (_boundary_flux(sc.rho_left, sc.v_left, sc.p_left, sc.pi_left * decay, gas_.D)
               - _boundary_flux(sc.rho_right, sc.v_right, sc.p_right, sc.pi_right * decay,
                                gas_.D))
    steps = np.hstack([np.zeros((3, 1)), np.cumsum(flux_in * dt, axis=1)])
    return totals[:, :1] + steps


def _check_riemann_case(name: str, cfg, out_dir: Path) -> list[str]:
    sc = cfg.scenario
    errors = []
    diag = _read_csv(out_dir / "run_diagnostics.csv")
    if diag["projections"][-1] != 0:
        errors.append(f"{int(diag['projections'][-1])} admissibility projections")
    totals = np.vstack([diag["total_F"], diag["total_Fx"], diag["total_Gll"]])
    expected = _expected_totals(cfg, diag, totals)
    # mass, momentum and energy scales; total momentum itself may be 0
    mass, energy = np.max(np.abs(totals[0])), np.max(np.abs(totals[2]))
    scale = np.array([mass, math.sqrt(mass * energy), energy])
    drift = np.max(np.abs(totals - expected), axis=1) / scale
    if not np.all(drift <= CONSERVATION_TOL):
        errors.append(f"totals of F, F_x, G_ll drift by {drift.tolist()}")
    if name == "sod":
        snaps = sorted(out_dir.glob("run_snapshot_*.csv"))
        final = _read_csv(snaps[-1])
        gamma = (cfg.gas.D + 2.0) / cfg.gas.D
        exact = exact_riemann.cell_average_density(
            sc.x_left, sc.x_right, sc.N, diag["t"][-1], sc.x_split,
            exact_riemann.Side(sc.rho_left, sc.v_left, sc.p_left),
            exact_riemann.Side(sc.rho_right, sc.v_right, sc.p_right), gamma)
        dx = (sc.x_right - sc.x_left) / sc.N
        l1 = float(np.sum(np.abs(final["rho"] - exact)) * dx)
        bound = SOD_L1_CONSTANT * sc.N ** (-2.0 / 3.0)
        if not l1 <= bound:
            errors.append(f"L1 density error {l1:.3e} > {bound:.3e}")
    return [f"{name}: {e}" for e in errors]


def riemann_check(inputs: dict, outcomes: list[Outcome]) -> list[str]:
    errors = exact_riemann.check_toro()
    for o, (name, _, cfg) in zip(outcomes, inputs["cases"]):
        if not o.failed:
            errors += _check_riemann_case(name, cfg, Path(cfg.output.directory))
    return errors


# ---------------------------------------------------------------------------
# stiff: et6 nslimit, Pi against -nu dv/dx
# ---------------------------------------------------------------------------

STIFF_BOUND_FACTOR = 10.0   # the stiff-limit relation must hold to 10 tau


def stiff_setup(seed: int, out_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    amplitude = f"{rng.uniform(0.8e-3, 1.2e-3):.6e}"
    path = _seeded_config("stiff.ini", out_dir / "stiff.ini",
                          {"nslimit": {"amplitude": amplitude},
                           "output": {"directory": str(out_dir)}})
    return {"path": path, "cfg": config.load_config(path), "out_dir": out_dir}


def stiff_job(inputs: dict) -> list[Outcome]:
    return [_command_op("nslimit", ["nslimit", "--config", str(inputs["path"])])]


def stiff_check(inputs: dict, outcomes: list[Outcome]) -> list[str]:
    if outcomes[0].failed:
        return []
    cfg = inputs["cfg"]
    ns, D = cfg.nslimit, cfg.gas.D
    report = _read_csv(inputs["out_dir"] / "nslimit.csv")
    # the initial data are the right-moving acoustic mode of the relaxed
    # (Euler) system; as tau -> 0 it travels undistorted at c_eq
    rho0 = temperature0 = 1.0
    p0 = cfg.gas.gas_constant * rho0 * temperature0
    gamma = (D + 2.0) / D
    c_eq = math.sqrt(gamma * p0 / rho0)
    k = 2.0 * math.pi / ns.domain_length
    phase = k * (report["x"] - c_eq * ns.t_end)
    dvdx = c_eq * ns.amplitude * k * np.cos(phase)
    p = p0 * (1.0 + gamma * ns.amplitude * np.sin(phase))
    nu = 2.0 / 3.0 * (D - 3.0) / D * p * ns.tau
    target = -nu * dvdx
    mask = np.abs(target) >= ns.mask_fraction * np.max(np.abs(target))
    deviation = float(np.max(np.abs(report["Pi"][mask] - target[mask]) / np.abs(target[mask])))
    bound = STIFF_BOUND_FACTOR * ns.tau
    if not deviation <= bound:
        return [f"stiff limit: max |Pi + nu dv/dx| / |nu dv/dx| = {deviation:.3e} > {bound:g}"]
    return []


WORKLOADS = {
    "verify": (verify_setup, verify_job, verify_check),
    "riemann": (riemann_setup, riemann_job, riemann_check),
    "stiff": (stiff_setup, stiff_job, stiff_check),
}
