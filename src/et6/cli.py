"""Command line tool: verification suites, eigenstructure scans and runs.

Subcommands:

  check    kinetic-oracle verification of the closure over a (Z, D) grid
  eigen    characteristic speeds, coupling condition and convexity at a state
  run      march a configured scenario, writing snapshot and diagnostic CSVs
  relax    homogeneous relaxation against the exact exponential solution
  nslimit  stiff-limit comparison of Pi with the bulk-viscosity relation
  sweep    (Z, D) property sweeps: hyperbolicity, round trips, convexity

Exit codes: 0 all enabled assertions pass, 1 an assertion failed, the
solver stopped (one `solver error:` line on stderr) or the oracle's
quadrature failed to validate or met an Omega out of float range (one
`oracle error:` line), 2 usage or configuration error (an `eigen --Z`
outside the window, a nonpositive `--rho`, `--T`, `--p`, a non-finite
`eigen` flag or config value, an `eigen` temperature p/rho out of float
range or a zero direction, included; one `config error:` line).
Identical config and seed give byte-identical CSV output.  Output directory
resolution: --output-dir flag, then the config [output] directory, then
$ET6_OUTPUT_DIR, then ./et6_out.

Each verdict is `measured <= bound`, and the bounds below are constants,
not config keys: a configuration cannot loosen a check.  The oracle's bound
on each Gauss value against its closed-form twin (oracle.ADAPTIVE_TOL) and
the eigenstructure bounds (eigen.IMAG_TOL, GRADIENT_TOL and SYMMETRY_TOL)
live beside the code that applies them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .closure import distribution_value, entropy_parts, \
    equilibrium_distribution_value, multipliers_from_state, state_from_multipliers
from .config import ConfigError, RunConfig, apply_updates, load_config
from .eigen import (
    EquilibriumRequiredError,
    convexity_check,
    et6_sound_speed,
    euler_sound_speed,
    hyperbolicity_scan,
    k_condition,
    wave_fan,
)
from .gas import State6, conserved_from_primitive
from .oracle import (
    RULE,
    OracleError,
    mep_optimality_probe,
    oracle_constraint_check,
    oracle_entropy,
    oracle_flux_check,
    rel_err,
)
from .solver import BOUNDARIES, LIMITERS, SCENARIO_KINDS, SCHEMES, SolverError, \
    bulk_viscosity, ns_limit_diagnostic, run_scenario

# Pass bounds, each on a relative error unless noted
MOMENT_TOL = 1e-10                 # check: constraint moments by quadrature
FLUX_TOL = 1e-8                    # check: closed fluxes by quadrature
ENTROPY_TOL = 1e-8                 # check: entropy by quadrature
DECOMPOSITION_TOL = 1e-10          # check: h against h_E + rho k
EQUILIBRIUM_REDUCTION_TOL = 1e-12  # check: f at Pi = 0 against the Maxwellian
PROBE_ENTROPY_TOL = 1e-12          # check: trial entropy h(beta) above h(0)
ROUND_TRIP_TOL = 1e-12             # sweep: multipliers -> state
SPEED_TOL = 1e-10                  # sweep: equilibrium sound speed
SUBCHARACTERISTIC_TOL = 1e-15      # sweep: five-field speed above the six-field one, absolute
CONSERVATION_TOL = 1e-13           # run: drift of the periodic totals
ENTROPY_STEP_TOL = 1e-10           # run: entropy decrease per step, of the initial total
RELAX_TOL = 1e-12                  # relax: |Pi - Pi0 exp(-t/tau)|, of the pressure
NS_DEVIATION_FACTOR = 10.0         # nslimit: bound on the deviation from -nu dv/dx, per tau


def _label(value: float) -> str:
    """Shortest text that reads back as the same float: distinct values of
    D get distinct labels (`:g` would print 3.000001 as 3)."""
    return np.format_float_positional(float(value), trim="-")


def _write_csv(path: Path, header: list[str], columns) -> Path:
    """Write whole columns, each formatted in one pass: integer and text
    columns as they are, every other value by `.17g` (booleans as 1 and 0),
    which reads back as the same float.  Callers holding rows pass
    zip(*rows)."""
    texts = []
    for column in map(np.asarray, columns):
        values = column.tolist()
        texts.append(list(map(str, values)) if column.dtype.kind in "iuU"
                     else [f"{v:.17g}" for v in values])
    path.write_text("\n".join([",".join(header), *map(",".join, zip(*texts))]) + "\n",
                    encoding="utf-8")
    return path


def _status(ok: bool, name: str, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{mark}] {name}{suffix}")
    return ok


def _resolve_output_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.output.directory or os.environ.get("ET6_OUTPUT_DIR") or "et6_out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _quick_config(cfg: RunConfig) -> RunConfig:
    """Scale sweep sizes down roughly eightfold."""
    check = replace(
        cfg.check,
        grid_z_count=max(2, cfg.check.grid_z_count // 2),
        grid_d_values=cfg.check.grid_d_values[::3],
        probe_betas=cfg.check.probe_betas[:1],
    )
    sweep = replace(
        cfg.sweep,
        z_count=max(5, cfg.sweep.z_count // 3),
        d_count=max(5, cfg.sweep.d_count // 3),
        round_trip_points=max(13, cfg.sweep.round_trip_points // 8),
        convexity_states=max(6, cfg.sweep.convexity_states // 8),
    )
    nslimit = replace(cfg.nslimit, N=max(64, cfg.nslimit.N // 2), t_end=cfg.nslimit.t_end / 4.0)
    return replace(cfg, check=check, sweep=sweep, nslimit=nslimit)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, out_dir: Path) -> bool:
    chk = cfg.check
    velocity = np.array([0.4, -0.25, 0.15])
    rows: list[list] = []
    tols = {"constraint moments": MOMENT_TOL, "closed fluxes": FLUX_TOL,
            "entropy quadrature": ENTROPY_TOL, "entropy decomposition": DECOMPOSITION_TOL}
    errors: dict[str, list[float]] = {name: [] for name in tols}
    for d_val in chk.grid_d_values:
        spec = replace(cfg.gas, D=float(d_val))
        zs = np.linspace(-0.9, chk.z_span * spec.z_upper, chk.grid_z_count)
        for z in zs:
            s = State6(rho=1.0, v=velocity, T=1.0, Pi=float(z))   # p = 1
            tag = f"[D={_label(d_val)};Z={z:.4g}]"
            for name, reports in (("constraint moments", oracle_constraint_check(s, spec)),
                                  ("closed fluxes", oracle_flux_check(s, spec))):
                for rep in reports:
                    rows.append([rep.quantity + tag, rep.closed_form, rep.quadrature,
                                 rep.rel_err, rep.rule])
                    errors[name].append(rep.rel_err)
            h_quad = oracle_entropy(s, spec)
            parts = entropy_parts(s, spec)
            e_h = rel_err(h_quad, parts.h)
            errors["entropy quadrature"].append(e_h)
            errors["entropy decomposition"].append(rel_err(parts.h, parts.h_E + s.rho * parts.k))
            rows.append(["entropy" + tag, parts.h, h_quad, e_h, RULE])
    ok = True
    for name, tol in tols.items():
        # np.max keeps a NaN, which then fails `<=`; the builtin max may drop it
        worst = float(np.max(errors[name]))
        ok &= _status(worst <= tol, name, f"max rel err {worst:.3e} <= {tol:g}")

    # equilibrium reduction on a 10x10x10 (C, I) sample
    spec = cfg.gas
    s_eq = State6(rho=1.3, v=0.0, T=0.8, Pi=0.0)
    cx, cy, i_val = np.meshgrid(np.linspace(-2.5, 2.5, 10), np.linspace(-2.0, 2.0, 10),
                                np.linspace(0.0, 4.0, 10), indexing="ij")
    c = np.stack([cx, cy, np.full_like(cx, 0.3)], axis=-1)
    f = distribution_value(c, i_val, s_eq, spec)
    f_eq = equilibrium_distribution_value(c, i_val, 1.3, 0.8, spec)
    worst_eq = float(np.max(rel_err(f, f_eq)))
    ok &= _status(worst_eq <= EQUILIBRIUM_REDUCTION_TOL, "equilibrium reduction",
                  f"max rel err {worst_eq:.3e} <= {EQUILIBRIUM_REDUCTION_TOL:g}")

    # optimality probe (non-convergence is reported, not fatal), at Pi/p = 0.3
    # or, where the window ends below 0.6, halfway to its upper edge
    z_probe = min(0.3, spec.z_upper / 2.0)
    s_probe = State6(rho=1.0, v=0.0, T=1.0, Pi=z_probe)
    probe = mep_optimality_probe(s_probe, spec, trial_amplitudes=chk.probe_betas)
    if probe.inconclusive:
        print("[WARN] optimality probe inconclusive (trial solve did not converge)")
    else:
        bound = probe.reference_entropy + PROBE_ENTROPY_TOL * abs(probe.reference_entropy)
        optimal = all(point.entropy <= bound for point in probe.points if point.converged)
        ok &= _status(optimal, "entropy optimality probe",
                      f"h(beta) <= h(0) across betas {chk.probe_betas}")
    for point in probe.points:
        rows.append([f"probe_entropy[beta={point.beta:g}]", probe.reference_entropy,
                     point.entropy, rel_err(point.entropy, probe.reference_entropy),
                     "radial+laguerre"])

    path = _write_csv(out_dir / "oracle_report.csv",
                      ["quantity", "closed_form", "quadrature", "rel_err", "rule"],
                      zip(*rows))
    print(f"report: {path}")
    return bool(ok)


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------

def cmd_eigen(cfg: RunConfig, out_dir: Path, args) -> bool:
    spec = cfg.gas
    if not -1.0 < args.Z < spec.z_upper:
        raise ConfigError(f"--Z {args.Z:g} lies outside the admissible window "
                          f"-1 < Z < (D-3)/3 = {spec.z_upper:.6g}")
    for flag, value in (("--rho", args.rho), ("--T", args.T), ("--p", args.p)):
        if value is not None and not value > 0:
            raise ConfigError(f"{flag} {value:g} must be positive")
    for flag in ("rho", "T", "p", "vx", "vy", "vz", "nx", "ny", "nz"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{flag} {value:g} must be finite")
    if not np.linalg.norm([args.nx, args.ny, args.nz]) > 0:
        raise ConfigError("--nx, --ny, --nz must give a nonzero direction")
    rho = args.rho
    temperature = args.T if args.p is None else args.p / rho
    if not 0.0 < temperature < math.inf:
        raise ConfigError(f"--p {args.p:g} / --rho {rho:g}: T = {temperature:g} is out of range")
    p0 = rho * temperature
    s = State6(rho=rho, v=[args.vx, args.vy, args.vz], T=temperature, Pi=args.Z * p0)
    n = np.array([args.nx, args.ny, args.nz])
    u = conserved_from_primitive(s, spec)
    fan = wave_fan(u, n, spec)
    print("speeds: " + "  ".join(f"{v:+.7f}" for v in fan.speeds))
    ok = True
    k_overall = k_marginal = ""
    try:
        krep = k_condition(u, n, spec)
    except EquilibriumRequiredError:
        pass   # the condition is posed on the equilibrium manifold only
    else:
        k_overall, k_marginal = krep.overall_pass, krep.marginal
        ok &= _status(krep.overall_pass, "coupling condition",
                      "all six eigenvectors couple to the production"
                      + (" (marginal)" if krep.marginal else ""))
    conv = convexity_check(u, spec)
    ok &= _status(conv.passed, "entropy convexity",
                  f"gradient mismatch {conv.gradient_mismatch:.3e}, "
                  f"max Hessian pivot {conv.hessian_max_pivot:.3e}, "
                  f"symmetrizer mismatch {conv.symmetrizer_mismatch:.3e}")
    header = ["D", "rho", "T", "Z", "vx", "vy", "vz", "nx", "ny", "nz",
              "speed_1", "speed_2", "speed_3", "speed_4", "speed_5", "speed_6",
              "k_condition_pass", "k_condition_marginal",
              "gradient_mismatch", "hessian_max_pivot", "convexity_pass",
              "symmetrizer_mismatch"]
    row = [spec.D, rho, temperature, args.Z, args.vx, args.vy, args.vz,
           args.nx, args.ny, args.nz, *fan.speeds.tolist(),
           k_overall, k_marginal, conv.gradient_mismatch,
           conv.hessian_max_pivot, conv.passed, conv.symmetrizer_mismatch]
    path = _write_csv(out_dir / "eigen_report.csv", header, zip(row))
    print(f"report: {path}")
    return bool(ok)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _write_timeseries(ts, out_dir: Path, prefix: str) -> list[Path]:
    files = []
    keys = ["rho", "vx", "T", "p", "Pi", "Pi_over_p", "h", "k"]
    for idx, snap in enumerate(ts.snapshots):
        files.append(_write_csv(
            out_dir / f"{prefix}_snapshot_{idx:04d}.csv",
            ["x", *keys], [ts.x, *(snap[key] for key in keys)],
        ))
    files.append(_write_csv(
        out_dir / f"{prefix}_diagnostics.csv",
        ["t", "total_F", "total_Fx", "total_Gll", "total_entropy",
         "max_abs_Z", "projections", "entropy_outflow"],
        [ts.diag_t, ts.total_F, ts.total_Fx, ts.total_Gll, ts.total_entropy,
         ts.max_abs_z, ts.projections, ts.entropy_outflow],
    ))
    return files


def cmd_run(cfg: RunConfig, out_dir: Path) -> bool:
    sc = cfg.build_scenario()
    ts = run_scenario(sc)
    files = _write_timeseries(ts, out_dir, "run")
    ok = True
    if sc.boundary == "periodic":
        totals = np.array([ts.total_F, ts.total_Fx, ts.total_Gll])
        # mass, momentum and energy scales: the net momentum may well be 0
        mass, energy = np.max(np.abs(totals[0])), np.max(np.abs(totals[2]))
        scale = np.array([mass, math.sqrt(mass * energy), energy])
        worst = float(np.max(np.max(np.abs(totals - totals[:, :1]), axis=1) / scale))
        ok &= _status(worst <= CONSERVATION_TOL, "conservation",
                      f"max drift {worst:.3e} <= {CONSERVATION_TOL:g}")
    # entropy carried out through outflow ends is not a decrease
    h = np.array(ts.total_entropy)
    balance = np.diff(h) + np.array(ts.entropy_outflow[1:])
    min_step = float(np.min(balance)) if len(h) > 1 else 0.0
    bound = -ENTROPY_STEP_TOL * abs(h[0])
    ok &= _status(min_step >= bound, "entropy monotonicity",
                  f"min step change plus outflow {min_step:.3e} >= {bound:.3e}")
    print(f"wrote {len(files)} files to {out_dir}")
    return bool(ok)


# ---------------------------------------------------------------------------
# relax
# ---------------------------------------------------------------------------

def cmd_relax(cfg: RunConfig, out_dir: Path) -> bool:
    spec = cfg.gas
    z0 = cfg.relax.z0
    ts = run_scenario(cfg.relax.scenario(spec))   # at rho = T = 1, so p = 1
    rows = []
    worst = 0.0
    for t, snap in zip(ts.snapshot_times, ts.snapshots):
        exact = z0 * math.exp(-t / spec.tau)
        measured = float(snap["Pi"][0])
        err = abs(measured - exact)
        worst = max(worst, err)
        rows.append([t, measured, exact, err])
    path = _write_csv(out_dir / "relax.csv", ["t", "Pi", "Pi_exact", "abs_err"], zip(*rows))
    ok = _status(worst <= RELAX_TOL, "exact relaxation",
                 f"max |Pi - Pi0 exp(-t/tau)| = {worst:.3e} <= {RELAX_TOL:g} * p")
    print(f"report: {path}")
    return bool(ok)


# ---------------------------------------------------------------------------
# nslimit
# ---------------------------------------------------------------------------

def cmd_nslimit(cfg: RunConfig, out_dir: Path) -> bool:
    ns = cfg.nslimit
    sc = ns.scenario(cfg.gas)
    ts = run_scenario(sc)
    rep = ns_limit_diagnostic(ts, sc, mask_fraction=ns.mask_fraction)
    path = _write_csv(out_dir / "nslimit.csv", ["x", "Pi", "minus_nu_dvdx"],
                      [rep.x, rep.pi, rep.target])
    bound = NS_DEVIATION_FACTOR * ns.tau
    p0 = sc.rho0 * sc.T0
    nu = bulk_viscosity(p0, sc.spec)
    print(f"bulk viscosity nu = {nu:.6g} at p = {p0:g}, tau = {ns.tau:g}")
    ok = _status(rep.max_rel_deviation <= bound, "stiff-limit relation",
                 f"max rel deviation {rep.max_rel_deviation:.3e} <= {bound:g}"
                 + (" [reduced confidence]" if rep.reduced_confidence else ""))
    print(f"report: {path}")
    return bool(ok)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: RunConfig, out_dir: Path) -> bool:
    sw = cfg.sweep
    ok = True
    rows_summary: list[list] = []

    d_values = np.linspace(sw.d_min, sw.d_max, sw.d_count)
    points = hyperbolicity_scan(d_values, n_z=sw.z_count, coverage=sw.coverage)
    _write_csv(out_dir / "sweep_hyperbolicity.csv",
               ["D", "Z", "max_imag_over_scale", "all_real"],
               zip(*[(p.D, p.z, p.max_imag_over_scale, p.all_real) for p in points]))
    n_bad = sum(0 if p.all_real else 1 for p in points)
    hyp_ok = n_bad == 0
    ok &= _status(hyp_ok, "hyperbolicity scan",
                  f"{len(points)} states, {n_bad} with complex speeds")
    rows_summary.append(["hyperbolicity", f"{len(points)} states", n_bad, 0, hyp_ok])

    worst_rt = 0.0
    for d_val in (3.5, 4.0, 5.0, 7.0, 12.0):
        spec = replace(cfg.gas, D=float(d_val))
        for z in np.linspace(-0.97, 0.97 * spec.z_upper, sw.round_trip_points):
            s = State6(rho=1.0, v=0.0, T=1.0, Pi=float(z))   # p = 1
            mul = multipliers_from_state(s, spec)
            rho, ppi, rho_eps = state_from_multipliers(mul, spec)
            worst_rt = max(worst_rt,
                           rel_err(rho, 1.0),
                           rel_err(ppi, 1.0 + s.Pi),
                           rel_err(rho_eps, 0.5 * spec.D))
    rt_ok = worst_rt <= ROUND_TRIP_TOL
    ok &= _status(rt_ok, "closure round trip",
                  f"max rel err {worst_rt:.3e} <= {ROUND_TRIP_TOL:g}")
    rows_summary.append(["closure_round_trip", "multipliers<->state", worst_rt,
                         ROUND_TRIP_TOL, rt_ok])

    for d_val in sw.k_d_values:
        spec = replace(cfg.gas, D=float(d_val))
        u = conserved_from_primitive(State6(rho=1.0, v=0.0, T=1.0, Pi=0.0), spec)
        krep = k_condition(u, [1, 0, 0], spec)
        ok &= _status(krep.overall_pass, f"coupling condition D={_label(d_val)}",
                      "marginal" if krep.marginal else "")
        rows_summary.append([f"k_condition_D_{_label(d_val)}", "equilibrium",
                             int(krep.overall_pass), 1, krep.overall_pass])
        fan = wave_fan(u, [1, 0, 0], spec)
        expected = et6_sound_speed(1.0, 1.0)
        speed_err = abs(fan.speeds[-1] - expected) / expected
        sp_ok = speed_err <= SPEED_TOL
        ok &= _status(sp_ok, f"sound speed D={_label(d_val)}",
                      f"rel err {speed_err:.3e}")
        rows_summary.append([f"sound_speed_D_{_label(d_val)}", "vs sqrt(5p/3rho)",
                             speed_err, SPEED_TOL, sp_ok])

    rng = np.random.default_rng(cfg.output.seed)
    n_fail = 0
    for _ in range(sw.convexity_states):
        d_val = float(rng.choice([4.0, 5.0, 7.0]))
        spec = replace(cfg.gas, D=d_val)
        rho = float(rng.uniform(0.5, 2.0))
        temperature = float(rng.uniform(0.5, 2.0))
        v = rng.uniform(-1.0, 1.0, size=3)
        z = float(rng.uniform(-0.7, 0.7 * spec.z_upper))
        s = State6(rho=rho, v=v, T=temperature, Pi=z * (rho * temperature))
        rep = convexity_check(conserved_from_primitive(s, spec), spec)
        n_fail += 0 if rep.passed else 1
    conv_ok = n_fail == 0
    ok &= _status(conv_ok, "convexity sweep",
                  f"{sw.convexity_states} random states, {n_fail} failures")
    rows_summary.append(["convexity", f"{sw.convexity_states} random states",
                         n_fail, 0, conv_ok])

    sub_ok = True
    for d_val in np.linspace(3.0 + 1e-6, sw.d_max, 25):
        sub_ok &= (euler_sound_speed(1.0, 1.0, float(d_val))
                   <= et6_sound_speed(1.0, 1.0) + SUBCHARACTERISTIC_TOL)
    ok &= _status(bool(sub_ok), "subcharacteristic ordering",
                  "five-field speed <= six-field speed across D")
    rows_summary.append(["subcharacteristic", "speed ordering", int(sub_ok), 1, sub_ok])

    path = _write_csv(out_dir / "sweep_report.csv",
                      ["check", "detail", "value", "threshold", "passed"],
                      zip(*rows_summary))
    print(f"report: {path}")
    return bool(ok)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The et6 parser.  A flag that overrides a config key stores its value
    under the destination "section.key"."""
    parser = argparse.ArgumentParser(
        prog="et6",
        description="Six-field moment model of a polyatomic gas: "
                    "verification suites and 1-D solver runs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI-style configuration file")
    common.add_argument("--output-dir", dest="output.directory",
                        help="directory for CSV reports")
    common.add_argument("--quick", action="store_true", default=None, dest="output.quick",
                        help="scale sweeps down ~8x")
    common.add_argument("--seed", type=int, dest="output.seed",
                        help="seed for randomized sweeps")
    common.add_argument("--D", type=float, dest="gas.D", help="degrees of freedom (> 3)")
    common.add_argument("--tau", type=float, dest="gas.tau", help="relaxation time")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="kinetic-oracle verification suite", parents=[common])

    p_eigen = sub.add_parser("eigen", help="characteristic analysis at a state",
                             parents=[common])
    p_eigen.add_argument("--rho", type=float, default=1.0)
    p_eigen.add_argument("--T", type=float, default=1.0)
    p_eigen.add_argument("--p", type=float, default=None,
                         help="pressure (overrides --T)")
    p_eigen.add_argument("--Z", type=float, default=0.0, help="Pi / p")
    p_eigen.add_argument("--vx", type=float, default=0.0)
    p_eigen.add_argument("--vy", type=float, default=0.0)
    p_eigen.add_argument("--vz", type=float, default=0.0)
    p_eigen.add_argument("--nx", type=float, default=1.0)
    p_eigen.add_argument("--ny", type=float, default=0.0)
    p_eigen.add_argument("--nz", type=float, default=0.0)

    p_run = sub.add_parser("run", help="march a scenario and emit CSVs",
                           parents=[common])
    p_run.add_argument("--kind", choices=SCENARIO_KINDS, dest="scenario.kind")
    p_run.add_argument("--N", type=int, dest="scenario.N")
    p_run.add_argument("--cfl", type=float, dest="scenario.cfl")
    p_run.add_argument("--t-end", type=float, dest="scenario.t_end")
    p_run.add_argument("--cadence", type=float, dest="scenario.output_cadence")
    p_run.add_argument("--scheme", choices=SCHEMES, dest="scenario.scheme")
    p_run.add_argument("--limiter", choices=LIMITERS, dest="scenario.limiter")
    p_run.add_argument("--boundary", choices=BOUNDARIES, dest="scenario.boundary")
    p_run.add_argument("--amplitude", type=float, dest="scenario.amplitude")

    p_relax = sub.add_parser("relax", help="homogeneous relaxation check",
                             parents=[common])
    p_relax.add_argument("--Pi0-over-p", type=float, dest="relax.z0")
    p_relax.add_argument("--t-end", type=float, dest="relax.t_end")
    p_relax.add_argument("--cadence", type=float, dest="relax.cadence")

    p_ns = sub.add_parser("nslimit", help="stiff-limit bulk-viscosity check",
                          parents=[common])
    p_ns.add_argument("--N", type=int, dest="nslimit.N")
    p_ns.add_argument("--cfl", type=float, dest="nslimit.cfl")
    p_ns.add_argument("--t-end", type=float, dest="nslimit.t_end")

    sub.add_parser("sweep", help="(Z, D) grid property sweeps", parents=[common])
    return parser


def dispatch(args) -> int:
    updates: dict[str, dict[str, object]] = {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if section and value is not None:
            updates.setdefault(section, {})[key] = value
    try:
        cfg = apply_updates(load_config(args.config), updates)
        if cfg.output.quick:
            cfg = _quick_config(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = _resolve_output_dir(cfg)
    commands = {
        "check": lambda: cmd_check(cfg, out_dir),
        "eigen": lambda: cmd_eigen(cfg, out_dir, args),
        "run": lambda: cmd_run(cfg, out_dir),
        "relax": lambda: cmd_relax(cfg, out_dir),
        "nslimit": lambda: cmd_nslimit(cfg, out_dir),
        "sweep": lambda: cmd_sweep(cfg, out_dir),
    }
    try:
        ok = commands[args.command]()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 1
    except OracleError as err:
        print(f"oracle error: {err}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
