import csv
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from et6 import config
from et6.cli import SPEED_TOL, main
from et6.config import ConfigError, RunConfig, load_config
from et6.solver import SolverError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_config_minimal_defaults(tmp_path):
    cfg_file = write(tmp_path / "min.cfg", "[gas]\nD = 5\n")
    cfg = load_config(cfg_file)
    assert cfg.gas.D == 5.0
    assert cfg.gas.tau == 1.0


def test_load_config_rejects_d_three(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[gas]\nD = 3\n")
    with pytest.raises(ConfigError, match=r"\[gas\] D"):
        load_config(cfg_file)


def test_load_config_rejects_bad_cfl(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[scenario]\ncfl = 1.5\n")
    with pytest.raises(ConfigError, match="cfl"):
        load_config(cfg_file)


def test_load_config_rejects_unknown_key(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[gas]\nwarp_factor = 9\n")
    with pytest.raises(ConfigError, match="warp_factor"):
        load_config(cfg_file)


def test_load_config_rejects_unknown_section(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[warp]\nD = 5\n")
    with pytest.raises(ConfigError, match=r"\[warp\]"):
        load_config(cfg_file)


def test_load_config_rejects_type_mismatch(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[scenario]\nN = tiny\n")
    with pytest.raises(ConfigError, match="N"):
        load_config(cfg_file)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_relax_cli_writes_exact_exponential(tmp_path):
    out = tmp_path / "out"
    code = main(["relax", "--Pi0-over-p", "0.3", "--tau", "0.1", "--t-end", "1",
                 "--output-dir", str(out)])
    assert code == 0
    rows = (out / "relax.csv").read_text().strip().splitlines()
    assert rows[0] == "t,Pi,Pi_exact,abs_err"
    for line in rows[1:]:
        t, pi, exact, err = (float(v) for v in line.split(","))
        assert exact == pytest.approx(0.3 * math.exp(-t / 0.1), rel=1e-12)
        assert abs(pi - exact) <= 1e-12


def test_eigen_cli_reports_sound_speed(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["eigen", "--D", "5", "--rho", "1", "--p", "1",
                 "--output-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "1.2909944" in printed
    report = (out / "eigen_report.csv").read_text()
    assert "1.2909944487358" in report


def test_eigen_cli_flag_overrides_config(tmp_path):
    cfg_file = write(tmp_path / "base.cfg", "[gas]\nD = 5\n")
    out = tmp_path / "out"
    code = main(["eigen", "--config", cfg_file, "--D", "7",
                 "--output-dir", str(out)])
    assert code == 0
    header, row = (out / "eigen_report.csv").read_text().strip().splitlines()
    assert row.split(",")[header.split(",").index("D")] == "7"


def test_eigen_cli_passes_near_upper_window_edge(tmp_path, capsys):
    # Z = 0.666 against the bound 2/3 at D = 5
    assert main(["eigen", "--Z", "0.666", "--output-dir", str(tmp_path / "out")]) == 0
    assert "[PASS] entropy convexity" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--Z", "0.66666666", "--vx", "0.3"],
                                   ["--Z", "-0.9999999999", "--vx", "0.3"],
                                   ["--D", "50", "--rho", "1e10", "--p", "1"]])
def test_eigen_cli_passes_within_round_off_of_the_edges_and_at_any_scale(tmp_path, capsys,
                                                                          flags):
    # the concavity pivots keep their sign at relative gaps of 1e-8 and
    # 1e-10 to the edges, and ln Omega = 546 at D = 50, T = 1e-10 is no error
    out = tmp_path / "out"
    assert main(["eigen", *flags, "--output-dir", str(out)]) == 0
    assert "[PASS] entropy convexity" in capsys.readouterr().out
    header, row = (out / "eigen_report.csv").read_text().strip().splitlines()
    assert float(row.split(",")[header.split(",").index("hessian_max_pivot")]) < 0.0


@pytest.mark.parametrize("scale", ["1", "1e6", "1e10"])
def test_eigen_cli_coupling_does_not_depend_on_units(tmp_path, capsys, scale):
    # T = 1 and Pi = 0 at any density: the sound entries' |delta Pi| / p is
    # 2 (D-3) / 3D = 4/15, far above the marginal band
    assert main(["eigen", "--rho", scale, "--p", scale,
                 "--output-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "[PASS] coupling condition: all six eigenvectors couple to the production\n" in out


def test_eigen_cli_rejects_z_outside_window(tmp_path, capsys):
    assert main(["eigen", "--Z", "5", "--output-dir", str(tmp_path / "out")]) == 2
    assert "outside the admissible window" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--rho", "-1"], "--rho -1 must be positive"),
    (["--T", "0"], "--T 0 must be positive"),
    (["--p", "-1"], "--p -1 must be positive"),
    (["--nx", "0", "--ny", "0", "--nz", "0"], "--nx, --ny, --nz must give a nonzero direction"),
], ids=["rho", "T", "p", "direction"])
def test_eigen_cli_rejects_bad_state_or_direction(tmp_path, capsys, flags, message):
    assert main(["eigen", *flags, "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("nx", ["1e200", "1e-200"])
def test_eigen_cli_takes_a_direction_of_any_scale(tmp_path, capsys, nx):
    # the squares of the components leave float range, so the direction is
    # rescaled before it is normalized: the speeds of --nx 1, to the bit
    speeds = []
    for flag in ("1", nx):
        out = tmp_path / flag
        assert main(["eigen", "--Z", "0.2", "--vx", "0.3", "--nx", flag,
                     "--output-dir", str(out)]) == 0
        header, row = (out / "eigen_report.csv").read_text().splitlines()
        speeds.append(row.split(",")[header.split(",").index("speed_1"):][:6])
        assert capsys.readouterr().err == ""
    assert speeds[0] == speeds[1]


# an infinite t_end would march toward the step budget; an infinite D or
# tau, a non-finite [scenario] state value or eigen flag, an eigen
# temperature p/rho out of float range, or eigen moments that overflow or
# underflow to a zero internal energy would fail deep in the point layer
# or the solver.  An argument that starts with "[" is a config file's text.
NON_FINITE = [
    (["run", "--N", "8", "--t-end", "inf"], "[scenario] t_end = inf"),
    (["run", "--kind", "smooth_wave", "--amplitude", "inf", "--N", "8"],
     "[scenario] amplitude = inf"),
    (["run", "--config", "[scenario]\nkind = riemann\nrho_left = inf\n"],
     "[scenario] rho_left = inf"),
    (["run", "--config", "[scenario]\nkind = riemann\nv_left = nan\n"],
     "[scenario] v_left = nan"),
    (["relax", "--t-end", "inf"], "[relax] t_end = inf"),
    (["check", "--quick", "--D", "inf"], "[gas] D = inf"),
    (["eigen", "--D", "inf"], "[gas] D = inf"),
    (["run", "--tau", "inf"], "[gas] tau = inf"),
    *((["eigen", f"--{flag}", value], f"--{flag} {value} must be finite")
      for flag in ("vx", "vy", "vz") for value in ("inf", "nan")),
    (["eigen", "--rho", "inf"], "--rho inf must be finite"),
    (["eigen", "--p", "inf"], "--p inf must be finite"),
    (["eigen", "--nx", "inf"], "--nx inf must be finite"),
    (["eigen", "--rho", "1e-300", "--p", "1e300"], "--p 1e+300 / --rho 1e-300: T = inf"),
    (["eigen", "--rho", "1e300", "--p", "1e-300"], "--p 1e-300 / --rho 1e+300: T = 0"),
    *((["eigen", *flags], f"--rho {rho}, T = {t} (--T or --p) and --vx, --vy, --vz give "
                          "a state out of float range: ")
      for flags, rho, t in ((["--rho", "1e300", "--T", "1e300"], "1e+300", "1e+300"),
                            (["--rho", "1e-300", "--T", "1e-300"], "1e-300", "1e-300"),
                            (["--vx", "1e200"], "1", "1"))),
]


@pytest.mark.parametrize("argv, names", NON_FINITE,
                         ids=[" ".join(a).replace("\n", " ").strip() for a, _ in NON_FINITE])
def test_non_finite_values_are_config_errors(tmp_path, capsys, argv, names):
    argv = [write(tmp_path / "case.cfg", a) if a.startswith("[") else a for a in argv]
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {names}"), err


@pytest.mark.parametrize("d_value", ["346", "1000"])
def test_check_verifies_past_the_range_of_omega(tmp_path, capsys, d_value):
    # ln Gamma((D-3)/2) alone carries Omega out of float range, even at Z = 0,
    # and Gamma(alpha + 1) overflows past D = 345.  The closure works in
    # ln Omega and the oracle forms only Omega L[0], so every check passes
    assert main(["eigen", "--D", d_value, "--output-dir", str(tmp_path / "out")]) == 0
    cfg_file = write(tmp_path / "big_d.cfg",
                     f"[check]\ngrid_d_values = {d_value}\ngrid_z_count = 2\n")
    assert main(["check", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "[FAIL]" not in captured.out


def test_check_cli_quick_passes(tmp_path):
    code = main(["check", "--quick", "--output-dir", str(tmp_path / "out")])
    assert code == 0
    # valid CSV: no label carries a comma, so every row has the header's fields
    with (tmp_path / "out" / "oracle_report.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["quantity", "closed_form", "quadrature", "rel_err", "rule"]
    assert len(rows) > 10 and all(len(row) == 5 for row in rows)
    # every Gauss value, the entropy's included, names the rule it came from
    from et6 import oracle

    assert {row[4] for row in rows[1:] if not row[0].startswith("probe_")} == {oracle.RULE}


def test_check_cli_probes_inside_a_narrow_window(tmp_path, capsys):
    # at D = 3.5 the window ends at Pi/p = 1/6, below the probe's 0.3: the
    # probe moves halfway to the edge instead of leaving the window
    code = main(["check", "--quick", "--D", "3.5", "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert "[PASS] entropy optimality probe" in capsys.readouterr().out
    with (tmp_path / "out" / "oracle_report.csv").open(newline="", encoding="utf-8") as handle:
        probe = [row[0] for row in csv.reader(handle) if row[0].startswith("probe_")]
    assert probe == ["probe_entropy[beta=0.001]"]


def test_sweep_cli_quick_passes(tmp_path):
    code = main(["sweep", "--quick", "--output-dir", str(tmp_path / "out")])
    assert code == 0
    scan = (tmp_path / "out" / "sweep_hyperbolicity.csv").read_text().splitlines()
    assert scan[0].split(",")[-1] == "speed_gap_over_c"
    assert all(float(line.split(",")[-1]) <= SPEED_TOL for line in scan[1:])
    report = (tmp_path / "out" / "sweep_report.csv").read_text()
    assert f"\nsound_speed,{len(scan) - 1} states," in report


def test_sweep_judges_the_speeds_at_every_scanned_state(tmp_path, capsys, monkeypatch):
    # a negative bound fails the closed-form spectrum at every state
    from et6 import cli

    monkeypatch.setattr(cli, "SPEED_TOL", -1.0)
    assert main(["sweep", "--quick", "--output-dir", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] sound speed: 49 states" in out


def test_run_cli_smooth_wave(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--kind", "smooth_wave", "--N", "64", "--t-end", "0.2",
                 "--cadence", "0.1", "--tau", "0.01", "--output-dir", str(out)])
    assert code == 0
    snapshots = sorted(out.glob("run_snapshot_*.csv"))
    assert len(snapshots) >= 3
    diag = (out / "run_diagnostics.csv").read_text().splitlines()
    assert diag[0] == ("t,total_F,total_Fx,total_Gll,total_entropy,max_abs_Z,projections,"
                       "entropy_outflow")


def read_diagnostics(out):
    rows = (out / "run_diagnostics.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    cols = list(zip(*[[float(v) for v in line.split(",")] for line in rows[1:]]))
    return dict(zip(header, cols))


def two_rarefactions(scheme):
    """Riemann config whose two strong rarefactions leave a near vacuum."""
    return ("[scenario]\nkind = riemann\nscheme = " + scheme + "\n"
            "N = 400\nboundary = outflow\nt_end = 0.15\nrho_left = 1\n"
            "rho_right = 1\np_left = 0.4\np_right = 0.4\nv_left = -2\nv_right = 2\n")


def test_run_cli_counts_entropy_leaving_through_outflow(tmp_path):
    # two rarefactions carry entropy out of both ends: the total falls, but
    # each step's change plus the outflow does not
    cfg_file = write(tmp_path / "outflow.cfg", two_rarefactions("rusanov"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_file, "--output-dir", str(out)]) == 0
    diag = read_diagnostics(out)
    steps = [b - a for a, b in zip(diag["total_entropy"], diag["total_entropy"][1:])]
    assert min(steps) < 0.0
    assert min(s + o for s, o in zip(steps, diag["entropy_outflow"][1:])) >= 0.0


def test_run_cli_periodic_conservation_with_zero_net_momentum(tmp_path):
    cfg_file = write(tmp_path / "periodic.cfg", "[scenario]\nkind = riemann\nscheme = muscl\n"
                     "N = 400\nboundary = periodic\nrho_right = 1\np_right = 1\n"
                     "pi_left = -0.9\npi_right = 0.6\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_file, "--output-dir", str(out)]) == 0
    assert max(abs(m) for m in read_diagnostics(out)["total_Fx"]) < 1e-12


def test_run_cli_solver_error_exits_one(tmp_path, capsys):
    # a wave of zero amplitude is a uniform state: it runs, but the
    # stiff-limit check finds no dv/dx to compare Pi with
    cfg_file = write(tmp_path / "flat.cfg", "[nslimit]\namplitude = 0\nN = 64\nt_end = 0.01\n")
    assert main(["nslimit", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["solver error: no velocity gradient in the snapshot; nothing to compare"]


def test_negative_wavelength_is_a_config_error(tmp_path, capsys):
    # a smooth wave spans the domain once, so the former wavelength key is unknown
    cfg_file = write(tmp_path / "wave.cfg", "[scenario]\nkind = smooth_wave\nwavelength = -0.5\n")
    assert main(["run", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: unknown key [scenario] wavelength\n"


def test_riemann_split_outside_the_domain_is_a_config_error(tmp_path, capsys):
    # it used to run one uniform state, the left one, and exit 0
    cfg_file = write(tmp_path / "split.cfg", "[scenario]\nkind = riemann\nx_split = 1.5\n")
    assert main(["run", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [scenario] x_split = 1.5: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, key", [
    ("relax", "[relax]\nz0 = 5\n", "[relax] z0 = 5.0"),
    ("relax", "[gas]\nD = 3.2\n", "[relax] z0 = 0.3"),    # above (D-3)/3 = 1/15
    ("run", "[scenario]\nkind = uniform_relaxation\nz0 = -1\n", "[scenario] z0 = -1.0"),
    ("run", "[scenario]\nkind = riemann\npi_left = 2\n", "[scenario] pi_left = 2.0"),
    ("run", "[scenario]\nkind = riemann\npi_right = -0.2\n", "[scenario] pi_right = -0.2"),
])
def test_initial_pi_outside_the_window_is_a_config_error(tmp_path, capsys, command, text, key):
    # the window depends on [gas] D alone, so it is checked before a run
    cfg_file = write(tmp_path / "window.cfg", text)
    assert main([command, "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key}: outside the window "), err


def test_check_cli_oracle_error_exits_one(tmp_path, capsys, monkeypatch):
    # Gauss rules of infinite mass: one line, no traceback, no PASS
    from et6 import oracle

    gauss_rule = oracle._gauss_rule
    oracle._laguerre_rule.cache_clear()
    monkeypatch.setattr(oracle, "_gauss_rule", lambda diagonal, off_diagonal, mu0:
                        gauss_rule(diagonal, off_diagonal, math.inf))
    cfg_file = write(tmp_path / "nan.cfg", "[check]\ngrid_z_count = 2\ngrid_d_values = 5\n")
    assert main(["check", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("oracle error: Gauss rule of order "), err
    assert err[0].endswith(" with mass inf has non-finite nodes or weights"), err
    assert "[PASS]" not in captured.out


def test_check_cli_twin_missing_its_tolerance_is_one_line(tmp_path, capsys, monkeypatch):
    # the rules' round-off puts values up to 9.2e-16 off their twins at D = 5:
    # at a bound of 1e-16 the exact moments end the check in one line, before
    # any PASS
    from et6 import oracle

    monkeypatch.setattr(oracle, "ADAPTIVE_TOL", 1e-16)
    cfg_file = write(tmp_path / "tight.cfg", "[check]\ngrid_z_count = 2\ngrid_d_values = 5\n")
    assert main(["check", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"oracle error: {oracle.RULE} gives "), err
    assert "the closed-form moments" in err[0]
    assert "[PASS]" not in captured.out


def test_sweep_labels_keep_distinct_d_values_apart(tmp_path, capsys):
    # `:g` printed both as 3.000001, and 3.000001 alone as 3
    cfg_file = write(tmp_path / "d.cfg", "[sweep]\nk_d_values = 3.000001, 3.0000012\n")
    main(["sweep", "--quick", "--config", cfg_file, "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    for d in ("3.000001", "3.0000012"):
        assert f"coupling condition D={d}" in out
    report = (tmp_path / "out" / "sweep_report.csv").read_text(encoding="utf-8")
    for d in ("3.000001", "3.0000012"):
        assert f"k_condition_D_{d}," in report


def test_check_labels_keep_distinct_d_values_apart(tmp_path):
    cfg_file = write(tmp_path / "d.cfg", "[check]\ngrid_d_values = 5.000001, 5\n"
                     "grid_z_count = 2\n")
    assert main(["check", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "oracle_report.csv").read_text(encoding="utf-8")
    assert "entropy[D=5.000001;Z=-0.9]" in report and "entropy[D=5;Z=-0.9]" in report


@pytest.mark.parametrize("command, section, key, value", [
    ("check", "check", "grid_d_values", ""),
    ("check", "check", "probe_betas", "0.01, -0.001"),
    ("sweep", "sweep", "k_d_values", "4, 3"),
    ("sweep", "sweep", "d_min", "3.0000001"),
    ("sweep", "sweep", "d_max", "3.0000001"),
    ("sweep", "sweep", "round_trip_points", "0"),
    ("run", "scenario", "x_right", "0"),
    ("nslimit", "nslimit", "domain_length", "0"),
])
def test_values_outside_the_gas_model_are_config_errors(tmp_path, capsys, command, section,
                                                       key, value):
    cfg_file = write(tmp_path / "bad.cfg", f"[{section}]\n{key} = {value}\n")
    assert main([command, "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error: [{section}] {key} = " in capsys.readouterr().err


def test_cli_outputs_are_deterministic(tmp_path):
    # the same config and seed give byte-identical CSVs, for every command;
    # sweep's convexity sample is drawn from the seed
    commands = [
        ["relax", "--tau", "0.2"],
        ["check", "--quick"],
        ["sweep", "--quick"],
        ["eigen", "--Z", "0.2", "--vy", "0.3"],
        ["nslimit", "--quick"],
        ["run", "--kind", "riemann", "--scheme", "muscl", "--boundary", "outflow",
         "--N", "32", "--t-end", "0.05"],
    ]
    for argv in commands:
        outputs = []
        for out in (tmp_path / argv[0] / "a", tmp_path / argv[0] / "b"):
            assert main([*argv, "--output-dir", str(out)]) == 0, argv
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert outputs[0] and outputs[0] == outputs[1], argv


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("ET6_OUTPUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["relax", "--tau", "0.5"]) == 0
    assert (target / "relax.csv").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           source, sub):
    # a path at or below an existing file
    target = Path(write(tmp_path / "file", "")) / sub
    argv = ["relax", "--output-dir", str(target)] if source == "flag" else ["relax"]
    if source == "env":
        monkeypatch.setenv("ET6_OUTPUT_DIR", str(target))
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"config error: output directory {target} cannot be created: ")


def test_malformed_config_exits_two(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[gas]\nD = 3\n")
    code = main(["check", "--config", cfg_file, "--output-dir", str(tmp_path / "o")])
    assert code == 2


def test_failed_assertion_exits_one(tmp_path, monkeypatch):
    from et6 import cli

    monkeypatch.setattr(cli, "RELAX_TOL", 1e-30)
    code = main(["relax", "--D", "5", "--output-dir", str(tmp_path / "o")])
    assert code == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--m", "--kB"])
def test_unit_flags_are_gone(tmp_path, capsys, flag):
    # the units are kB = m = 1 (et6.gas); the gas flags are --D and --tau
    with pytest.raises(SystemExit) as exc:
        main(["relax", flag, "2", "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SECTION_KEYS = {
    "gas": {"D", "tau"},
    "scenario": {"kind", "N", "x_left", "x_right", "cfl", "t_end", "output_cadence",
                 "boundary", "scheme", "limiter", "rho_left", "p_left", "v_left", "pi_left",
                 "rho_right", "p_right", "v_right", "pi_right", "x_split", "rho0", "T0",
                 "amplitude", "z0"},
    "check": {"grid_z_count", "grid_d_values", "z_span", "probe_betas"},
    "sweep": {"z_count", "d_count", "d_min", "d_max", "coverage", "round_trip_points",
              "convexity_states", "k_d_values"},
    "relax": {"z0", "t_end", "cadence"},
    "nslimit": {"tau", "N", "domain_length", "cfl", "t_end", "amplitude", "mask_fraction"},
    "output": {"directory", "seed", "quick"},
}


def test_config_sections_accept_exactly_their_keys():
    assert {f.name for f in fields(RunConfig)} == set(SECTION_KEYS)
    for section, keys in SECTION_KEYS.items():
        assert set(config._keys(section)) == keys, section
    total = sum(len(config._keys(section)) for section in SECTION_KEYS)
    assert total == 50
    # the README states both counts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"There are {total} keys in seven sections" in " ".join(readme.split())
    assert f"`[scenario]` ({len(config._keys('scenario'))} keys)" in readme


def ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return str(value)


def test_file_of_every_default_parses_to_defaults(tmp_path):
    defaults = RunConfig()
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {ini_value(getattr(getattr(defaults, section), key))}\n"
                                    for key in sorted(keys))
        for section, keys in SECTION_KEYS.items())
    cfg = load_config(write(tmp_path / "defaults.cfg", text))
    assert cfg == defaults
    for section, keys in SECTION_KEYS.items():
        for key in keys:
            parsed, default = getattr(getattr(cfg, section), key), getattr(getattr(defaults, section), key)
            assert type(parsed) is type(default), (section, key)


# one out-of-range value per check of a section's own dataclass
OUT_OF_RANGE = [
    ("scenario", "x_right", 0.0),
    ("scenario", "rho_left", 0.0),
    ("scenario", "p_left", -1.0),
    ("scenario", "rho_right", -0.125),
    ("scenario", "p_right", 0.0),
    ("scenario", "rho0", 0.0),
    ("scenario", "T0", -1.0),
    ("check", "grid_z_count", 1),
    ("check", "z_span", 1.0),
    ("check", "grid_d_values", ()),
    ("check", "probe_betas", (0.01, -0.001)),
    ("sweep", "z_count", 1),
    ("sweep", "d_count", 1),
    ("sweep", "d_min", 3.0),
    ("sweep", "d_max", 3.0000001),
    ("sweep", "coverage", 1.5),
    ("sweep", "round_trip_points", 0),
    ("sweep", "convexity_states", 0),
    ("sweep", "k_d_values", (4.0, 3.0)),
    ("relax", "t_end", -1.0),
    ("relax", "cadence", -0.1),
    ("nslimit", "tau", 0.0),
    ("nslimit", "N", 3),
    ("nslimit", "domain_length", 0.0),
    ("nslimit", "cfl", 1.0),
    ("nslimit", "t_end", 0.0),
    ("nslimit", "mask_fraction", 0.0),
    ("output", "seed", -1),
]
# pass bounds are constants of the code that judges them, not keys: any
# value of these former keys is an unknown key
BOUNDS = [
    ("scenario", "conservation_tol", 1.0),
    ("scenario", "entropy_step_tol", 1.0),
    ("check", "adaptive_tol", 1.0),
    ("check", "flux_tol", 1.0),
    ("check", "moment_tol", 1.0),
    ("check", "entropy_tol", 1.0),
    ("check", "decomposition_tol", 1.0),
    ("check", "equilibrium_tol", 1.0),
    ("sweep", "round_trip_tol", 1.0),
    ("sweep", "gradient_tol", 1.0),
    ("sweep", "speed_tol", 1.0),
    ("relax", "tol", 1.0),
    ("nslimit", "deviation_factor", 1.0),
]
# the units are kB = m = 1 (et6.gas): no key sets either, not even to 1
UNITS = [("gas", "m", 1.0), ("gas", "kB", 1.0)]
# smooth waves start at Pi = 0, and the solver's closing update relaxes it
FORMER = [("scenario", "pi_init", "ns")]
UNKNOWN = BOUNDS + UNITS + FORMER


@pytest.mark.parametrize("section, key, value", OUT_OF_RANGE + UNKNOWN,
                         ids=[f"{section}-{key}" for section, key, _ in OUT_OF_RANGE + UNKNOWN])
def test_each_section_checks_its_own_values(tmp_path, capsys, section, key, value):
    # the same check from Python and from a config file
    unknown = (section, key, value) in UNKNOWN
    with pytest.raises(TypeError if unknown else (ValueError, SolverError)):
        config._SECTION_TYPES[section](**{key: value})
    cfg_file = write(tmp_path / "bad.cfg", f"[{section}]\n{key} = {ini_value(value)}\n")
    assert main(["relax", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if unknown:
        assert err == f"config error: unknown key [{section}] {key}\n"
    else:
        assert f"config error: [{section}] {key} = {value}: " in err


def test_domain_keys_apply_together(tmp_path):
    # x_left = 2 alone would leave the default x_right = 1 below it
    cfg = load_config(write(tmp_path / "shifted.cfg", "[scenario]\nx_left = 2\nx_right = 3\n"))
    assert (cfg.scenario.x_left, cfg.scenario.x_right) == (2.0, 3.0)
    with pytest.raises(ConfigError, match=r"^\[scenario\] x_left = 2.0: empty domain \[2.0, 1.0\]"):
        load_config(write(tmp_path / "empty.cfg", "[scenario]\nx_left = 2\nx_right = 0.5\n"))


BENCH_CASES = {
    "sod.ini": {"gas": {"D": 5.0, "tau": 1e-5},
                "scenario": {"kind": "riemann", "scheme": "muscl", "limiter": "minmod",
                             "N": 1200, "boundary": "outflow", "t_end": 0.15, "rho_left": 1.0,
                             "p_left": 1.0, "rho_right": 0.125, "p_right": 0.1}},
    "stiff.ini": {"gas": {"D": 5.0},
                  "nslimit": {"tau": 1e-3, "N": 200, "domain_length": 8.0, "t_end": 0.3}},
    "strong_shock.ini": {"gas": {"D": 5.0, "tau": 1.0},
                         "scenario": {"kind": "riemann", "scheme": "muscl", "limiter": "minmod",
                                      "N": 400, "boundary": "outflow", "t_end": 0.012,
                                      "x_split": 0.6, "rho_left": 1.0, "p_left": 1000.0,
                                      "rho_right": 1.0, "p_right": 0.01}},
    "window_edges.ini": {"gas": {"D": 5.0, "tau": 1.0},
                         "scenario": {"kind": "riemann", "scheme": "muscl", "limiter": "minmod",
                                      "N": 400, "boundary": "outflow", "t_end": 0.15,
                                      "rho_left": 1.0, "p_left": 1.0, "pi_left": -0.9,
                                      "rho_right": 1.0, "p_right": 1.0, "pi_right": 0.6}},
}


@pytest.mark.parametrize("case", sorted(BENCH_CASES))
def test_bench_cases_parse_to_their_values(case):
    cases = Path(__file__).resolve().parents[1] / "bench" / "cases"
    assert sorted(p.name for p in cases.glob("*.ini")) == sorted(BENCH_CASES)
    expected = RunConfig()
    for section, values in BENCH_CASES[case].items():
        expected = replace(expected, **{section: replace(getattr(expected, section), **values)})
    assert load_config(cases / case) == expected


def test_run_cli_strong_shock_stays_admissible(tmp_path):
    # Toro's test 3 with MUSCL: faces that would leave the window fall back
    # to first order, so every check of `et6 run` passes
    case = Path(__file__).resolve().parents[1] / "bench" / "cases" / "strong_shock.ini"
    out = tmp_path / "out"
    assert main(["run", "--config", str(case), "--output-dir", str(out)]) == 0
    diag = read_diagnostics(out)
    assert diag["t"][-1] == pytest.approx(0.012, rel=1e-12)
    assert max(diag["max_abs_Z"]) < 2.0 / 3.0


def test_dataclass_check_names_the_key(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[scenario]\nscheme = weno5\n")
    with pytest.raises(ConfigError, match=r"^\[scenario\] scheme = weno5: unknown scheme 'weno5'$"):
        load_config(cfg_file)


def test_flag_error_names_the_key(tmp_path, capsys):
    assert main(["run", "--N", "2", "--output-dir", str(tmp_path / "out")]) == 2
    assert "config error: [scenario] N = 2: need at least 4 cells" in capsys.readouterr().err


def test_output_dir_flag_overrides_config(tmp_path):
    cfg_file = write(tmp_path / "out.cfg", f"[output]\ndirectory = {tmp_path / 'from_cfg'}\n")
    assert main(["relax", "--config", cfg_file, "--output-dir", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "relax.csv").exists()
    assert not (tmp_path / "from_cfg").exists()


NO_SCIPY_RUN = """
import sys, tempfile
from et6.cli import main

with tempfile.TemporaryDirectory() as out:
    codes = [main([command, "--quick", "--output-dir", out])
             for command in ("check", "eigen", "relax", "nslimit", "sweep")]
    codes.append(main(["run", "--quick", "--N", "32", "--t-end", "0.05", "--output-dir", out]))
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_command_imports_scipy():
    # numpy is the one runtime dependency: every command, in one fresh
    # interpreter, leaves no scipy module loaded
    path = filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                         os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-W", "error", "-c", NO_SCIPY_RUN],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []", done.stdout
