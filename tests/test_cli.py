import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from et6 import config
from et6.cli import main
from et6.config import ConfigError, RunConfig, load_config


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_config_minimal_defaults(tmp_path):
    cfg_file = write(tmp_path / "min.cfg", "[gas]\nD = 5\n")
    cfg = load_config(cfg_file)
    assert cfg.gas.D == 5.0
    assert cfg.gas.kB == 1.0
    assert cfg.gas.m == 1.0
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


def test_eigen_cli_rejects_z_outside_window(tmp_path, capsys):
    assert main(["eigen", "--Z", "5", "--output-dir", str(tmp_path / "out")]) == 2
    assert "outside the admissible window" in capsys.readouterr().err


def test_check_cli_quick_passes(tmp_path):
    code = main(["check", "--quick", "--output-dir", str(tmp_path / "out")])
    assert code == 0
    table = (tmp_path / "out" / "oracle_report.csv").read_text().splitlines()
    assert table[0] == "quantity,closed_form,quadrature,rel_err,rule"
    assert len(table) > 10


def test_sweep_cli_quick_passes(tmp_path):
    code = main(["sweep", "--quick", "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "sweep_hyperbolicity.csv").exists()
    assert (tmp_path / "out" / "sweep_report.csv").exists()


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
    # Pi = 2 p lies above the window's upper edge (D - 3) p / 3 = 2 p / 3
    cfg_file = write(tmp_path / "above.cfg", "[scenario]\nkind = riemann\npi_left = 2\n")
    assert main(["run", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["solver error: initial Pi/p outside the window: 2 at index 0"]


def test_check_cli_oracle_error_exits_one(tmp_path, capsys):
    # scipy's 512-node Laguerre rule is NaN: one line, no traceback, no PASS
    cfg_file = write(tmp_path / "nan.cfg", "[check]\nlaguerre_order = 512\ngrid_z_count = 2\n"
                     "grid_d_values = 5\n")
    assert main(["check", "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("oracle error: scipy returned non-finite"), err


@pytest.mark.parametrize("command, section, key, value", [
    ("check", "check", "grid_d_values", ""),
    ("check", "check", "probe_betas", "0.01, -0.001"),
    ("sweep", "sweep", "k_d_values", "4, 3"),
    ("sweep", "sweep", "d_min", "3.0000001"),
    ("sweep", "sweep", "d_max", "3.0000001"),
])
def test_values_outside_the_gas_model_are_config_errors(tmp_path, capsys, command, section,
                                                       key, value):
    cfg_file = write(tmp_path / "bad.cfg", f"[{section}]\n{key} = {value}\n")
    assert main([command, "--config", cfg_file, "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error: [{section}] {key} = " in capsys.readouterr().err


def test_cli_outputs_are_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["relax", "--tau", "0.2", "--output-dir", str(out)]) == 0
    assert (out1 / "relax.csv").read_bytes() == (out2 / "relax.csv").read_bytes()


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("ET6_OUTPUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["relax", "--tau", "0.5"]) == 0
    assert (target / "relax.csv").exists()


def test_malformed_config_exits_two(tmp_path):
    cfg_file = write(tmp_path / "bad.cfg", "[gas]\nD = 3\n")
    code = main(["check", "--config", cfg_file, "--output-dir", str(tmp_path / "o")])
    assert code == 2


def test_failed_assertion_exits_one(tmp_path):
    cfg_file = write(tmp_path / "strict.cfg", "[gas]\nD = 5\n[relax]\ntol = 1e-30\n")
    code = main(["relax", "--config", cfg_file, "--output-dir", str(tmp_path / "o")])
    assert code == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


SECTION_KEYS = {
    "gas": {"D", "m", "kB", "tau"},
    "scenario": {"kind", "N", "x_left", "x_right", "cfl", "t_end", "output_cadence",
                 "boundary", "scheme", "limiter", "rho_left", "p_left", "v_left", "pi_left",
                 "rho_right", "p_right", "v_right", "pi_right", "x_split", "rho0", "T0",
                 "amplitude", "wavelength", "pi_init", "z0", "conservation_tol",
                 "entropy_step_tol"},
    "check": {"hermite_order", "laguerre_order", "adaptive_tol", "validate", "flux_tol",
              "moment_tol", "entropy_tol", "decomposition_tol", "equilibrium_tol",
              "grid_z_count", "grid_d_values", "z_span", "probe_betas"},
    "sweep": {"z_count", "d_count", "d_min", "d_max", "coverage", "round_trip_points",
              "round_trip_tol", "convexity_states", "gradient_tol", "k_d_values", "speed_tol"},
    "relax": {"z0", "t_end", "cadence", "tol"},
    "nslimit": {"tau", "N", "domain_length", "cfl", "t_end", "amplitude", "mask_fraction",
                "deviation_factor"},
    "output": {"directory", "seed", "quick"},
}


def test_config_sections_accept_exactly_their_keys():
    assert {f.name for f in fields(RunConfig)} == set(SECTION_KEYS)
    for section, keys in SECTION_KEYS.items():
        assert set(config._keys(section)) == keys, section


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
    cfg_file = write(tmp_path / "bad.cfg", "[scenario]\npi_init = NS\n")
    with pytest.raises(ConfigError, match=r"^\[scenario\] pi_init = NS: unknown initial Pi"):
        load_config(cfg_file)


def test_flag_error_names_the_key(tmp_path, capsys):
    assert main(["run", "--N", "2", "--output-dir", str(tmp_path / "out")]) == 2
    assert "config error: [scenario] N = 2: need at least 4 cells" in capsys.readouterr().err


def test_output_dir_flag_overrides_config(tmp_path):
    cfg_file = write(tmp_path / "out.cfg", f"[output]\ndirectory = {tmp_path / 'from_cfg'}\n")
    assert main(["relax", "--config", cfg_file, "--output-dir", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "relax.csv").exists()
    assert not (tmp_path / "from_cfg").exists()
