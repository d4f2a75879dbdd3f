import math

import pytest

from et6.cli import main
from et6.config import ConfigError, load_config


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


def test_run_cli_counts_entropy_leaving_through_outflow(tmp_path):
    # two rarefactions carry entropy out of both ends: the total falls, but
    # each step's change plus the outflow does not
    cfg_file = write(tmp_path / "outflow.cfg", "[scenario]\nkind = riemann\nscheme = rusanov\n"
                     "N = 400\nboundary = outflow\nt_end = 0.15\nrho_left = 1\n"
                     "rho_right = 1\np_left = 0.4\np_right = 0.4\nv_left = -2\nv_right = 2\n")
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
