"""Command-line interface: flags, config files, outputs, exit codes."""

import json

import pytest

from dicke_dipole.cli import main

TC_FLAGS = ["--omega0", "1", "--Omega", "1", "--g1", "0.6", "--g2", "0.6", "--lambda", "0"]
POINT_FLAGS = TC_FLAGS + ["--beta", "3.0"]

GRID = {
    "axis1": {"name": "g1", "min": 0.3, "max": 0.9, "count": 4},
    "axis2": {"name": "beta", "min": 0.5, "max": 8.0, "count": 3, "scale": "log"},
    "fixed": {"omega0": 1.0, "Omega": 1.0, "g2": 0.6, "lambda": 0.0},
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tc_reports_critical_temperature(capsys):
    code, out, _ = run(capsys, ["tc", *TC_FLAGS])
    assert code == 0
    payload = json.loads(out)
    assert payload["beta_c"] == pytest.approx(1.7129785913749407, rel=1e-12)
    assert payload["T_c"] == pytest.approx(1.0 / 1.7129785913749407, rel=1e-12)
    assert payload["ratio"] == pytest.approx(1.0 / 1.44, rel=1e-12)


def test_tc_boundary_lambda_is_no_transition(capsys):
    # ratio = 1 exactly at lambda = 0.44: excluded from the transition region
    code, out, _ = run(capsys, ["tc", *TC_FLAGS[:-1], "0.44"])
    assert code == 0
    payload = json.loads(out)
    assert payload["phase"] == "no_transition"
    assert payload["ratio"] >= 1.0


def test_tc_validates_but_ignores_beta(capsys):
    code, out, err = run(capsys, ["tc", *TC_FLAGS, "--beta", "-1"])
    assert code == 2 and out == ""
    assert "beta" in err
    _, with_beta, _ = run(capsys, ["tc", *TC_FLAGS, "--beta", "2"])
    _, without, _ = run(capsys, ["tc", *TC_FLAGS])
    assert with_beta == without


def test_gap_bracket_failure_exits_3(capsys):
    code, out, err = run(capsys, ["gap", "--omega0", "1e-300", "--Omega", "1", "--g1", "1e12",
                                  "--g2", "0", "--lambda", "0", "--beta", "1"])
    assert code == 3 and out == ""
    assert "failed to bracket" in err
    code, out, err = run(capsys, ["gap", "--omega0", "1e-290", "--Omega", "1", "--g1", "1e8",
                                  "--g2", "0", "--lambda", "0", "--beta", "1"])
    assert code == 3 and out == ""
    assert "overflows a double" in err


def test_tc_missing_field_exits_2(capsys):
    code, _, err = run(capsys, ["tc", "--omega0", "1", "--g1", "0.6",
                                "--g2", "0.6", "--lambda", "0"])
    assert code == 2
    assert "Omega" in err


def test_tc_invalid_value_exits_2(capsys):
    code, _, err = run(capsys, ["tc", "--omega0", "-1", *TC_FLAGS[2:]])
    assert code == 2
    assert "omega0" in err


def test_gap_normal_phase_row(capsys):
    code, out, _ = run(capsys, ["gap", *TC_FLAGS, "--beta", "1.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["phase"] == "normal"
    assert payload["b0"] == 0.0
    assert payload["f_diff"] == 0.0


def test_free_energy_keys_match_sweep_record(capsys):
    code, out, _ = run(capsys, ["free-energy", *POINT_FLAGS])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "omega0", "Omega", "g1", "g2", "lambda", "beta",
        "phase", "b0", "omega_delta", "f_diff",
    ]
    assert payload["phase"] == "superradiant"
    assert payload["f_diff"] < 0


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps(
        {"omega0": 1.0, "Omega": 1.0, "g1": 0.1, "g2": 0.6, "lambda": 0.0}
    ))
    code, out, _ = run(capsys, ["tc", "--config", str(config), "--g1", "0.6"])
    assert code == 0
    assert json.loads(out)["beta_c"] == pytest.approx(1.7129785913749407, rel=1e-12)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"omega0": 1.0, "coupling": 2.0}))
    code, _, err = run(capsys, ["tc", "--config", str(config)])
    assert code == 2
    assert "coupling" in err


def test_conflicting_duplicate_flag_rejected(capsys):
    code, _, err = run(capsys, ["tc", *TC_FLAGS, "--g1", "0.7"])
    assert code == 2
    assert "conflicting duplicate" in err
    # an identical repeat is not a conflict
    code, out, _ = run(capsys, ["tc", *TC_FLAGS, "--g1", "0.6"])
    assert code == 0 and "beta_c" in json.loads(out)


def test_dump_config_round_trips(tmp_path, capsys):
    code, dumped, _ = run(capsys, ["tc", *TC_FLAGS, "--dump-config"])
    assert code == 0
    config = tmp_path / "dumped.json"
    config.write_text(dumped)
    _, direct, _ = run(capsys, ["tc", *TC_FLAGS])
    _, reloaded, _ = run(capsys, ["tc", "--config", str(config)])
    assert reloaded == direct


def test_sweep_writes_csv_file(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    out_file = tmp_path / "pd.csv"
    code, _, _ = run(capsys, ["sweep", "--grid", str(grid), "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().split("\n")
    assert lines[0] == "omega0,Omega,g1,g2,lambda,beta,phase,b0,omega_delta,f_diff"
    assert len(lines) == 1 + 12 + 1  # header + rows + trailing LF


def test_sweep_jobs_byte_identical(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    files = []
    for jobs in ("1", "2"):
        out_file = tmp_path / f"pd_{jobs}.csv"
        code, _, _ = run(capsys, ["sweep", "--grid", str(grid),
                                  "--out", str(out_file), "--jobs", jobs])
        assert code == 0
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


def test_sweep_json_format(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    code, out, _ = run(capsys, ["sweep", "--grid", str(grid), "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert len(rows) == 12 and rows[0]["phase"] in ("normal", "superradiant")


def test_sweep_missing_grid_file_exits_4(tmp_path, capsys):
    code, _, err = run(capsys, ["sweep", "--grid", str(tmp_path / "absent.json")])
    assert code == 4 and "absent.json" in err


def test_sweep_invalid_grid_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"axis1": GRID["axis1"], "axis2": GRID["axis1"],
                                "fixed": GRID["fixed"]}))
    code, _, err = run(capsys, ["sweep", "--grid", str(grid)])
    assert code == 2 and "both sweep" in err


def test_oracle_table_output(capsys):
    code, out, _ = run(capsys, [
        "oracle", "--omega0", "1", "--Omega", "1", "--g1", "0.4", "--g2", "0.4",
        "--lambda", "0.1", "--beta", "1.0", "--N", "1,2", "--n-max", "8",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,f_diff_exact,boson_occupation,f_diff_mf,b0_sq_mf"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "inf"]


def test_oracle_table_golden(capsys):
    code, out, _ = run(capsys, [
        "oracle", "--omega0", "1", "--Omega", "1", "--g1", "0.4", "--g2", "0.4",
        "--lambda", "0.1", "--beta", "1.0", "--N", "1,2,3", "--n-max", "8",
        "--digits", "12",
    ])
    assert code == 0
    assert out == (
        "N,f_diff_exact,boson_occupation,f_diff_mf,b0_sq_mf\n"
        "1,-0.148728184198,0.730996997007,0,0\n"
        "2,-0.0782254988351,0.37446246199,0,0\n"
        "3,-0.0531965374422,0.252306928279,0,0\n"
        "inf,0,0,0,0\n"
    )


def test_fermion_check_passes(capsys):
    code, out, _ = run(capsys, [
        "fermion-check", "--omega0", "1", "--Omega", "1", "--g1", "0.7",
        "--g2", "0.2", "--lambda", "0.3", "--beta", "2.0", "--N", "2",
        "--n-max", "12",
    ])
    assert code == 0
    verdict, value = out.split()
    assert verdict == "PASS"
    assert float(value) < 1e-10


def test_boundary_csv(capsys):
    code, out, _ = run(capsys, [
        "boundary", "--omega0", "1", "--Omega", "1", "--g1", "0.6", "--g2", "0.6",
        "--lambda-min", "0.0", "--lambda-max", "0.5", "--count", "6",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,T_c"
    assert len(lines) == 7
    assert lines[-1].endswith(",")  # past the cut: empty T_c field


def test_digits_flag_truncates(capsys):
    code, out, _ = run(capsys, ["tc", *TC_FLAGS, "--digits", "6"])
    assert code == 0
    assert json.loads(out)["beta_c"] == pytest.approx(1.71298, abs=1e-5)
    code, _, err = run(capsys, ["tc", *TC_FLAGS, "--digits", "0"])
    assert code == 2 and "digits" in err


def test_version_and_help(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0 and "dicke-dipole" in out
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and "fermion-check" in out
