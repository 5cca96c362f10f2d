"""Command-line interface: flags, config files, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dicke_dipole import cli
from dicke_dipole.cli import main
from dicke_dipole.sweep import MAX_GRID_POINTS
from oracles import mean_field_point

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
    # beta*omega_delta/2 = 5e309 overflows
    code, out, err = run(capsys, ["gap", "--omega0", "1e-298", "--Omega", "1", "--g1", "1",
                                  "--g2", "0", "--lambda", "0", "--beta", "1e12"])
    assert code == 3 and out == ""
    assert "overflows a double" in err


def test_gap_b0_near_the_largest_double(capsys):
    # (g1 + g2)*Delta = 5e313 would overflow on the way to b0 = 5e297
    code, out, _ = run(capsys, ["gap", "--omega0", "1e-290", "--Omega", "1", "--g1", "1e8",
                                "--g2", "0", "--lambda", "0", "--beta", "1"])
    assert code == 0
    payload = json.loads(out)
    phase, x, b0, f_diff = mean_field_point(1e-290, 1.0, 1e8, 0.0, 0.0, 1.0)
    assert payload["phase"] == phase == "superradiant"
    assert payload["omega_delta"] == pytest.approx(x, rel=1e-12)
    assert payload["b0"] == pytest.approx(b0, rel=1e-12)
    assert payload["b0"] == pytest.approx(5e297, rel=1e-12)
    assert payload["f_diff"] == pytest.approx(f_diff, rel=1e-12)


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


@pytest.mark.parametrize("flag", ["--config", "--grid"])
@pytest.mark.parametrize("content, detail", [
    (b'{"omega0": 1.0,', "Expecting property name"),
    (b'\xff{}', "'utf-8' codec can't decode"),
    (b'{"g1": 1' + b'0' * 5000 + b'}', "Exceeds the limit"),
], ids=["malformed", "not-utf-8", "int-past-digit-limit"])
def test_unreadable_json_file_exits_2(tmp_path, capsys, flag, content, detail):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    argv = ["sweep", "--grid", str(path)] if flag == "--grid" else ["tc", "--config", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag[2:]} file is not valid JSON: ") and detail in err


def test_int_too_big_for_a_double_exits_2(tmp_path, capsys):
    # exit 2, not an OverflowError traceback and exit 1, the fermion-check FAIL code
    huge = 10**400
    config = tmp_path / "params.json"
    config.write_text(json.dumps(
        {"omega0": 1.0, "Omega": 1.0, "g1": huge, "g2": 0.6, "lambda": 0.0, "beta": 2.0}
    ))
    for argv in (["tc", "--config", str(config)], ["gap", "--config", str(config)],
                 ["tc", "--config", str(config), "--dump-config"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: g1 must be a finite number, got {huge!r}\n"
    grid = tmp_path / "grid.json"
    for spec, message in (
        (dict(GRID, axis1=dict(GRID["axis1"], max=huge)), "axis g1 max"),
        (dict(GRID, fixed=dict(GRID["fixed"], Omega=-huge)), "fixed value Omega"),
    ):
        grid.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["sweep", "--grid", str(grid)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message} must be a finite number, got ")


def test_conflicting_duplicate_flag_rejected(capsys):
    code, _, err = run(capsys, ["tc", *TC_FLAGS, "--g1", "0.7"])
    assert code == 2
    assert "conflicting duplicate" in err
    # an identical repeat is not a conflict
    code, out, _ = run(capsys, ["tc", *TC_FLAGS, "--g1", "0.6"])
    assert code == 0 and "beta_c" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["boundary", *TC_FLAGS[:-2], "--lambda-max", "0.5", "--lambda-min", "0",
     "--lambda-min", "0.4"],
    ["boundary", *TC_FLAGS[:-2], "--lambda-min", "0", "--lambda-max", "0.5",
     "--lambda-max", "0.4"],
    ["tc", "--config", "a.json", "--config", "b.json"],
    ["sweep", "--grid", "a.json", "--grid", "b.json"],
    ["oracle", *POINT_FLAGS, "--N", "2,4", "--N", "2"],
    ["fermion-check", *POINT_FLAGS, "--N", "1", "--N", "2"],
])
def test_every_flag_rejects_a_conflicting_repeat(capsys, argv):
    # none of these files exist: the conflict is reported before any is opened
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"conflicting duplicate flag {argv[-2]}" in err


def test_digits_checked_before_any_work(tmp_path, capsys):
    # the --digits error now wins over the errors the work would raise
    missing = str(tmp_path / "missing.json")
    for argv in (["oracle", *POINT_FLAGS, "--N", "x", "--digits", "0"],
                 ["sweep", "--grid", missing, "--digits", "0"],
                 ["gap", *TC_FLAGS, "--beta", "-1", "--digits", "-2"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: --digits must be >= 1, got {argv[-1]}\n"
    # --dump-config still prints the merged parameters
    code, out, _ = run(capsys, ["tc", *TC_FLAGS, "--digits", "0", "--dump-config"])
    assert code == 0 and json.loads(out)["g1"] == 0.6


def test_non_finite_tol_exits_2(capsys):
    for tol in ("inf", "nan"):
        code, out, err = run(capsys, ["oracle", *POINT_FLAGS, "--N", "2", "--tol", tol])
        assert code == 2 and out == ""
        assert err.startswith("error: tol must be a positive finite number")


def test_fermion_basis_past_the_cap_exits_2(capsys):
    # 16 * 2001 fermion states: refused before any matrix is built
    code, out, err = run(capsys, ["fermion-check", *POINT_FLAGS, "--N", "2", "--n-max", "2000"])
    assert code == 2 and out == ""
    assert "fermion-basis dimension 32016 exceeds the cap" in err


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 7.6 GiB"),
     "error: out of memory: Unable to allocate 7.6 GiB\n"),
])
def test_memory_error_exits_3(monkeypatch, capsys, exc, message):
    def exhausted(args, config):
        raise exc

    monkeypatch.setattr(cli, "_cmd_tc", exhausted)
    code, out, err = run(capsys, ["tc", *TC_FLAGS])
    assert code == 3 and out == "" and err == message


def test_mean_field_commands_never_import_scipy(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    requests = [["tc", *TC_FLAGS], ["gap", *POINT_FLAGS], ["free-energy", *POINT_FLAGS],
                ["sweep", "--grid", str(grid)],
                ["boundary", *TC_FLAGS[:-2], "--lambda-min", "0", "--lambda-max", "0.5"]]
    script = (
        "import sys\n"
        "from dicke_dipole.cli import main\n"
        f"codes = [main(argv) for argv in {requests!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.stderr.write(repr((codes, loaded)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stderr == repr(([0] * len(requests), []))


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
    # exit 2, not a traceback and exit 1, which is the fermion-check FAIL code
    for fixed in ("ab", 5):
        grid.write_text(json.dumps(dict(GRID, fixed=fixed)))
        code, out, err = run(capsys, ["sweep", "--grid", str(grid)])
        assert (code, out) == (2, "")
        assert err == f"error: fixed must be a dict (a JSON object), got {fixed!r}\n"
    grid.write_text(json.dumps(dict(GRID, axis1=dict(GRID["axis1"], min="0.2", max=True))))
    code, out, err = run(capsys, ["sweep", "--grid", str(grid)])
    assert (code, out) == (2, "")
    assert err == "error: axis g1 min must be a finite number, got '0.2'\n"


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


BOUNDARY_FLAGS = ["--omega0", "1", "--Omega", "1", "--g1", "0.6", "--g2", "0.6",
                  "--lambda-min", "0", "--lambda-max", "0.5"]


def test_boundary_rejects_digits_before_opening_out(tmp_path, capsys):
    out_file = tmp_path / "boundary.csv"
    out_file.write_text("lambda,T_c\n")
    code, out, err = run(capsys, ["boundary", *BOUNDARY_FLAGS, "--digits", "0",
                                  "--out", str(out_file)])
    assert code == 2 and out == ""
    assert err == "error: --digits must be >= 1, got 0\n"
    assert out_file.read_text() == "lambda,T_c\n"


def test_boundary_validates_beta_lambda_and_count(capsys):
    code, _, tc_err = run(capsys, ["tc", *TC_FLAGS, "--beta", "-1"])
    assert code == 2
    code, out, err = run(capsys, ["boundary", *BOUNDARY_FLAGS, "--beta", "-1", "--lambda", "99"])
    assert code == 2 and out == "" and err == tc_err
    code, out, err = run(capsys, ["boundary", *BOUNDARY_FLAGS, "--lambda", "1e13"])
    assert code == 2 and out == "" and "lam exceeds the magnitude cap" in err
    code, out, err = run(capsys, ["boundary", *BOUNDARY_FLAGS, "--count",
                                  str(MAX_GRID_POINTS + 1)])
    assert code == 2 and out == ""
    assert err == f"error: count is {MAX_GRID_POINTS + 1}, cap is {MAX_GRID_POINTS}\n"
    code, out, err = run(capsys, ["boundary", *TC_FLAGS[:-2], "--lambda-min=-2e12",
                                  "--lambda-max", "0", "--count", "3"])
    assert code == 2 and out == ""
    assert err == "error: lambda[0]=-2000000000000.0: lam exceeds the magnitude cap 1e+12\n"


def test_fermion_check_has_no_digits_flag(capsys):
    code, out, err = run(capsys, [
        "fermion-check", "--omega0", "1", "--Omega", "1", "--g1", "0.4", "--g2", "0.4",
        "--lambda", "0.1", "--beta", "1", "--N", "1", "--n-max", "8", "--digits", "3",
    ])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --digits 3" in err


def test_fermion_check_has_no_tol_flag(capsys):
    # the identity check never reads the cutoff-doubling tolerance
    code, out, err = run(capsys, [
        "fermion-check", "--omega0", "1", "--Omega", "1", "--g1", "0.4", "--g2", "0.4",
        "--lambda", "0.1", "--beta", "1", "--N", "1", "--n-max", "8", "--tol", "1e-8",
    ])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tol 1e-8" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "grid.json"],
    ["oracle", *POINT_FLAGS, "--N", "2", "--n-max", "4"],
])
def test_no_jobs_flag(capsys, argv):
    # the grid is solved in one pass and table rows run serially
    code, out, err = run(capsys, [*argv, "--jobs", "2"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs 2" in err


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


_GOLDEN_TC = "tc --omega0 1 --Omega 1 --g1 0.6 --g2 0.6"
_GOLDEN_POINT = "--omega0 1 --Omega 1 --g1 0.6 --g2 0.6 --lambda 0 --beta 3"
_GOLDEN_RECORD = ('{"omega0": 1.0, "Omega": 1.0, "g1": 0.6, "g2": 0.6, "lambda": 0.0, '
                  '"beta": 3.0, "phase": "superradiant", ')
_GOLDEN_SWEEP_JSON = (
    '{"omega0": 1.0, "Omega": 1.0, "g1": 0.3, "g2": 0.6, "lambda": 0.0, "beta": 0.5, '
    '"phase": "normal", "b0": 0.0, "omega_delta": 1.0, "f_diff": 0.0}\n'
    '{"omega0": 1.0, "Omega": 1.0, "g1": 0.3, "g2": 0.6, "lambda": 0.0, "beta": 8.0, '
    '"phase": "normal", "b0": 0.0, "omega_delta": 1.0, "f_diff": 0.0}\n'
    '{"omega0": 1.0, "Omega": 1.0, "g1": 0.9, "g2": 0.6, "lambda": 0.0, "beta": 0.5, '
    '"phase": "normal", "b0": 0.0, "omega_delta": 1.0, "f_diff": 0.0}\n'
    '{"omega0": 1.0, "Omega": 1.0, "g1": 0.9, "g2": 0.6, "lambda": 0.0, "beta": 8.0, '
    '"phase": "superradiant", '
)
_GOLDEN_BOUNDARY = ("boundary --omega0 1 --Omega 1 --g1 0.6 --g2 0.6 "
                    "--lambda-min 0 --lambda-max 0.5 --count 3")
_GOLDEN_ORACLE = ("oracle --omega0 1 --Omega 1 --g1 0.4 --g2 0.4 --lambda 0.1 --beta 1 "
                  "--N 1,2 --n-max 8 --format json")
_GOLDEN_ORACLE_MF = '"f_diff_mf": 0.0, "b0_sq_mf": 0.0}\n'
_GOLDEN_ORACLE_INF = ('{"N": "inf", "f_diff_exact": 0.0, "boson_occupation": 0.0, '
                      + _GOLDEN_ORACLE_MF)

# Every printed format, with and without --digits: the bytes the CLI wrote
# before its outputs shared one row writer.
GOLDEN = [
    (f"{_GOLDEN_TC} --lambda 0",
     '{"beta_c": 1.7129785913749407, "T_c": 0.5837784576147792, '
     '"ratio": 0.6944444444444444}\n'),
    (f"{_GOLDEN_TC} --lambda 0 --digits 4",
     '{"beta_c": 1.713, "T_c": 0.5838, "ratio": 0.6944}\n'),
    (f"{_GOLDEN_TC} --lambda 0.44",
     '{"phase": "no_transition", "ratio": 1.0}\n'),
    (f"{_GOLDEN_TC} --lambda 0.44 --digits 4",
     '{"phase": "no_transition", "ratio": 1.0}\n'),
    (f"gap {_GOLDEN_POINT}",
     _GOLDEN_RECORD + '"b0": 0.4065093026725514, "omega_delta": 1.3970822895583876, '
     '"f_diff": -0.022100258730361866}\n'),
    (f"gap {_GOLDEN_POINT} --digits 4",
     _GOLDEN_RECORD + '"b0": 0.4065, "omega_delta": 1.397, "f_diff": -0.0221}\n'),
    (f"free-energy {_GOLDEN_POINT}",
     _GOLDEN_RECORD + '"b0": 0.4065093026725514, "omega_delta": 1.3970822895583876, '
     '"f_diff": -0.022100258730361866}\n'),
    (f"free-energy {_GOLDEN_POINT} --digits 4",
     _GOLDEN_RECORD + '"b0": 0.4065, "omega_delta": 1.397, "f_diff": -0.0221}\n'),
    ("sweep --grid grid.json",
     "omega0,Omega,g1,g2,lambda,beta,phase,b0,omega_delta,f_diff\n"
     "1.0,1.0,0.3,0.6,0.0,0.5,normal,0.0,1.0,0.0\n"
     "1.0,1.0,0.3,0.6,0.0,8.0,normal,0.0,1.0,0.0\n"
     "1.0,1.0,0.9,0.6,0.0,0.5,normal,0.0,1.0,0.0\n"
     "1.0,1.0,0.9,0.6,0.0,8.0,superradiant,0.6718547868560659,2.249999931465041,"
     "-0.1735691872182471\n"),
    ("sweep --grid grid.json --digits 4",
     "omega0,Omega,g1,g2,lambda,beta,phase,b0,omega_delta,f_diff\n"
     "1,1,0.3,0.6,0,0.5,normal,0,1,0\n"
     "1,1,0.3,0.6,0,8,normal,0,1,0\n"
     "1,1,0.9,0.6,0,0.5,normal,0,1,0\n"
     "1,1,0.9,0.6,0,8,superradiant,0.6719,2.25,-0.1736\n"),
    ("sweep --grid grid.json --format json",
     _GOLDEN_SWEEP_JSON + '"b0": 0.6718547868560659, "omega_delta": 2.249999931465041, '
     '"f_diff": -0.1735691872182471}\n'),
    ("sweep --grid grid.json --format json --digits 4",
     _GOLDEN_SWEEP_JSON + '"b0": 0.6719, "omega_delta": 2.25, "f_diff": -0.1736}\n'),
    (_GOLDEN_BOUNDARY,
     "lambda,T_c\n0.0,0.5837784576147792\n0.25,0.409059397463315\n0.5,\n"),
    (f"{_GOLDEN_BOUNDARY} --digits 4",
     "lambda,T_c\n0,0.5838\n0.25,0.4091\n0.5,\n"),
    (_GOLDEN_ORACLE,
     '{"N": 1, "f_diff_exact": -0.14872818419846023, '
     '"boson_occupation": 0.7309969970072565, ' + _GOLDEN_ORACLE_MF
     + '{"N": 2, "f_diff_exact": -0.07822549883514585, '
     '"boson_occupation": 0.37446246199018396, ' + _GOLDEN_ORACLE_MF + _GOLDEN_ORACLE_INF),
    (f"{_GOLDEN_ORACLE} --digits 4",
     '{"N": 1, "f_diff_exact": -0.1487, "boson_occupation": 0.731, ' + _GOLDEN_ORACLE_MF
     + '{"N": 2, "f_diff_exact": -0.07823, "boson_occupation": 0.3745, ' + _GOLDEN_ORACLE_MF
     + _GOLDEN_ORACLE_INF),
]


GOLDEN_IDS = [
    f"{name}{suffix}"
    for name in ("tc", "tc-no_transition", "gap", "free-energy", "sweep-csv", "sweep-json",
                 "boundary", "oracle-json")
    for suffix in ("", "-digits")
]


@pytest.mark.parametrize("command, expected", GOLDEN, ids=GOLDEN_IDS)
def test_printed_formats_golden(command, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(json.dumps({
        "axis1": {"name": "g1", "min": 0.3, "max": 0.9, "count": 2},
        "axis2": {"name": "beta", "min": 0.5, "max": 8.0, "count": 2, "scale": "log"},
        "fixed": {"omega0": 1.0, "Omega": 1.0, "g2": 0.6, "lambda": 0.0},
    }))
    assert run(capsys, command.split()) == (0, expected, "")
