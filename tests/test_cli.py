"""Command-line interface: flags, config files, outputs, exit codes."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dicke_dipole import cli
from dicke_dipole.cli import main
from dicke_dipole.sweep import MAX_DIGITS, MAX_GRID_POINTS
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


def test_negative_value_in_exponent_form_is_read_as_a_value(capsys):
    # argparse's own pattern takes -1e-05 for a flag; each request must read
    # as its --flag=value spelling does, and the negative tol is then refused
    # as a value
    for head, flag, value, code in (
        (["tc", *TC_FLAGS[:-2]], "--lambda", "-1e-05", 0),
        (["oracle", *POINT_FLAGS, "--N", "2", "--n-max", "4"], "--tol", "-1e-09", 2),
        (["boundary", *TC_FLAGS[:-2], "--lambda-max", "0.5", "--count", "3"],
         "--lambda-min", "-1e-05", 0),
    ):
        spaced = run(capsys, [*head, flag, value])
        assert spaced == run(capsys, [*head, f"{flag}={value}"])
        assert spaced[0] == code
    # a conflicting repeat and an unknown flag are still refused
    code, out, err = run(capsys, ["tc", *TC_FLAGS[:-2], "--lambda", "-1e-05", "--lambda", "-2e-05"])
    assert (code, out) == (2, "")
    assert "conflicting duplicate flag --lambda: -1e-05 then -2e-05" in err
    code, out, err = run(capsys, ["tc", *TC_FLAGS, "--bogus", "1"])
    assert (code, out) == (2, "") and "unrecognized arguments: --bogus 1" in err


@pytest.mark.parametrize("value, message", [
    ("-inf", "ends must be finite, got (-inf, 0.0)"),
    ("-Infinity", "ends must be finite, got (-inf, 0.0)"),
    ("-NaN", "must satisfy min < max, got (nan, 0.0)"),
])
def test_negative_infinity_or_nan_is_read_as_a_value(capsys, value, message):
    # argparse's own pattern takes -inf for a flag; the boundary range is
    # then refused by name, as its --flag=value spelling is
    head = ["boundary", *TC_FLAGS[:-2], "--lambda-max", "0", "--count", "3"]
    spaced = run(capsys, [*head, "--lambda-min", value])
    assert spaced == run(capsys, [*head, f"--lambda-min={value}"])
    assert spaced == (2, "", f"error: lambda_range {message}\n")


def _conflicting_repeats():
    """[subcommand, flag, a, flag, b] for every value-taking optional of every
    subcommand, a and b two different values that the flag accepts."""
    (subparsers,) = (action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
    cases = []
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.option_strings and action.nargs != 0:
                a, b = [str(choice) for choice in action.choices or (1, 2)][:2]
                flag = action.option_strings[0]
                cases.append([name, flag, a, flag, b])
    return cases


@pytest.mark.parametrize("argv", _conflicting_repeats())
def test_every_flag_rejects_a_conflicting_repeat(capsys, argv):
    # the conflict is reported before any file is opened or required flag checked
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"conflicting duplicate flag {argv[1]}: " in err


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


def test_huge_digits_prints_the_longest_expansion(capsys):
    # the largest subnormal double has the longest exact decimal expansion,
    # MAX_DIGITS significant digits; "g" strips the zeros past it
    x = 2.2250738585072009e-308
    assert format(x, f".{MAX_DIGITS - 1}g") != format(x, f".{MAX_DIGITS}g")
    assert format(x, f".{MAX_DIGITS}g") == format(x, f".{2 * MAX_DIGITS}g")
    # a precision format() refuses is clamped once, before any cell is formatted
    expected = run(capsys, ["gap", *POINT_FLAGS, "--digits", str(MAX_DIGITS)])
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, ["gap", *POINT_FLAGS, "--digits", "100000000000"]) == expected


def test_non_finite_tol_exits_2(capsys):
    for tol in ("inf", "nan"):
        code, out, err = run(capsys, ["oracle", *POINT_FLAGS, "--N", "2", "--tol", tol])
        assert code == 2 and out == ""
        assert err.startswith("error: tol must be a positive finite number")


def test_fermion_basis_past_the_cap_exits_2(capsys, monkeypatch):
    # refused by the N_F = 2 block before any matrix is built: at n_max = 2000
    # (6 * 2001 states) the spin side is over the budget too, at n_max = 1200
    # only the block (6 * 1201 states, where the spin side holds 4 * 1201)
    from dicke_dipole import exact

    monkeypatch.setattr(exact, "_hamiltonian", lambda *args: pytest.fail("H was built"))
    code, out, err = run(capsys, ["fermion-check", *POINT_FLAGS, "--N", "2", "--n-max", "2000"])
    assert code == 2 and out == ""
    assert "the dense solve at N=2, n_max=2000 needs about 6918913728 bytes for a block of " \
           "12006 states" in err
    code, out, err = run(capsys, ["fermion-check", *POINT_FLAGS, "--N", "2", "--n-max", "1200"])
    assert (code, out) == (2, "")
    assert err == ("error: the dense solve at N=2, n_max=1200 needs about 2492468928 bytes for "
                   "a block of 7206 states, over the budget 2147483648\n")


_UNSEEDED_ORACLE_ERRORS = {
    ("--omega0", "1e-200"): "error: the mean-field b0^2 overflows a double "
                            "(b0=6.000000000000171e+199)\n",
    ("--beta", "1e-320"): "error: free energy not stable to tol=1e-08 within the size limits "
                          "(last n_max=1, f=-inf); its top weights do not fall, and the saddle "
                          "point's mean occupation is 4611686018427387904: the dense solve at N=2",
    ("--omega0", "1e-150", "--g1", "1e12"): "error: the mean-field b0^2 overflows a double "
                                            "(b0=5.000000000002858e+161)\n",
}


@pytest.mark.parametrize("command", ["oracle", "fermion-check"])
@pytest.mark.parametrize("flags", [
    ["--omega0", "1e-200"],  # omega0**2 underflows to 0
    ["--beta", "1e-320"],  # 1/(beta*omega0) overflows
    ["--omega0", "1e-150", "--g1", "1e12"],  # (g1+g2)**2/omega0**2 overflows
])
def test_seeded_cutoff_that_is_not_finite_exits_2(capsys, monkeypatch, command, flags):
    # the points where TruncationConfig.seeded has no finite value.  No
    # command reads that formula: fermion-check, which has no cutoff to
    # predict, exits 2 without --n-max; oracle starts from the floor 1 and
    # refuses each point by name (exit 3) after at most one level of two
    # boson states
    from dicke_dipole import exact

    assembled = []
    hamiltonian = exact._hamiltonian
    monkeypatch.setattr(exact, "_hamiltonian", lambda params, n_atoms, n_max, *ops: (
        assembled.append(n_max) or hamiltonian(params, n_atoms, n_max, *ops)))
    # flags override the same keys earlier in POINT_FLAGS
    config = dict(zip(POINT_FLAGS[::2], POINT_FLAGS[1::2])) | dict(zip(flags[::2], flags[1::2]))
    code, out, err = run(capsys, [command, *(x for kv in config.items() for x in kv), "--N", "2"])
    assert out == ""
    if command == "fermion-check":
        assert code == 2
        assert err.endswith("error: the following arguments are required: --n-max\n")
        assert assembled == []
        return
    assert code == 3
    assert err.startswith(_UNSEEDED_ORACLE_ERRORS[tuple(flags)])
    # the tiny beta solves the level n_max = 1, one assembly per spin sector
    assert assembled == ([1, 1] if flags[0] == "--beta" else [])


def test_oracle_whose_mean_field_b0_squared_overflows_exits_3(capsys, monkeypatch):
    # omega0 = 1e-200 puts b0 near 2.4e199: its square is refused by name
    # before any row is solved, from the given cutoff and from the default
    from dicke_dipole import exact

    monkeypatch.setattr(exact, "_converged", lambda *args, **kwargs: pytest.fail("a row was computed"))
    head = ["oracle", "--omega0", "1e-200", "--Omega", "1", "--g1", "0.2", "--g2", "0.3",
            "--lambda", "0.1", "--beta", "2", "--N", "2"]
    for tail in (["--n-max", "10"], []):
        code, out, err = run(capsys, [*head, *tail])
        assert (code, out) == (3, "")
        assert err.startswith("error: the mean-field b0^2 overflows a double (b0=2.")


@pytest.mark.parametrize("command", ["gap", "free-energy"])
def test_point_at_a_subnormal_beta_prints_its_record_without_a_warning(capsys, command):
    # f0 = -ln(2 cosh(beta Omega/2))/beta overflows at beta = 1e-320, and no
    # record holds it (pytest turns a NumPy warning into an error)
    code, out, err = run(capsys, [command, *TC_FLAGS, "--beta", "1e-320"])
    assert (code, err) == (0, "")
    assert out.endswith('"beta": 1e-320, "phase": "normal", "b0": 0.0, "omega_delta": 1.0, '
                        '"f_diff": 0.0}\n')


def test_oracle_without_n_max_starts_from_the_floor_one(capsys):
    # the default --n-max is 1, a floor only: each row starts where its
    # saddle point predicts, as from --n-max 1
    flags = [*POINT_FLAGS, "--N", "2,4"]
    code, out, err = run(capsys, ["oracle", *flags])
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, ["oracle", *flags, "--n-max", "1"])
    assert [line.split(",")[0] for line in out.splitlines()] == ["N", "2", "4", "inf"]


@pytest.mark.parametrize("n_list", ["2,4,40000", "2,0", "2,1100"])
def test_oracle_checks_every_n_before_the_first_row(capsys, monkeypatch, n_list):
    from dicke_dipole import exact

    monkeypatch.setattr(exact, "_converged", lambda *args, **kwargs: pytest.fail("a row was computed"))
    code, out, err = run(capsys, ["oracle", *POINT_FLAGS, "--N", n_list, "--n-max", "2"])
    assert code == 2 and out == ""
    assert err == {
        "2,4,40000": "error: the dense solve at N=40000, n_max=2 needs about 172811520192 bytes "
                     "for a block of 60002 states, over the budget 2147483648\n",
        "2,0": "error: n_atoms must be an integer >= 1, got 0\n",
        "2,1100": "error: the sector sums at N=1100, n_max=2 overflow a double: "
                  "n_max * 2^N * (n_max+1) is not below 1.79769e+308\n",
    }[n_list]


def test_oracle_refuses_an_n_whose_first_doubling_fails(capsys, monkeypatch):
    from dicke_dipole import exact

    monkeypatch.setattr(exact, "_hamiltonian", lambda *args: pytest.fail("a level was assembled"))
    code, out, err = run(capsys, ["oracle", "--omega0", "1", "--Omega", "1", "--g1", "0.2",
                                  "--g2", "0.2", "--lambda", "0", "--beta", "20",
                                  "--N", "1022", "--n-max", "1"])
    assert code == 3 and out == ""
    assert err == ("error: no converged cutoff from n_max=1: its first doubling is refused: "
                   "the sector sums at N=1022, n_max=2 overflow a double: "
                   "n_max * 2^N * (n_max+1) is not below 1.79769e+308\n")


@pytest.mark.parametrize("budget, code, message", [
    (3071, 2, "error: the dense solve at N=2, n_max=4 needs about 3072 bytes for a "
              "block of 8 states, over the budget 3071\n"),
    (3072, 3, "error: no converged cutoff from n_max=4: its first doubling is refused: the "
              "dense solve at N=2, n_max=8 needs about 9408 bytes for a block of 14 "
              "states, over the budget 3072\n"),
])
def test_oracle_past_the_eigenvector_budget_exits_2_or_3(capsys, monkeypatch, budget, code, message):
    from dicke_dipole import exact

    monkeypatch.setattr(exact, "VECTOR_BYTE_BUDGET", budget)
    monkeypatch.setattr(exact, "_hamiltonian", lambda *args: pytest.fail("a level was assembled"))
    assert run(capsys, ["oracle", *POINT_FLAGS, "--N", "2", "--n-max", "4"]) == (code, "", message)


@pytest.mark.parametrize("g1, reason", [
    # the weights still rise at the top, towards the saddle's N b0^2 = 4949
    ("0.1", "its top weights do not fall, and the saddle point's mean occupation is 5949: "
            "the dense solve at N=2, n_max=5949 needs about"),
    # the normal phase: a thermal tail that falls by 1e-3 per level
    ("0.01", "its tail predicts a certified cutoff at n_max=41725: the dense solve at N=2, "
             "n_max=41725 needs about 188034380208 bytes for a block of 62589 states"),
])
def test_nearly_classical_boson_exits_3_before_any_large_solve(capsys, monkeypatch, g1, reason):
    # beta omega0 = 1e-3: no cutoff within the size limits holds the boson,
    # which is refused after the first level instead of doubling towards
    # the byte budget.  No level up to the ceiling passes the saddle
    # model's tail, so that first level is the given cutoff
    from dicke_dipole import exact

    assembled = []
    hamiltonian = exact._hamiltonian
    monkeypatch.setattr(exact, "_hamiltonian", lambda params, n_atoms, n_max, *ops: (
        assembled.append(n_max) or hamiltonian(params, n_atoms, n_max, *ops)))
    code, out, err = run(capsys, ["oracle", "--omega0", "1e-3", "--Omega", "1", "--g1", g1,
                                  "--g2", "0", "--lambda", "0", "--beta", "1",
                                  "--N", "2", "--n-max", "4"])
    assert code == 3 and out == ""
    assert err.startswith("error: free energy not stable to tol=1e-08 within the size limits "
                          "(last n_max=4, f=")
    assert reason in err
    assert assembled == [4, 4]  # one level: the j = 1 and j = 0 sectors at n_max = 4


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


_ED_FLAGS = ["--omega0", "1", "--Omega", "1", "--g1", "0.3", "--g2", "0.2", "--lambda", "0.1",
             "--beta", "2"]
_ED_POINT = ("from dicke_dipole import ModelParams, Thermo, TruncationConfig\n"
             "point = ModelParams(1, 1, 0.3, 0.2, 0.1), 2, Thermo(2.0)\n")


def _scipy_after(statements):
    """[code, the SciPy modules loaded] after a fresh process ran the
    statements, which set code, with their output silenced."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in statements.splitlines())
        + "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.stdout.write(json.dumps([code, loaded]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("statements", [
    "import dicke_dipole.exact\ncode = 0",
    _ED_POINT + "from dicke_dipole import build_full\n"
    "code = build_full(point[0], 3, TruncationConfig(4), want_occupations=True).dimension - 40",
    _ED_POINT + "from dicke_dipole import free_energy_exact\n"
    "code = int(not free_energy_exact(*point, TruncationConfig(4), basis='full').f < 0)",
    _ED_POINT + "from dicke_dipole import fermionic_identity_check\n"
    "code = int(not fermionic_identity_check(*point, TruncationConfig(6)) < 1e-10)",
    f"from dicke_dipole.cli import main\n"
    f"code = main({['fermion-check', *_ED_FLAGS, '--N', '2', '--n-max', '12']!r})",
], ids=["import", "build_full", "free_energy_exact-full", "fermionic_identity_check",
        "fermion-check"])
def test_product_basis_and_fermion_check_never_import_scipy(statements):
    # their matrices are NumPy triplets, and their dense solves numpy.linalg
    assert _scipy_after(statements) == [0, []]


def test_dense_oracle_rows_load_scipy_linalg_but_not_scipy_sparse():
    # every parity block at N = 2 and 4 is below WINDOW_MIN_DIM, so each is
    # solved densely and none is windowed
    code, loaded = _scipy_after(f"from dicke_dipole.cli import main\n"
                                f"code = main({['oracle', *_ED_FLAGS, '--N', '2,4']!r})")
    assert code == 0 and "scipy.linalg" in loaded
    assert [name for name in loaded if name.startswith("scipy.sparse")] == []


def test_size_refused_oracle_loads_no_scipy():
    # N = 1100 at n_max = 1 overflows the sector sums: refused before any solve
    assert _scipy_after(f"from dicke_dipole.cli import main\ncode = main("
                        f"{['oracle', *_ED_FLAGS, '--N', '1100', '--n-max', '1']!r})") == [2, []]


def test_closed_form_commands_and_refusals_never_import_numpy():
    # the closed forms, --dump-config, --help and --version, then refusals:
    # the benchmark's invalid requests and a bad --digits
    finished = [["tc", *TC_FLAGS],
                ["boundary", *TC_FLAGS[:-2], "--lambda-min", "0", "--lambda-max", "0.5",
                 "--count", "3"],
                ["tc", *TC_FLAGS, "--dump-config"], ["--help"], ["--version"]]
    refused = [
        ["tc", "--omega0", "1", "--Omega", "1", "--g1", "-0.5", "--g2", "0.5", "--lambda", "0"],
        ["gap", "--omega0", "1", "--Omega", "1", "--g1", "1", "--g2", "1", "--lambda", "0"],
        ["free-energy", "--omega0", "1", "--Omega", "0", "--g1", "1", "--g2", "1",
         "--lambda", "0", "--beta", "2"],
        ["tc", "--omega0", "1", "--omega0", "2", "--Omega", "1", "--g1", "1", "--g2", "1",
         "--lambda", "0"],
        ["gap", "--omega0", "1", "--bogus", "1"],
        ["gap", *POINT_FLAGS, "--digits", "0"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from dicke_dipole.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {finished + refused!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "sys.stdout.write(repr((codes, loaded)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout == repr(([0] * len(finished) + [2] * len(refused), []))


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
        "1,-0.148728184198,0.730996997002,0,0\n"
        "2,-0.0782254988349,0.374462461981,0,0\n"
        "3,-0.0531965374421,0.252306928274,0,0\n"
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


@pytest.mark.parametrize("lambda_min, lambda_max, message", [
    ("0", "inf", "lambda_range ends must be finite, got (0.0, inf)"),
    ("-1e308", "1e308", "lambda_range span max - min overflows a double, got (-1e+308, 1e+308)"),
])
def test_boundary_range_whose_points_would_be_nan_exits_2(capsys, lambda_min, lambda_max,
                                                          message):
    code, out, err = run(capsys, ["boundary", *TC_FLAGS[:-2], "--lambda-min", lambda_min,
                                  "--lambda-max", lambda_max, "--count", "3"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fermion_number_breaking_element_exits_3(capsys, monkeypatch):
    # sigma^+ also maps |00> to |11>, which changes N_F by 2
    from dicke_dipole import exact

    sz, sp, nf = exact._fermion_site_ops()
    sp[3, 0] = 1.0
    monkeypatch.setattr(exact, "_fermion_site_ops", lambda: (sz, sp, nf))
    code, out, err = run(capsys, ["fermion-check", *POINT_FLAGS, "--N", "2", "--n-max", "4"])
    assert (code, out) == (3, "") and err.startswith("error: ")


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
_GOLDEN_ORACLE_CSV = ("oracle --omega0 1 --Omega 1 --g1 0.4 --g2 0.4 --lambda 0.1 --beta 1 "
                      "--N 1,2 --n-max 8")
_GOLDEN_ORACLE = f"{_GOLDEN_ORACLE_CSV} --format json"
_GOLDEN_ORACLE_MF = '"f_diff_mf": 0.0, "b0_sq_mf": 0.0}\n'
_GOLDEN_ORACLE_INF = ('{"N": "inf", "f_diff_exact": 0.0, "boson_occupation": 0.0, '
                      + _GOLDEN_ORACLE_MF)

# Every printed format, with and without --digits: the bytes the CLI wrote
# before its outputs shared one row writer.  The oracle rows are those of
# the saddle start (N = 1 and 2 at n_max = 32, each certified in one pass).
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
     '{"N": 1, "f_diff_exact": -0.14872818419828837, '
     '"boson_occupation": 0.73099699700163, ' + _GOLDEN_ORACLE_MF
     + '{"N": 2, "f_diff_exact": -0.07822549883485941, '
     '"boson_occupation": 0.37446246198106364, ' + _GOLDEN_ORACLE_MF + _GOLDEN_ORACLE_INF),
    (f"{_GOLDEN_ORACLE} --digits 4",
     '{"N": 1, "f_diff_exact": -0.1487, "boson_occupation": 0.731, ' + _GOLDEN_ORACLE_MF
     + '{"N": 2, "f_diff_exact": -0.07823, "boson_occupation": 0.3745, ' + _GOLDEN_ORACLE_MF
     + _GOLDEN_ORACLE_INF),
    (_GOLDEN_ORACLE_CSV,
     "N,f_diff_exact,boson_occupation,f_diff_mf,b0_sq_mf\n"
     "1,-0.14872818419828837,0.73099699700163,0.0,0.0\n"
     "2,-0.07822549883485941,0.37446246198106364,0.0,0.0\n"
     "inf,0.0,0.0,0.0,0.0\n"),
    (f"{_GOLDEN_ORACLE_CSV} --digits 4",
     "N,f_diff_exact,boson_occupation,f_diff_mf,b0_sq_mf\n"
     "1,-0.1487,0.731,0,0\n"
     "2,-0.07823,0.3745,0,0\n"
     "inf,0,0,0,0\n"),
]


GOLDEN_IDS = [
    f"{name}{suffix}"
    for name in ("tc", "tc-no_transition", "gap", "free-energy", "sweep-csv", "sweep-json",
                 "boundary", "oracle-json", "oracle-csv")
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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # every dicke-dipole example in the README's "Command line" block, run
    # where the README's params.json and grid spec examples are written
    monkeypatch.chdir(tmp_path)
    text = README.read_text()
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        name = "grid.json" if "axis1" in json.loads(block) else "params.json"
        (tmp_path / name).write_text(block)
    examples = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line) for line in examples.replace("\\\n", " ").splitlines()
                if line.startswith("dicke-dipole ")]
    assert {argv[1] for argv in commands} == {
        "tc", "gap", "free-energy", "sweep", "boundary", "oracle", "fermion-check"}
    for argv in commands:
        code, out, err = run(capsys, argv[1:])
        assert code == 0, f"{shlex.join(argv)}: {err}"
        assert argv[1] != "fermion-check" or out.startswith("PASS ")
    assert (tmp_path / "pd.csv").read_text().startswith("omega0,Omega,g1,g2,lambda,beta,")


# --- closed forms where an intermediate leaves the range of a double ------------

def test_tc_where_omega0_omega_underflows(capsys):
    flags = ["--omega0", "1e-200", "--Omega", "1e-200", "--g1", "1", "--g2", "0"]
    code, out, err = run(capsys, ["tc", *flags, "--lambda", "0"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    # beta_c = 2*omega0/G to rounding; the ratio 1e-400 rounds to 0
    assert payload["beta_c"] == pytest.approx(2e-200, rel=1e-15)
    assert payload["T_c"] == pytest.approx(5e199, rel=1e-15)
    assert payload["ratio"] == 0.0
    code, out, err = run(capsys, ["boundary", *flags, "--lambda-min", "0", "--lambda-max", "1",
                                  "--count", "3"])
    assert (code, err) == (0, "")
    assert [float(line.split(",")[1]) for line in out.splitlines()[1:]] == pytest.approx(
        [5e199] * 3, rel=1e-15)


def test_gap_where_beta_omega_underflows(capsys):
    # beta*Omega/2 underflows on both sides of beta_c = 2e-200, where
    # tanh(beta*Omega/2)/Omega is beta/2
    flags = ["--omega0", "1e-200", "--Omega", "1e-200", "--g1", "1", "--g2", "0", "--lambda", "0"]
    for beta, phase in (("1e-200", "normal"), ("1.9e-200", "normal"),
                        ("2.1e-200", "superradiant"), ("3e-200", "superradiant")):
        code, out, err = run(capsys, ["gap", *flags, "--beta", beta])
        assert (code, err) == (0, "")
        assert json.loads(out)["phase"] == phase


@pytest.mark.parametrize("command", ["tc", "gap"])
def test_coupling_whose_square_underflows_exits_2(capsys, command):
    # G = 1e-340 cannot be held, while omega0*Omega = 1e-400 is smaller still,
    # so a transition hangs on it; omega0*Omega = 1 leaves none to lose
    flags = ["--omega0", "1e-200", "--Omega", "1e-200", "--g1", "1e-170", "--g2", "0",
             "--lambda", "0", "--beta", "1"]
    code, out, err = run(capsys, [command, *flags])
    assert (code, out) == (2, "")
    assert err.startswith("error: G = (g1 + g2)**2 - omega0*lambda cannot be formed: ")
    flags[1] = flags[3] = "1"
    assert run(capsys, ["tc", *flags]) == (0, '{"phase": "no_transition", "ratio": null}\n', "")


def test_tc_where_two_over_omega_overflows(capsys):
    code, out, _ = run(capsys, ["tc", "--omega0", "1", "--Omega", "1e-310", "--g1", "1",
                                "--g2", "0", "--lambda", "0"])
    assert code == 0
    assert json.loads(out) == {"beta_c": 2.0, "T_c": 0.5, "ratio": 1e-310}


@pytest.mark.parametrize("argv, message", [
    (["tc", "--omega0", "1e-300", "--Omega", "1", "--g1", "1e5", "--g2", "0", "--lambda", "0"],
     "error: T_c overflows a double\n"),
    (["tc", "--omega0", "1", "--Omega", "1", "--g1", "0", "--g2", "0", "--lambda=-1e-320"],
     "error: ratio overflows a double\n"),
    (["tc", "--omega0", "1e12", "--Omega", "5e-324", "--g1", "1e-155", "--g2", "0",
      "--lambda", "0"],
     "error: beta_c = (2/Omega)*artanh(omega0*Omega/G) overflows a double "
     "(omega0=1000000000000.0, Omega=5e-324, G=1e-310)\n"),
    (["boundary", "--omega0", "1e-300", "--Omega", "1", "--g1", "1e5", "--g2", "0",
      "--lambda-min", "0", "--lambda-max", "1", "--count", "3"],
     "error: lambda[0]=0.0: T_c = 1/beta_c overflows a double\n"),
], ids=["tc-T_c", "tc-ratio", "tc-beta_c", "boundary-T_c"])
def test_printed_value_that_overflows_exits_3(capsys, argv, message):
    assert run(capsys, argv) == (3, "", message)
