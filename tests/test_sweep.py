"""Grid engine, boundary curve, oracle table, and the file formats."""

import io
import itertools
import json
import math
import struct
from decimal import Decimal
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from dicke_dipole import (
    CONFIG_KEYS,
    AxisSpec,
    ConvergenceError,
    DomainError,
    GridSpec,
    ModelParams,
    PhaseLabel,
    Thermo,
    TruncationConfig,
    critical_coupling_zero_temperature,
    critical_inverse_temperature,
    free_energy_diff,
    oracle_table,
    phase_boundary,
    run_grid,
    solve_gap,
    write_boundary_csv,
    write_oracle_csv,
    write_sweep_csv,
    write_sweep_jsonl,
)
from dicke_dipole.sweep import (
    _CSV_CHUNK_ROWS,
    MAX_DIGITS,
    MAX_GRID_POINTS,
    _ORACLE_COLUMNS,
    SWEEP_COLUMNS,
    OracleRow,
    SweepRecord,
    SweepTable,
    _write_rows,
    evaluate_point,
    write_oracle_jsonl,
)
from dicke_dipole.meanfield import _free_energy_arrays, _gap_kernel
from oracles import bisect_critical_beta, mean_field_point

# bounds on b0 and f_diff against the oracle: an absolute floor for values
# near 0 plus a relative part (omega_delta is held to 1e-12 relative)
B0_ATOL, F_DIFF_ATOL, VALUE_RTOL = 1e-9, 1e-12, 1e-8

FIXED = {"omega0": 1.0, "Omega": 1.0, "g2": 0.6, "lambda": 0.0}


def small_grid(count1=3, count2=4):
    return GridSpec(
        axis1=AxisSpec("g1", 0.3, 0.9, count1),
        axis2=AxisSpec("beta", 0.5, 8.0, count2, scale="log"),
        fixed=FIXED,
    )


# --- spec validation ----------------------------------------------------------

def test_axis_validation():
    with pytest.raises(DomainError, match="axis name"):
        AxisSpec("gamma", 0.0, 1.0, 5)
    with pytest.raises(DomainError, match="count"):
        AxisSpec("g1", 0.0, 1.0, 0)
    with pytest.raises(DomainError, match="min"):
        AxisSpec("g1", 1.0, 1.0, 5)
    with pytest.raises(DomainError, match="log"):
        AxisSpec("beta", 0.0, 1.0, 5, scale="log")
    with pytest.raises(DomainError, match="scale"):
        AxisSpec("beta", 0.5, 1.0, 5, scale="cubic")
    # each bound is checked before min < max, naming the axis
    for bad in (math.nan, math.inf, -math.inf, "0.2", True, None):
        with pytest.raises(DomainError, match="^axis g1 min must be a finite number"):
            AxisSpec("g1", bad, 1.0, 5)
        with pytest.raises(DomainError, match="^axis beta max must be a finite number"):
            AxisSpec("beta", 0.5, bad, 5, scale="log")


def test_axis_values():
    lin = AxisSpec("g1", 0.0, 1.0, 5).values()
    assert np.allclose(lin, [0.0, 0.25, 0.5, 0.75, 1.0])
    log = AxisSpec("beta", 1.0, 100.0, 3, scale="log").values()
    assert np.allclose(log, [1.0, 10.0, 100.0])
    single = AxisSpec("beta", 2.0, 3.0, 1).values()
    assert list(single) == [2.0]


def test_grid_validation():
    with pytest.raises(DomainError, match="both sweep"):
        GridSpec(AxisSpec("g1", 0, 1, 2), AxisSpec("g1", 0, 1, 2), FIXED)
    with pytest.raises(DomainError, match="fixed keys"):
        GridSpec(AxisSpec("g1", 0, 1, 2), AxisSpec("beta", 1, 2, 2), {"omega0": 1.0})
    with pytest.raises(DomainError, match="cap"):
        GridSpec(
            AxisSpec("g1", 0, 1, 10**4),
            AxisSpec("beta", 1, 2, 10**4),
            FIXED,
        )


def test_grid_from_mapping():
    mapping = {
        "axis1": {"name": "g1", "min": 0.1, "max": 1.0, "count": 3},
        "axis2": {"name": "beta", "min": 1.0, "max": 4.0, "count": 2, "scale": "log"},
        "fixed": FIXED,
    }
    spec = GridSpec.from_mapping(mapping)
    assert spec.axis1.scale == "linear" and spec.axis2.scale == "log"
    with pytest.raises(DomainError, match="axis"):
        GridSpec.from_mapping({"axis1": {}, "axis2": {}, "fixed": FIXED})
    # the count reaches AxisSpec as given, not truncated to an int first
    for count in (True, 2.7, 3.0, "3"):
        bad = dict(mapping, axis1=dict(mapping["axis1"], count=count))
        with pytest.raises(DomainError, match="axis count must be an integer"):
            GridSpec.from_mapping(bad)
    # so are min and max, and json.load reads NaN and Infinity
    for key, value in (("min", "0.2"), ("max", True), ("min", math.nan), ("max", math.inf)):
        bad = dict(mapping, axis1=dict(mapping["axis1"], **{key: value}))
        with pytest.raises(DomainError, match=f"^axis g1 {key} must be a finite number"):
            GridSpec.from_mapping(bad)
    # fixed must be an object; a list of [key, value] pairs is refused too
    for fixed in ("ab", 5, None, [list(item) for item in FIXED.items()]):
        with pytest.raises(DomainError, match="^fixed must be a dict"):
            GridSpec.from_mapping(dict(mapping, fixed=fixed))


# --- grid evaluation ------------------------------------------------------------

def test_single_point_grid_equals_direct_evaluation():
    spec = GridSpec(
        axis1=AxisSpec("g1", 0.8, 1.0, 1),
        axis2=AxisSpec("beta", 3.0, 4.0, 1),
        fixed=FIXED,
    )
    (record,) = run_grid(spec)
    params = ModelParams(1.0, 1.0, 0.8, 0.6, 0.0)
    thermo = Thermo(3.0)
    sol = solve_gap(params, thermo)
    assert record.b0 == sol.b0
    assert record.omega_delta == sol.omega_delta
    assert record.f_diff == free_energy_diff(params, thermo, sol).f_diff
    assert record.phase is sol.phase
    # one kernel: every point of a larger grid, including lambda < 0, is
    # bit for bit what solve_gap and free_energy_diff give on its own
    for lam in (-0.35, 0.25):
        spec = GridSpec(
            axis1=AxisSpec("g1", 0.1, 1.3, 7),
            axis2=AxisSpec("beta", 0.5, 40.0, 6, scale="log"),
            fixed={"omega0": 1.1, "Omega": 0.9, "g2": 0.3, "lambda": lam},
        )
        records = run_grid(spec)
        assert {r.phase for r in records} == {PhaseLabel.NORMAL, PhaseLabel.SUPERRADIANT}
        for r in records:
            params = ModelParams(r.omega0, r.Omega, r.g1, r.g2, r.lam)
            thermo = Thermo(r.beta)
            sol = solve_gap(params, thermo)
            assert (r.phase, r.b0, r.omega_delta) == (sol.phase, sol.b0, sol.omega_delta)
            assert r.f_diff == free_energy_diff(params, thermo, sol).f_diff
            assert all(type(getattr(r, f)) is float for f in ("b0", "omega_delta", "f_diff"))


def _near_critical_grids():
    # beta runs from just past beta_c(g2=0.5) to 1e6, for lambda of both signs
    for lam in (-0.3, 0.3):
        beta_c = bisect_critical_beta(1.0, 1.0, 0.8, 0.5, lam)
        yield GridSpec(
            axis1=AxisSpec("beta", beta_c * (1.0 + 1e-6), 1e6, 6, scale="log"),
            axis2=AxisSpec("g2", 0.0, 1.0, 5),
            fixed={"omega0": 1.0, "Omega": 1.0, "g1": 0.8, "lambda": lam},
        )
    # G <= 0 and G > 0 across lambda
    yield GridSpec(
        axis1=AxisSpec("lambda", -0.7, 2.3, 7),
        axis2=AxisSpec("beta", 0.5, 1e6, 4, scale="log"),
        fixed={"omega0": 0.8, "Omega": 1.2, "g1": 0.9, "g2": 0.4},
    )


def test_grid_matches_independent_oracle():
    phases = set()
    for spec in _near_critical_grids():
        for r in run_grid(spec):
            phase, x, b0, f_diff = mean_field_point(r.omega0, r.Omega, r.g1, r.g2, r.lam, r.beta)
            assert r.phase.value == phase
            assert abs(r.omega_delta - x) <= 1e-12 * x
            assert abs(r.b0 - b0) <= B0_ATOL + VALUE_RTOL * abs(b0)
            assert abs(r.f_diff - f_diff) <= F_DIFF_ATOL + VALUE_RTOL * abs(f_diff)
            phases.add(phase)
    assert phases == {"normal", "superradiant"}


def test_grid_row_major_ordering():
    spec = small_grid()
    records = run_grid(spec)
    assert len(records) == 12
    g1_values = spec.axis1.values()
    beta_values = spec.axis2.values()
    # axis1 outer: the first block holds g1_values[0] across all betas
    assert [r.g1 for r in records[:4]] == [g1_values[0]] * 4
    assert [r.beta for r in records[:4]] == list(beta_values)
    assert records[-1].g1 == g1_values[-1] and records[-1].beta == beta_values[-1]


def _bits(record):
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in record]


def test_grid_records_are_evaluate_point_records():
    # one builder serves both: each grid record is its point's record, bit for bit
    spec = GridSpec(AxisSpec("g1", 0.0, 1.6, 9), AxisSpec("lambda", -1.5, 1.0, 7),
                    {"omega0": 1.0, "Omega": 0.8, "g2": 0.0, "beta": 6.0})
    records = run_grid(spec)
    assert {r.phase for r in records} == {PhaseLabel.NORMAL, PhaseLabel.SUPERRADIANT}
    for record in records:
        point = evaluate_point(dict(zip(CONFIG_KEYS, record[:6])))
        assert _bits(point) == _bits(record)


def test_parallel_matches_serial():
    spec = small_grid(4, 5)
    assert run_grid(spec, jobs=1) == run_grid(spec, jobs=3)


def test_jobs_must_be_a_positive_int():
    for bad in (True, 2.0, 0):
        with pytest.raises(DomainError, match="jobs"):
            run_grid(small_grid(2, 2), jobs=bad)


def test_records_satisfy_invariants():
    for record in run_grid(small_grid(5, 5)):
        assert (record.b0 > 0) == (record.phase is PhaseLabel.SUPERRADIANT)
        for field in ("omega0", "Omega", "g1", "g2", "lam", "beta",
                      "b0", "omega_delta", "f_diff"):
            assert math.isfinite(getattr(record, field))


def test_zero_temperature_sweep_flips_at_closed_form_coupling():
    # g2 = 0, lambda = 0.3: flip expected at g1_c = sqrt(1.3)
    g1_c = critical_coupling_zero_temperature(1.0, 1.0, 0.3, 0.0)
    spec = GridSpec(
        axis1=AxisSpec("g1", 0.8, 1.5, 71),  # step 0.01
        axis2=AxisSpec("beta", 1e6, 2e6, 1),
        fixed={"omega0": 1.0, "Omega": 1.0, "g2": 0.0, "lambda": 0.3},
    )
    records = run_grid(spec)
    flags = [r.phase is PhaseLabel.SUPERRADIANT for r in records]
    flip = flags.index(True)
    assert flags[flip:] == [True] * (len(flags) - flip)  # single flip
    step = (1.5 - 0.8) / 70
    assert records[flip - 1].g1 < g1_c <= records[flip].g1 + 1e-12
    assert records[flip].g1 - g1_c <= step + 1e-12


def test_superradiant_region_shrinks_with_lambda():
    spec = GridSpec(
        axis1=AxisSpec("lambda", 0.0, 1.2, 25),
        axis2=AxisSpec("beta", 3.0, 4.0, 1),
        fixed={"omega0": 1.0, "Omega": 1.0, "g1": 0.6, "g2": 0.6},
    )
    records = run_grid(spec)
    flags = [r.phase is PhaseLabel.SUPERRADIANT for r in records]
    # superradiant prefix, normal tail: the region only shrinks as lam grows
    assert flags[0] and not flags[-1]
    assert flags.index(False) == sum(flags)
    b0s = [r.b0 for r in records]
    assert all(b2 <= b1 for b1, b2 in zip(b0s, b0s[1:]))


# --- phase boundary -------------------------------------------------------------

def test_phase_boundary_lambda_zero_endpoint():
    points = phase_boundary(1.0, 1.0, 0.6, 0.6, (0.0, 0.4), 5)
    lam0, t_c0 = points[0]
    assert lam0 == 0.0
    beta_c = critical_inverse_temperature(ModelParams(1, 1, 0.6, 0.6, 0.0))
    assert t_c0 == pytest.approx(1.0 / beta_c, rel=1e-14)


def test_phase_boundary_decreases_until_cut():
    # cut at lambda = ((g1+g2)^2 - omega0*Omega)/omega0 = 0.44
    points = phase_boundary(1.0, 1.0, 0.6, 0.6, (0.0, 0.55), 45)
    with_tc = [(lam, t_c) for lam, t_c in points if t_c is not None]
    without = [lam for lam, t_c in points if t_c is None]
    assert max(lam for lam, _ in with_tc) < 0.44
    assert min(without) >= 0.44 - 1e-12
    t_values = [t_c for _, t_c in with_tc]
    assert all(b < a for a, b in zip(t_values, t_values[1:]))


def test_phase_boundary_validation():
    with pytest.raises(DomainError, match="count"):
        phase_boundary(1, 1, 0.6, 0.6, (0.0, 1.0), 0)
    with pytest.raises(DomainError, match="lambda_range"):
        phase_boundary(1, 1, 0.6, 0.6, (1.0, 0.0), 5)
    with pytest.raises(DomainError, match="cap"):
        phase_boundary(1, 1, 0.6, 0.6, (0.0, 1.0), MAX_GRID_POINTS + 1)
    for bad in (True, 5.0):
        with pytest.raises(DomainError, match="count"):
            phase_boundary(1, 1, 0.6, 0.6, (0.0, 1.0), bad)
    # a lambda past the cap is named by index and value
    with pytest.raises(DomainError) as info:
        phase_boundary(1, 1, 0.6, 0.6, (-2e12, 0.0), 3)
    assert str(info.value) == "lambda[0]=-2000000000000.0: lam exceeds the magnitude cap 1e+12"
    with pytest.raises(DomainError) as info:
        phase_boundary(1, 1, 0.6, 0.6, (0.0, 1.2e12), 3)
    assert str(info.value) == "lambda[2]=1200000000000.0: lam exceeds the magnitude cap 1e+12"


# --- oracle table ----------------------------------------------------------------

def test_oracle_table_noninteracting_is_all_zero():
    params = ModelParams(1.0, 1.0, 0.0, 0.0, 0.0)
    rows = oracle_table(params, Thermo(1.5), [1, 2], TruncationConfig(6))
    assert [row.n_atoms for row in rows] == [1, 2, None]
    for row in rows:
        assert row.f_diff == pytest.approx(0.0, abs=1e-12)
        assert row.f_diff_mf == 0.0


def test_oracle_table_deviation_shrinks_with_n():
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 0.5)
    rows = oracle_table(
        params, Thermo(5.0), [2, 4], TruncationConfig.seeded(params, Thermo(5.0))
    )
    deviations = [abs(row.f_diff - row.f_diff_mf) for row in rows[:-1]]
    assert deviations[1] < deviations[0]
    mf_row = rows[-1]
    assert mf_row.n_atoms is None
    assert mf_row.f_diff == mf_row.f_diff_mf
    assert mf_row.boson_occupation == mf_row.b0_sq_mf


# --- SweepTable -------------------------------------------------------------------

def _table_grid(count1, count2):
    # g2 = 0 and lambda < 0; g1 crosses the transition, so both phases occur
    return GridSpec(
        AxisSpec("g1", 0.05, 1.6, count1),
        AxisSpec("beta", 0.3, 50.0, count2, scale="log"),
        {"omega0": 1.1, "Omega": 0.9, "g2": 0.0, "lambda": -0.35},
    )


def _listed_records(spec):
    """Reference records of a grid: one SweepRecord per point, built from the
    kernel's arrays through tolist(), with no SweepTable."""
    values = [np.repeat(spec.axis1.values(), spec.axis2.count),
              np.tile(spec.axis2.values(), spec.axis1.count)]
    names = (spec.axis1.name, spec.axis2.name)
    inputs = [values[names.index(key)] if key in names
              else np.full(values[0].size, float(spec.fixed[key])) for key in CONFIG_KEYS]
    superradiant, omega_delta, _, b0, _ = _gap_kernel(*inputs)
    f_diff, _ = _free_energy_arrays(*inputs, omega_delta, superradiant)
    phases = [PhaseLabel.SUPERRADIANT if s else PhaseLabel.NORMAL for s in superradiant.tolist()]
    columns = [c.tolist() for c in inputs] + [phases] + [c.tolist() for c in (b0, omega_delta, f_diff)]
    return [SweepRecord(*row) for row in zip(*columns)]


def test_sweep_table_is_a_sequence_of_records():
    spec = _table_grid(7, 5)
    table, listed = run_grid(spec), _listed_records(spec)
    assert isinstance(table, SweepTable) and len(table) == 35
    assert list(table) == listed
    assert table == listed and listed == table
    assert table == run_grid(spec) and not table != run_grid(spec)
    assert table != listed[:-1] and table != listed[::-1] and table != tuple(listed)
    for index in (0, 1, 17, 34, -1, -35, np.int64(3), True):
        assert _bits(table[index]) == _bits(listed[index])
    for index in (35, -36):
        with pytest.raises(IndexError):
            table[index]
    with pytest.raises(TypeError):
        table[1.0]
    with pytest.raises(TypeError):
        table[0] = listed[1]
    assert table[-1] in table and table.index(table[-1]) == 34


def test_sweep_table_iteration_builds_python_floats_and_phase_members():
    spec = _table_grid(70, 60)  # more rows than one iteration block
    table, listed = run_grid(spec), _listed_records(spec)
    assert {r.phase for r in table} == {PhaseLabel.NORMAL, PhaseLabel.SUPERRADIANT}
    assert len(list(table)) == len(listed)
    for got, want in zip(table, listed):
        assert [type(v) for v in got] == [float] * 6 + [PhaseLabel] + [float] * 3
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("index", [
    slice(None, None, 101), slice(3, 40), slice(None, None, -7), slice(40, 3, -3),
    slice(5, 5), slice(-50, None, 2),
])
def test_sweep_table_slice_is_a_table(index):
    spec = _table_grid(30, 20)
    table, listed = run_grid(spec), _listed_records(spec)
    part = table[index]
    assert isinstance(part, SweepTable) and part == listed[index]
    assert [_bits(r) for r in part] == [_bits(r) for r in listed[index]]
    buffer = io.StringIO()
    write_sweep_csv(part, buffer)
    _assert_same_text(buffer.getvalue(), _rowwise_csv(SWEEP_COLUMNS, listed[index], None))


@pytest.mark.parametrize("digits", [None, 3])
@pytest.mark.parametrize("shape", [(63, 65), (64, 64), (17, 241)])
def test_sweep_table_writes_the_bytes_of_its_records(shape, digits):
    # 4095, 4096 and 4097 points: around the CSV writer's block of rows
    assert _CSV_CHUNK_ROWS == 4096
    spec = _table_grid(*shape)
    table, listed = run_grid(spec), _listed_records(spec)
    assert len(table) == shape[0] * shape[1]
    assert {r.phase for r in table} == {PhaseLabel.NORMAL, PhaseLabel.SUPERRADIANT}
    csv_text, jsonl_text, jsonl_want = io.StringIO(), io.StringIO(), io.StringIO()
    write_sweep_csv(table, csv_text, digits)
    _assert_same_text(csv_text.getvalue(), _rowwise_csv(SWEEP_COLUMNS, listed, digits))
    write_sweep_jsonl(table, jsonl_text, digits)
    write_sweep_jsonl(listed, jsonl_want, digits)
    _assert_same_text(jsonl_text.getvalue(), jsonl_want.getvalue())


# --- output formats ---------------------------------------------------------------

def test_records_are_their_printed_rows():
    record = run_grid(small_grid(2, 2))[-1]
    assert record.phase is PhaseLabel.SUPERRADIANT
    by_name = {"lambda": record.lam, **record._asdict()}
    assert tuple(record) == tuple(by_name[column] for column in SWEEP_COLUMNS)
    with pytest.raises(AttributeError):
        record.b0 = 0.0
    row = OracleRow(n_atoms=3, f_diff=-0.5, boson_occupation=0.25, f_diff_mf=-0.4, b0_sq_mf=0.2)
    assert dict(zip(_ORACLE_COLUMNS, row)) == {
        "N": 3, "f_diff_exact": -0.5, "boson_occupation": 0.25, "f_diff_mf": -0.4,
        "b0_sq_mf": 0.2,
    }


def test_sweep_csv_format():
    records = run_grid(small_grid(2, 2))
    buffer = io.StringIO()
    write_sweep_csv(records, buffer)
    lines = buffer.getvalue().split("\n")
    assert lines[0] == "omega0,Omega,g1,g2,lambda,beta,phase,b0,omega_delta,f_diff"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 2 + len(records)
    row = lines[1].split(",")
    assert row[6] in ("normal", "superradiant", "no_transition")
    # shortest round-trip representation: parsing back is exact
    assert float(row[7]) == records[0].b0
    assert float(row[9]) == records[0].f_diff


def test_sweep_csv_deterministic():
    spec = small_grid(3, 3)
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        write_sweep_csv(run_grid(spec), buffer)
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]


def test_sweep_jsonl_mirror():
    records = run_grid(small_grid(2, 2))
    buffer = io.StringIO()
    write_sweep_jsonl(records, buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert len(lines) == len(records)
    first = json.loads(lines[0])
    assert tuple(first) == SWEEP_COLUMNS
    assert first["b0"] == records[0].b0
    assert first["lambda"] == records[0].lam
    assert first["phase"] == records[0].phase.value


@pytest.mark.parametrize("digits", [None, 3])
def test_jsonl_writer_prints_an_enum_cell_as_its_value(digits):
    rows = [(PhaseLabel.SUPERRADIANT, 0.123456, 2), (PhaseLabel.NO_FINITE_TRANSITION, None, 3)]
    buffer = io.StringIO()
    _write_rows(buffer, ("phase", "x", "n"), rows, digits, "json")
    x = 0.123456 if digits is None else 0.123
    assert buffer.getvalue() == (
        f'{{"phase": "superradiant", "x": {x}, "n": 2}}\n'
        '{"phase": "no_transition", "x": null, "n": 3}\n'
    )


# --- the digits rule -------------------------------------------------------------

def _every_writer():
    """(writer, rows) for each public writer, on rows with floats to round."""
    table = run_grid(_table_grid(4, 5))
    boundary = phase_boundary(1, 1, 0.6, 0.6, (0.4, 0.5), 3)
    oracle = [OracleRow(2, -0.123456789, 0.987654321, -0.1, 1 / 3),
              OracleRow(None, -0.1, 1 / 3, -0.1, 1 / 3)]
    return [(write_sweep_csv, table), (write_sweep_jsonl, table),
            (write_sweep_csv, list(table)), (write_sweep_jsonl, list(table)),
            (write_boundary_csv, boundary), (write_oracle_csv, oracle),
            (write_oracle_jsonl, oracle)]


@pytest.mark.parametrize("digits", [0, -1, True, 2.5, "3"])
def test_every_writer_refuses_a_bad_digits_before_writing(digits):
    for write, rows in _every_writer():
        buffer = io.StringIO()
        with pytest.raises(DomainError, match="^digits must be"):
            write(rows, buffer, digits)
        assert buffer.getvalue() == ""


def test_every_writer_prints_a_huge_digits_as_max_digits():
    # format() refuses a precision this large; the writers clamp it first
    for write, rows in _every_writer():
        outputs = []
        for digits in (MAX_DIGITS, MAX_DIGITS + 1, 10**10):
            buffer = io.StringIO()
            write(rows, buffer, digits)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("digits", range(1, 18))
def test_csv_and_json_lines_round_alike(digits):
    table = run_grid(_table_grid(4, 5))
    assert {r.phase for r in table} == {PhaseLabel.NORMAL, PhaseLabel.SUPERRADIANT}
    outputs = []
    for rows in (table, list(table)):
        csv_text, jsonl_text = io.StringIO(), io.StringIO()
        write_sweep_csv(rows, csv_text, digits)
        write_sweep_jsonl(rows, jsonl_text, digits)
        outputs.append((csv_text.getvalue(), jsonl_text.getvalue()))
        csv_rows = [line.split(",") for line in csv_text.getvalue().splitlines()[1:]]
        json_rows = [json.loads(line) for line in jsonl_text.getvalue().splitlines()]
        assert len(csv_rows) == len(json_rows) == len(table)
        for fields, mapping, record in zip(csv_rows, json_rows, table):
            assert fields[6] == mapping["phase"] == record.phase.value
            for field, column, value in zip(fields, SWEEP_COLUMNS, record):
                if column != "phase":
                    rounded = float(format(value, f".{digits}g"))
                    assert float(field) == mapping[column] == rounded
    # a table and the list of its records write the same bytes
    assert outputs[0] == outputs[1]


REFERENCE_CSV = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "sweep_grid_seed0.csv"
)


def _assert_same_text(got, want):
    """got == want, a line at a time: on a difference, pytest's diff of two
    texts of megabytes runs for minutes, and the first differing line is
    what is wanted."""
    lines = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    for number, (got_line, want_line) in enumerate(lines):
        assert got_line == want_line, f"first difference at line {number}"


def _rowwise_csv(columns, rows, digits):
    """Reference CSV writer: every cell formatted on its own."""
    def cell(v):
        if isinstance(v, Enum):
            return v.value
        if isinstance(v, float):
            return repr(float(v)) if digits is None else format(float(v), f".{digits}g")
        return "" if v is None else str(v)
    lines = [",".join(columns)] + [",".join(cell(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def test_full_size_sweep_matches_stored_reference():
    # the benchmark's seed-0 300 x 200 grid, so the CSV crosses many writer
    # chunks; the stored file holds the header and every 101st data line
    spec = GridSpec(
        AxisSpec("g1", 0.2, 1.4, 300),
        AxisSpec("beta", 0.4, 30.0, 200, scale="log"),
        {"omega0": 1.001, "Omega": 1.008, "g2": 0.505, "lambda": 0.251},
    )
    records = run_grid(spec)
    buffer = io.StringIO()
    write_sweep_csv(records, buffer)
    text = buffer.getvalue()
    rows = [(r.omega0, r.Omega, r.g1, r.g2, r.lam, r.beta, r.phase.value,
             r.b0, r.omega_delta, r.f_diff) for r in records]
    _assert_same_text(text, _rowwise_csv(SWEEP_COLUMNS, rows, None))
    lines = text.splitlines()
    ref = REFERENCE_CSV.read_text().splitlines()
    assert len(lines) == 1 + 60_000 and lines[0] == ref[0]
    got = [line.split(",") for line in lines[1::101]]
    want = [line.split(",") for line in ref[1:]]
    assert [row[:7] for row in got] == [row[:7] for row in want]
    # the stored results predate the array gap kernel, which moved the last
    # bits of two sampled rows (b0 by 1 ulp, f_diff by 1.1e-16)
    assert np.allclose(np.array([row[7:] for row in got], dtype=float),
                       np.array([row[7:] for row in want], dtype=float), rtol=1e-14, atol=0.0)


def _edge_rows(count):
    nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    floats = [0.0, -0.0, math.nan, nan_payload, math.inf, -math.inf, 0.1, 1e-300, 2.5e300]
    mixed = [0.5, np.float64(0.5), 1, True, False, None, "x", -0.0, np.float64(-0.0),
             PhaseLabel.NORMAL]
    phases = list(PhaseLabel)
    rows = []
    for i in range(count):
        repeat = floats[i % len(floats)]
        rows.append((
            repeat,  # few distinct values, all plain floats
            i / 7 - 300.0 if i % 3 else -0.0,  # many distinct values
            mixed[i % len(mixed)],
            np.float64(repeat),
            i,
            "normal" if i % 2 else "superradiant",
            phases[i % len(phases)],
            # a float column until its last row, which is None
            None if i == count - 1 else i * 1e-3,
        ))
    return rows


@pytest.mark.parametrize("digits", [None, 3])
@pytest.mark.parametrize(
    "count", [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1]
)
def test_csv_writer_matches_cell_by_cell_formatting(count, digits):
    columns = ("repeat", "distinct", "mixed", "np64", "int", "text", "phase", "tail")
    rows = _edge_rows(count)
    buffer = io.StringIO()
    _write_rows(buffer, columns, iter(rows), digits)
    _assert_same_text(buffer.getvalue(), _rowwise_csv(columns, rows, digits))


def test_csv_writer_prints_equal_cells_of_other_types_on_their_own():
    # these pairs compare equal but print differently, so no cell may take
    # the field of an equal one
    cells = [np.float32(-0.0), np.float32(0.0), Decimal("-0"), Decimal("0"),
             Decimal("1.0"), Decimal("1"), 1, True, 1.0]
    rows = [(v,) for v in cells + cells[::-1]]
    buffer = io.StringIO()
    _write_rows(buffer, ("cell",), rows)
    assert buffer.getvalue() == _rowwise_csv(("cell",), rows, None)
    assert buffer.getvalue().split()[1:10] == ["-0.0", "0.0", "-0", "0", "1.0", "1", "1",
                                               "True", "1.0"]


def test_boundary_csv_empty_field_past_cut():
    buffer = io.StringIO()
    write_boundary_csv(phase_boundary(1, 1, 0.6, 0.6, (0.4, 0.5), 3), buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "lambda,T_c"
    assert lines[1].split(",")[1] != ""  # lam = 0.40 still has a transition
    assert lines[-1].endswith(",")  # lam = 0.50 does not


def test_oracle_csv_format():
    params = ModelParams(1.0, 1.0, 0.0, 0.0, 0.0)
    rows = oracle_table(params, Thermo(1.5), [1], TruncationConfig(6))
    buffer = io.StringIO()
    write_oracle_csv(rows, buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "N,f_diff_exact,boson_occupation,f_diff_mf,b0_sq_mf"
    assert lines[1].startswith("1,")
    assert lines[2].startswith("inf,")


def test_evaluate_point_attaches_grid_coordinates():
    spec = GridSpec(
        axis1=AxisSpec("g1", 0.1, 0.2, 2),
        axis2=AxisSpec("beta", 1.0, 2.0, 1),
        fixed={"omega0": -1.0, "Omega": 1.0, "g2": 0.0, "lambda": 0.0},
    )
    with pytest.raises(DomainError, match=r"grid point \(0, 0\)"):
        run_grid(spec)
    assert evaluate_point(
        {"omega0": 1.0, "Omega": 1.0, "g1": 0.1, "g2": 0.0, "lambda": 0.0, "beta": 1.0}
    ).phase is PhaseLabel.NORMAL


def _first_failure_point_by_point(spec):
    for i1, v1 in enumerate(spec.axis1.values()):
        for i2, v2 in enumerate(spec.axis2.values()):
            values = dict(spec.fixed, **{spec.axis1.name: v1, spec.axis2.name: v2})
            try:
                evaluate_point(values)
            except DomainError as exc:
                return f"grid point ({i1}, {i2}): {exc}"
    return None


def test_grid_validation_names_first_invalid_point_row_major():
    fixed = {"omega0": 1.0, "Omega": 1.0, "g2": 0.2}
    specs = [
        # beta is over the cap from column 1 on; lambda from row 1 on
        GridSpec(AxisSpec("lambda", -1.0, 3e12, 3), AxisSpec("beta", 1.0, 2e12, 3),
                 dict(fixed, g1=0.5)),
        GridSpec(AxisSpec("lambda", -1.0, 3e12, 3), AxisSpec("beta", 1.0, 2.0, 3),
                 dict(fixed, g1=0.5)),
        # g1 < 0 in row 0, beta too large in column 2
        GridSpec(AxisSpec("g1", -0.5, 0.5, 3), AxisSpec("beta", 1.0, 2e12, 3),
                 {"omega0": 1.0, "Omega": 1.0, "g2": 0.2, "lambda": 0.0}),
        # a fixed value fails every point, and validate's field order decides
        GridSpec(AxisSpec("g1", -0.5, 0.5, 3), AxisSpec("beta", 1.0, 2.0, 3),
                 {"omega0": -1.0, "Omega": math.inf, "g2": 0.2, "lambda": 0.0}),
    ]
    expected = [
        "grid point (0, 1): beta exceeds",
        "grid point (1, 0): lam exceeds",
        "grid point (0, 0): g1 must be nonnegative",
        "grid point (0, 0): Omega must be a finite",
    ]
    for spec, start in zip(specs, expected):
        with pytest.raises(DomainError) as info:
            run_grid(spec)
        assert str(info.value) == _first_failure_point_by_point(spec)
        assert str(info.value).startswith(start)


def test_grid_bracket_failure_names_the_point():
    # omega0/G underflows to 0 at g1 = 1e12, so the bracket 1/target is inf
    spec = GridSpec(
        AxisSpec("g1", 1.0, 1e12, 2),
        AxisSpec("beta", 1.0, 2.0, 3),
        {"omega0": 1e-300, "Omega": 1.0, "g2": 0.0, "lambda": 0.0},
    )
    with pytest.raises(ConvergenceError, match=r"^grid point \(1, 0\): failed to bracket"):
        run_grid(spec)
    # beta*omega_delta/2 overflows at beta = 1e12, g1 = 1; every point at
    # beta = 1e-307 is normal, and g1 = 1e-8 keeps omega_delta = 1e282
    spec = GridSpec(
        AxisSpec("beta", 1e-307, 1e12, 2),
        AxisSpec("g1", 1e-8, 1.0, 2),
        {"omega0": 1e-298, "Omega": 1.0, "g2": 0.0, "lambda": 0.0},
    )
    with pytest.raises(ConvergenceError, match=r"^grid point \(1, 1\): .*overflows a double"):
        run_grid(spec)
