"""Grid engine, boundary curve, oracle table, and the file formats."""

import io
import json
import math

import numpy as np
import pytest

from dicke_dipole import (
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
from dicke_dipole.sweep import SWEEP_COLUMNS, evaluate_point
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


def test_parallel_matches_serial():
    spec = small_grid(4, 5)
    assert run_grid(spec, jobs=1) == run_grid(spec, jobs=3)


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


# --- output formats ---------------------------------------------------------------

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
    # b0 overflows at beta = 1, g1 = 1e8; every point at beta = 1e-307 is normal
    spec = GridSpec(
        AxisSpec("beta", 1e-307, 1.0, 2),
        AxisSpec("g1", 1.0, 1e8, 2),
        {"omega0": 1e-290, "Omega": 1.0, "g2": 0.0, "lambda": 0.0},
    )
    with pytest.raises(ConvergenceError, match=r"^grid point \(1, 1\): .*overflows a double"):
        run_grid(spec)
