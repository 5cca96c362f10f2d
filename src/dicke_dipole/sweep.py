"""Parameter-grid engine: phase diagrams, boundary curves, oracle tables.

A grid is evaluated in one call of the mean-field gap kernel over all its
points (solves are independent, so there is no warm starting), and records
come back in row-major input order.  Numeric output uses the shortest
round-trip decimal representation of each double, so a given grid spec
always produces byte-identical files.
"""

import json
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .exact import TruncationConfig, free_energy_exact, thermal_boson_occupation
from .meanfield import (
    PhaseLabel,
    _free_energy_arrays,
    _gap_kernel,
    critical_inverse_temperature,
    free_energy_diff,
    solve_gap,
)
from .model import ModelParams, Thermo, params_from_mapping, validate

AXIS_NAMES = ("omega0", "Omega", "g1", "g2", "lambda", "beta")
MAX_GRID_POINTS = 10**7

# SweepRecord's fields in order; run_grid builds records positionally
SWEEP_COLUMNS = AXIS_NAMES + ("phase", "b0", "omega_delta", "f_diff")


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: name plus a linear or log range of count values."""

    name: str
    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise DomainError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise DomainError(f"axis count must be an integer >= 1, got {self.count!r}")
        if not self.min < self.max:
            raise DomainError(f"axis {self.name}: min must be < max, got [{self.min}, {self.max}]")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"axis scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.min <= 0:
            raise DomainError(f"axis {self.name}: log scale requires min > 0, got {self.min}")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class GridSpec:
    """Two swept axes plus fixed values for every remaining parameter."""

    axis1: AxisSpec
    axis2: AxisSpec
    fixed: dict

    def __post_init__(self):
        if self.axis1.name == self.axis2.name:
            raise DomainError(f"axis1 and axis2 both sweep {self.axis1.name!r}")
        expected = set(AXIS_NAMES) - {self.axis1.name, self.axis2.name}
        got = set(self.fixed)
        if got != expected:
            raise DomainError(
                f"fixed keys must be exactly {sorted(expected)}, got {sorted(got)}"
            )
        for key, value in self.fixed.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DomainError(f"fixed value {key} must be a number, got {value!r}")
        if self.axis1.count * self.axis2.count > MAX_GRID_POINTS:
            raise DomainError(
                f"grid has {self.axis1.count * self.axis2.count} points, "
                f"cap is {MAX_GRID_POINTS}"
            )

    @classmethod
    def from_mapping(cls, mapping) -> "GridSpec":
        try:
            axis1 = mapping["axis1"]
            axis2 = mapping["axis2"]
            fixed = mapping["fixed"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"grid spec must contain axis1, axis2, fixed: {exc}") from exc

        def make_axis(entry):
            try:
                return AxisSpec(
                    name=entry["name"],
                    min=float(entry["min"]),
                    max=float(entry["max"]),
                    count=int(entry["count"]),
                    scale=entry.get("scale", "linear"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"bad axis spec {entry!r}: {exc}") from exc

        return cls(make_axis(axis1), make_axis(axis2), dict(fixed))


@dataclass(frozen=True)
class SweepRecord:
    """One phase-diagram point: inputs, phase, order parameter, gap, f_diff."""

    omega0: float
    Omega: float
    g1: float
    g2: float
    lam: float
    beta: float
    phase: PhaseLabel
    b0: float
    omega_delta: float
    f_diff: float


def evaluate_point(values: dict) -> SweepRecord:
    """Mean-field record for one mapping of all six parameter values."""
    params, thermo = params_from_mapping(values, require_beta=True)
    sol = solve_gap(params, thermo)
    f_diff = free_energy_diff(params, thermo, sol).f_diff
    return SweepRecord(*astuple(params), thermo.beta, sol.phase, sol.b0, sol.omega_delta, f_diff)


def run_grid(spec: GridSpec, jobs: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point, axis1 as the outer (row-major) loop.

    All points are solved in one vectorised call; jobs must be an integer
    >= 1 and is otherwise ignored, for interface stability.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise DomainError(f"jobs must be an integer >= 1, got {jobs!r}")
    a1, a2 = spec.axis1.values(), spec.axis2.values()
    # Every check in validate and Thermo looks at one field, so once row 0 is
    # valid the first invalid point in row-major order can only be (i1, 0):
    # checking row 0 and column 0 finds it, and checks each axis value once.
    for i1, i2 in [(0, i2) for i2 in range(a2.size)] + [(i1, 0) for i1 in range(1, a1.size)]:
        point = dict(spec.fixed, **{spec.axis1.name: a1[i1], spec.axis2.name: a2[i2]})
        try:
            params_from_mapping(point, require_beta=True)
        except DomainError as exc:
            raise DomainError(f"grid point ({i1}, {i2}): {exc}") from exc
    columns = {key: np.full(a1.size * a2.size, float(v)) for key, v in spec.fixed.items()}
    columns[spec.axis1.name] = np.repeat(a1, a2.size)
    columns[spec.axis2.name] = np.tile(a2, a1.size)
    inputs = [columns[name] for name in AXIS_NAMES]
    try:
        superradiant, omega_delta, _, b0, _ = _gap_kernel(*inputs)
    except ConvergenceError as exc:
        raise ConvergenceError(f"grid point {divmod(exc.index, a2.size)}: {exc}") from exc
    f_diff, _ = _free_energy_arrays(*inputs, omega_delta, superradiant)
    phases = [PhaseLabel.SUPERRADIANT if s else PhaseLabel.NORMAL for s in superradiant.tolist()]
    # tolist() gives plain Python floats, as evaluate_point records hold
    outputs = [phases, b0.tolist(), omega_delta.tolist(), f_diff.tolist()]
    return [SweepRecord(*row) for row in zip(*(c.tolist() for c in inputs), *outputs)]


def phase_boundary(
    omega0: float,
    Omega: float,
    g1: float,
    g2: float,
    lambda_range: tuple,
    count: int,
) -> list[tuple]:
    """(lambda, T_c) along a lambda scan; T_c is None past the endpoint
    lambda = ((g1+g2)**2 - omega0*Omega)/omega0 where the transition dies."""
    if not isinstance(count, int) or count < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not lo < hi:
        raise DomainError(f"lambda_range must satisfy min < max, got ({lo}, {hi})")
    points = []
    for lam in np.linspace(lo, hi, count):
        params = validate(ModelParams(omega0, Omega, g1, g2, float(lam)))
        beta_c = critical_inverse_temperature(params)
        points.append((float(lam), None if beta_c is None else 1.0 / beta_c))
    return points


@dataclass(frozen=True)
class OracleRow:
    """Exact finite-N observables next to their mean-field limits.

    n_atoms is None on the thermodynamic-limit row, where the exact columns
    repeat the mean-field values (occupation column holds b0**2).
    """

    n_atoms: int | None
    f_diff: float
    boson_occupation: float
    f_diff_mf: float
    b0_sq_mf: float


def oracle_table(
    params: ModelParams,
    thermo: Thermo,
    n_list,
    trunc: TruncationConfig,
) -> list[OracleRow]:
    """One row per finite N plus the N = infinity mean-field row."""
    sol = solve_gap(params, thermo)
    f_diff_mf = free_energy_diff(params, thermo, sol).f_diff
    b0_sq = sol.b0 ** 2
    rows = []
    for n_atoms in n_list:
        exact = free_energy_exact(params, n_atoms, thermo, trunc)
        occupation = thermal_boson_occupation(
            params, n_atoms, thermo, TruncationConfig(exact.n_max, trunc.tol)
        )
        rows.append(OracleRow(n_atoms, exact.f_diff, occupation, f_diff_mf, b0_sq))
    rows.append(OracleRow(None, f_diff_mf, b0_sq, f_diff_mf, b0_sq))
    return rows


def _format_number(value: float, digits: int | None) -> str:
    # repr() of a float is its shortest round-trip decimal form
    if digits is None:
        return repr(float(value))
    return format(float(value), f".{digits}g")


def record_to_mapping(record: SweepRecord, digits: int | None = None) -> dict:
    """SweepRecord as a JSON-ready mapping with the CSV column names."""
    out = {}
    for column in SWEEP_COLUMNS:
        if column == "phase":
            out[column] = record.phase.value
            continue
        value = record.lam if column == "lambda" else getattr(record, column)
        out[column] = float(_format_number(value, digits)) if digits else value
    return out


def write_sweep_csv(records, stream, digits: int | None = None) -> None:
    """RFC 4180 CSV, LF line endings, header row, fixed column order."""
    stream.write(",".join(SWEEP_COLUMNS) + "\n")
    for record in records:
        row = record_to_mapping(record, digits=None)
        cells = [
            row["phase"] if column == "phase" else _format_number(row[column], digits)
            for column in SWEEP_COLUMNS
        ]
        stream.write(",".join(cells) + "\n")


def write_sweep_jsonl(records, stream, digits: int | None = None) -> None:
    """JSON-lines mirror of the CSV with identical field names."""
    for record in records:
        stream.write(json.dumps(record_to_mapping(record, digits)) + "\n")


def write_boundary_csv(points, stream, digits: int | None = None) -> None:
    """lambda,T_c rows; the T_c field is empty where no transition exists."""
    stream.write("lambda,T_c\n")
    for lam, t_c in points:
        cell = "" if t_c is None else _format_number(t_c, digits)
        stream.write(f"{_format_number(lam, digits)},{cell}\n")


def write_oracle_csv(rows, stream, digits: int | None = None) -> None:
    stream.write("N,f_diff_exact,boson_occupation,f_diff_mf,b0_sq_mf\n")
    for row in rows:
        label = "inf" if row.n_atoms is None else str(row.n_atoms)
        cells = [
            _format_number(value, digits)
            for value in (row.f_diff, row.boson_occupation, row.f_diff_mf, row.b0_sq_mf)
        ]
        stream.write(label + "," + ",".join(cells) + "\n")


def write_oracle_jsonl(rows, stream, digits: int | None = None) -> None:
    for row in rows:
        mapping = {
            "N": "inf" if row.n_atoms is None else row.n_atoms,
            "f_diff_exact": row.f_diff,
            "boson_occupation": row.boson_occupation,
            "f_diff_mf": row.f_diff_mf,
            "b0_sq_mf": row.b0_sq_mf,
        }
        if digits:
            mapping = {
                key: (float(_format_number(v, digits)) if isinstance(v, float) else v)
                for key, v in mapping.items()
            }
        stream.write(json.dumps(mapping) + "\n")
