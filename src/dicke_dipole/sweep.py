"""Parameter-grid engine: phase diagrams, boundary curves, oracle tables.

A grid is evaluated in one call of the mean-field gap kernel over all its
points (solves are independent, so there is no warm starting), and records
come back in row-major input order; a single point is built by the same
function, from 1-element input columns.  Numeric output uses the shortest
round-trip decimal representation of each double, so a given grid spec
always produces byte-identical files.  The CSV writer formats cells a column
at a time over blocks of rows, and each distinct double in a column once;
the bytes are those of formatting every cell on its own.  Sweep and oracle
records are NamedTuples in column order, so each record is its printed row;
an Enum cell, such as a phase, prints its value.
"""

import itertools
import json
from dataclasses import astuple, dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .meanfield import (
    PhaseLabel,
    _free_energy_arrays,
    _gap_kernel,
    critical_inverse_temperature,
    free_energy_diff,
    solve_gap,
)
from .model import CONFIG_KEYS, ModelParams, Thermo, _check_count, _check_real, params_from_mapping

if TYPE_CHECKING:
    from .exact import TruncationConfig

MAX_GRID_POINTS = 10**7

# SweepRecord's fields in order, lam printed as lambda
SWEEP_COLUMNS = CONFIG_KEYS + ("phase", "b0", "omega_delta", "f_diff")


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: name plus a linear or log range of count values."""

    name: str
    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in CONFIG_KEYS:
            raise DomainError(f"axis name must be one of {CONFIG_KEYS}, got {self.name!r}")
        _check_count("axis count", self.count)
        _check_real(f"axis {self.name} min", self.min)
        _check_real(f"axis {self.name} max", self.max)
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
        if not isinstance(self.fixed, dict):
            raise DomainError(f"fixed must be a dict (a JSON object), got {self.fixed!r}")
        if self.axis1.name == self.axis2.name:
            raise DomainError(f"axis1 and axis2 both sweep {self.axis1.name!r}")
        expected = set(CONFIG_KEYS) - {self.axis1.name, self.axis2.name}
        got = set(self.fixed)
        if got != expected:
            raise DomainError(
                f"fixed keys must be exactly {sorted(expected)}, got {sorted(got)}"
            )
        for key, value in self.fixed.items():
            # run_grid checks the range, naming the first failing grid point
            _check_real(f"fixed value {key}", value, finite=False)
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
                # as given: AxisSpec checks each value, as configs are checked
                return AxisSpec(entry["name"], entry["min"], entry["max"], entry["count"],
                                entry.get("scale", "linear"))
            except (KeyError, TypeError) as exc:
                raise DomainError(f"bad axis spec {entry!r}: {exc}") from exc

        return cls(make_axis(axis1), make_axis(axis2), fixed)


class SweepRecord(NamedTuple):
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


def _records(inputs) -> list[SweepRecord]:
    """One SweepRecord per point of validated input columns in CONFIG_KEYS order.

    A ConvergenceError of the gap kernel carries the flat index of the first
    failing point as ``index``.
    """
    superradiant, omega_delta, _, b0, _ = _gap_kernel(*inputs)
    f_diff, _ = _free_energy_arrays(*inputs, omega_delta, superradiant)
    phases = [PhaseLabel.SUPERRADIANT if s else PhaseLabel.NORMAL for s in superradiant.tolist()]
    # tolist() gives plain Python floats, not NumPy scalars
    outputs = [phases, b0.tolist(), omega_delta.tolist(), f_diff.tolist()]
    return list(map(SweepRecord._make, zip(*(c.tolist() for c in inputs), *outputs)))


def evaluate_point(values: dict) -> SweepRecord:
    """Mean-field record for one mapping of all six parameter values."""
    params, thermo = params_from_mapping(values, require_beta=True)
    return _records([np.array([v]) for v in (*astuple(params), thermo.beta)])[0]


def run_grid(spec: GridSpec, jobs: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point, axis1 as the outer (row-major) loop.

    All points are solved in one vectorised call.  jobs must be an integer
    >= 1 and is otherwise ignored; it stays only because the benchmark
    (perfbench/workloads.py) still passes it.
    """
    _check_count("jobs", jobs)
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
    try:
        return _records([columns[name] for name in CONFIG_KEYS])
    except ConvergenceError as exc:
        raise ConvergenceError(f"grid point {divmod(exc.index, a2.size)}: {exc}") from exc


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
    if _check_count("count", count) > MAX_GRID_POINTS:
        raise DomainError(f"count is {count}, cap is {MAX_GRID_POINTS}")
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not lo < hi:
        raise DomainError(f"lambda_range must satisfy min < max, got ({lo}, {hi})")
    points = []
    for i, lam in enumerate(np.linspace(lo, hi, count).tolist()):
        try:
            beta_c = critical_inverse_temperature(ModelParams(omega0, Omega, g1, g2, lam))
        except DomainError as exc:
            raise DomainError(f"lambda[{i}]={lam!r}: {exc}") from exc
        points.append((lam, None if beta_c is None else 1.0 / beta_c))
    return points


class OracleRow(NamedTuple):
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
    trunc: "TruncationConfig",
) -> list[OracleRow]:
    """One row per finite N plus the N = infinity mean-field row."""
    # imported here, so that the mean-field commands never load SciPy
    from .exact import TruncationConfig, free_energy_exact, thermal_boson_occupation

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


# rows formatted per pass of the CSV writer: bounds its transient lists
_CSV_CHUNK_ROWS = 4096


def _csv_column(cells, digits: int | None) -> list[str]:
    """The CSV fields of one column's cells, formatting each distinct double once.

    A column of floats is keyed by bit pattern, so 0.0 and -0.0 (and NaN
    payloads) stay apart; any other column is formatted cell by cell.
    """
    if set(map(type, cells)) == {float}:
        keys = np.array(cells).view(np.int64)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        fields = [_format_number(cells[i], digits) for i in first.tolist()]
        return list(map(fields.__getitem__, inverse.tolist()))
    # float first: in a mixed column, such as boundary T_c, most cells are one
    return [_format_number(v, digits) if isinstance(v, float) else "" if v is None
            else str(v.value if isinstance(v, Enum) else v) for v in cells]


def _write_rows(stream, columns, rows, digits: int | None = None, fmt: str = "csv") -> None:
    """Write rows as CSV (a header, then one line per row) or as JSON lines.

    A CSV cell is a float through _format_number, a str as is, an int through
    str, an Enum as its value, and None as an empty field; cells are
    formatted a column at a time, each distinct double once.  A JSON line
    maps columns to the row's values, an Enum again as its value; floats are
    rounded through _format_number only when digits is set.
    """
    if fmt == "json":
        for row in rows:
            if digits:
                row = [float(_format_number(v, digits)) if isinstance(v, float) else v
                       for v in row]
            # only an Enum cell is not JSON: the default writes its value
            stream.write(json.dumps(dict(zip(columns, row)), default=lambda e: e.value) + "\n")
        return
    stream.write(",".join(columns) + "\n")
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        fields = [_csv_column(cells, digits) for cells in zip(*chunk)]
        stream.write("".join([line + "\n" for line in map(",".join, zip(*fields))]))


def write_sweep_csv(records, stream, digits: int | None = None) -> None:
    """RFC 4180 CSV, LF line endings, header row, fixed column order."""
    _write_rows(stream, SWEEP_COLUMNS, records, digits)


def write_sweep_jsonl(records, stream, digits: int | None = None) -> None:
    """JSON-lines mirror of the CSV with identical field names."""
    _write_rows(stream, SWEEP_COLUMNS, records, digits, "json")


def write_boundary_csv(points, stream, digits: int | None = None) -> None:
    """lambda,T_c rows; the T_c field is empty where no transition exists."""
    _write_rows(stream, ("lambda", "T_c"), points, digits)


_ORACLE_COLUMNS = ("N", "f_diff_exact", "boson_occupation", "f_diff_mf", "b0_sq_mf")


def _oracle_rows(rows):
    # the mean-field row prints N as inf
    return (row._replace(n_atoms="inf") if row.n_atoms is None else row for row in rows)


def write_oracle_csv(rows, stream, digits: int | None = None) -> None:
    _write_rows(stream, _ORACLE_COLUMNS, _oracle_rows(rows), digits)


def write_oracle_jsonl(rows, stream, digits: int | None = None) -> None:
    _write_rows(stream, _ORACLE_COLUMNS, _oracle_rows(rows), digits, "json")
