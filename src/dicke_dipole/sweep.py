"""Parameter-grid engine: phase diagrams, boundary curves, oracle tables.

A grid is evaluated in one call of the mean-field gap kernel over all its
points (solves are independent, so there is no warm starting), and comes
back as a SweepTable: the kernel's arrays, one per column, read as a
sequence of SweepRecords in row-major input order.  A single point is built
by the same function, from 1-element input columns.  Numeric output uses the
shortest round-trip decimal representation of each double, so a given grid
spec always produces byte-identical files.  The CSV writer formats cells a
column at a time over blocks of rows, and each distinct double once; a
SweepTable's columns go to it as they are, other rows are transposed first.
The bytes are those of formatting every cell on its own.  Sweep and oracle
records are NamedTuples in column order, so each record is its printed row;
an Enum cell, such as a phase, prints its value.
"""

import itertools
import json
import operator
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .meanfield import PhaseLabel, _free_energy_arrays, _gap_kernel, critical_inverse_temperature
from .model import (CONFIG_KEYS, ModelParams, Thermo, _check_count, _check_real,
                    params_from_mapping, params_to_mapping)

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


# rows per block of the CSV writer and of SweepTable iteration: bounds the
# transient lists of Python objects
_CSV_CHUNK_ROWS = 4096

# a phase flag indexes these, as an int8
_PHASES = np.array([PhaseLabel.NORMAL, PhaseLabel.SUPERRADIANT], dtype=object)
_PHASE_COLUMN = SWEEP_COLUMNS.index("phase")


class SweepTable(Sequence):
    """Grid-sweep records, held as one read-only array per SWEEP_COLUMNS field.

    The arrays are the kernel's own: float64 columns, and the superradiant
    flags in place of the phase.  Indexing and iteration build SweepRecords
    on demand, with Python floats and PhaseLabel members, so ``list(table)``
    is the plain list of records.  A slice is a table, and ``==`` compares
    record by record with a table or a list.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns):
        self._columns = tuple(columns)
        for column in self._columns:
            column.flags.writeable = False

    def _block(self, start, stop, labels=_PHASES):
        """The columns' slices start:stop, each phase flag replaced by labels[flag]."""
        block = [column[start:stop] for column in self._columns]
        block[_PHASE_COLUMN] = labels[block[_PHASE_COLUMN].view(np.int8)]
        return block

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable(column[index] for column in self._columns)
        i = range(len(self))[index]
        return SweepRecord._make(column.item(0) for column in self._block(i, i + 1))

    def __iter__(self):
        for start in range(0, len(self), _CSV_CHUNK_ROWS):
            block = self._block(start, start + _CSV_CHUNK_ROWS)
            # tolist() gives plain Python floats, not NumPy scalars
            yield from map(SweepRecord._make, zip(*(column.tolist() for column in block)))

    def __eq__(self, other):
        if not isinstance(other, (SweepTable, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _table(inputs) -> SweepTable:
    """The SweepTable of validated input columns in CONFIG_KEYS order.

    A ConvergenceError of the gap kernel carries the flat index of the first
    failing point as ``index``.
    """
    superradiant, omega_delta, _, b0, _ = _gap_kernel(*inputs)
    f_diff, _ = _free_energy_arrays(*inputs, omega_delta, superradiant)
    return SweepTable((*inputs, superradiant, b0, omega_delta, f_diff))


def evaluate_point(values: dict) -> SweepRecord:
    """Mean-field record for one mapping of all six parameter values."""
    params, thermo = params_from_mapping(values, require_beta=True)
    return _table([np.array([v]) for v in (*astuple(params), thermo.beta)])[0]


def run_grid(spec: GridSpec, jobs: int = 1) -> SweepTable:
    """Evaluate every grid point, axis1 as the outer (row-major) loop.

    All points are solved in one vectorised call, and the SweepTable holds
    the kernel's arrays; ``list(run_grid(spec))`` is the list of records.
    jobs must be an integer >= 1 and is otherwise ignored; it stays only
    because the benchmark (perfbench/workloads.py) still passes it.
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
        return _table([columns[name] for name in CONFIG_KEYS])
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
    """One row per finite N, in the order given, plus the N = infinity mean-field row.

    Each finite-N row takes f_diff and <b'b>/N from the same converged
    sector pass of the cutoff-doubling loop: the occupation is bit for bit
    thermal_boson_occupation's at the converged cutoff, and f_diff agrees
    with free_energy_exact's to rounding (1e-12).  An N given twice is
    solved once and printed twice.  Every N is checked, its largest sector
    at the starting cutoff and at its first doubling against the cap
    included, before the first row is computed.
    """
    # imported here, so that the mean-field commands never load SciPy
    from .exact import _check_cutoffs, _converged

    n_list = list(n_list)
    for n_atoms in n_list:
        _check_cutoffs(n_atoms, trunc.n_max)
    mf = evaluate_point(params_to_mapping(params, thermo))
    f_diff_mf, b0_sq = mf.f_diff, mf.b0 ** 2
    # the checks admit only ints, so equal keys are equal atom counts
    solved = {n_atoms: _converged(params, n_atoms, thermo, trunc, want_occupations=True)
              for n_atoms in dict.fromkeys(n_list)}
    rows = [OracleRow(n_atoms, solved[n_atoms][0].f_diff, solved[n_atoms][1], f_diff_mf, b0_sq)
            for n_atoms in n_list]
    rows.append(OracleRow(None, f_diff_mf, b0_sq, f_diff_mf, b0_sq))
    return rows


def _format_number(value: float, digits: int | None) -> str:
    # repr() of a float is its shortest round-trip decimal form
    if digits is None:
        return repr(float(value))
    return format(float(value), f".{digits}g")


def _csv_column(cells, digits: int | None) -> list[str]:
    """The CSV fields of one column: a float64 array, or a sequence of cells.

    Doubles are keyed by bit pattern, so 0.0 and -0.0 (and NaN payloads) stay
    apart, and each distinct double is formatted once; any other column is
    formatted cell by cell.
    """
    if isinstance(cells, np.ndarray) or set(map(type, cells)) == {float}:
        values = np.asarray(cells)
        _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
        fields = [_format_number(v, digits) for v in values[first].tolist()]
        return np.array(fields, dtype=object)[inverse].tolist()
    # float first: in a mixed column, such as boundary T_c, most cells are one
    return [_format_number(v, digits) if isinstance(v, float) else "" if v is None
            else str(v.value if isinstance(v, Enum) else v) for v in cells]


# the CSV fields of a SweepTable's phase flags
_PHASE_FIELDS = np.array([phase.value for phase in _PHASES], dtype=object)


def _write_rows(stream, columns, rows, digits: int | None = None, fmt: str = "csv") -> None:
    """Write rows as CSV (a header, then one line per row) or as JSON lines.

    A CSV cell is a float through _format_number, a str as is, an int through
    str, an Enum as its value, and None as an empty field.  Cells are
    formatted a column at a time over blocks of rows, and each distinct
    double once.  A SweepTable's float columns go to the formatter as array
    slices and its phase flags index their fields, so no record is built;
    any other rows are transposed block by block.  A JSON line maps columns
    to the row's values, an Enum again as its value; floats are rounded
    through _format_number only when digits is set.
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
    if isinstance(rows, SweepTable):
        # the phase comes as its fields, an object array; every other column is float64
        blocks = ([column.tolist() if column.dtype == object else _csv_column(column, digits)
                   for column in rows._block(start, start + _CSV_CHUNK_ROWS, _PHASE_FIELDS)]
                  for start in range(0, len(rows), _CSV_CHUNK_ROWS))
    else:
        rows = iter(rows)
        chunks = iter(lambda: list(itertools.islice(rows, _CSV_CHUNK_ROWS)), [])
        blocks = ([_csv_column(cells, digits) for cells in zip(*chunk)] for chunk in chunks)
    for fields in blocks:
        stream.write("\n".join(map(",".join, zip(*fields))) + "\n")


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
