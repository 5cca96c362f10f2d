"""Parameter-grid engine: phase diagrams and oracle tables.

A grid is evaluated in one call of the mean-field gap kernel over all its
points (solves are independent, so there is no warm starting), and comes
back as a SweepTable: the kernel's arrays, one per column, read as a
sequence of SweepRecords in row-major input order.  A single point is built
by the same function, from 1-element input columns.  Results print through
the output module's row writer, whose names (and the boundary scan's) are
re-exported here; the CSV writer adds a columnar path for a SweepTable,
which formats it a column at a time over blocks of rows, each distinct
double once, and writes the bytes the row writer gives for its records.
Sweep and oracle records are NamedTuples in column order, so each record is
its printed row; an Enum cell, such as a phase, prints its value.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .meanfield import _free_energy_arrays, _gap_kernel
from .model import (CONFIG_KEYS, ModelParams, PhaseLabel, Thermo, _check_count, _check_real,
                    params_from_mapping, params_to_mapping)
# the row writer and the boundary scan, NumPy-free in output, are still
# importable from here
from .output import (MAX_DIGITS, MAX_GRID_POINTS, _check_digits,  # noqa: F401
                     _format_number, _write_rows, phase_boundary, write_boundary_csv)

if TYPE_CHECKING:
    from .exact import TruncationConfig

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
        # NumPy's linspace would make every point nan
        if math.isinf(float(self.max) - float(self.min)):
            raise DomainError(f"axis {self.name}: span max - min overflows a double, "
                              f"got [{self.min}, {self.max}]")
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
    f_diff = _free_energy_arrays(*inputs, omega_delta, superradiant)
    return SweepTable((*inputs, superradiant, b0, omega_delta, f_diff))


def _point_record(params: ModelParams, thermo: Thermo) -> SweepRecord:
    """The mean-field record of one validated point."""
    return _table([np.array([v]) for v in (*astuple(params), thermo.beta)])[0]


def evaluate_point(values: dict) -> SweepRecord:
    """Mean-field record for one mapping of all six parameter values."""
    return _point_record(*params_from_mapping(values, require_beta=True))


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

    Each finite-N row takes f_diff and <b'b>/N from one run of the
    collective cutoff loop that the exact module's docstring describes,
    whose cutoff bounds the truncation error of both by trunc.tol: the
    occupation is bit for bit thermal_boson_occupation's at that cutoff, and
    f_diff is bit for bit free_energy_exact's.  An N given twice is solved
    once and printed twice.  Every N's plan is formed and checked, its start
    and that start's doubling included, before the first row is computed,
    and handed to its solve; a mean-field b0^2 that overflows a double
    raises ConvergenceError before it, too.
    """
    # imported here, so that the mean-field commands never load exact
    from .exact import _cutoff_loop

    n_list = list(n_list)
    loops = {}
    for n_atoms in n_list:
        # each N is counted first, as an int (2.0 and True are refused), so
        # equal keys are equal atom counts
        if _check_count("n_atoms", n_atoms) not in loops:
            loops[n_atoms] = _cutoff_loop(params, n_atoms, thermo, trunc)
    mf = evaluate_point(params_to_mapping(params, thermo))
    f_diff_mf = mf.f_diff
    try:
        b0_sq = mf.b0 ** 2
    except OverflowError:
        raise ConvergenceError(f"the mean-field b0^2 overflows a double (b0={mf.b0!r})") from None
    solved = {n_atoms: loop() for n_atoms, loop in loops.items()}
    rows = [OracleRow(n_atoms, solved[n_atoms][0].f_diff, solved[n_atoms][1], f_diff_mf, b0_sq)
            for n_atoms in n_list]
    rows.append(OracleRow(None, f_diff_mf, b0_sq, f_diff_mf, b0_sq))
    return rows


def _csv_column(values: np.ndarray, digits: int | None) -> list[str]:
    """The CSV fields of a float64 array, each distinct double formatted once.

    Doubles are keyed by bit pattern, so 0.0 and -0.0 (and NaN payloads) stay
    apart.
    """
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    fields = [_format_number(v, digits) for v in values[first].tolist()]
    return np.array(fields, dtype=object)[inverse].tolist()


# the CSV fields of a SweepTable's phase flags
_PHASE_FIELDS = np.array([phase.value for phase in _PHASES], dtype=object)


def write_sweep_csv(records, stream, digits: int | None = None) -> None:
    """RFC 4180 CSV, LF line endings, header row, fixed column order.

    A SweepTable is written a column at a time over blocks of rows: each
    float64 slice goes to _csv_column, which formats each distinct double
    once, and the phase flags index their fields, so no record is built.
    Any other records go through the row writer, cell by cell; both give
    the bytes of formatting every cell on its own.
    """
    if not isinstance(records, SweepTable):
        _write_rows(stream, SWEEP_COLUMNS, records, digits)
        return
    digits = _check_digits(digits)
    stream.write(",".join(SWEEP_COLUMNS) + "\n")
    for start in range(0, len(records), _CSV_CHUNK_ROWS):
        # the phase comes as its fields, an object array; every other column is float64
        fields = [column.tolist() if column.dtype == object else _csv_column(column, digits)
                  for column in records._block(start, start + _CSV_CHUNK_ROWS, _PHASE_FIELDS)]
        stream.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_sweep_jsonl(records, stream, digits: int | None = None) -> None:
    """JSON-lines mirror of the CSV with identical field names."""
    _write_rows(stream, SWEEP_COLUMNS, records, digits, "json")


_ORACLE_COLUMNS = ("N", "f_diff_exact", "boson_occupation", "f_diff_mf", "b0_sq_mf")


def _oracle_rows(rows):
    # the mean-field row prints N as inf
    return (row._replace(n_atoms="inf") if row.n_atoms is None else row for row in rows)


def write_oracle_csv(rows, stream, digits: int | None = None) -> None:
    _write_rows(stream, _ORACLE_COLUMNS, _oracle_rows(rows), digits)


def write_oracle_jsonl(rows, stream, digits: int | None = None) -> None:
    _write_rows(stream, _ORACLE_COLUMNS, _oracle_rows(rows), digits, "json")
