"""The row writer, and the closed-form T_c(lambda) scan that needs nothing else.

Every printed result goes through _write_rows: CSV (a header, then one line
per row) or JSON lines.  Numeric output uses the shortest round-trip decimal
representation of each double, so a given input always produces
byte-identical output; ``digits`` rounds it instead, and every writer checks
it the one way, through _check_digits.  An Enum cell, such as a phase,
prints its value.  The columnar CSV path of a grid sweep's SweepTable lives
in the sweep module and writes the same bytes.

This module, like model, imports no NumPy, so that the closed-form commands
(tc, boundary) and every request refused before any computing start
without it.
"""

import json
import math
from enum import Enum

from .errors import ConvergenceError, DomainError
from .model import ModelParams, _check_count, critical_inverse_temperature

MAX_GRID_POINTS = 10**7
# the most significant digits in the exact decimal expansion of a double; as
# "g" strips trailing zeros, any larger digits prints the same bytes
MAX_DIGITS = 767


def _check_digits(digits, name: str = "digits") -> int | None:
    """digits as the writers take it: None, or an int >= 1 (not a bool)
    clamped to MAX_DIGITS, since format() refuses a huge precision."""
    if digits is None:
        return None
    if isinstance(digits, bool) or not isinstance(digits, int):
        raise DomainError(f"{name} must be an integer, got {digits!r}")
    if digits < 1:
        raise DomainError(f"{name} must be >= 1, got {digits}")
    return min(digits, MAX_DIGITS)


def _format_number(value: float, digits: int | None) -> str:
    # repr() of a float is its shortest round-trip decimal form
    if digits is None:
        return repr(float(value))
    return format(float(value), f".{digits}g")


def _csv_field(value, digits: int | None) -> str:
    # float first: in a mixed column, such as boundary T_c, most cells are one
    return (_format_number(value, digits) if isinstance(value, float) else "" if value is None
            else str(value.value if isinstance(value, Enum) else value))


def _write_rows(stream, columns, rows, digits: int | None = None, fmt: str = "csv") -> None:
    """Write rows as CSV (a header, then one line per row) or as JSON lines.

    digits is checked by _check_digits before anything is written, and
    rounds the floats of both formats through _format_number.  A CSV cell
    is a float through _format_number, None as an empty field, an Enum as
    its value, and anything else through str (_csv_field); rows print one
    line per row, cell by cell.  A JSON line maps columns to the row's
    values, an Enum again as its value.
    """
    digits = _check_digits(digits)
    if fmt == "json":
        for row in rows:
            if digits:
                row = [float(_format_number(v, digits)) if isinstance(v, float) else v
                       for v in row]
            # only an Enum cell is not JSON: the default writes its value
            stream.write(json.dumps(dict(zip(columns, row)), default=lambda e: e.value) + "\n")
        return
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join([_csv_field(v, digits) for v in row]) + "\n")


def write_boundary_csv(points, stream, digits: int | None = None) -> None:
    """lambda,T_c rows; the T_c field is empty where no transition exists."""
    _write_rows(stream, ("lambda", "T_c"), points, digits)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """np.linspace(lo, hi, count).tolist(), bit for bit, for floats and count >= 1.

    The i-th point is i*step + lo, with step = (hi - lo)/(count - 1); where
    step rounds to 0 (a subnormal span) it is (i/(count - 1))*(hi - lo) + lo
    instead, and the last point is hi.  A single point is 0*(hi - lo) + lo.
    """
    div, delta = count - 1, hi - lo
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    points = [(i / div * delta if step == 0 else i * step) + lo for i in range(count)]
    points[-1] = hi
    return points


def phase_boundary(
    omega0: float,
    Omega: float,
    g1: float,
    g2: float,
    lambda_range: tuple,
    count: int,
) -> list[tuple]:
    """(lambda, T_c) along a lambda scan; T_c is None past the endpoint
    lambda = ((g1+g2)**2 - omega0*Omega)/omega0 where the transition dies.

    A beta_c or T_c that overflows a double raises ConvergenceError naming
    the lambda, as an invalid lambda raises DomainError."""
    if _check_count("count", count) > MAX_GRID_POINTS:
        raise DomainError(f"count is {count}, cap is {MAX_GRID_POINTS}")
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not lo < hi:
        raise DomainError(f"lambda_range must satisfy min < max, got ({lo}, {hi})")
    # before any point is formed: an infinite end, or a span past the largest
    # double, would make every point nan
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"lambda_range ends must be finite, got ({lo}, {hi})")
    if math.isinf(hi - lo):
        raise DomainError(f"lambda_range span max - min overflows a double, got ({lo}, {hi})")
    points = []
    for i, lam in enumerate(_linspace(lo, hi, count)):
        try:
            beta_c = critical_inverse_temperature(ModelParams(omega0, Omega, g1, g2, lam))
            if beta_c is not None and math.isinf(1.0 / beta_c):
                raise ConvergenceError("T_c = 1/beta_c overflows a double")
        except (DomainError, ConvergenceError) as exc:
            raise type(exc)(f"lambda[{i}]={lam!r}: {exc}") from exc
        points.append((lam, None if beta_c is None else 1.0 / beta_c))
    return points
