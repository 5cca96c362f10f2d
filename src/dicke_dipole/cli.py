"""Command-line front end.

Subcommands: tc, gap, free-energy, sweep, oracle, fermion-check, boundary.
Parameters come from inline flags, a JSON config file (--config), or both;
flags override file values, and conflicting duplicate flags are rejected.
main merges them, and handles --dump-config, once for every subcommand that
takes parameter flags.  The flag names, the config keys and the sweep grid's
axis names are all model.CONFIG_KEYS, and one reader loads the --config and
--grid files.  boundary scans lambda, so a given lambda or beta is
validated, then unused.  Every output but fermion-check's PASS/FAIL line goes
through one row writer (output._write_rows), so --digits means the same thing
everywhere; fermion-check takes --out but no --digits or --tol, and no
subcommand takes --jobs.  oracle's --n-max is only a floor (default 1), as
each row starts where its saddle point predicts; fermion-check's is
required, as its trace identity holds at every cutoff.  --digits is checked
by the writers' own rule (output._check_digits) after the config merge and
--dump-config, before any other work.
Each handler imports the layers it computes with (meanfield, sweep and exact
use NumPy; exact's collective solvers load SciPy when they run), so tc,
boundary, --dump-config, --help, --version and every request refused before
any computing run without NumPy, and fermion-check runs without SciPy.
Exit codes: 0 success (no_transition is a success), 1 fermion-check FAIL,
2 validation error, 3 convergence/truncation/consistency error or out of
memory, 4 I/O error.
"""

import argparse
import contextlib
import json
import math
import re
import sys

from . import __version__
from .errors import (
    CommutationError,
    ConvergenceError,
    DimensionError,
    DomainError,
    HermiticityError,
    TruncationError,
)
from .model import (CONFIG_KEYS, PhaseLabel, _check_mapping_keys, _critical_point,
                    params_from_mapping)
from .output import _check_digits, _write_rows, phase_boundary, write_boundary_csv

FERMION_PASS_TOL = 1e-10


class _UniqueStore(argparse.Action):
    """Store a value, rejecting a repeat of the flag with a different value.

    Defaults are assigned to the namespace before parsing, so conflicts are
    tracked through an explicit seen set rather than the current value.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        seen = vars(namespace).setdefault("_seen_flags", set())
        if self.dest in seen and getattr(namespace, self.dest) != values:
            parser.error(
                f"conflicting duplicate flag {option_string}: "
                f"{getattr(namespace, self.dest)!r} then {values!r}"
            )
        seen.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose arguments store through _UniqueStore unless
    they name another action, and which reads a negative number as a value,
    in exponent form too, and -inf, -infinity and -nan in any case
    (argparse's own pattern takes -1e-05 and -inf for flags); add_subparsers
    makes its subparsers alike."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _UniqueStore)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


def _add_param_flags(parser):
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key}", dest=key, type=float)
    parser.add_argument("--config", help="JSON file with parameter values")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the merged parameter JSON and exit without computing")


def _add_output_flags(parser, digits=True, formats=False):
    parser.add_argument("--out", help="output file (default: stdout)")
    if digits:
        parser.add_argument("--digits", type=int,
                            help="significant digits for numeric output (default: full round-trip)")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _read_json(path, kind):
    """The JSON value held in the file at path; kind ("config" or "grid") names it in errors."""
    with open(path) as handle:
        try:
            return json.load(handle)
        # a ValueError that is not a JSONDecodeError: bytes that are not
        # UTF-8, or an int too long for the interpreter's digit limit
        except ValueError as exc:
            raise DomainError(f"{kind} file is not valid JSON: {exc}") from exc


def _merged_config(args) -> dict:
    """File values overridden by flags; key set checked against the schema."""
    merged = {}
    if args.config:
        raw = _read_json(args.config, "config")
        if not isinstance(raw, dict):
            raise DomainError("config file must hold a JSON object")
        _check_mapping_keys(raw)
        merged.update(raw)
    for key in CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _output(args):
    """A context manager for the result's stream: the --out file, else stdout."""
    return open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)


def _cmd_tc(args, config) -> int:
    params, _ = params_from_mapping(config)  # a given beta is validated, then unused
    ratio, beta_c = _critical_point(params)
    if beta_c is None:
        columns, row = ("phase", "ratio"), (PhaseLabel.NO_FINITE_TRANSITION, ratio)
    else:
        columns, row = ("beta_c", "T_c", "ratio"), (beta_c, 1.0 / beta_c, ratio)
    for name, value in zip(columns, row):
        # beta_c raises where it overflows; the ratio and 1/beta_c may
        if isinstance(value, float) and math.isinf(value):
            raise ConvergenceError(f"{name} overflows a double")
    with _output(args) as stream:
        _write_rows(stream, columns, [row], args.digits, "json")
    return 0


def _cmd_point(args, config) -> int:
    params, thermo = params_from_mapping(config, require_beta=True)
    from .sweep import _point_record, write_sweep_jsonl

    record = _point_record(params, thermo)
    with _output(args) as stream:
        write_sweep_jsonl([record], stream, args.digits)
    return 0


def _cmd_sweep(args, _config) -> int:
    grid = _read_json(args.grid, "grid")
    from .sweep import GridSpec, run_grid, write_sweep_csv, write_sweep_jsonl

    records = run_grid(GridSpec.from_mapping(grid))
    write = write_sweep_jsonl if args.format == "json" else write_sweep_csv
    with _output(args) as stream:
        write(records, stream, args.digits)
    return 0


def _cmd_oracle(args, config) -> int:
    params, thermo = params_from_mapping(config, require_beta=True)
    try:
        n_list = [int(chunk) for chunk in str(args.N).split(",")]
    except ValueError as exc:
        raise DomainError(f"--N must be a comma-separated integer list: {exc}") from exc
    from .exact import TruncationConfig
    from .sweep import oracle_table, write_oracle_csv, write_oracle_jsonl

    rows = oracle_table(params, thermo, n_list, TruncationConfig(args.n_max, args.tol))
    write = write_oracle_jsonl if args.format == "json" else write_oracle_csv
    with _output(args) as stream:
        write(rows, stream, args.digits)
    return 0


def _cmd_fermion_check(args, config) -> int:
    from .exact import TruncationConfig, fermionic_identity_check

    params, thermo = params_from_mapping(config, require_beta=True)
    discrepancy = fermionic_identity_check(params, args.N, thermo, TruncationConfig(args.n_max))
    verdict = "PASS" if discrepancy < FERMION_PASS_TOL else "FAIL"
    with _output(args) as stream:
        stream.write(f"{verdict} {discrepancy:.1e}\n")
    return 0 if verdict == "PASS" else 1


def _cmd_boundary(args, config) -> int:
    # lambda is scanned, so it may be absent; a given lambda or beta is
    # validated, then unused
    params, _ = params_from_mapping({"lambda": 0.0, **config})
    points = phase_boundary(
        params.omega0,
        params.Omega,
        params.g1,
        params.g2,
        (args.lambda_min, args.lambda_max),
        args.count,
    )
    with _output(args) as stream:
        write_boundary_csv(points, stream, args.digits)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dicke-dipole",
        description="Thermodynamics of the full Dicke model with dipole-dipole interaction",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_tc = sub.add_parser("tc", help="critical temperature from the closed form")
    _add_param_flags(p_tc)
    _add_output_flags(p_tc)
    p_tc.set_defaults(handler=_cmd_tc)

    for name, help_text in (
        ("gap", "stationary-point solution at one parameter point"),
        ("free-energy", "free-energy difference at one parameter point"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_param_flags(p)
        _add_output_flags(p)
        p.set_defaults(handler=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="evaluate a 2-axis parameter grid")
    p_sweep.add_argument("--grid", required=True, help="JSON grid spec file")
    _add_output_flags(p_sweep, formats=True)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="finite-N vs mean-field comparison table")
    _add_param_flags(p_oracle)
    p_oracle.add_argument("--N", required=True, help="comma-separated atom counts, e.g. 2,4,6,8")
    p_oracle.add_argument("--n-max", dest="n_max", type=int, default=1,
                          help="the smallest boson cutoff tried (default: 1); each row starts "
                               "where the mean-field saddle point predicts, at or above it")
    p_oracle.add_argument("--tol", type=float, default=1e-8,
                          help="absolute tolerance on each row's f_diff_exact and "
                               "boson_occupation: a row's cutoff is the first whose bound on "
                               "the truncation error of both is below it (default: 1e-8)")
    _add_output_flags(p_oracle, formats=True)
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_fermion = sub.add_parser("fermion-check", help="fermionic trace identity check")
    _add_param_flags(p_fermion)
    p_fermion.add_argument("--N", type=int, required=True, choices=(1, 2), help="atom count")
    # the trace identity holds at every cutoff, so there is none to predict
    p_fermion.add_argument("--n-max", dest="n_max", type=int, required=True,
                           help="the boson cutoff both traces are taken at")
    _add_output_flags(p_fermion, digits=False)
    p_fermion.set_defaults(handler=_cmd_fermion_check)

    p_boundary = sub.add_parser("boundary", help="T_c versus lambda curve")
    _add_param_flags(p_boundary)
    p_boundary.add_argument("--lambda-min", dest="lambda_min", type=float, required=True)
    p_boundary.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    p_boundary.add_argument("--count", type=int, default=50)
    _add_output_flags(p_boundary)
    p_boundary.set_defaults(handler=_cmd_boundary)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        config = None
        if hasattr(args, "dump_config"):  # the subcommand takes parameter flags
            config = _merged_config(args)
            if args.dump_config:
                print(json.dumps(config, sort_keys=True))
                return 0
        # before any work, so that a bad value cannot cost a whole oracle table
        if hasattr(args, "digits"):
            args.digits = _check_digits(args.digits, "--digits")
        return args.handler(args, config)
    except (DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, TruncationError, HermiticityError, CommutationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
