"""Command-line front end.

Subcommands: tc, gap, free-energy, sweep, oracle, fermion-check, boundary.
Parameters come from inline flags, a JSON config file (--config), or both;
flags override file values, and conflicting duplicate flags are rejected.
Exit codes: 0 success (no_transition is a success), 1 fermion-check FAIL,
2 validation error, 3 convergence/truncation/consistency error, 4 I/O error.
"""

import argparse
import contextlib
import json
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
from .exact import TruncationConfig, fermionic_identity_check
from .meanfield import critical_inverse_temperature, free_energy_diff, solve_gap
from .model import _check_mapping_keys, effective_coupling, params_from_mapping
from .sweep import (
    GridSpec,
    evaluate_point,
    oracle_table,
    phase_boundary,
    record_to_mapping,
    run_grid,
    write_boundary_csv,
    write_oracle_csv,
    write_oracle_jsonl,
    write_sweep_csv,
    write_sweep_jsonl,
    _format_number,
)

FERMION_PASS_TOL = 1e-10

# argparse flag name -> config key ("--lambda" cannot use dest "lambda")
_FLAG_DESTS = {
    "omega0": "omega0",
    "Omega": "Omega",
    "g1": "g1",
    "g2": "g2",
    "lambda": "lam",
    "beta": "beta",
}


class _UniqueStore(argparse.Action):
    """Store a value, rejecting a repeat of the flag with a different value.

    Defaults are assigned to the namespace before parsing, so conflicts are
    tracked through an explicit seen set rather than the current value.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        seen = getattr(namespace, "_seen_flags", None)
        if seen is None:
            seen = set()
            setattr(namespace, "_seen_flags", seen)
        if self.dest in seen and getattr(namespace, self.dest) != values:
            parser.error(
                f"conflicting duplicate flag {option_string}: "
                f"{getattr(namespace, self.dest)!r} then {values!r}"
            )
        seen.add(self.dest)
        setattr(namespace, self.dest, values)


def _add_param_flags(parser):
    for key, dest in _FLAG_DESTS.items():
        parser.add_argument(f"--{key}", dest=dest, type=float, action=_UniqueStore)
    parser.add_argument("--config", help="JSON file with parameter values")
    parser.add_argument(
        "--dump-config",
        action="store_true",
        help="print the merged parameter JSON and exit without computing",
    )


def _add_output_flags(parser, formats=False):
    parser.add_argument("--out", help="output file (default: stdout)", action=_UniqueStore)
    parser.add_argument("--digits", type=int, action=_UniqueStore,
                        help="significant digits for numeric output (default: full round-trip)")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            action=_UniqueStore)


def _merged_config(args) -> dict:
    """File values overridden by flags; key set checked against the schema."""
    merged = {}
    if args.config:
        with open(args.config) as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DomainError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DomainError("config file must hold a JSON object")
        _check_mapping_keys(raw)
        merged.update(raw)
    for key, dest in _FLAG_DESTS.items():
        value = getattr(args, dest, None)
        if value is not None:
            merged[key] = value
    return merged


def _maybe_dump_config(args, config) -> bool:
    if getattr(args, "dump_config", False):
        print(json.dumps(config, sort_keys=True))
        return True
    return False


@contextlib.contextmanager
def _open_out(args):
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as handle:
            yield handle
    else:
        yield sys.stdout


def _digits(args):
    digits = getattr(args, "digits", None)
    if digits is not None and digits < 1:
        raise DomainError(f"--digits must be >= 1, got {digits}")
    return digits


def _print_json(args, mapping) -> None:
    digits = _digits(args)
    if digits:
        mapping = {
            key: (float(_format_number(value, digits)) if isinstance(value, float) else value)
            for key, value in mapping.items()
        }
    with _open_out(args) as stream:
        stream.write(json.dumps(mapping) + "\n")


def _cmd_tc(args) -> int:
    config = _merged_config(args)
    if _maybe_dump_config(args, config):
        return 0
    params, _ = params_from_mapping(config)  # a given beta is validated, then unused
    G = effective_coupling(params).G
    ratio = params.omega0 * params.Omega / G if G != 0 else None
    beta_c = critical_inverse_temperature(params)
    if beta_c is None:
        _print_json(args, {"phase": "no_transition", "ratio": ratio})
    else:
        _print_json(args, {"beta_c": beta_c, "T_c": 1.0 / beta_c, "ratio": ratio})
    return 0


def _record_json(args) -> int:
    config = _merged_config(args)
    if _maybe_dump_config(args, config):
        return 0
    record = evaluate_point(config)
    _print_json(args, record_to_mapping(record))
    return 0


def _cmd_sweep(args) -> int:
    with open(args.grid) as handle:
        try:
            mapping = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DomainError(f"grid file is not valid JSON: {exc}") from exc
    spec = GridSpec.from_mapping(mapping)
    records = run_grid(spec, jobs=args.jobs)
    digits = _digits(args)
    with _open_out(args) as stream:
        if args.format == "json":
            write_sweep_jsonl(records, stream, digits)
        else:
            write_sweep_csv(records, stream, digits)
    return 0


def _cmd_oracle(args) -> int:
    config = _merged_config(args)
    if _maybe_dump_config(args, config):
        return 0
    params, thermo = params_from_mapping(config, require_beta=True)
    try:
        n_list = [int(chunk) for chunk in str(args.N).split(",")]
    except ValueError as exc:
        raise DomainError(f"--N must be a comma-separated integer list: {exc}") from exc
    if args.n_max is not None:
        trunc = TruncationConfig(args.n_max, args.tol)
    else:
        trunc = TruncationConfig.seeded(params, thermo, args.tol)
    rows = oracle_table(params, thermo, n_list, trunc)
    digits = _digits(args)
    with _open_out(args) as stream:
        if args.format == "json":
            write_oracle_jsonl(rows, stream, digits)
        else:
            write_oracle_csv(rows, stream, digits)
    return 0


def _cmd_fermion_check(args) -> int:
    config = _merged_config(args)
    if _maybe_dump_config(args, config):
        return 0
    params, thermo = params_from_mapping(config, require_beta=True)
    if args.n_max is not None:
        trunc = TruncationConfig(args.n_max, args.tol)
    else:
        trunc = TruncationConfig.seeded(params, thermo, args.tol)
    discrepancy = fermionic_identity_check(params, args.N, thermo, trunc)
    verdict = "PASS" if discrepancy < FERMION_PASS_TOL else "FAIL"
    with _open_out(args) as stream:
        stream.write(f"{verdict} {discrepancy:.1e}\n")
    return 0 if verdict == "PASS" else 1


def _cmd_boundary(args) -> int:
    config = _merged_config(args)
    if _maybe_dump_config(args, config):
        return 0
    for field in ("omega0", "Omega", "g1", "g2"):
        if field not in config:
            raise DomainError(f"missing required parameter: {field}")
    points = phase_boundary(
        config["omega0"],
        config["Omega"],
        config["g1"],
        config["g2"],
        (args.lambda_min, args.lambda_max),
        args.count,
    )
    with _open_out(args) as stream:
        write_boundary_csv(points, stream, _digits(args))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.set_defaults(handler=_record_json)

    p_sweep = sub.add_parser("sweep", help="evaluate a 2-axis parameter grid")
    p_sweep.add_argument("--grid", required=True, help="JSON grid spec file")
    p_sweep.add_argument("--jobs", type=int, default=1, action=_UniqueStore,
                         help="accepted for interface stability; the grid is solved in one pass")
    _add_output_flags(p_sweep, formats=True)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="finite-N vs mean-field comparison table")
    _add_param_flags(p_oracle)
    p_oracle.add_argument("--N", required=True, help="comma-separated atom counts, e.g. 2,4,6,8")
    p_oracle.add_argument("--n-max", dest="n_max", type=int, action=_UniqueStore,
                          help="starting boson cutoff (default: seeded heuristic)")
    p_oracle.add_argument("--tol", type=float, default=1e-8, action=_UniqueStore)
    p_oracle.add_argument("--jobs", type=int, default=1, action=_UniqueStore,
                          help="accepted for interface stability; table rows run serially")
    _add_output_flags(p_oracle, formats=True)
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_fermion = sub.add_parser("fermion-check", help="fermionic trace identity check")
    _add_param_flags(p_fermion)
    p_fermion.add_argument("--N", type=int, required=True, choices=(1, 2))
    p_fermion.add_argument("--n-max", dest="n_max", type=int, action=_UniqueStore)
    p_fermion.add_argument("--tol", type=float, default=1e-8, action=_UniqueStore)
    _add_output_flags(p_fermion)
    p_fermion.set_defaults(handler=_cmd_fermion_check)

    p_boundary = sub.add_parser("boundary", help="T_c versus lambda curve")
    _add_param_flags(p_boundary)
    p_boundary.add_argument("--lambda-min", dest="lambda_min", type=float, required=True)
    p_boundary.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    p_boundary.add_argument("--count", type=int, default=50, action=_UniqueStore)
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
        return args.handler(args)
    except (DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, TruncationError, HermiticityError, CommutationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
