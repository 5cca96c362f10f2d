"""The benchmark's three workloads: seeded inputs, one timed request, checks.

Every workload is a closed loop with one client: the next request is issued
only after the previous one returned.  A workload provides

    prepare(seed, smoke)        set-up: imports and input generation
    run_pass(inputs, index)     one timed request (pass number index)
    traced_pass(inputs, index)  the in-process pass a traced run wraps
    check(inputs, outputs)      output checks on [(index, output), ...], run
                                outside the timed region; returns the number
                                of operations checked and one message per
                                operation that failed
    points(inputs)              the points one request evaluates
    keep(index, output)         what a run holds on to of each output

The program only ever sees the generated inputs; the seed stays here.
Inputs drawn from different seeds keep the work per request nearly the same
(the same grid shape, the same boson cutoffs, the same request mix), so the
run-to-run spread of a metric reflects the machine, not the draw.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE_CSV = HERE / "reference" / "sweep_grid_seed0.csv"

SWEEP_COLUMNS = (
    "omega0", "Omega", "g1", "g2", "lambda", "beta",
    "phase", "b0", "omega_delta", "f_diff",
)
INPUT_COLUMNS = SWEEP_COLUMNS[:6]

# Tolerances of the mean-field output checks against the independent
# bisection below.  The library bisects omega_delta to a relative width of
# 1e-13; b0 = (g1+g2)*sqrt(omega_delta**2 - Omega**2)/(2G) amplifies that
# near the critical line, where the square root is small.
OMEGA_DELTA_RTOL = 1e-12
B0_ATOL = 1e-9
F_DIFF_ATOL = 1e-12
VALUE_RTOL = 1e-8

# The oracle table's finite-N free energy must agree with the independent
# full product basis to the cutoff-doubling tolerance of free_energy_exact.
ED_BASIS_ATOL = 1e-8
# Two passes of the same ED inputs may differ in the last digits when the
# eigensolver runs on more than one BLAS thread.
ED_REPEAT_ATOL = 1e-10

CLI_MIN_REQUESTS = 40
CLI_PASSES = 10  # distinct request passes; a long run cycles through them
FERMION_N_MAX = 12
BOUNDARY_COUNT = 51


def rng_for(seed, stream):
    """Independent random stream per workload, reproducible from the seed."""
    return np.random.default_rng([seed, stream])


# --------------------------------------------------------------------------
# Independent mean-field reference (no dicke_dipole code)


def _ln_cosh(x):
    return np.logaddexp(x, -x) - math.log(2.0)


def meanfield_reference(omega0, Omega, g1, g2, lam, beta):
    """Phase, omega_delta, b0 and f_diff by vectorised bisection.

    Solves tanh(beta*x/2)/x = omega0/G on [Omega, inf) for every point at
    once; the superradiant branch exists iff G > 0 and the left side at
    x = Omega exceeds omega0/G (equality counts as normal).
    """
    omega0, Omega, g1, g2, lam, beta = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega0, Omega, g1, g2, lam, beta))
    )
    G = (g1 + g2) ** 2 - omega0 * lam
    positive = G > 0
    safe_G = np.where(positive, G, 1.0)
    target = omega0 / safe_G
    superradiant = positive & (np.tanh(0.5 * beta * Omega) / Omega > target)

    lo = Omega.copy()
    hi = 2.0 * np.maximum(Omega, 1.0 / target)
    for _ in range(2000):
        if not np.any(superradiant & (hi - lo > 4e-16 * hi)):
            break
        mid = 0.5 * (lo + hi)
        above = np.tanh(0.5 * beta * mid) / mid - target >= 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    x = np.where(superradiant, 0.5 * (lo + hi), Omega)
    delta = 0.5 * np.sqrt(np.maximum(x * x - Omega * Omega, 0.0))
    b0 = np.where(superradiant, (g1 + g2) * delta / safe_G, 0.0)
    quad = omega0 * (x * x - Omega * Omega) / (4.0 * safe_G)
    entropic = (_ln_cosh(0.5 * beta * x) - _ln_cosh(0.5 * beta * Omega)) / beta
    f_diff = np.where(superradiant, quad - entropic, 0.0)
    phase = np.where(superradiant, "superradiant", "normal")
    return phase, x, b0, f_diff


def mismatched(got, ref):
    """Rows where (phase, omega_delta, b0, f_diff) differ beyond tolerance."""
    phase, omega_delta, b0, f_diff = got
    ref_phase, ref_x, ref_b0, ref_f = ref
    return (
        (np.asarray(phase) != ref_phase)
        | ~(np.abs(omega_delta - ref_x) <= OMEGA_DELTA_RTOL * np.abs(ref_x))
        | ~(np.abs(b0 - ref_b0) <= B0_ATOL + VALUE_RTOL * np.abs(ref_b0))
        | ~(np.abs(f_diff - ref_f) <= F_DIFF_ATOL + VALUE_RTOL * np.abs(ref_f))
    )


def meanfield_mismatches(table):
    """Indices of rows of a sweep table that disagree with meanfield_reference."""
    ref = meanfield_reference(*(table[key] for key in INPUT_COLUMNS))
    got = tuple(table[key] for key in ("phase", "omega_delta", "b0", "f_diff"))
    return np.flatnonzero(mismatched(got, ref))


def parse_sweep_csv(text):
    """Column name -> array for a sweep CSV (phase stays a string column)."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(SWEEP_COLUMNS):
        raise ValueError(f"unexpected sweep CSV header {lines[:1]!r}")
    cells = np.array([line.split(",") for line in lines[1:]], dtype=str)
    if cells.ndim != 2 or cells.shape[1] != len(SWEEP_COLUMNS):
        raise ValueError(f"sweep CSV rows have shape {cells.shape}")
    return {
        key: cells[:, i] if key == "phase" else cells[:, i].astype(float)
        for i, key in enumerate(SWEEP_COLUMNS)
    }


def sweep_table_failures(table, expected_inputs):
    """Check a parsed sweep table: its inputs, then every output row."""
    failures = []
    for key in INPUT_COLUMNS:
        if not np.array_equal(table[key], expected_inputs[key]):
            failures.append(f"column {key} does not hold the grid inputs")
    if failures:
        return failures
    bad = meanfield_mismatches(table)
    if bad.size:
        failures.append(
            f"{bad.size} rows disagree with the independent mean-field reference, "
            f"first at row {bad[0]}"
        )
    return failures


def grid_inputs(spec):
    """Row-major input columns of a GridSpec, as run_grid evaluates them."""
    a1, a2 = spec.axis1.values(), spec.axis2.values()
    n = a1.size * a2.size
    inputs = {key: np.full(n, float(spec.fixed.get(key, 0.0))) for key in INPUT_COLUMNS}
    inputs[spec.axis1.name] = np.repeat(a1, a2.size)
    inputs[spec.axis2.name] = np.tile(a2, a1.size)
    return inputs


# --------------------------------------------------------------------------
# sweep_grid: a 300 x 200 mean-field phase diagram written as CSV


def _near(rng, centre_thousandths, reach):
    """(centre + k) / 1000 for a nonzero k in [-reach, reach]: the last of its
    three decimals is never 0, so every draw prints with five characters."""
    k = rng.choice([*range(-reach, 0), *range(1, reach + 1)])
    return (centre_thousandths + int(k)) / 1000


def sweep_prepare(seed, smoke=False):
    from dicke_dipole import sweep

    rng = rng_for(seed, 1)
    # Small draws around (1, 1, 0.5, 0.25) keep the superradiant share of the
    # grid, and with it the bisection work, within about 2% of 29,087 points.
    # The fixed columns print at the same length on every seed; the CSV size
    # still varies a little with the superradiant share (see README.md).
    fixed = {
        "omega0": _near(rng, 1000, 9),
        "Omega": _near(rng, 1000, 9),
        "g2": _near(rng, 500, 5),
        "lambda": _near(rng, 250, 5),
    }
    count1, count2 = (30, 20) if smoke else (300, 200)
    return sweep.GridSpec(
        sweep.AxisSpec("g1", 0.2, 1.4, count1),
        sweep.AxisSpec("beta", 0.4, 30.0, count2, "log"),
        fixed,
    )


def sweep_pass(spec, index=0):
    from dicke_dipole import sweep

    records = sweep.run_grid(spec, jobs=1)
    stream = io.StringIO()
    sweep.write_sweep_csv(records, stream)
    return stream.getvalue()


def sweep_keep(index, text):
    """What a run keeps of one pass: the whole CSV of the first, a digest of
    the others (holding every 6 MB CSV would inflate peak_rss_mb)."""
    return hashlib.sha256(text.encode()).hexdigest(), text if index == 0 else None


def sweep_points(spec):
    return spec.axis1.count * spec.axis2.count


def stored_reference_failures():
    """Re-evaluate the stored seed-0 grid rows and compare them with the file."""
    from dicke_dipole import sweep

    ref = parse_sweep_csv(REFERENCE_CSV.read_text())
    records = [
        sweep.evaluate_point({key: float(ref[key][i]) for key in INPUT_COLUMNS})
        for i in range(ref["phase"].size)
    ]
    values = ("omega_delta", "b0", "f_diff")
    got = (
        np.array([r.phase.value for r in records]),
        *(np.array([getattr(r, key) for r in records]) for key in values),
    )
    bad = int(mismatched(got, (ref["phase"], *(ref[key] for key in values))).sum())
    return [f"stored reference: {bad} rows differ"] if bad else []


def sweep_check(spec, outputs):
    """Every pass writes the same bytes as the first, the first is right row
    by row, and the stored seed-0 reference rows are reproduced."""
    failures = []
    digests = [digest for _, (digest, _) in outputs]
    try:
        table = parse_sweep_csv(outputs[0][1][1])
    except ValueError as exc:
        failures.append(f"pass 0: {exc}")
    else:
        failures += [f"pass 0: {m}" for m in sweep_table_failures(table, grid_inputs(spec))[:1]]
    failures += [
        f"pass {i}: CSV differs from pass 0"
        for i, digest in enumerate(digests) if digest != digests[0]
    ]
    failures += stored_reference_failures()[:1]
    return len(outputs) + 1, failures


# --------------------------------------------------------------------------
# ed_oracle: the finite-N oracle table plus one larger free energy


@dataclass
class EdInputs:
    params: object
    thermo: object
    trunc: object
    n_table: tuple
    n_large: int
    n_full: int


def ed_prepare(seed, smoke=False):
    from dicke_dipole import exact, model

    rng = rng_for(seed, 2)
    # g1 >= 1 makes g2 = 2 - g1 exact, so g1 + g2 == 2.0 and, with beta >= 1,
    # the seeded starting cutoff is 42 for every seed.  The other draws are
    # small enough that each N converges at the same cutoff as at the centre.
    g1 = 1.0 + rng.uniform(0.0, 0.05)
    params = model.validate(model.ModelParams(
        omega0=1.0,
        Omega=1.0 + rng.uniform(-0.03, 0.03),
        g1=g1,
        g2=2.0 - g1,
        lam=0.5 + rng.uniform(-0.03, 0.03),
    ))
    thermo = model.Thermo(5.0 + rng.uniform(-0.2, 0.2))
    trunc = exact.TruncationConfig.seeded(params, thermo)
    if trunc.n_max != 42:
        raise ValueError(f"seeded cutoff drifted to {trunc.n_max}")
    if smoke:
        return EdInputs(params, thermo, trunc, (2, 4), 6, 2)
    return EdInputs(params, thermo, trunc, (4, 8, 12, 16), 20, 4)


def ed_pass(inp, index=0):
    from dicke_dipole import exact, sweep

    rows = sweep.oracle_table(inp.params, inp.thermo, inp.n_table, inp.trunc)
    large = exact.free_energy_exact(inp.params, inp.n_large, inp.thermo, inp.trunc)
    return rows, large


def ed_points(inp):
    return len(inp.n_table) + 1


def _ed_values(output):
    rows, large = output
    return np.array(
        [r.f_diff for r in rows] + [r.boson_occupation for r in rows] + [large.f_diff]
    )


def ed_check(inp, outputs):
    """Full-basis agreement at small N, the approach to mean field, and
    agreement between passes."""
    from dicke_dipole import exact

    rows, large = outputs[0][1]
    finite = {row.n_atoms: row for row in rows if row.n_atoms is not None}
    f_mf = rows[-1].f_diff_mf
    deviations = [abs(finite[n].f_diff - f_mf) for n in inp.n_table]
    deviations.append(abs(large.f_diff - f_mf))
    first = _ed_values(outputs[0][1])
    problems = []
    if not np.all(np.isfinite(first)):
        problems.append("non-finite value")
    if not all(row.boson_occupation > 0 for row in finite.values()):
        problems.append("non-positive boson occupation")
    if not all(b < a for a, b in zip(deviations, deviations[1:])):
        problems.append(f"|f_N - f_mf| does not decrease with N: {deviations}")
    failures = [f"pass 0: {'; '.join(problems)}"] if problems else []
    failures += [
        f"pass {i}: disagrees with pass 0"
        for i, (_, output) in enumerate(outputs)
        if not np.allclose(_ed_values(output), first, rtol=0.0, atol=ED_REPEAT_ATOL)
    ]
    full = exact.free_energy_exact(
        inp.params, inp.n_full, inp.thermo, inp.trunc, basis="full"
    )
    collective = finite[inp.n_full].f_diff
    if not abs(full.f_diff - collective) <= ED_BASIS_ATOL:
        failures.append(
            f"N={inp.n_full}: collective f_diff {collective!r} vs full basis {full.f_diff!r}"
        )
    return len(outputs) + 1, failures


# --------------------------------------------------------------------------
# cli_points: fresh `python -m dicke_dipole.cli` processes


@dataclass
class Request:
    kind: str
    argv: list
    expect: int
    point: dict = field(default_factory=dict)


@dataclass
class Reply:
    code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_mb: float = 0.0


def _flags(point):
    out = []
    for key, value in point.items():
        out += [f"--{key}", repr(float(value))]
    return out


def _model_point(rng, with_beta=True):
    point = {
        "omega0": rng.uniform(0.5, 2.0),
        "Omega": rng.uniform(0.5, 2.0),
        "g1": rng.uniform(0.0, 1.5),
        "g2": rng.uniform(0.0, 1.5),
        "lambda": rng.uniform(-0.5, 1.0),
    }
    if with_beta:
        point["beta"] = rng.uniform(0.5, 20.0)
    return point


def _small_ed_point(rng):
    # weak coupling and beta >= 1 keep the seeded cutoff, and the ED, small
    return {
        "omega0": rng.uniform(0.8, 1.5),
        "Omega": rng.uniform(0.5, 1.5),
        "g1": rng.uniform(0.1, 0.5),
        "g2": rng.uniform(0.1, 0.5),
        "lambda": rng.uniform(-0.3, 0.5),
        "beta": rng.uniform(1.0, 4.0),
    }


INVALID_REQUESTS = (
    ["tc", "--omega0", "1", "--Omega", "1", "--g1", "-0.5", "--g2", "0.5", "--lambda", "0"],
    ["gap", "--omega0", "1", "--Omega", "1", "--g1", "1", "--g2", "1", "--lambda", "0"],
    ["free-energy", "--omega0", "1", "--Omega", "0", "--g1", "1", "--g2", "1",
     "--lambda", "0", "--beta", "2"],
    ["tc", "--omega0", "1", "--omega0", "2", "--Omega", "1", "--g1", "1", "--g2", "1",
     "--lambda", "0"],
    ["gap", "--omega0", "1", "--bogus", "1"],
)


@dataclass
class CliInputs:
    passes: list
    grid_spec: object
    env: dict


def cli_prepare(seed, smoke=False):
    """Requests in passes of 12: tc, gap and free-energy twice each, one
    boundary, one fermion-check, two oracles, one small sweep and one
    invalid request, shuffled within the pass."""
    from dicke_dipole import cli, sweep  # noqa: F401  (the import a run pays for)

    rng = rng_for(seed, 3)
    OUT_DIR.mkdir(exist_ok=True)
    grid_mapping = {
        "axis1": {"name": "g1", "min": 0.2, "max": 1.4, "count": 10},
        "axis2": {"name": "beta", "min": 0.4, "max": 30.0, "count": 8, "scale": "log"},
        "fixed": {"omega0": 1.0, "Omega": 1.0, "g2": float(rng.uniform(0.45, 0.55)),
                  "lambda": 0.25},
    }
    grid_path = OUT_DIR / f"cli_grid_seed{seed}.json"
    grid_path.write_text(json.dumps(grid_mapping))
    passes = []
    for _ in range(1 if smoke else CLI_PASSES):
        requests = []
        for kind in ("tc", "gap", "free-energy") * 2:
            point = _model_point(rng, with_beta=kind != "tc")
            requests.append(Request(kind, [kind, *_flags(point)], 0, point))
        point = _model_point(rng, with_beta=False)
        del point["lambda"]
        requests.append(Request("boundary", [
            "boundary", *_flags(point), "--lambda-min", "-0.5", "--lambda-max", "1.5",
            "--count", str(BOUNDARY_COUNT)], 0, point))
        point = _small_ed_point(rng)
        requests.append(Request("fermion-check", [
            "fermion-check", *_flags(point), "--N", "2", "--n-max", str(FERMION_N_MAX)],
            0, point))
        for _ in range(2):
            point = _small_ed_point(rng)
            requests.append(Request("oracle", ["oracle", *_flags(point), "--N", "2,4"], 0, point))
        requests.append(Request("sweep", ["sweep", "--grid", str(grid_path)], 0))
        invalid = INVALID_REQUESTS[int(rng.integers(len(INVALID_REQUESTS)))]
        requests.append(Request("invalid", list(invalid), 2))
        passes.append([requests[i] for i in rng.permutation(len(requests))])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return CliInputs(passes, sweep.GridSpec.from_mapping(grid_mapping), env)


def invoke_cli(argv, env):
    """One fresh CLI process, timed from spawn to exit, with its peak RSS.

    Output goes to files rather than pipes so that no amount of output can
    block the child while the parent waits for it.
    """
    out_path, err_path = OUT_DIR / "cli_stdout.txt", OUT_DIR / "cli_stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dicke_dipole.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Reply(proc.returncode, out_path.read_text(), err_path.read_text(),
                 seconds, usage.ru_maxrss / 1024.0)


def cli_requests(inp, index):
    return inp.passes[index % len(inp.passes)]


def cli_pass(inp, index):
    return [invoke_cli(req.argv, inp.env) for req in cli_requests(inp, index)]


def cli_inprocess_pass(inp, index):
    """The same requests through cli.main in this process, output captured."""
    from dicke_dipole import cli

    replies = []
    for req in cli_requests(inp, index):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.argv)
        replies.append(Reply(code, out.getvalue(), err.getvalue(), time.perf_counter() - start))
    return replies


def _closed_form_beta_c(p):
    G = (p["g1"] + p["g2"]) ** 2 - p["omega0"] * p["lambda"]
    if G <= 0 or p["omega0"] * p["Omega"] / G >= 1.0:
        return None
    return (2.0 / p["Omega"]) * math.atanh(p["omega0"] * p["Omega"] / G)


def _close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * abs(b)


def _reply_ok(req, reply, grid):
    out = reply.stdout
    if req.kind == "invalid":
        return out == "" and reply.stderr.strip() != ""
    if req.kind == "tc":
        got = json.loads(out)
        beta_c = _closed_form_beta_c(req.point)
        if beta_c is None:
            return got.get("phase") == "no_transition"
        return _close(got["beta_c"], beta_c)
    if req.kind in ("gap", "free-energy"):
        got = json.loads(out)
        table = {key: np.array([got[key]]) for key in SWEEP_COLUMNS}
        return list(got) == list(SWEEP_COLUMNS) and meanfield_mismatches(table).size == 0
    if req.kind == "boundary":
        lines = out.splitlines()
        ok = lines[0] == "lambda,T_c" and len(lines) == BOUNDARY_COUNT + 1
        for line in lines[1:]:
            lam, t_c = line.split(",")
            beta_c = _closed_form_beta_c(dict(req.point, **{"lambda": float(lam)}))
            ok = ok and (t_c == "" if beta_c is None else _close(float(t_c), 1.0 / beta_c, 1e-11))
        return ok
    if req.kind == "fermion-check":
        return out.startswith("PASS ")
    if req.kind == "oracle":
        lines = out.splitlines()
        labels = [line.split(",")[0] for line in lines[1:]]
        numbers = [float(c) for line in lines[1:] for c in line.split(",")[1:]]
        return labels == ["2", "4", "inf"] and all(map(math.isfinite, numbers))
    if req.kind == "sweep":
        return not sweep_table_failures(parse_sweep_csv(out), grid)
    raise ValueError(f"unknown request kind {req.kind!r}")


def reply_failures(req, reply, grid):
    """Check one CLI reply: its exit code, then its output for that kind."""
    if reply.code != req.expect:
        return [f"{req.kind}: exit code {reply.code}, expected {req.expect}: "
                f"{reply.stderr.strip()[-200:]}"]
    try:
        ok = _reply_ok(req, reply, grid)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{req.kind}: unreadable output ({exc}): {reply.stdout[:200]!r}"]
    return [] if ok else [f"{req.kind}: wrong output for {' '.join(req.argv)}"]


def cli_check(inp, outputs):
    grid = grid_inputs(inp.grid_spec)
    failures = []
    attempted = 0
    for index, replies in outputs:
        for req, reply in zip(cli_requests(inp, index), replies):
            attempted += 1
            failures += reply_failures(req, reply, grid)
    return attempted, failures


@dataclass(frozen=True)
class Workload:
    prepare: object       # (seed, smoke) -> inputs
    run_pass: object      # (inputs, index) -> output of one timed request
    traced_pass: object   # (inputs, index) -> output; the pass a traced run wraps
    check: object         # (inputs, outputs) -> (operations, failures)
    points: object        # inputs -> points evaluated by one request
    min_passes: int
    keep: object = lambda index, output: output  # what a run holds of each output


WORKLOADS = {
    "sweep_grid": Workload(
        sweep_prepare, sweep_pass, sweep_pass,
        sweep_check, sweep_points, 2, sweep_keep,
    ),
    "ed_oracle": Workload(
        ed_prepare, ed_pass, ed_pass,
        ed_check, ed_points, 2,
    ),
    "cli_points": Workload(
        cli_prepare, cli_pass, cli_inprocess_pass,
        cli_check, lambda inp: len(inp.passes[0]), -(-CLI_MIN_REQUESTS // 12),
    ),
}
