"""Benchmark of the dicke_dipole package, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads (see workloads.py and BENCHMARK.json):

    sweep_grid   sweep.run_grid + write_sweep_csv on a 300 x 200 grid
    ed_oracle    sweep.oracle_table at N = 4..16 plus free_energy_exact at N = 20
    cli_points   fresh `python -m dicke_dipole.cli` processes, 12 per pass

Load comes from this one process, a closed loop with one client.  After one
untimed warm-up pass, passes repeat until the next one would end past
--seconds, counted from the start of the warm-up (at least two timed passes,
and for cli_points at least 40 timed requests).  Outputs of every pass are
checked after the timed region.  BLAS runs on min(2, available CPUs) threads.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, with spans recorded around the package's public functions
(tracing.py), and prints the per-layer metrics.  Every line before the last
names a metric with its unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Without the package sources the run
exits with code 2 and prints no result.
"""

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
PROBE_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORTTIME_MODULES = {
    "cli.import.exact_s": "dicke_dipole.exact",
    "cli.import.sweep_s": "dicke_dipole.sweep",
    "cli.import.scipy.sparse_s": "scipy.sparse",
}


def blas_threads():
    return min(2, len(os.sched_getaffinity(0)))


def percentile(values, q):
    """q-th percentile (0..100) with linear interpolation between samples."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def spawn_seconds(argv, env=None, until_line=None):
    """Wall time of a fresh process from spawn to exit, or to its first
    output line when until_line is given (that line must then match)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if until_line else subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if until_line:
        line = proc.stdout.readline().strip()
        seconds = time.perf_counter() - start
    _, err = proc.communicate()
    if not until_line:
        seconds = time.perf_counter() - start
    if proc.returncode != 0 or (until_line and line != until_line):
        raise RuntimeError(f"{argv} exited with {proc.returncode}: {err.strip()[-500:]}")
    return seconds, err


def setup_seconds(workload, seed, smoke):
    """Time for a fresh process to import and build the inputs."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if smoke:
        argv.append("--smoke")
    return spawn_seconds(argv, until_line="ready")[0]


def timed_passes(workload, inputs, seconds, min_passes, probe):
    """Closed loop: one untimed warm-up pass, then timed passes until the
    next would end past `seconds`, counted from the start of the warm-up.

    The first pass in a process is slower (an ed_oracle pass by ~1 s), so it
    is checked but not timed.  Between passes, outside their timing, probe()
    runs SETUP_REPEATS times, each once its share of `seconds` has passed:
    the machine's speed drifts over tens of seconds, and probes spread over
    the run sample it as the passes do.  Returns [(index, kept output)] for
    every pass, the warm-up first, the times of the timed passes and the
    probe results; a pass that raised has output None (its traceback goes to
    stderr).
    """
    outputs, times, probes = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(probes) < SETUP_REPEATS and elapsed >= len(probes) * seconds / SETUP_REPEATS:
            probes.append(probe())
        index = len(outputs)
        gc.collect()  # every pass starts from the same heap, outside the timing
        t0 = time.perf_counter()
        try:
            output = workload.run_pass(inputs, index)
        except Exception:  # a failed request is counted, not fatal
            traceback.print_exc()
            output = None
        if index:
            times.append(time.perf_counter() - t0)
        outputs.append((index, None if output is None else workload.keep(index, output)))
        elapsed = time.perf_counter() - start
        if len(times) >= min_passes and elapsed + statistics.median(times) > seconds:
            probes += [probe() for _ in range(SETUP_REPEATS - len(probes))]
            return outputs, times, probes


def checked(workload, inputs, outputs):
    """(attempted, failed) operations; raised passes count as failed."""
    good = [(i, out) for i, out in outputs if out is not None]
    raised = len(outputs) - len(good)
    if not good:
        return raised, raised
    attempted, failures = workload.check(inputs, good)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    return attempted + raised, len(failures) + raised


def end_to_end(name, workload, inputs, seed, seconds, smoke):
    min_passes = 1 if smoke else workload.min_passes
    outputs, times, setups = timed_passes(
        workload, inputs, seconds, min_passes, lambda: setup_seconds(name, seed, smoke)
    )
    if name == "cli_points":
        replies = [r for _, out in outputs[1:] for r in out]  # timed passes only
        latencies = [r.seconds for r in replies]
        # the mean over processes: the largest one depends on which oracle
        # requests the seed drew, and so varies from run to run
        peak_rss = statistics.mean(r.max_rss_mb for r in replies)
    else:
        latencies = times
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = checked(workload, inputs, outputs)
    points = workload.points(inputs)
    print(f"timed passes = {len(times)}; latency samples = {len(latencies)}; "
          f"points per pass = {points}")
    print("pass seconds = " + " ".join(f"{t:.3f}" for t in times))
    print("setup seconds = " + " ".join(f"{t:.3f}" for t in setups))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(times), "s"),
        "points_per_s": (points / statistics.median(times), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p75_s": (percentile(latencies, 75), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def cli_probes(env, requests):
    """Interpreter start, package import and its import-time breakdown.

    Each round spawns `python -c pass` and `python -c "import
    dicke_dipole.cli"`, then, when requests are given, one CLI request, so
    that drift in the machine's speed hits probes and requests alike.
    Returns the metrics, the import probe times and the CLI replies.
    """
    import workloads

    python = sys.executable
    interpreter, imported, replies = [], [], []
    for i in range(len(requests) or PROBE_REPEATS):
        interpreter.append(spawn_seconds([python, "-c", "pass"], env)[0])
        imported.append(spawn_seconds([python, "-c", "import dicke_dipole.cli"], env)[0])
        if requests:
            replies.append(workloads.invoke_cli(requests[i].argv, env))
    cumulative = {key: [] for key in IMPORTTIME_MODULES}
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for _ in range(IMPORTTIME_REPEATS):
        _, err = spawn_seconds([python, "-X", "importtime", "-c", "import dicke_dipole.cli"], env)
        found = dict(
            (m.group(2), int(m.group(1)) * 1e-6)
            for m in map(pattern.match, err.splitlines()) if m
        )
        for key, module in IMPORTTIME_MODULES.items():
            cumulative[key].append(found.get(module, 0.0))
    metrics = {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(b - a for a, b in zip(interpreter, imported)),
    }
    metrics.update((key, statistics.median(v)) for key, v in cumulative.items())
    return metrics, imported, replies


def per_layer(name, workload, inputs, seed, seconds, smoke):
    """Alternate untraced and traced passes; summarise the traced spans.

    Each traced sample is one traced pass of the workload, then (for the
    workloads that do not run the CLI themselves) one traced in-process pass
    of the cli_points request mix, so that every layer is exercised.
    """
    import tracing
    import workloads

    cli_inputs = inputs if name == "cli_points" else workloads.cli_prepare(seed, smoke)
    # cli.main_s: the request mix through cli.main in this process, untraced.
    # It and one untimed workload pass run first: the first pass in a process
    # is slower (ED passes by ~1 s), which would bias the overhead below.
    main_replies = workloads.cli_inprocess_pass(cli_inputs, 0)
    outputs = [(0, workload.keep(0, workload.traced_pass(inputs, 0)))]
    cli_outputs = [(0, main_replies)]
    summaries, overheads, unaccounted = [], [], []
    start = time.perf_counter()
    while True:
        index = len(summaries)
        t0 = time.perf_counter()
        output = workload.traced_pass(inputs, index)
        untraced = time.perf_counter() - t0
        outputs.append((index, workload.keep(index, output)))
        tracer = tracing.Tracer()
        with tracer.patched():
            t0 = time.perf_counter()
            output = workload.traced_pass(inputs, index)
            traced = time.perf_counter() - t0
            outputs.append((index, workload.keep(index, output)))
            mark = len(tracer)
            if name != "cli_points":
                cli_outputs.append((index, workloads.cli_inprocess_pass(cli_inputs, index)))
        summaries.append(tracer.summary())
        overheads.append(traced - untraced)
        unaccounted.append(traced - tracer.root_seconds(mark))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(summaries) > seconds:
            break
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tracer.save(workloads.OUT_DIR / f"trace-{name}-seed{seed}.npz")

    requests = workloads.cli_requests(cli_inputs, 0) if name == "cli_points" else []
    metrics, imported, replies = cli_probes(cli_inputs.env, requests)
    metrics["cli.main_s"] = statistics.median(r.seconds for r in main_replies)
    if replies:
        # the wrapped layers of one CLI request: interpreter start with the
        # package import (the import probe), then cli.main
        cli_outputs.append((0, replies))
        unaccounted = [
            reply.seconds - probe - main.seconds
            for reply, probe, main in zip(replies, imported, main_replies)
        ]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.unaccounted_s"] = statistics.median(unaccounted)
    for key in summaries[0]:
        metrics[key] = statistics.median(s[key] for s in summaries)

    attempted, failed = checked(workload, inputs, outputs)
    cli_attempted, cli_failed = checked(workloads.WORKLOADS["cli_points"], cli_inputs, cli_outputs)
    print(f"traced samples = {len(summaries)}")
    return attempted + cli_attempted, failed + cli_failed, {
        key: (value, layer_unit(key)) for key, value in metrics.items()
    }


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_grid", "ed_oracle", "cli_points"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dicke_dipole" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'dicke_dipole'}", file=sys.stderr)
        return 2
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = str(SRC)  # inherited by every child process
    sys.path.insert(0, str(SRC))

    import workloads  # imports numpy, after the thread settings above
    import dicke_dipole

    if Path(dicke_dipole.__file__).resolve().parent != SRC / "dicke_dipole":
        print(f"error: imported dicke_dipole from {dicke_dipole.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.smoke)
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics = measure(
        args.workload, workload, inputs, args.seed, args.seconds, args.smoke
    )
    print("machine = " + json.dumps(machine(), sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
