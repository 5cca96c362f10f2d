"""Run every workload on seeds 0-9 and record how much each metric spreads.

    python3 perfbench/baseline.py

Each run is `perfbench/run.py --trace 0` with the run length from
BENCHMARK.json, one seed after another.  For each workload and end-to-end
metric a set holds the per-run values, their median, their quartiles
(statistics.quantiles, n=4) and the spread, the distance between the
quartiles over the median, next to the metric's bound.  The benchmark is
steady when every spread except that of setup_s stays well below its bound.
One traced run per workload, on seed 0, adds the per-layer metrics.

Each call appends one set to perfbench/BASELINE.json and prints how far each
median moved from the previous set, so that two sets of the same code can be
compared against the bounds.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "BASELINE.json"
SEEDS = list(range(10))


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine_line = next(line for line in lines if line.startswith("machine = "))
    machine = json.loads(machine_line[len("machine = "):])
    return json.loads(lines[-1]), machine


def summarise(values, bound):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median, "bound": bound, "values": values,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = json.loads(RECORD.read_text())["sets"] if RECORD.is_file() else []
    previous = sets[-1]["workloads"] if sets else {}

    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric, runs = {}, []
        for seed in SEEDS:
            start = time.perf_counter()
            result, record["machine"] = run_once(workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, "seconds": time.perf_counter() - start,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            print(workload, runs[-1], flush=True)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        metrics = {name: summarise(v, bounds[name]) for name, v in per_metric.items()}
        before = previous.get(workload, {}).get("metrics", {})
        for name, m in metrics.items():
            shift = ""
            if name in before:
                shift = f"  moved {m['median'] / before[name]['median'] - 1:+.4f} from last set"
            print(f"  {name:15s} median {m['median']:<12.6g} spread {m['spread']:.4f}"
                  f"  bound {m['bound']}{shift}", flush=True)
        traced, _ = run_once(workload, SEEDS[0], spec["run_seconds"], trace=1)
        record["workloads"][workload] = {
            "runs": runs,
            "metrics": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    sets.append(record)
    RECORD.write_text(json.dumps({"sets": sets}, indent=1) + "\n")


if __name__ == "__main__":
    main()
