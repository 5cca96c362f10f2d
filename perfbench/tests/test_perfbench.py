"""Tests of the benchmark itself: tiny runs of every workload, the metric
names against BENCHMARK.json, the tracer's patching and the output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    proc = run_bench("sweep_grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_sees_calls_through_every_bound_name():
    from dicke_dipole import meanfield, sweep

    original = meanfield.solve_gap
    spec = workloads.sweep_prepare(0, smoke=True)
    tracer = tracing.Tracer()
    with tracer.patched():
        assert sweep.solve_gap is not original
        workloads.sweep_pass(spec)
    assert sweep.solve_gap is original and meanfield.solve_gap is original
    summary = tracer.summary()
    points = workloads.sweep_points(spec)
    assert summary["meanfield.solve_gap.calls"] == points
    assert summary["sweep.run_grid.s"] > summary["sweep.evaluate_point.self_s"] > 0
    assert summary["sweep.write_sweep_csv.bytes"] == len(workloads.sweep_pass(spec))


def test_sweep_check_rejects_a_changed_row():
    spec = workloads.sweep_prepare(0, smoke=True)
    text = workloads.sweep_pass(spec)
    table = workloads.parse_sweep_csv(text)
    assert workloads.sweep_table_failures(table, workloads.grid_inputs(spec)) == []
    i = int((table["phase"] == "superradiant").argmax())
    table["b0"][i] *= 1.0 + 1e-6
    assert workloads.sweep_table_failures(table, workloads.grid_inputs(spec))
    other = text.replace("superradiant", "normal", 1)
    outputs = [(0, workloads.sweep_keep(0, text)), (1, workloads.sweep_keep(1, other))]
    attempted, failures = workloads.sweep_check(spec, outputs)
    assert attempted == 3 and failures == ["pass 1: CSV differs from pass 0"]


def test_cli_check_rejects_a_wrong_exit_code():
    inputs = workloads.cli_prepare(0, smoke=True)
    request = next(r for r in inputs.passes[0] if r.kind == "invalid")
    wrong = workloads.Reply(0, "", "", 0.1)
    assert workloads.reply_failures(request, wrong, None)
