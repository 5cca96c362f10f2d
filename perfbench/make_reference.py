"""Regenerate reference/sweep_grid_seed0.csv: every 101st row of the
sweep_grid output for seed 0, as the package writes it.

    PYTHONPATH=src python3 perfbench/make_reference.py

Only rewrite the file on purpose: the benchmark checks every run against it,
so a change in its rows is a change in the package's results.
"""

import io

import workloads
from dicke_dipole import sweep

STRIDE = 101  # shares no factor with the 200 beta values, so every beta column is sampled


def main():
    spec = workloads.sweep_prepare(0)
    stream = io.StringIO()
    sweep.write_sweep_csv(sweep.run_grid(spec)[::STRIDE], stream)
    workloads.REFERENCE_CSV.write_text(stream.getvalue())


if __name__ == "__main__":
    main()
