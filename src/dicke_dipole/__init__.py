"""Thermodynamics of the full Dicke model with dipole-dipole interaction.

Mean-field phase structure (order parameter, critical temperature, free
energy) in the thermodynamic limit, cross-validated against finite-N exact
diagonalization and a phase-weighted fermionic trace identity.
"""

import importlib

__version__ = "0.1.0"

# Public names by submodule, looked up there on each access (PEP 562), so that
# the mean-field path never loads SciPy, which only the exact module needs.
_EXPORTS = {
    "errors": (
        "CommutationError",
        "ConvergenceError",
        "DickeError",
        "DimensionError",
        "DomainError",
        "HermiticityError",
        "TruncationError",
    ),
    "exact": (
        "ExactFreeEnergy",
        "LogPartition",
        "SpectralData",
        "TruncationConfig",
        "boson_occupation",
        "build_collective",
        "build_full",
        "fermionic_identity_check",
        "free_energy_exact",
        "partition_function",
        "sector_multiplicity",
        "sector_spins",
        "thermal_boson_occupation",
    ),
    "meanfield": (
        "CurvePoint",
        "FreeEnergyResult",
        "GapSolution",
        "PhaseLabel",
        "StationaryResiduals",
        "critical_coupling_zero_temperature",
        "critical_inverse_temperature",
        "free_energy_diff",
        "order_parameter_curve",
        "solve_gap",
        "stationary_residuals",
    ),
    "model": (
        "CONFIG_KEYS",
        "EffectiveCoupling",
        "ModelParams",
        "Thermo",
        "effective_coupling",
        "params_from_mapping",
        "params_to_mapping",
        "validate",
    ),
    "sweep": (
        "AxisSpec",
        "GridSpec",
        "OracleRow",
        "SweepRecord",
        "oracle_table",
        "phase_boundary",
        "run_grid",
        "write_boundary_csv",
        "write_oracle_csv",
        "write_sweep_csv",
        "write_sweep_jsonl",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
