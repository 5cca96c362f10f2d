"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Tolerances are fixed here, not configurable.

The hand-checked free-energy point is frozen from a 50-digit evaluation of
15/16 - (ln cosh 20 - ln cosh 5)/10 (criterion 4); the mpmath recomputation
inside the test keeps that oracle visible.
"""

import json
import math

import numpy as np
import pytest

from dicke_dipole import (
    ModelParams,
    PhaseLabel,
    Thermo,
    TruncationConfig,
    critical_coupling_zero_temperature,
    critical_inverse_temperature,
    fermionic_identity_check,
    free_energy_diff,
    free_energy_exact,
    partition_function,
    solve_gap,
    stationary_residuals,
    thermal_boson_occupation,
)
from dicke_dipole.cli import main as cli_main
from dicke_dipole.exact import _sector_sums, build_full
from oracles import bisect_critical_beta, draw_transition_params

F_DIFF_HAND = -0.5624954601100783  # 15/16 - (ln cosh 20 - ln cosh 5)/10


def report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}"
    print(line)
    assert passed, line


def test_criterion_1_critical_temperature_vs_bisection():
    """Closed-form beta_c agrees with independent bisection to 1e-10 relative
    over a 10 x 10 x 5 grid in (g1+g2, lambda, omega0)."""
    worst = 0.0
    checked = 0
    for gsum in np.linspace(0.9, 2.4, 10):
        for lam in np.linspace(-0.4, 0.6, 10):
            for omega0 in np.linspace(0.6, 1.8, 5):
                g1, g2 = 0.55 * gsum, 0.45 * gsum
                params = ModelParams(float(omega0), 1.0, g1, g2, float(lam))
                closed = critical_inverse_temperature(params)
                oracle = bisect_critical_beta(omega0, 1.0, g1, g2, lam)
                assert (closed is None) == (oracle is None)
                if closed is None:
                    continue
                checked += 1
                worst = max(worst, abs(closed - oracle) / oracle)
    report(1, checked >= 150 and worst < 1e-10,
           f"{checked} transition points, max rel err {worst:.3e}")


def test_criterion_2_zero_temperature_critical_coupling():
    """g1_c = sqrt(omega0*(Omega+lambda))/(1+rho) matches the beta = 1e6
    phase flip to 1e-6; the lambda = 0, rho = 1 point sits at exactly 0.5."""
    known = critical_coupling_zero_temperature(1.0, 1.0, 0.0, 1.0)
    assert known == 0.5
    beta = 1e6
    worst = 0.0
    for omega0, Omega, lam, rho in [
        (1.0, 1.0, 0.0, 1.0),
        (1.0, 1.0, 3.0, 1.0),
        (1.0, 1.0, 0.0, 0.0),
        (1.3, 0.7, -0.3, 0.25),
        (0.8, 1.6, 0.9, 2.0),
    ]:
        closed = critical_coupling_zero_temperature(omega0, Omega, lam, rho)

        def superradiant(g1):
            params = ModelParams(omega0, Omega, g1, rho * g1, lam)
            return solve_gap(params, Thermo(beta)).phase is PhaseLabel.SUPERRADIANT

        lo, hi = 1e-3, 50.0
        assert not superradiant(lo) and superradiant(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if superradiant(mid):
                hi = mid
            else:
                lo = mid
        flip = 0.5 * (lo + hi)
        worst = max(worst, abs(flip - closed) / closed)
    report(2, worst < 1e-6,
           f"known point 0.5 exact; max flip deviation {worst:.3e}")


def test_criterion_3_stationary_residuals_on_random_draws():
    """All four stationary residuals plus the reduction stay below 1e-10
    over 1000 random superradiant draws."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        params = ModelParams(omega0, Omega, g1, g2, lam)
        thermo = Thermo(beta_c * rng.uniform(1.05, 5.0))
        sol = solve_gap(params, thermo)
        assert sol.phase is PhaseLabel.SUPERRADIANT
        worst = max(worst, stationary_residuals(params, thermo, sol).max_abs())
    report(3, worst < 1e-10, f"1000 draws, max residual {worst:.3e}")


def test_criterion_4_free_energy_continuity_and_sign():
    """|f_diff| < 1e-8 just above the transition; f_diff < 0 at 2*beta_c
    across draws; the hand-derived point reproduces the frozen value."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    hand = float(
        mp.mpf(15) / 16 - (mp.log(mp.cosh(20)) - mp.log(mp.cosh(5))) / 10
    )
    assert hand == pytest.approx(F_DIFF_HAND, abs=1e-15)

    deep = ModelParams(1.0, 1.0, 1.0, 1.0, 0.0)
    f_hand = free_energy_diff(deep, Thermo(10.0), solve_gap(deep, Thermo(10.0))).f_diff
    hand_ok = abs(f_hand - F_DIFF_HAND) < 1e-9
    # the frozen oracle value agrees with the 4-decimal rounded -0.5625
    # only at the 5e-6 level (finite-beta tail of ln cosh 5)
    assert abs(f_hand - (-0.5625)) < 1e-5

    rng = np.random.default_rng(77)
    worst_edge = 0.0
    all_negative = True
    for _ in range(200):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        params = ModelParams(omega0, Omega, g1, g2, lam)
        edge = Thermo(beta_c * (1.0 + 1e-9))
        f_edge = free_energy_diff(params, edge, solve_gap(params, edge)).f_diff
        worst_edge = max(worst_edge, abs(f_edge))
        cold = Thermo(2.0 * beta_c)
        f_cold = free_energy_diff(params, cold, solve_gap(params, cold)).f_diff
        all_negative = all_negative and f_cold < 0.0
    report(4, hand_ok and worst_edge < 1e-8 and all_negative,
           f"hand point err {abs(f_hand - F_DIFF_HAND):.2e}, "
           f"edge max |f_diff| {worst_edge:.2e}, cold draws negative: {all_negative}")


def test_criterion_5_fermionic_trace_identity():
    """Relative discrepancy below 1e-10 for N in {1, 2}, five draws each,
    at matched boson truncation."""
    rng = np.random.default_rng(99)
    trunc = TruncationConfig(12)
    worst = 0.0
    for n_atoms in (1, 2):
        for _ in range(5):
            params = ModelParams(
                omega0=rng.uniform(0.5, 1.5),
                Omega=rng.uniform(0.5, 1.5),
                g1=rng.uniform(0.0, 0.8),
                g2=rng.uniform(0.0, 0.8),
                lam=rng.uniform(-0.5, 0.8),
            )
            thermo = Thermo(rng.uniform(0.2, 2.5))
            worst = max(worst, fermionic_identity_check(params, n_atoms, thermo, trunc))
    report(5, worst < 1e-10, f"10 draws, max rel discrepancy {worst:.3e}")


def test_criterion_6_oracle_convergence_trend():
    """|f_diff_N - f_diff_mf| strictly decreasing over N in {2,4,6,8} at the
    standard superradiant point, and <b'b>/N at N=8 within 25% of b0**2."""
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 0.5)
    thermo = Thermo(5.0)
    sol = solve_gap(params, thermo)
    f_mf = free_energy_diff(params, thermo, sol).f_diff
    trunc = TruncationConfig.seeded(params, thermo)
    deviations = []
    occ_8 = None
    for n_atoms in (2, 4, 6, 8):
        exact = free_energy_exact(params, n_atoms, thermo, trunc)
        deviations.append(abs(exact.f_diff - f_mf))
        if n_atoms == 8:
            occ_8 = thermal_boson_occupation(
                params, n_atoms, thermo, TruncationConfig(exact.n_max)
            )
    decreasing = all(b < a for a, b in zip(deviations, deviations[1:]))
    occ_rel = abs(occ_8 - sol.b0**2) / sol.b0**2
    report(6, decreasing and occ_rel < 0.25,
           f"deviations {['%.4f' % d for d in deviations]}, "
           f"N=8 occupation off b0^2 by {occ_rel:.2%}")


def test_criterion_7_basis_equivalence():
    """Degeneracy-weighted sector sum equals the full-product partition
    function for N in {2,3,4}, three random draws, to 1e-10 relative."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(3):
        params = ModelParams(
            omega0=rng.uniform(0.6, 1.4),
            Omega=rng.uniform(0.6, 1.4),
            g1=rng.uniform(0.0, 0.8),
            g2=rng.uniform(0.0, 0.8),
            lam=rng.uniform(-0.5, 0.8),
        )
        thermo = Thermo(rng.uniform(0.3, 2.0))
        for n_atoms in (2, 3, 4):
            ln_full = partition_function(
                build_full(params, n_atoms, TruncationConfig(10)), thermo
            ).ln_z
            ln_sectors = _sector_sums(params, n_atoms, thermo, 10)[0]
            # |delta ln Z| equals the relative Z error to first order
            worst = max(worst, abs(ln_sectors - ln_full))
    report(7, worst < 1e-10, f"3 draws x N in {{2,3,4}}, max |dlnZ| {worst:.3e}")


def test_criterion_8_symmetry_and_scaling_properties():
    """g1<->g2 invariance, energy-scaling covariance for s in {0.1, 7.3},
    and lambda-monotonicity of beta_c over 200+ random draws."""
    rng = np.random.default_rng(314)
    swap_ok = scale_ok = mono_ok = True
    for _ in range(200):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        params = ModelParams(omega0, Omega, g1, g2, lam)
        thermo = Thermo(rng.uniform(1.1, 4.0) * beta_c)

        swapped = ModelParams(omega0, Omega, g2, g1, lam)
        sol, sol_swap = solve_gap(params, thermo), solve_gap(swapped, thermo)
        f = free_energy_diff(params, thermo, sol).f_diff
        f_swap = free_energy_diff(swapped, thermo, sol_swap).f_diff
        swap_ok = swap_ok and sol == sol_swap and f == f_swap

        for s in (0.1, 7.3):
            scaled = ModelParams(s * omega0, s * Omega, s * g1, s * g2, s * lam)
            scaled_thermo = Thermo(thermo.beta / s)
            sol_s = solve_gap(scaled, scaled_thermo)
            f_s = free_energy_diff(scaled, scaled_thermo, sol_s).f_diff
            scale_ok = (
                scale_ok
                and math.isclose(sol_s.omega_delta, s * sol.omega_delta, rel_tol=1e-9)
                and math.isclose(sol_s.b0, sol.b0, rel_tol=1e-9)
                and math.isclose(f_s, s * f, rel_tol=1e-8)
            )

        lam_hi = lam + 0.02
        beta_c_hi = critical_inverse_temperature(
            ModelParams(omega0, Omega, g1, g2, lam_hi)
        )
        mono_ok = mono_ok and (beta_c_hi is None or beta_c_hi > beta_c)
    report(8, swap_ok and scale_ok and mono_ok,
           f"200 draws: swap {swap_ok}, scaling {scale_ok}, "
           f"lambda-monotonicity {mono_ok}")


def test_criterion_9_reproducible_sweep(tmp_path):
    """Identical sweep spec gives byte-identical CSV across three runs."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "axis1": {"name": "g1", "min": 0.2, "max": 1.4, "count": 20},
        "axis2": {"name": "beta", "min": 0.4, "max": 30.0, "count": 20, "scale": "log"},
        "fixed": {"omega0": 1.0, "Omega": 1.0, "g2": 0.5, "lambda": 0.25},
    }))
    outputs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"pd_{tag}.csv"
        code = cli_main(["sweep", "--grid", str(grid), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(9, identical,
           f"400-point sweep, {len(outputs[0])} bytes, "
           f"three runs byte-identical: {identical}")
