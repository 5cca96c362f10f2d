"""Gap equation, critical temperature, free energy, and their invariants.

Frozen expected values were computed with mpmath (50 digits) from the same
closed forms the bisection oracle in oracles.py verifies independently:

    beta_c(1, 1, 0.6, 0.6, 0.0)  = 2*atanh(1/1.44)   = 1.7129785913749407
    beta_c(1, 1, 0.6, 0.6, 0.4)  = 2*atanh(1/1.04)   = 3.9318256327243258
    b0  at (1, 1, 1, 1, 0; beta=10)  = sqrt(15)/4    = 0.9682458365518542
    f_diff at the same point = 15/16 - (ln cosh 20 - ln cosh 5)/10
                                                     = -0.5624954601100783
    (1, 1, 1, 1, 0.5; beta=10): Omega_Delta -> 3.5 - 4.4e-15,
                                b0 = 0.9583148474999086
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dicke_dipole import (
    ConvergenceError,
    DomainError,
    ModelParams,
    PhaseLabel,
    Thermo,
    critical_coupling_zero_temperature,
    critical_inverse_temperature,
    effective_coupling,
    free_energy_diff,
    order_parameter_curve,
    solve_gap,
    stationary_residuals,
)
from oracles import bisect_critical_beta, draw_transition_params

BETA_C_PLAIN = 1.7129785913749407
BETA_C_DIPOLE = 3.9318256327243258
B0_DEEP = 0.9682458365518542
F_DIFF_DEEP = -0.5624954601100783

P_DEEP = ModelParams(1.0, 1.0, 1.0, 1.0, 0.0)
P_WEAK = ModelParams(1.0, 1.0, 0.6, 0.6, 0.0)


# --- critical temperature -------------------------------------------------

def test_beta_c_frozen_values():
    assert critical_inverse_temperature(P_WEAK) == pytest.approx(BETA_C_PLAIN, rel=1e-14)
    assert critical_inverse_temperature(
        ModelParams(1.0, 1.0, 0.6, 0.6, 0.4)
    ) == pytest.approx(BETA_C_DIPOLE, rel=1e-14)


def test_readme_library_example_prints_its_documented_beta_c(capsys):
    # the README's Python block, run as written: its beta_c comment is the
    # double it computes (the exact value rounds to BETA_C_DIPOLE, 5 ulp away)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    documented = float(re.search(r"^beta_c = .*# (\S+)$", block, re.M).group(1))
    namespace = {}
    exec(block, namespace)
    assert namespace["beta_c"] == documented
    assert len(capsys.readouterr().out.split()) == 3  # b0, omega_delta, f_diff


def test_beta_c_matches_bisection_oracle():
    for args in [(1.0, 1.0, 0.6, 0.6, 0.0), (1.0, 1.0, 0.6, 0.6, 0.4),
                 (0.7, 1.3, 0.9, 0.2, -0.4)]:
        oracle = bisect_critical_beta(*args)
        closed = critical_inverse_temperature(ModelParams(*args))
        assert closed == pytest.approx(oracle, rel=1e-10)


def test_no_finite_transition_cases():
    # ratio omega0*Omega/G = 1.5625 > 1
    assert critical_inverse_temperature(ModelParams(1, 1, 0.4, 0.4, 0.0)) is None
    # G < 0
    assert critical_inverse_temperature(ModelParams(2, 1, 1.0, 0.0, 1.0)) is None
    assert bisect_critical_beta(1, 1, 0.4, 0.4, 0.0) is None


def test_beta_c_increases_with_lambda():
    rng = np.random.default_rng(3)
    for _ in range(200):
        (omega0, Omega, g1, g2, lam), _ = draw_transition_params(rng, max_ratio=0.9)
        lam_hi = lam + 0.05 * abs(lam) + 0.01
        b_lo = critical_inverse_temperature(ModelParams(omega0, Omega, g1, g2, lam))
        b_hi = critical_inverse_temperature(ModelParams(omega0, Omega, g1, g2, lam_hi))
        assert b_hi is None or b_hi > b_lo


# (omega0, Omega, g1, g2, lam) where omega0*Omega, 2/Omega or the ratio
# omega0*Omega/G leaves the normal range of a double, but beta_c does not
EXTREME_TRANSITIONS = [
    (1e-200, 1e-200, 1.0, 0.0, 0.0),  # omega0*Omega and the ratio underflow to 0
    (1.0, 1e-310, 1.0, 0.0, 0.0),  # 2/Omega overflows
    (1e-300, 1.0, 1e5, 0.0, 0.0),  # the ratio and beta_c are subnormal
    (1e-200, 1e-200, 1e-150, 0.0, 0.0),  # omega0*Omega underflows, the ratio does not
    (3e-170, 2e-160, 0.0, 0.0, -7e-150),  # G = -omega0*lam is subnormal
    (1e12, 2e-318, 1.5e-148, 0.0, 0.0),  # 2/Omega overflows, beta_c is near the largest double
]


def _within_ulps(got, want, ulps=4):
    return abs(got - want) <= ulps * math.ulp(want)


@pytest.mark.parametrize("args", EXTREME_TRANSITIONS)
def test_beta_c_at_extreme_magnitudes_matches_mpmath(args):
    mp = pytest.importorskip("mpmath")
    params = ModelParams(*args)
    with mp.workdps(60):
        omega0, Omega, G = (mp.mpf(v) for v in (args[0], args[1], effective_coupling(params).G))
        want = float(2 / Omega * mp.atanh(omega0 * Omega / G))
    assert 0.0 < want < math.inf
    assert _within_ulps(critical_inverse_temperature(params), want)


def test_beta_c_agrees_with_the_gap_kernel_where_2_over_omega_overflows():
    params = ModelParams(1.0, 1e-310, 1.0, 0.0, 0.0)
    assert critical_inverse_temperature(params) == 2.0
    assert solve_gap(params, Thermo(1.0)).phase is PhaseLabel.NORMAL
    assert solve_gap(params, Thermo(3.0)).phase is PhaseLabel.SUPERRADIANT


def test_beta_c_that_overflows_raises():
    # ratio 0.049, but 2/Omega = 4e323
    with pytest.raises(ConvergenceError, match="beta_c = .* overflows a double"):
        critical_inverse_temperature(ModelParams(1e12, 5e-324, 1e-155, 0.0, 0.0))
    # a ratio that overflows is no transition, not an error
    assert critical_inverse_temperature(ModelParams(1.0, 1.0, 0.0, 0.0, -1e-320)) is None


# --- zero-temperature critical coupling -----------------------------------

def test_zero_temperature_coupling_known_value():
    # equal couplings, no dipole term: the quantum-critical point sits at 1/2
    assert critical_coupling_zero_temperature(1.0, 1.0, 0.0, 1.0) == 0.5


def test_zero_temperature_coupling_closed_form_cases():
    assert critical_coupling_zero_temperature(1.0, 1.0, 3.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert critical_coupling_zero_temperature(1.0, 1.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_zero_temperature_coupling_domain_errors():
    with pytest.raises(DomainError):
        critical_coupling_zero_temperature(1.0, 1.0, -1.0, 1.0)  # lam = -Omega
    with pytest.raises(DomainError):
        critical_coupling_zero_temperature(1.0, 1.0, 0.0, -0.2)
    for bad in (True, math.nan, "1"):
        with pytest.raises(DomainError, match="ratio"):
            critical_coupling_zero_temperature(1.0, 1.0, 0.0, bad)


@pytest.mark.parametrize("args", [
    (1e-200, 1e-200, 0.0, 1.0),  # omega0*(Omega + lam) underflows to 0
    (5e-324, 5e-324, 0.0, 0.0),  # g1_c is the least subnormal
    (1.0, 1e-310, 0.0, 0.0),
    (1e12, 1e12, 1e12, 0.0),
    (1.0, 1.0, 0.0, 1.7e308),  # g1_c is subnormal
    (1e-300, 1.0, -1.0 + 2**-52, 0.0),
])
def test_zero_temperature_coupling_at_extreme_magnitudes_matches_mpmath(args):
    mp = pytest.importorskip("mpmath")
    omega0, Omega, lam, ratio = args
    with mp.workdps(60):
        want = float(mp.sqrt(mp.mpf(omega0) * (mp.mpf(Omega) + lam)) / (1 + mp.mpf(ratio)))
    assert 0.0 < want < math.inf
    assert _within_ulps(critical_coupling_zero_temperature(*args), want)


def _phase_flip_coupling(omega0, Omega, lam, ratio, beta=1e6):
    """Locate the superradiant onset in g1 at large beta by phase bisection."""

    def superradiant(g1):
        params = ModelParams(omega0, Omega, g1, ratio * g1, lam)
        return solve_gap(params, Thermo(beta)).phase is PhaseLabel.SUPERRADIANT

    lo, hi = 1e-3, 50.0
    assert not superradiant(lo) and superradiant(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if superradiant(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_zero_temperature_coupling_matches_numerical_flip():
    for omega0, Omega, lam, ratio in [(1.0, 1.0, 0.0, 1.0), (1.0, 1.0, 3.0, 1.0),
                                      (1.3, 0.7, -0.3, 0.25)]:
        closed = critical_coupling_zero_temperature(omega0, Omega, lam, ratio)
        flip = _phase_flip_coupling(omega0, Omega, lam, ratio)
        assert flip == pytest.approx(closed, rel=1e-6)


# --- gap solutions ---------------------------------------------------------

def test_solve_gap_deep_superradiant_point():
    sol = solve_gap(P_DEEP, Thermo(10.0))
    assert sol.phase is PhaseLabel.SUPERRADIANT
    # tanh saturates, so Omega_Delta -> G/omega0 = 4
    assert sol.omega_delta == pytest.approx(4.0, abs=1e-8)
    assert sol.b0 == pytest.approx(B0_DEEP, abs=1e-10)
    assert sol.delta == pytest.approx(0.5 * math.sqrt(15.0), abs=1e-10)
    assert sol.r0 == 0.0


def test_solve_gap_subcritical_is_normal():
    sol = solve_gap(P_WEAK, Thermo(1.0))  # beta < beta_c ~ 1.713
    assert sol.phase is PhaseLabel.NORMAL
    assert (sol.b0, sol.r0, sol.delta) == (0.0, 0.0, 0.0)
    assert sol.omega_delta == P_WEAK.Omega


def test_subnormal_coupling_is_normal():
    # G = -omega0*lam = 5e-324 overflows omega0/G to inf, which the kernel
    # expects; tier-1 turns the overflow warning into an error
    sol = solve_gap(ModelParams(1.0, 1.0, 0.0, 0.0, -5e-324), Thermo(1.0))
    assert sol.phase is PhaseLabel.NORMAL
    assert (sol.b0, sol.omega_delta) == (0.0, 1.0)


def test_solve_gap_with_dipole_coupling():
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 0.5)
    sol = solve_gap(params, Thermo(10.0))
    assert sol.omega_delta == pytest.approx(3.5, abs=1e-8)
    assert sol.delta == pytest.approx(1.6770509831248424, abs=1e-8)
    assert sol.b0 == pytest.approx(0.9583148474999086, abs=1e-8)
    # r0 = sqrt(lam)*Delta*omega0/G
    assert sol.r0 == pytest.approx(math.sqrt(0.5) * sol.delta / 3.5, rel=1e-12)
    res = stationary_residuals(params, Thermo(10.0), sol)
    assert res.max_abs() < 1e-10


def test_gap_solution_delta_identity():
    # superradiant invariant: delta = sqrt(omega_delta^2 - Omega^2)/2 exactly
    rng = np.random.default_rng(5)
    for _ in range(50):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        sol = solve_gap(ModelParams(omega0, Omega, g1, g2, lam), Thermo(2.0 * beta_c))
        expected = 0.5 * math.sqrt(sol.omega_delta**2 - Omega**2)
        assert sol.delta == expected
        assert sol.b0 > 0 and sol.r0 >= 0


# --- stationary residuals --------------------------------------------------

def test_residuals_vanish_for_normal_solution():
    sol = solve_gap(P_WEAK, Thermo(1.0))
    res = stationary_residuals(P_WEAK, Thermo(1.0), sol)
    assert res.max_abs() == 0.0


def test_residuals_small_at_solution_and_large_when_perturbed():
    thermo = Thermo(10.0)
    sol = solve_gap(P_DEEP, thermo)
    assert stationary_residuals(P_DEEP, thermo, sol).max_abs() < 1e-10
    perturbed = dataclasses.replace(sol, b0=sol.b0 + 0.01)
    assert stationary_residuals(P_DEEP, thermo, perturbed).max_abs() > 1e-4


def test_residuals_on_random_superradiant_grid():
    rng = np.random.default_rng(17)
    for _ in range(200):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        params = ModelParams(omega0, Omega, g1, g2, lam)
        thermo = Thermo(beta_c * rng.uniform(1.05, 5.0))
        sol = solve_gap(params, thermo)
        assert sol.phase is PhaseLabel.SUPERRADIANT
        assert stationary_residuals(params, thermo, sol).max_abs() < 1e-10


# --- free energy ------------------------------------------------------------

def test_free_energy_frozen_hand_value():
    thermo = Thermo(10.0)
    fe = free_energy_diff(P_DEEP, thermo, solve_gap(P_DEEP, thermo))
    assert fe.f_diff == pytest.approx(F_DIFF_DEEP, abs=1e-9)
    # noninteracting reference: -(1/beta) ln(2 cosh(beta*Omega/2))
    assert fe.f0 == pytest.approx(-math.log(2.0 * math.cosh(5.0)) / 10.0, rel=1e-14)


def test_free_energy_zero_in_normal_phase():
    thermo = Thermo(1.0)
    fe = free_energy_diff(P_WEAK, thermo, solve_gap(P_WEAK, thermo))
    assert fe.f_diff == 0.0


def test_free_energy_continuous_at_transition():
    beta_c = critical_inverse_temperature(P_WEAK)
    thermo = Thermo(beta_c * (1.0 + 1e-9))
    sol = solve_gap(P_WEAK, thermo)
    assert sol.phase is PhaseLabel.SUPERRADIANT
    assert abs(free_energy_diff(P_WEAK, thermo, sol).f_diff) < 1e-8
    for eps in (1e-4, 1e-6):
        thermo = Thermo(beta_c * (1.0 + eps))
        f = free_energy_diff(P_WEAK, thermo, solve_gap(P_WEAK, thermo)).f_diff
        assert abs(f) < 10.0 * eps


def test_free_energy_negative_in_superradiant_phase():
    rng = np.random.default_rng(23)
    for _ in range(100):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        params = ModelParams(omega0, Omega, g1, g2, lam)
        thermo = Thermo(2.0 * beta_c)
        f = free_energy_diff(params, thermo, solve_gap(params, thermo)).f_diff
        assert f < 0.0


def test_free_energy_no_overflow_at_huge_beta():
    thermo = Thermo(1e6)
    sol = solve_gap(P_DEEP, thermo)
    fe = free_energy_diff(P_DEEP, thermo, sol)
    assert math.isfinite(fe.f_diff) and fe.f_diff < 0
    # beta*Omega_Delta/2 = 2e6: the T=0 limit of f_diff is 15/16 - 3/2
    assert fe.f_diff == pytest.approx(15.0 / 16.0 - 1.5, rel=1e-9)


# --- phase boundary and limits ----------------------------------------------

def test_phase_agrees_with_beta_c_across_boundary():
    rng = np.random.default_rng(29)
    for _ in range(100):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        params = ModelParams(omega0, Omega, g1, g2, lam)
        below = solve_gap(params, Thermo(beta_c * (1.0 - 1e-6)))
        above = solve_gap(params, Thermo(beta_c * (1.0 + 1e-6)))
        assert below.phase is PhaseLabel.NORMAL
        assert above.phase is PhaseLabel.SUPERRADIANT


def test_zero_temperature_gap_limit():
    rng = np.random.default_rng(31)
    count = 0
    while count < 50:
        (omega0, Omega, g1, g2, lam), _ = draw_transition_params(rng)
        params = ModelParams(omega0, Omega, g1, g2, lam)
        G = effective_coupling(params).G
        if G / omega0 <= Omega * 1.05:
            continue  # keep clearly superradiant at T = 0
        sol = solve_gap(params, Thermo(1e6))
        assert sol.omega_delta == pytest.approx(G / omega0, rel=1e-6)
        count += 1


def test_mean_field_outputs_symmetric_under_g_exchange():
    rng = np.random.default_rng(37)
    for _ in range(200):
        (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
        thermo = Thermo(rng.uniform(0.5, 3.0) * beta_c)
        a = solve_gap(ModelParams(omega0, Omega, g1, g2, lam), thermo)
        b = solve_gap(ModelParams(omega0, Omega, g2, g1, lam), thermo)
        assert a == b
        fa = free_energy_diff(ModelParams(omega0, Omega, g1, g2, lam), thermo, a)
        fb = free_energy_diff(ModelParams(omega0, Omega, g2, g1, lam), thermo, b)
        assert fa == fb


def test_mean_field_energy_rescaling_covariance():
    # all energies scale by s (g linearly), beta by 1/s:
    # Omega_Delta -> s*Omega_Delta, b0 invariant, f_diff -> s*f_diff
    rng = np.random.default_rng(41)
    for s in (0.1, 7.3):
        for _ in range(100):
            (omega0, Omega, g1, g2, lam), beta_c = draw_transition_params(rng)
            params = ModelParams(omega0, Omega, g1, g2, lam)
            thermo = Thermo(2.0 * beta_c)
            scaled_params = ModelParams(s * omega0, s * Omega, s * g1, s * g2, s * lam)
            scaled_thermo = Thermo(thermo.beta / s)
            sol = solve_gap(params, thermo)
            scaled = solve_gap(scaled_params, scaled_thermo)
            assert scaled.phase is sol.phase
            assert scaled.omega_delta == pytest.approx(s * sol.omega_delta, rel=1e-9)
            assert scaled.b0 == pytest.approx(sol.b0, rel=1e-9)
            f = free_energy_diff(params, thermo, sol).f_diff
            fs = free_energy_diff(scaled_params, scaled_thermo, scaled).f_diff
            assert fs == pytest.approx(s * f, rel=1e-8)


# --- order parameter curve ----------------------------------------------------

def test_order_parameter_curve_brackets_transition():
    points = order_parameter_curve(P_WEAK, [1.0, 1.713, 3.0])
    assert points[0].b0 == 0.0
    assert 0.0 < points[1].b0 < 0.05  # just above beta_c ~ 1.7129786
    assert points[2].b0 > 0.1
    betas = np.geomspace(0.5, 20.0, 40)
    curve = order_parameter_curve(P_WEAK, betas)
    b0s = [point.b0 for point in curve]
    assert all(b2 >= b1 for b1, b2 in zip(b0s, b0s[1:]))


def test_order_parameter_curve_edge_cases():
    assert order_parameter_curve(P_WEAK, []) == []
    rows = order_parameter_curve(ModelParams(1, 1, 0.4, 0.4, 0.0), [0.5, 5.0, 500.0])
    assert all(point.b0 == 0.0 for point in rows)  # no finite transition
    with pytest.raises(DomainError, match="strictly increasing"):
        order_parameter_curve(P_WEAK, [1.0, 1.0])
    # solver errors come back with the index attached
    with pytest.raises(DomainError, match=r"beta_list\[0\]"):
        order_parameter_curve(P_WEAK, [-2.0, 1.0])
    with pytest.raises(DomainError, match=r"beta_list\[2\]"):
        order_parameter_curve(P_WEAK, [1.0, 2.0, 2e12])


def test_order_parameter_curve_equals_solve_gap_per_beta():
    for params in (P_WEAK, ModelParams(1.2, 0.8, 0.5, 0.7, -0.4)):
        betas = list(np.geomspace(0.3, 1e6, 30)) + [2e6]
        for point in order_parameter_curve(params, betas):
            sol = solve_gap(params, Thermo(point.beta))
            assert (point.b0, point.omega_delta) == (sol.b0, sol.omega_delta)


def test_bracket_failure_raises_convergence_error():
    # omega0/G underflows to 0, so the first bracket 1/target is inf
    params = ModelParams(1e-300, 1.0, 1e12, 0.0, 0.0)
    with pytest.raises(ConvergenceError, match="failed to bracket"):
        solve_gap(params, Thermo(1.0))
    with pytest.raises(ConvergenceError, match=r"^beta_list\[0\]=1.0: failed to bracket"):
        order_parameter_curve(params, [1.0, 2.0])
    # omega_delta = 1e298 is finite, but beta*omega_delta/2 overflows
    params, beta = ModelParams(1e-298, 1.0, 1.0, 0.0, 0.0), 1e12
    with pytest.raises(ConvergenceError, match="overflows a double"):
        solve_gap(params, Thermo(beta))
    with pytest.raises(ConvergenceError, match=r"^beta_list\[1\]=.*overflows a double"):
        order_parameter_curve(params, [1e-307, beta])  # normal at 1e-307


def test_gap_beyond_1e154_stays_finite():
    # omega_delta = G/omega0 = 1e174 squares past the largest double; at
    # beta = 1 tanh is 1, so Delta = omega_delta/2, b0 = g1*Delta/G and
    # f_diff = omega0*Delta**2/G - omega_delta/2 + ln cosh(1/2) = -G/(4*omega0)
    params, thermo = ModelParams(1e-150, 1.0, 1e12, 0.0, 0.0), Thermo(1.0)
    sol = solve_gap(params, thermo)
    assert sol.phase is PhaseLabel.SUPERRADIANT
    assert sol.omega_delta == pytest.approx(1e174, rel=1e-12)
    assert sol.delta == pytest.approx(sol.omega_delta / 2, rel=1e-15)
    assert sol.b0 == pytest.approx(1e12 * sol.delta / 1e24, rel=1e-15)
    f = free_energy_diff(params, thermo, sol)
    assert f.f_diff == pytest.approx(-0.25e174, rel=1e-15)
