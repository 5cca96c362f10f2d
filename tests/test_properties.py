"""Property tests: the three finite-N engines agree, the fermionic trace
identity holds, the mean-field solution is stationary, f_diff is never
positive, b0 never falls as beta grows, and the gap kernel is covariant
under a power-of-two change of energy scale."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicke_dipole import (
    ModelParams,
    Thermo,
    TruncationConfig,
    build_collective,
    build_full,
    fermionic_identity_check,
    free_energy_diff,
    order_parameter_curve,
    partition_function,
    sector_multiplicity,
    sector_spins,
    solve_gap,
    stationary_residuals,
)
from dicke_dipole.meanfield import _free_energy_arrays, _gap_kernel
from oracles import full_product_hamiltonian

# fixed and derandomized, so tier-1 runs the same few examples every time
PROPERTY = settings(max_examples=20, derandomize=True, deadline=None, database=None)

couplings = st.just(0.0) | st.floats(0.0, 1.5)
params = st.builds(
    ModelParams,
    omega0=st.floats(0.2, 2.0),
    Omega=st.floats(0.2, 2.0),
    g1=couplings,
    g2=couplings,
    lam=st.floats(-1.0, 1.0),
)
betas = st.floats(0.05, 50.0)


def _ln_z_dense(energies, beta):
    return -beta * energies[0] + math.log(np.exp(-beta * (energies - energies[0])).sum())


@PROPERTY
@given(params, st.integers(1, 4), st.integers(1, 8), st.floats(0.1, 5.0))
@example(ModelParams(1.0, 0.8, 0.7, 0.4, -0.6), 4, 8, 2.0)  # lam < 0
@example(ModelParams(1.0, 0.8, 0.0, 0.9, 0.3), 3, 6, 1.5)  # g1 = 0
@example(ModelParams(1.0, 0.8, 0.9, 0.0, 0.3), 4, 5, 0.7)  # g2 = 0
def test_sector_sum_matches_full_basis_and_dense_oracle(p, n_atoms, n_max, beta):
    thermo, trunc = Thermo(beta), TruncationConfig(n_max)
    ln_terms = [
        math.log(sector_multiplicity(n_atoms, j))
        + partition_function(build_collective(p, n_atoms, j, trunc), thermo).ln_z
        for j in sector_spins(n_atoms)
    ]
    shift = max(ln_terms)
    ln_sectors = shift + math.log(sum(math.exp(t - shift) for t in ln_terms))
    ln_full = partition_function(build_full(p, n_atoms, trunc), thermo).ln_z
    dense = full_product_hamiltonian(p.omega0, p.Omega, p.g1, p.g2, p.lam, n_atoms, n_max)
    ln_oracle = _ln_z_dense(np.linalg.eigvalsh(dense), beta)
    assert ln_sectors == pytest.approx(ln_full, rel=1e-12, abs=1e-10)
    assert ln_sectors == pytest.approx(ln_oracle, rel=1e-12, abs=1e-10)


@PROPERTY
@given(params, betas)
def test_free_energy_difference_is_never_positive(p, beta):
    thermo = Thermo(beta)
    assert free_energy_diff(p, thermo, solve_gap(p, thermo)).f_diff <= 0.0


@PROPERTY
@given(params, st.lists(betas, min_size=2, max_size=20, unique=True))
def test_b0_nondecreasing_along_order_parameter_curve(p, beta_list):
    b0 = [point.b0 for point in order_parameter_curve(p, sorted(beta_list))]
    assert all(b >= a for a, b in zip(b0, b0[1:]))


@PROPERTY
@given(params, st.integers(1, 2), st.integers(1, 6), st.floats(0.1, 5.0))
@example(ModelParams(1.0, 0.8, 0.7, 0.4, -0.6), 2, 6, 2.0)  # lam < 0
@example(ModelParams(1.0, 0.8, 0.0, 0.9, 0.3), 2, 5, 1.5)  # g1 = 0
@example(ModelParams(1.0, 0.8, 0.9, 0.0, 0.3), 1, 6, 0.7)  # g2 = 0
def test_fermionic_trace_identity_holds(p, n_atoms, n_max, beta):
    assert fermionic_identity_check(p, n_atoms, Thermo(beta), TruncationConfig(n_max)) < 1e-10


@PROPERTY
@given(params, betas)
# superradiant examples: lam < 0, g1 = 0, g2 = 0, and g1 = g2 = 0 with lam < -Omega
@example(ModelParams(1.0, 0.8, 0.7, 0.4, -0.6), 5.0)
@example(ModelParams(1.0, 0.8, 0.0, 1.4, 0.3), 8.0)
@example(ModelParams(1.0, 0.8, 1.4, 0.0, 0.3), 8.0)
@example(ModelParams(1.0, 0.8, 0.0, 0.0, -1.0), 8.0)
def test_stationary_residuals_vanish_at_the_solution(p, beta):
    thermo = Thermo(beta)
    assert stationary_residuals(p, thermo, solve_gap(p, thermo)).max_abs() < 1e-10


@pytest.mark.parametrize("k", [-500, -300, 300, 500])
def test_gap_kernel_is_scale_covariant_bit_for_bit(k):
    # energies scale with the couplings: (2^k (omega0, Omega, g1, g2, lam),
    # beta/2^k) gives 2^k Omega_Delta, Delta, f_diff and f0, and the same b0
    # and phase, exactly while nothing leaves the normal double range (k even,
    # so that sqrt(lam) scales exactly too); the kernel runs unvalidated, as
    # these inputs pass the magnitude caps
    rng = np.random.default_rng(abs(k))
    size = 20_000
    inputs = [rng.uniform(0.2, 2.0, size), rng.uniform(0.2, 2.0, size),
              rng.uniform(0.0, 1.5, size), rng.uniform(0.0, 1.5, size),
              rng.uniform(-1.0, 1.0, size)]
    beta = np.exp(rng.uniform(math.log(0.05), math.log(50.0), size))
    scale = 2.0**k
    results = []
    for energies, b in ((inputs, beta), ([scale * x for x in inputs], beta / scale)):
        superradiant, omega_delta, delta, b0, _ = _gap_kernel(*energies, b)
        f_diff, f0 = _free_energy_arrays(*energies, b, omega_delta, superradiant)
        results.append((superradiant, omega_delta, delta, b0, f_diff, f0))
    (sr, od, de, b0, fd, f0), (sr_k, od_k, de_k, b0_k, fd_k, f0_k) = results
    assert 0.2 < sr.mean() < 0.8  # both phases are drawn
    assert np.array_equal(sr_k, sr) and np.array_equal(b0_k, b0)
    for unscaled, scaled in ((od, od_k), (de, de_k), (fd, fd_k), (f0, f0_k)):
        assert np.array_equal(scaled, scale * unscaled)
