"""Finite-N diagonalization: bases, partition sums, fermionic identity."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from dicke_dipole import (
    CommutationError,
    ConvergenceError,
    DimensionError,
    DomainError,
    HermiticityError,
    ModelParams,
    Thermo,
    TruncationConfig,
    TruncationError,
    boson_occupation,
    build_collective,
    build_full,
    fermionic_identity_check,
    free_energy_exact,
    oracle_table,
    partition_function,
    sector_multiplicity,
    sector_spins,
    solve_gap,
    thermal_boson_occupation,
)
from dicke_dipole import exact, meanfield
from dicke_dipole.exact import _sector_sums
from oracles import (
    collective_hamiltonian,
    full_product_hamiltonian,
    product_basis_spin_ops,
    rabi_hamiltonian,
)

P_MIXED = ModelParams(1.0, 1.0, 0.5, 0.5, 0.3)


# --- builders ---------------------------------------------------------------

def test_single_atom_reduces_to_rabi_model():
    params = ModelParams(1.0, 0.8, 0.45, 0.15, 0.7)  # lam irrelevant at N=1
    spec = build_full(params, 1, TruncationConfig(15))
    reference = np.linalg.eigvalsh(rabi_hamiltonian(1.0, 0.8, 0.45, 0.15, 15))
    assert np.abs(spec.eigenvalues - reference).max() < 1e-12
    assert spec.dimension == 32


def test_noninteracting_two_atom_spectrum():
    params = ModelParams(0.9, 1.3, 0.0, 0.0, 0.0)
    spec = build_full(params, 2, TruncationConfig(1))
    spins = [-1.3, 0.0, 0.0, 1.3]
    bosons = [0.0, 0.9]
    expected = np.sort([s + b for s in spins for b in bosons])
    assert np.abs(spec.eigenvalues - expected).max() < 1e-12


@pytest.mark.parametrize("lam", [0.35, -0.45])
def test_full_spectrum_matches_dense_oracle(lam):
    # g1, g2 and lam all nonzero, against a dense build that never calls the package
    couplings = (1.1, 0.9, 0.5, 0.3, lam)
    spec = build_full(ModelParams(*couplings), 3, TruncationConfig(6))
    reference = np.linalg.eigvalsh(full_product_hamiltonian(*couplings, 3, 6))
    assert spec.dimension == 56
    assert np.abs(spec.eigenvalues - reference).max() < 1e-12


def test_full_and_collective_ground_energies_agree():
    full = build_full(P_MIXED, 2, TruncationConfig(20))
    coll = build_collective(P_MIXED, 2, 1, TruncationConfig(20))
    assert full.eigenvalues[0] == pytest.approx(coll.eigenvalues[0], abs=1e-10)


def test_singlet_sector_is_shifted_boson_ladder():
    # j = 0: exchange term contributes the constant -lam/2
    spec = build_collective(P_MIXED, 2, 0, TruncationConfig(12))
    expected = 1.0 * np.arange(13) - 0.15
    assert np.abs(spec.eigenvalues - expected).max() < 1e-12


def test_decoupled_collective_ladder_is_diagonal():
    params = ModelParams(0.7, 1.1, 0.0, 0.0, 0.0)
    spec = build_collective(params, 4, 2, TruncationConfig(3))
    expected = np.sort(
        [1.1 * m + 0.7 * n for m in (-2, -1, 0, 1, 2) for n in range(4)]
    )
    assert np.abs(spec.eigenvalues - expected).max() < 1e-12


@pytest.mark.parametrize("couplings, n_atoms, j, n_max", [
    ((1.1, 0.9, 0.5, 0.3, 0.35), 6, 3, 9),  # integer j, all couplings on
    ((1.1, 0.9, 0.5, 0.3, 0.35), 6, 1, 9),
    ((0.8, 1.2, 0.6, 0.4, -0.45), 5, 2.5, 7),  # half-integer j, lam < 0
    ((0.8, 1.2, 0.6, 0.4, -0.45), 5, 0.5, 7),
    ((1.0, 0.7, 0.0, 0.8, 0.25), 4, 2, 6),  # g1 = 0
    ((1.0, 0.7, 0.9, 0.0, 0.25), 3, 1.5, 6),  # g2 = 0
    ((1.0, 0.7, 0.9, 0.4, -0.6), 4, 0, 5),  # singlet: one spin state
    ((1.0, 0.7, 0.9, 0.4, 0.6), 7, 3.5, 1),  # n_max = 1, the smallest blocks
    ((1.0, 0.7, 0.9, 0.4, 0.6), 2, 1, 1),
])
def test_collective_spectrum_matches_dense_oracle(couplings, n_atoms, j, n_max):
    spec = build_collective(ModelParams(*couplings), n_atoms, j, TruncationConfig(n_max))
    reference = np.linalg.eigvalsh(collective_hamiltonian(*couplings, n_atoms, j, n_max))
    assert spec.dimension == len(reference) == (round(2 * j) + 1) * (n_max + 1)
    assert np.abs(spec.eigenvalues - reference).max() < 1e-12


def test_parity_split_rejects_parity_breaking_element():
    # j = 1/2, n_max = 1: index (m + j)*2 + n, parity (n + m + j) mod 2 gives
    # the classes {0, 3} and {1, 2}
    h = np.diag([0.1, 0.7, 1.3, 2.9])
    h[0, 3] = h[3, 0] = 0.4
    blocks = exact._parity_split(sparse.csr_matrix(h), 1, 2)
    vals = np.sort(np.concatenate([exact._block_eigh(a, None)[0] for a, _ in blocks]))
    assert np.abs(vals - np.linalg.eigvalsh(h)).max() < 1e-14
    # a stored zero between the classes couples nothing and enters neither block
    coo = sparse.coo_matrix(h)
    rows, cols = np.r_[coo.row, 0, 1], np.r_[coo.col, 1, 0]
    with_zero = sparse.coo_matrix((np.r_[coo.data, 0.0, 0.0], (rows, cols)), shape=h.shape)
    for (a, occ), (b, occ_b) in zip(blocks, exact._parity_split(with_zero, 1, 2)):
        assert (a != b).nnz == 0 and np.array_equal(occ, occ_b)
    h[0, 1] = h[1, 0] = 1e-13
    with pytest.raises(CommutationError, match="1.000e-13"):
        exact._parity_split(sparse.csr_matrix(h), 1, 2)


def test_collective_exchange_identity_in_product_basis():
    # sum_{i != j} sp_i sm_j == J+ J- - (N + Jz)/2, entrywise
    n_atoms = 3
    sz, sp = product_basis_spin_ops(n_atoms)
    direct = np.zeros((8, 8))
    for i in range(n_atoms):
        for j in range(n_atoms):
            if i != j:
                direct += sp[i] @ sp[j].T
    jp = sum(sp)
    jz = sum(sz)
    collective = jp @ jp.T - 0.5 * (n_atoms * np.eye(8) + jz)
    assert np.abs(direct - collective).max() < 1e-12


# sectors from test_collective_spectrum_matches_dense_oracle
ASSEMBLY_CASES = [
    ((1.1, 0.9, 0.5, 0.3, 0.35), 6, 3, 9),
    ((0.8, 1.2, 0.6, 0.4, -0.45), 5, 2.5, 7),  # lam < 0
    ((1.0, 0.7, 0.0, 0.8, 0.25), 4, 2, 6),  # g1 = 0
    ((1.0, 0.7, 0.9, 0.0, 0.25), 3, 1.5, 6),  # g2 = 0
    ((1.0, 0.7, 0.9, 0.4, -0.6), 4, 0, 5),  # j = 0
    ((1.0, 0.7, 0.9, 0.4, 0.6), 7, 3.5, 1),  # n_max = 1
]


@pytest.mark.parametrize("couplings, n_atoms, j, n_max", ASSEMBLY_CASES)
def test_assembled_matrices_match_the_dense_oracles(couplings, n_atoms, j, n_max):
    params = ModelParams(*couplings)
    h = exact._collective_hamiltonian(params, n_atoms, j, n_max)
    assert h.has_canonical_format and (h.data != 0).all()
    reference = collective_hamiltonian(*couplings, n_atoms, j, n_max)
    assert np.abs(h.toarray() - reference).max() < 1e-14
    # the product and fermion bases at 1, 2 and 3 atoms on the same couplings
    full_ops = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    atoms = n_atoms % 3 + 1
    h = exact._hamiltonian(params, atoms, n_max, *exact._site_sums(full_ops, atoms))
    reference = full_product_hamiltonian(*couplings, atoms, n_max)
    assert np.abs(h.toarray() - reference).max() < 1e-14
    if atoms == 3:
        return
    # the fermion basis on its physical states, one fermion per site: spin up
    # is |10> (site index 2), spin down |01> (index 1); nothing couples them
    # to the other states
    h_f = exact._hamiltonian(params, atoms, n_max,
                             *exact._site_sums(exact._fermion_site_ops()[:2], atoms)).toarray()
    sites = np.array(np.meshgrid(*[[2, 1]] * atoms, indexing="ij")).reshape(atoms, -1)
    spin = (sites * 4 ** np.arange(atoms - 1, -1, -1)[:, None]).sum(axis=0)
    physical = (spin[:, None] * (n_max + 1) + np.arange(n_max + 1)).ravel()
    assert np.abs(h_f[np.ix_(physical, physical)] - reference).max() < 1e-14
    others = np.setdiff1d(np.arange(h_f.shape[0]), physical)
    assert not h_f[np.ix_(physical, others)].any()


@pytest.mark.parametrize("couplings, n_atoms, j, n_max", ASSEMBLY_CASES)
def test_parity_blocks_are_the_sector_matrix_on_each_class(couplings, n_atoms, j, n_max):
    h = exact._collective_hamiltonian(ModelParams(*couplings), n_atoms, j, n_max)
    dense = h.toarray()
    spin_dim = round(2 * j) + 1
    # each class listed n-outer, m-inner, at the builder's index (boson fastest)
    classes = [[(s * (n_max + 1) + n, n) for n in range(n_max + 1) for s in range(spin_dim)
                if (n + s) % 2 == p] for p in (0, 1)]
    blocks = exact._parity_split(h, n_max, spin_dim)
    for (block, occ), listed in zip(blocks, classes):
        index, bosons = (np.array(column) for column in zip(*listed))
        assert block.format == "csc" and block.has_canonical_format
        assert np.array_equal(block.toarray(), dense[np.ix_(index, index)])
        assert np.array_equal(occ, bosons.astype(float))
        # the band _block_eigh reads: half-width j+1, j+3/2 for half-integer j
        stored = block.tocoo()
        assert np.abs(stored.row - stored.col).max(initial=0) <= math.ceil(j + 1)
    cross = np.ix_([k for k, _ in classes[0]], [k for k, _ in classes[1]])
    assert not dense[cross].any()


@pytest.mark.parametrize("couplings, n_atoms, j, n_max", ASSEMBLY_CASES)
def test_dense_block_solve_matches_numpy_eigh(couplings, n_atoms, j, n_max):
    # the same LAPACK routine (dsyevd) through SciPy as through NumPy
    h = exact._collective_hamiltonian(ModelParams(*couplings), n_atoms, j, n_max)
    for block, occ in exact._parity_split(h, n_max, round(2 * j) + 1):
        vals, occs = exact._block_eigh(block, occ)
        reference, vecs = np.linalg.eigh(block.toarray())
        assert np.array_equal(vals, reference)
        assert np.abs(occs - (vecs**2 * occ[:, None]).sum(axis=0)).max() < 1e-13


def test_largest_collective_sector_assembles():
    # at n_max = 1 the cap admits spin_dim = 49999, where spin-space index
    # products pass 2^31
    n_atoms, j = 49998, 24999
    h = exact._collective_hamiltonian(P_MIXED, n_atoms, j, 1)
    assert h.shape == (99998, 99998)
    m = np.repeat(np.arange(-j, j + 1.0), 2)
    n = np.tile([0.0, 1.0], 2 * j + 1)
    exchange = (j + m) * (j - m + 1) - 0.5 * (n_atoms + 2 * m)
    expected = P_MIXED.omega0 * n + P_MIXED.Omega * m + P_MIXED.lam / n_atoms * exchange
    assert np.abs(h.diagonal() - expected).max() < 1e-10
    # the g1 (S^+ b) and g2 (S^- b) elements at the top spin state m = j
    scale = 1.0 / math.sqrt(n_atoms)
    ladder = math.sqrt(j * (j + 1.0) - (j - 1.0) * j)  # <j|S^+|j-1>
    assert h[99996, 99995] == pytest.approx(P_MIXED.g1 * scale * ladder, rel=1e-14)
    assert h[99994, 99997] == pytest.approx(P_MIXED.g2 * scale * ladder, rel=1e-14)


def test_check_hermitian_rejects_non_hermitian_matrix():
    h = sparse.csr_matrix(np.array([[0.0, 1e-9], [0.0, 0.0]]))
    with pytest.raises(HermiticityError, match="1.000e-09 exceeds 1e-12"):
        exact._check_hermitian(h)


@pytest.mark.parametrize("basis", ["collective", "full", "fermion"])
def test_assembled_hamiltonian_is_exactly_symmetric(basis):
    # the window reads the whole block, the full solve its lower triangle
    params = ModelParams(1.1, 0.9, 0.5, 0.3, -0.35)
    if basis == "collective":
        h = exact._collective_hamiltonian(params, 5, 1.5, 7)
    else:
        site_ops = ((np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
                    if basis == "full" else exact._fermion_site_ops()[:2])
        h = exact._hamiltonian(params, 2, 7, *exact._site_sums(site_ops, 2))
    assert h.count_nonzero() > h.shape[0]  # off-diagonal terms are present
    assert (h - h.T).count_nonzero() == 0


def test_build_full_caps():
    with pytest.raises(DomainError, match="n_atoms"):
        build_full(P_MIXED, 13, TruncationConfig(1))
    with pytest.raises(DimensionError):
        build_full(P_MIXED, 8, TruncationConfig(200))  # 256*201 > 30000


def test_build_collective_validates_sector():
    for bad_j in (2, 0.7, -1):
        with pytest.raises(DomainError, match="sector"):
            build_collective(P_MIXED, 3, bad_j, TruncationConfig(4))
    with pytest.raises(DimensionError):
        build_collective(P_MIXED, 2, 1, TruncationConfig(40000))


# every entry point that takes an atom count, called with a valid rest
_ATOM_COUNT_CALLS = {
    "build_full": lambda n: build_full(P_MIXED, n, TruncationConfig(2)),
    "build_collective": lambda n: build_collective(P_MIXED, n, 0.5, TruncationConfig(2)),
    "free_energy_exact/collective": lambda n: free_energy_exact(
        P_MIXED, n, Thermo(1.0), TruncationConfig(2)),
    "free_energy_exact/full": lambda n: free_energy_exact(
        P_MIXED, n, Thermo(1.0), TruncationConfig(2), basis="full"),
    "thermal_boson_occupation": lambda n: thermal_boson_occupation(
        P_MIXED, n, Thermo(1.0), TruncationConfig(2)),
    "sector_multiplicity": lambda n: sector_multiplicity(n, 0.5),
    "sector_spins": sector_spins,
    "fermionic_identity_check": lambda n: fermionic_identity_check(
        P_MIXED, n, Thermo(1.0), TruncationConfig(2)),
}


@pytest.mark.parametrize("entry", sorted(_ATOM_COUNT_CALLS))
def test_atom_count_must_be_a_positive_int(entry):
    # a bool is not a count, and a float is not one even when integral
    for bad in (True, 2.0, 0, -2):
        with pytest.raises(DomainError, match="n_atoms"):
            _ATOM_COUNT_CALLS[entry](bad)


def test_sector_spin_must_be_a_finite_number():
    for bad in (math.nan, math.inf, 1e308, "1", True):
        with pytest.raises(DomainError, match=r"^j\b"):
            build_collective(P_MIXED, 2, bad, TruncationConfig(2))


def test_truncation_config_validation():
    with pytest.raises(DomainError, match="n_max"):
        TruncationConfig(0)
    for bad_tol in (0.0, math.inf, math.nan, -math.inf, True, False):
        with pytest.raises(DomainError, match="tol"):
            TruncationConfig(4, tol=bad_tol)
    assert TruncationConfig(4, 1).tol == 1
    seeded = TruncationConfig.seeded(P_MIXED, Thermo(5.0))
    assert seeded.n_max >= 18  # 8*(g1+g2)^2/omega0^2 + 10


@pytest.mark.parametrize("omega0, g1, beta", [
    (1e-200, 0.5, 1.0),  # omega0**2 underflows to 0
    (1.0, 0.5, 1e-320),  # 1/(beta*omega0) overflows
    (1e-150, 1e12, 1.0),  # (g1+g2)**2/omega0**2 overflows
])
def test_seeded_cutoff_refuses_a_seed_that_is_not_finite(omega0, g1, beta):
    with pytest.raises(DomainError, match="no finite seeded cutoff"):
        TruncationConfig.seeded(ModelParams(omega0, 1.0, g1, 0.5, 0.1), Thermo(beta))


# --- sector bookkeeping -------------------------------------------------------

def test_sector_multiplicities_small_n():
    assert sector_multiplicity(2, 1) == 1
    assert sector_multiplicity(2, 0) == 1
    assert [sector_multiplicity(4, j) for j in (2, 1, 0)] == [1, 3, 2]


def test_sector_completeness():
    # the thermal window's state count 2^N (n_max+1) rests on this identity
    for n_atoms in range(1, 65):
        total = sum(
            sector_multiplicity(n_atoms, j) * (int(round(2 * j)) + 1)
            for j in sector_spins(n_atoms)
        )
        assert total == 2**n_atoms


# --- partition function and free energy ----------------------------------------

def test_partition_function_single_level():
    from dicke_dipole import SpectralData

    lone = partition_function(
        SpectralData(np.array([1.7]), 1, "collective", 1, 0), Thermo(2.0)
    )
    assert lone.shifted_sum == 1.0 and lone.e_min == 1.7
    assert lone.ln_z == pytest.approx(-2.0 * 1.7, rel=1e-15)


def test_partition_function_matches_direct_sum():
    spec = build_collective(ModelParams(1, 1, 0, 0, 0), 1, 0.5, TruncationConfig(1))
    # spectrum {-0.5, 0.5, 0.5, 1.5}; check ln Z against direct evaluation
    direct = math.log(sum(math.exp(-2.0 * e) for e in spec.eigenvalues))
    assert partition_function(spec, Thermo(2.0)).ln_z == pytest.approx(direct, rel=1e-14)


def test_partition_function_free_atom_mode_product():
    params = ModelParams(1.0, 1.4, 0.0, 0.0, 0.0)
    beta = 1.7
    spec = build_full(params, 1, TruncationConfig(40))
    ln_z = partition_function(spec, Thermo(beta)).ln_z
    exact = math.log(2.0 * math.cosh(0.5 * beta * 1.4)) - math.log(
        1.0 - math.exp(-beta * 1.0)
    )
    assert ln_z == pytest.approx(exact, abs=1e-8)  # truncation tail ~ e^-70


def test_partition_function_infinite_temperature_counts_states():
    spec = build_full(P_MIXED, 2, TruncationConfig(5))
    z = partition_function(spec, Thermo(1e-9))
    assert z.shifted_sum == pytest.approx(spec.dimension, rel=1e-6)


def test_ln_z_nondecreasing_in_cutoff():
    thermo = Thermo(0.8)
    values = []
    for n_max in (4, 8, 16, 32):
        spec = build_full(P_MIXED, 2, TruncationConfig(n_max))
        values.append(partition_function(spec, thermo).ln_z)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_free_energy_exact_noninteracting_difference_is_zero():
    params = ModelParams(1.0, 1.2, 0.0, 0.0, 0.0)
    for n_atoms in (1, 3):
        result = free_energy_exact(params, n_atoms, Thermo(2.0), TruncationConfig(8))
        assert result.f_diff == pytest.approx(0.0, abs=1e-13)


def test_free_energy_sector_sum_matches_full_basis():
    thermo = Thermo(1.1)
    for n_atoms in (2, 3, 4):
        ln_full = partition_function(
            build_full(P_MIXED, n_atoms, TruncationConfig(10)), thermo
        ).ln_z
        ln_sect = _sector_sums(P_MIXED, n_atoms, thermo, 10)[0]
        assert ln_sect == pytest.approx(ln_full, rel=1e-10)


def test_free_energy_exact_basis_options_agree():
    # the collective loop certifies its level and the full one doubles, so
    # the two stop at different cutoffs: the collective f is checked against
    # the full product basis at its own cutoff, and the full loop's f within tol
    thermo = Thermo(1.5)
    trunc = TruncationConfig(6)
    a = free_energy_exact(P_MIXED, 2, thermo, trunc, basis="collective")
    b = free_energy_exact(P_MIXED, 2, thermo, trunc, basis="full")
    ln_z = partition_function(build_full(P_MIXED, 2, TruncationConfig(a.n_max)), thermo).ln_z
    assert a.f == pytest.approx(-ln_z / (2 * thermo.beta), rel=1e-12)
    assert abs(a.f - b.f) < trunc.tol


def test_free_energy_exact_truncation_error(monkeypatch):
    assembled = []
    hamiltonian = exact._hamiltonian
    monkeypatch.setattr(exact, "_hamiltonian", lambda params, n_atoms, n_max, *ops: (
        assembled.append(n_max) or hamiltonian(params, n_atoms, n_max, *ops)))
    # top weights that never fall predict no level, so the collective loop
    # doubles as the full one does, until a doubling fails a size check
    monkeypatch.setattr(exact, "_tail_decay", lambda top: (1.0, 1.0))
    # the largest collective sector (j = 1) holds 3 spin states, the full basis 4
    for basis, cap, spin_dim in (("collective", "COLLECTIVE_DIM_CAP", 3),
                                 ("full", "FULL_DIM_CAP", 4)):
        # the cap admits n_max = 64 exactly, so the doubling to 128 is refused
        monkeypatch.setattr(exact, cap, spin_dim * 65)
        assembled.clear()
        with pytest.raises(TruncationError,
                           match=f"last n_max=64, .*dimension {spin_dim * 129} exceeds"):
            free_energy_exact(P_MIXED, 2, Thermo(1.0), TruncationConfig(4, tol=1e-300), basis)
        assert max(assembled) == 64  # the refused level assembled nothing
        monkeypatch.setattr(exact, cap, spin_dim * 50)
        assembled.clear()
        with pytest.raises(DimensionError, match=f"dimension {spin_dim * 51} exceeds the cap"):
            free_energy_exact(P_MIXED, 2, Thermo(1.0), TruncationConfig(50), basis)
        assert assembled == []


def test_sector_sums_refuse_an_atom_count_that_overflows_a_double(monkeypatch):
    # d(N,j) reaches 2^N; n_max 2^N (n_max+1) passes the largest double from
    # N = 1023 at n_max = 1
    exact._check_level(1022, 1)
    with pytest.raises(DimensionError, match="N=1023, n_max=1 overflow a double"):
        exact._check_level(1023, 1)
    for name in ("sector_multiplicity", "_hamiltonian"):
        monkeypatch.setattr(exact, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    for solve in (thermal_boson_occupation, free_energy_exact):
        with pytest.raises(DimensionError, match="N=1100, n_max=1 overflow a double"):
            solve(P_MIXED, 1100, Thermo(20.0), TruncationConfig(1))


def test_thermal_sums_check_the_largest_sector_first(monkeypatch):
    # 40001 * 3 states in the j = N/2 sector: refused before the 20001
    # multiplicities or any sector are computed
    for name in ("sector_multiplicity", "_hamiltonian"):
        monkeypatch.setattr(exact, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    with pytest.raises(DimensionError, match="collective-sector dimension 120003 exceeds the cap"):
        thermal_boson_occupation(P_MIXED, 40000, Thermo(1.0), TruncationConfig(2))


@pytest.mark.parametrize("n_list, error", [([2, 4, 40000], DimensionError), ([2, 0], DomainError),
                                           ([2, 1100], DimensionError), ([2, 2.0], DomainError),
                                           ([1, True], DomainError)])
def test_oracle_table_checks_every_n_before_the_first_row(monkeypatch, n_list, error):
    calls = []
    monkeypatch.setattr(exact, "_converged", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(error):
        oracle_table(P_MIXED, Thermo(1.0), n_list, TruncationConfig(2))
    assert calls == []


def test_first_doubling_is_checked_before_any_sector_is_solved(monkeypatch):
    # the loop never ends at its starting cutoff, so an N whose first doubled
    # cutoff fails a check can give no row: it is refused before any solve
    monkeypatch.setattr(exact, "_hamiltonian", lambda *args: pytest.fail("a level was assembled"))
    overflow = ("no converged cutoff from n_max=1: its first doubling is refused: "
                "the sector sums at N=1022, n_max=2 overflow a double")
    with pytest.raises(TruncationError, match=overflow):
        free_energy_exact(P_MIXED, 1022, Thermo(20.0), TruncationConfig(1))
    with pytest.raises(TruncationError, match=overflow):
        oracle_table(P_MIXED, Thermo(20.0), [2, 1022], TruncationConfig(1))
    # the caps admit the starting cutoff 4 exactly, not its doubling to 8
    for basis, cap, spin_dim in (("collective", "COLLECTIVE_DIM_CAP", 3),
                                 ("full", "FULL_DIM_CAP", 4)):
        monkeypatch.setattr(exact, cap, spin_dim * 5)
        with pytest.raises(TruncationError,
                           match=f"from n_max=4: .* dimension {spin_dim * 9} exceeds the cap"):
            free_energy_exact(P_MIXED, 2, Thermo(1.0), TruncationConfig(4), basis)


# --- observables ------------------------------------------------------------------

def test_boson_occupation_free_mode():
    params = ModelParams(1.0, 1.0, 0.0, 0.0, 0.4)
    beta, n_max = 1.3, 30
    spec = build_full(params, 2, TruncationConfig(n_max), want_occupations=True)
    got = boson_occupation(spec, Thermo(beta))
    weights = np.exp(-beta * np.arange(n_max + 1.0))
    expected = float((np.arange(n_max + 1.0) * weights).sum() / weights.sum()) / 2
    assert got == pytest.approx(expected, rel=1e-10)


def test_thermal_occupation_matches_full_basis_all_couplings_on():
    # every sector's eigenvectors come from two parity blocks and are merged
    # by energy; a wrong permutation would pair occupations with wrong weights
    params = ModelParams(1.0, 0.9, 0.7, 0.4, 0.35)
    thermo, trunc = Thermo(1.3), TruncationConfig(10)
    collective = thermal_boson_occupation(params, 3, thermo, trunc)
    full = boson_occupation(build_full(params, 3, trunc, want_occupations=True), thermo)
    assert collective == pytest.approx(full, abs=1e-10)


def test_boson_occupation_requires_occupations():
    spec = build_full(P_MIXED, 2, TruncationConfig(4))
    with pytest.raises(DomainError, match="occupation"):
        boson_occupation(spec, Thermo(1.0))


def test_boson_occupation_flat_at_infinite_temperature():
    n_max = 6
    occ = thermal_boson_occupation(P_MIXED, 2, Thermo(1e-11), TruncationConfig(n_max))
    assert occ == pytest.approx(0.5 * n_max / 2, rel=1e-6)


def test_boson_occupation_approaches_mean_field_condensate():
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 0.0)
    thermo = Thermo(10.0)
    b0_sq = solve_gap(params, thermo).b0 ** 2
    assert b0_sq == pytest.approx(0.9375, abs=1e-10)
    trunc = TruncationConfig.seeded(params, thermo)
    occ = {}
    for n_atoms in (2, 8):
        n_conv = free_energy_exact(params, n_atoms, thermo, trunc).n_max
        occ[n_atoms] = thermal_boson_occupation(
            params, n_atoms, thermo, TruncationConfig(n_conv)
        )
    assert abs(occ[8] - b0_sq) / b0_sq < 0.25
    assert abs(occ[8] - b0_sq) < abs(occ[2] - b0_sq)


# --- fermionic trace identity --------------------------------------------------

def test_fermionic_identity_single_atom():
    params = ModelParams(1.0, 1.0, 0.7, 0.2, 0.0)
    disc = fermionic_identity_check(params, 1, Thermo(2.0), TruncationConfig(12))
    assert disc < 1e-10


def test_fermionic_identity_two_atoms_with_dipole():
    disc = fermionic_identity_check(P_MIXED, 2, Thermo(1.0), TruncationConfig(12))
    assert disc < 1e-10


def test_fermionic_identity_noninteracting_factorizes():
    params = ModelParams(1.0, 1.1, 0.0, 0.0, 0.0)
    beta, n_max = 1.4, 10
    disc = fermionic_identity_check(params, 2, Thermo(beta), TruncationConfig(n_max))
    assert disc < 1e-12
    # per-atom factor 2 cosh(beta*Omega/2), boson ladder as spectator
    spec = build_full(params, 2, TruncationConfig(n_max))
    ln_z = partition_function(spec, Thermo(beta)).ln_z
    expected = 2.0 * math.log(2.0 * math.cosh(0.5 * beta * 1.1)) + math.log(
        sum(math.exp(-beta * n) for n in range(n_max + 1))
    )
    assert ln_z == pytest.approx(expected, rel=1e-12)


def test_fermionic_identity_caps_the_fermion_basis_before_building(monkeypatch):
    # 16 * 2001 fermion states pass the cap that the 4 * 2001 spin states meet
    monkeypatch.setattr(exact, "_hamiltonian", lambda *args: pytest.fail("H was built"))
    with pytest.raises(DimensionError, match="fermion-basis dimension 32016"):
        fermionic_identity_check(P_MIXED, 2, Thermo(1.0), TruncationConfig(2000))


def test_fermionic_identity_never_densifies_the_fermion_hamiltonian():
    # N=2, n_max=150: one dense H_F is 2416^2 doubles, 46.7 MB; the N_F
    # blocks are at most 906 states, 6.6 MB
    dense_bytes = (16 * 151) ** 2 * 8
    tracemalloc.start()
    try:
        discrepancy = fermionic_identity_check(P_MIXED, 2, Thermo(1.0), TruncationConfig(150))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert discrepancy < 1e-10
    assert peak < dense_bytes


def test_fermionic_identity_rejects_large_n():
    with pytest.raises(DomainError, match="n_atoms"):
        fermionic_identity_check(P_MIXED, 3, Thermo(1.0), TruncationConfig(4))


def test_finite_n_results_not_symmetric_in_g1_g2():
    # counter-rotating terms act differently at finite N; a symmetric
    # spectrum here would mean the operator construction got symmetrized
    thermo = Thermo(1.0)
    a = partition_function(
        build_full(ModelParams(1, 1, 0.7, 0.2, 0.1), 2, TruncationConfig(25)), thermo
    ).ln_z
    b = partition_function(
        build_full(ModelParams(1, 1, 0.2, 0.7, 0.1), 2, TruncationConfig(25)), thermo
    ).ln_z
    assert abs(a - b) > 1e-6


# --- thermal-window sector solves ----------------------------------------------

def _parity_block(couplings, n_atoms, j, n_max, parity=0):
    """(sparse block, basis occupations) of one Dicke-parity block of a
    collective sector."""
    h = exact._collective_hamiltonian(ModelParams(*couplings), n_atoms, j, n_max)
    return exact._parity_split(h, n_max, round(2 * j) + 1)[parity]


def _thermal_sum(vals, occs, beta):
    # invariant under rotations inside a degenerate eigenspace, unlike occs
    weights = np.exp(-beta * (vals - vals.min()))
    return float(weights.sum()), float((weights * occs).sum())


@pytest.mark.parametrize("couplings, parity", [
    ((1.1, 0.9, 0.5, 0.3, 0.35), 0),
    ((0.8, 1.2, 0.6, 0.4, -0.45), 1),  # lam < 0
    ((1.0, 0.7, 0.9, 0.0, 0.25), 0),  # g2 = 0: a U(1) number is conserved
    ((1.0, 0.5, 0.0, 0.0, 0.3), 1),  # g1 = g2 = 0: a diagonal block
    ((1.0, 1.0, 0.0, 0.0, 0.0), 0),  # ... with Omega = omega0: degenerate levels
])
def test_window_matches_full_banded_spectrum_on_random_sectors(couplings, parity):
    a, occ = _parity_block(couplings, 12, 6, 60, parity)
    size = a.shape[0]
    vals, occs = exact._block_eigh(a, occ)
    order = np.argsort(vals)
    vals, occs = vals[order], occs[order]
    # window tops between two distinct levels, holding up to 1/16 of the block
    level_ends = np.flatnonzero(np.diff(vals[: size // 16]) > 1e-6) + 1
    certified = 0
    for count in np.random.default_rng(7).choice(level_ends, 4, replace=False):
        top = 0.5 * (vals[count - 1] + vals[count])
        got = exact._window_eigh(a, top, occ)
        if got is None:  # Lanczos could not certify it; the caller solves in full
            continue
        certified += 1
        assert got[0].shape == (count,)  # the inertia count
        assert np.abs(np.sort(got[0]) - vals[:count]).max() < 1e-11
        for beta in (0.3, 5.0):
            assert _thermal_sum(*got, beta) == pytest.approx(
                _thermal_sum(vals[:count], occs[:count], beta), rel=1e-11
            )
    assert certified > 0
    empty = exact._window_eigh(a, vals[0] - 1.0, occ)
    assert empty[0].size == 0 and empty[1].size == 0


def test_window_falls_back_when_it_cannot_certify(monkeypatch):
    import scipy.sparse.linalg as splinalg

    a, occ = _parity_block((1.1, 0.9, 0.5, 0.3, 0.35), 12, 6, 60)
    size = a.shape[0]
    vals = np.sort(exact._block_eigh(a, None)[0])
    top = 0.5 * (vals[9] + vals[10])
    assert exact._window_eigh(a, top, occ)[0].shape == (10,)
    # more than WINDOW_MAX_SHARE_VECTORS of the block below the top
    share = int(exact.WINDOW_MAX_SHARE_VECTORS * size) + 1
    assert exact._window_eigh(a, 0.5 * (vals[share] + vals[share + 1]), occ) is None
    # a top on an eigenvalue of a diagonal block gives a zero pivot
    diag, diag_occ = _parity_block((1.0, 0.5, 0.0, 0.0, 0.3), 12, 6, 60)
    assert exact._window_eigh(diag, float(np.sort(diag.diagonal())[5]), diag_occ) is None
    # a tiny first pivot, though no level lies near the top (10.5)
    levels = np.arange(400.0)
    levels[0] = 10.5 + 1e-12
    coupled = sparse.diags(levels) + sparse.coo_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(400, 400))
    assert exact._window_eigh(coupled.tocsc(), 10.5, levels) is None

    eigsh = splinalg.eigsh
    for damage in (lambda w: w[1:],  # Lanczos misses an eigenvalue
                   lambda w: np.where(w == w.max(), top + 1.0, w),  # or finds one above the top
                   lambda w: np.where(w == w.max(), top - 1e-15, w)):  # or one at the top
        def damaged(*args, damage=damage, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            return damage(vals), vecs

        monkeypatch.setattr(splinalg, "eigsh", damaged)
        assert exact._window_eigh(a, top, occ) is None


def _full_path(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(exact, "WINDOW_MIN_DIM", math.inf)
        return fn(*args)


@pytest.mark.parametrize("beta", [1e-300, 0.05])
def test_window_holding_every_state_is_the_full_solve(monkeypatch, beta):
    # the window's top lies above every level, so every block is solved in full
    thermo, n_max = Thermo(beta), 60
    args = (P_MIXED, 12, thermo, n_max)
    (ln_z, occupation, top), full = _sector_sums(*args), _full_path(monkeypatch, _sector_sums, *args)
    assert (ln_z, occupation) == full[:2] and np.array_equal(top, full[2])
    args = (P_MIXED, 12, thermo, TruncationConfig(n_max))
    assert thermal_boson_occupation(*args) == _full_path(monkeypatch, thermal_boson_occupation, *args)


def test_window_falls_back_bit_identically(monkeypatch):
    thermo, n_max = Thermo(5.0), 60
    windowed = _sector_sums(P_MIXED, 12, thermo, n_max)[0]
    full = _full_path(monkeypatch, _sector_sums, P_MIXED, 12, thermo, n_max)[0]
    assert windowed == pytest.approx(full, abs=1e-12)
    monkeypatch.setattr(exact, "_window_eigh", lambda a, top, occ: None)
    assert _sector_sums(P_MIXED, 12, thermo, n_max)[0] == full


def _bench_inputs(seed):
    """The ed_oracle workload's draw for one seed (perfbench/workloads.py)."""
    rng = np.random.default_rng([seed, 2])
    g1 = 1.0 + rng.uniform(0.0, 0.05)
    params = ModelParams(1.0, 1.0 + rng.uniform(-0.03, 0.03), g1, 2.0 - g1,
                         0.5 + rng.uniform(-0.03, 0.03))
    return params, Thermo(5.0 + rng.uniform(-0.2, 0.2))


def test_collective_solves_use_scipy_lapack_only(monkeypatch):
    # NumPy and SciPy link separate OpenBLAS builds, each with its own
    # thread pool; no NumPy linear algebra may run among the sector solves
    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, name=name, **kwargs: pytest.fail(f"np.linalg.{name} called"))
    paths = set()
    block_eigh, window_eigh = exact._block_eigh, exact._window_eigh

    def block(a, occ):
        paths.add("banded" if occ is None else "dense")
        return block_eigh(a, occ)

    def window(a, top, occ):
        found = window_eigh(a, top, occ)
        if found is not None and found[0].size:
            paths.add("window")
        return found

    monkeypatch.setattr(exact, "_block_eigh", block)
    monkeypatch.setattr(exact, "_window_eigh", window)
    # build_collective's eigenvalues alone take the banded solve, the cutoff
    # loop's level 42 (free_energy_exact and the oracle row alike) the dense
    # one, and at 84 the j = 4 blocks are windowed
    params, thermo = _bench_inputs(0)
    build_collective(params, 8, 4, TruncationConfig(64))
    assert paths == {"banded"}
    assert free_energy_exact(params, 8, thermo, TruncationConfig(42)).n_max == 42
    assert paths == {"banded", "dense"}
    result, occupation = exact._cutoff_loop(params, 8, thermo, TruncationConfig(42))()
    assert result.n_max == 42 and 0 < occupation < 42
    thermal_boson_occupation(params, 8, thermo, TruncationConfig(84))
    assert paths == {"banded", "dense", "window"}


@functools.cache
def _separate_solves(seed, n_atoms):
    """free_energy_exact on one bench draw, and thermal_boson_occupation at
    the cutoff it converged at (None at N = 20, which the table leaves out)."""
    params, thermo = _bench_inputs(seed)
    result = free_energy_exact(params, n_atoms, thermo, TruncationConfig.seeded(params, thermo))
    if n_atoms == 20:
        return result, None
    return result, thermal_boson_occupation(params, n_atoms, thermo, TruncationConfig(result.n_max))


@pytest.mark.parametrize("seed", range(5))
def test_window_matches_full_path_on_bench_inputs(monkeypatch, seed):
    params, thermo = _bench_inputs(seed)
    for n_atoms in (4, 8, 12, 16, 20):
        result, occupation = _separate_solves(seed, n_atoms)
        ln_z = _full_path(monkeypatch, _sector_sums, params, n_atoms, thermo, result.n_max)[0]
        f_full = -ln_z / (n_atoms * thermo.beta) + exact._ln_z_free(
            params, n_atoms, thermo.beta, result.n_max) / (n_atoms * thermo.beta)
        assert result.f_diff == pytest.approx(f_full, abs=1e-12)
        if n_atoms < 20:  # the ed_oracle table's rows
            conv = TruncationConfig(result.n_max)
            assert occupation == pytest.approx(
                _full_path(monkeypatch, thermal_boson_occupation, params, n_atoms, thermo, conv),
                abs=1e-11,
            )


def _count_sector_passes(monkeypatch):
    """A list that records the (N, n_max) of each _sector_sums call from now on."""
    calls = []
    sector_sums = exact._sector_sums

    def counted(params, n_atoms, thermo, n_max):
        calls.append((n_atoms, n_max))
        return sector_sums(params, n_atoms, thermo, n_max)

    monkeypatch.setattr(exact, "_sector_sums", counted)
    return calls


def test_oracle_rows_take_one_sector_pass_per_level(monkeypatch):
    # each bench row certifies the cutoff its saddle point starts at: one
    # sector pass per N, with eigenvectors
    params, thermo = _bench_inputs(0)
    trunc = TruncationConfig.seeded(params, thermo)
    n_table = (4, 8, 12, 16)
    calls = _count_sector_passes(monkeypatch)
    rows = oracle_table(params, thermo, n_table, trunc)
    monkeypatch.undo()
    assert calls == [(n, exact._starting_cutoff(params, n, thermo, trunc)[0]) for n in n_table]
    assert [row.n_atoms for row in rows[:-1]] == list(n_table)
    for row in rows[:-1]:
        result, occupation = exact._cutoff_loop(params, row.n_atoms, thermo, trunc)()
        assert result.n_max == exact._starting_cutoff(params, row.n_atoms, thermo, trunc)[0]
        assert row.f_diff == result.f_diff and row.boson_occupation == occupation
        assert occupation == thermal_boson_occupation(
            params, row.n_atoms, thermo, TruncationConfig(result.n_max))
        assert row.f_diff == pytest.approx(_separate_solves(0, row.n_atoms)[0].f_diff,
                                           abs=trunc.tol)


def test_oracle_table_solves_each_distinct_n_once(monkeypatch):
    # a repeated N is solved once and printed once per time it is given, in order
    params, thermo, trunc = ModelParams(1.0, 1.0, 0.4, 0.4, 0.1), Thermo(1.0), TruncationConfig(8)
    solved = []
    converged = exact._converged

    def counted(params, n_atoms, *args, **kwargs):
        solved.append(n_atoms)
        return converged(params, n_atoms, *args, **kwargs)

    monkeypatch.setattr(exact, "_converged", counted)
    rows = oracle_table(params, thermo, [2, 3, 2, 2, 1], trunc)
    assert solved == [2, 3, 1]
    assert [row.n_atoms for row in rows] == [2, 3, 2, 2, 1, None]
    assert rows[0] == rows[2] == rows[3]
    assert rows[:2] + rows[4:] == oracle_table(params, thermo, [2, 3, 1], trunc)


def test_oracle_row_grows_to_the_predicted_cutoff(monkeypatch):
    # the oracle golden case: the saddle point starts at 16, twice the given
    # 8, whose tail is not certified; the decay measured there names the
    # level that is, and the occupation is that of the final cutoff
    params, thermo, trunc = ModelParams(1.0, 1.0, 0.4, 0.4, 0.1), Thermo(1.0), TruncationConfig(8)
    levels = _count_sector_passes(monkeypatch)
    rows = oracle_table(params, thermo, [1, 2, 3], trunc)
    monkeypatch.undo()
    assert levels == [(1, 16), (1, 31), (2, 16), (2, 31), (3, 16), (3, 32)]
    for row, (_, n_max) in zip(rows, levels[1::2]):
        assert row.boson_occupation == thermal_boson_occupation(
            params, row.n_atoms, thermo, TruncationConfig(n_max))
        result = free_energy_exact(params, row.n_atoms, thermo, trunc)
        assert row.f_diff == result.f_diff and result.n_max == n_max


def test_full_basis_loop_doubles_from_the_saddle_start(monkeypatch):
    # the full product basis, the independent oracle, has no eigenvectors to
    # certify a level: it doubles from the saddle start until two levels agree
    params, thermo = ModelParams(1.0, 1.0, 1.0, 1.0, 0.5), Thermo(5.0)
    trunc = TruncationConfig.seeded(params, thermo)
    levels = []
    build = exact.build_full
    monkeypatch.setattr(exact, "build_full", lambda params, n_atoms, trunc: (
        levels.append(trunc.n_max) or build(params, n_atoms, trunc)))
    calls = _count_sector_passes(monkeypatch)
    start, _ = exact._starting_cutoff(params, 4, thermo, trunc, "full")
    full = free_energy_exact(params, 4, thermo, trunc, basis="full")
    assert levels == [start, 2 * start] and full.n_max == 2 * start
    assert calls == []
    monkeypatch.undo()
    ln_z = _sector_sums(params, 4, thermo, full.n_max)[0]
    assert full.f == pytest.approx(-ln_z / (4 * thermo.beta), abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_free_energy_exact_certifies_the_bench_start_in_one_pass(monkeypatch, seed):
    # the ed_oracle draws at N = 20: one sector pass, with eigenvectors, at
    # the saddle start, which holds f to tol against a level 4x larger
    params, thermo = _bench_inputs(seed)
    trunc = TruncationConfig.seeded(params, thermo)
    start, _ = exact._starting_cutoff(params, 20, thermo, trunc)
    assert trunc.n_max < start < 2 * trunc.n_max  # N b0^2 = 18.4 moves it up
    calls = _count_sector_passes(monkeypatch)
    result = free_energy_exact(params, 20, thermo, trunc)
    monkeypatch.undo()
    assert calls == [(20, start)] and result.n_max == start
    ln_z = _sector_sums(params, 20, thermo, 4 * start)[0]
    assert abs(result.f - (-ln_z / (20 * thermo.beta))) < trunc.tol


def test_free_energy_exact_is_the_oracle_row_bit_for_bit(monkeypatch):
    params, thermo = _bench_inputs(0)
    trunc = TruncationConfig.seeded(params, thermo)
    calls = _count_sector_passes(monkeypatch)
    rows = oracle_table(params, thermo, (4, 8, 12, 16), trunc)
    monkeypatch.undo()
    row_cutoffs = dict(calls)  # the last level solved for each N
    for row in rows[:-1]:
        result = free_energy_exact(params, row.n_atoms, thermo, trunc)
        assert result.f_diff == row.f_diff and result.n_max == row_cutoffs[row.n_atoms]


def test_saddle_start_falls_back_to_the_given_cutoff(monkeypatch):
    params, thermo = _bench_inputs(0)
    trunc = TruncationConfig.seeded(params, thermo)
    # the start, and the saddle's mean occupation ceil(N b0^2 + 1/(e^5 - 1))
    assert exact._saddle_cutoff(params, 20, thermo, trunc) == (57, 19)
    # a cap that admits the given cutoff's doubling but not the start's
    monkeypatch.setattr(exact, "COLLECTIVE_DIM_CAP", 21 * 85)
    assert exact._starting_cutoff(params, 20, thermo, trunc) == (trunc.n_max, 19)
    # one between them lowers the start to the highest level whose doubling
    # it admits, 2 * 50 + 1 states a spin state
    monkeypatch.setattr(exact, "COLLECTIVE_DIM_CAP", 21 * 102)
    assert exact._starting_cutoff(params, 20, thermo, trunc) == (50, 19)
    monkeypatch.undo()

    def fails(*args):
        raise ConvergenceError("no saddle")

    monkeypatch.setattr(meanfield, "solve_gap", fails)
    assert exact._saddle_cutoff(params, 20, thermo, trunc) == (trunc.n_max, 0)
    monkeypatch.undo()
    # beta*omega0 underflows, so no thermal occupation can be formed, and the
    # mean occupation is 2^62, which every size check refuses
    tiny = ModelParams(1e-300, 1.0, 0.1, 0.1, 0.0)
    assert exact._saddle_cutoff(tiny, 2, Thermo(1e-300), TruncationConfig(6)) == (6, 2**62)
    # a saddle occupation far past twice the cutoff starts at twice it
    assert exact._saddle_cutoff(params, 400, thermo, TruncationConfig(10)) == (20, 368)


@pytest.mark.parametrize("p, r", [(0.1, 0.999), (1e-3, 0.9), (exact.TAIL_FLOOR, 0.5)])
def test_predicted_cutoff_is_the_first_level_that_passes(p, r):
    # past 2 n_max the level is found by doubling and bisection; it must be
    # the one a scan level by level finds
    n_max, tol, args = 8, 1e-8, (2, 1.0, 1e-3)

    def passes(level):
        tail = exact._geometric_tail(level, p * r ** (level - n_max), r)
        return exact.AIM_MARGIN * exact._tail_bound(level, *tail, *args) < tol

    first = next(level for level in itertools.count(n_max + 1) if passes(level))
    assert exact._next_cutoff(n_max, p, r, tol, *args) == first
    assert exact._next_cutoff(n_max, p, 1.0, tol, *args) is None


def test_eigenvector_budget_is_checked_before_any_level_is_solved(monkeypatch):
    # the j = 1 sector at N = 2, n_max = 4 holds 15 states, so its larger
    # parity block holds 8 and its eigenvector solve about 6 * 8 * 8^2 bytes
    monkeypatch.setattr(exact, "VECTOR_BYTE_BUDGET", 6 * 8 * 8**2 - 1)
    monkeypatch.setattr(exact, "_hamiltonian", lambda *args: pytest.fail("a level was assembled"))
    # the full basis's dense solve, 4 * 5 states, is checked against the same budget
    with pytest.raises(DimensionError, match="the dense solve at N=2, n_max=4 needs about "
                       "19200 bytes for a block of 20 states, over the budget 3071"):
        free_energy_exact(P_MIXED, 2, Thermo(1.0), TruncationConfig(4), basis="full")
    refused = "the eigenvector solve at N=2, n_max=4 needs about 3072 bytes for a block of 8 states"
    for solve in (free_energy_exact, thermal_boson_occupation):
        with pytest.raises(DimensionError, match=refused):
            solve(P_MIXED, 2, Thermo(1.0), TruncationConfig(4))
    with pytest.raises(DimensionError, match=refused):
        oracle_table(P_MIXED, Thermo(1.0), [2], TruncationConfig(4))
    # a budget that admits n_max = 4 but not its doubling, 14 states a block
    monkeypatch.setattr(exact, "VECTOR_BYTE_BUDGET", 6 * 8 * 8**2)
    with pytest.raises(TruncationError, match="from n_max=4: its first doubling is refused: "
                       "the eigenvector solve at N=2, n_max=8 needs about 9408 bytes"):
        free_energy_exact(P_MIXED, 2, Thermo(1.0), TruncationConfig(4))


def test_dense_solves_are_checked_by_bytes_before_assembly(monkeypatch):
    budget = exact.VECTOR_BYTE_BUDGET
    monkeypatch.setattr(exact, "_hamiltonian", lambda *args: pytest.fail("a level was assembled"))
    # the size caps still speak first, whatever the budget
    monkeypatch.setattr(exact, "VECTOR_BYTE_BUDGET", 1)
    with pytest.raises(DimensionError, match="full-product dimension 51456 exceeds the cap"):
        build_full(P_MIXED, 8, TruncationConfig(200))
    with pytest.raises(DimensionError, match="collective-sector dimension 120003 exceeds the cap"):
        build_collective(P_MIXED, 2, 1, TruncationConfig(40000), want_occupations=True)
    monkeypatch.setattr(exact, "VECTOR_BYTE_BUDGET", budget)
    # within the caps, 1024 * 21 product states (the whole basis, dense) and
    # a 50000-state parity block solved with eigenvectors are over the budget
    with pytest.raises(DimensionError, match="the dense solve at N=10, n_max=20 needs about "
                       "22196256768 bytes for a block of 21504 states, over the budget 2147483648"):
        build_full(P_MIXED, 10, TruncationConfig(20), want_occupations=True)
    with pytest.raises(DimensionError, match="the eigenvector solve at N=4999, n_max=19 needs "
                       "about 120000000000 bytes for a block of 50000 states"):
        build_collective(P_MIXED, 4999, 2499.5, TruncationConfig(19), want_occupations=True)


def test_full_basis_loop_and_its_start_are_checked_by_bytes(monkeypatch):
    # P_MIXED at N = 2 and beta = 1: the saddle start from n_max = 4 is 8
    thermo = Thermo(1.0)
    assert exact._starting_cutoff(P_MIXED, 2, thermo, TruncationConfig(4), "full") == (8, 1)
    assembled = []
    hamiltonian = exact._hamiltonian
    monkeypatch.setattr(exact, "_hamiltonian", lambda params, n_atoms, n_max, *ops: (
        assembled.append(n_max) or hamiltonian(params, n_atoms, n_max, *ops)))
    # a budget for 4 * 13 dense states lowers the start to 6, whose doubling
    # it admits; the loop solves 6 and 12 and is refused at 24
    monkeypatch.setattr(exact, "VECTOR_BYTE_BUDGET", 6 * 8 * 52**2)
    trunc = TruncationConfig(4, tol=1e-300)
    assert exact._starting_cutoff(P_MIXED, 2, thermo, trunc, "full") == (6, 1)
    with pytest.raises(TruncationError, match=r"\(last n_max=12, .*\): the dense solve at N=2, "
                       "n_max=24 needs about 480000 bytes for a block of 100 states"):
        free_energy_exact(P_MIXED, 2, thermo, trunc, basis="full")
    assert assembled == [6, 12]
    # one that refuses the doubling of the given cutoff refuses before any solve
    assembled.clear()
    monkeypatch.setattr(exact, "VECTOR_BYTE_BUDGET", 6 * 8 * 36**2 - 1)
    with pytest.raises(TruncationError, match="from n_max=4: its first doubling is refused: "
                       "the dense solve at N=2, n_max=8 needs about 62208 bytes"):
        free_energy_exact(P_MIXED, 2, thermo, trunc, basis="full")
    assert assembled == []


def test_each_atom_count_forms_its_saddle_point_once(monkeypatch):
    # the plan holds the start and the mean occupation of one saddle point:
    # the oracle table's checks hand it to the solve, and a loop whose top
    # weights do not fall reads its refusal from it
    saddles = []
    solve = meanfield.solve_gap
    monkeypatch.setattr(meanfield, "solve_gap", lambda *args: saddles.append(args) or solve(*args))
    params, thermo, trunc = ModelParams(1.0, 1.0, 0.4, 0.4, 0.1), Thermo(1.0), TruncationConfig(8)
    oracle_table(params, thermo, [1, 2, 3, 2], trunc)
    assert len(saddles) == 3
    for basis in ("collective", "full"):
        saddles.clear()
        free_energy_exact(params, 2, thermo, trunc, basis)
        assert len(saddles) == 1
    saddles.clear()
    classical = ModelParams(1e-3, 1.0, 0.1, 0.0, 0.0)
    with pytest.raises(TruncationError, match="the saddle point's mean occupation is 5949"):
        oracle_table(classical, thermo, [2], TruncationConfig(4))
    assert len(saddles) == 1


def test_tail_weights_at_the_rounding_floor():
    floor = exact.TAIL_FLOOR
    # rounding noise that rises towards the top is no reason to grow
    noise = np.array([3e-33, 1e-33, 4e-34, 1e-33, 2e-33])
    assert exact._tail_decay(noise) == exact._tail_decay(np.zeros(5)) == (floor, 0.5)
    s, m = exact._geometric_tail(40, floor, 0.5)
    assert exact._tail_bound(40, s, m, 4, 5.0, 1.0) < 1e-15
    # weights that still rise give no bound, nor does a zero under a weight
    for rising in ([1e-3, 2e-3, 1e-3, 5e-4, 2e-4], [1e-3, 1e-4, 1e-5, 0.0, 0.0]):
        p, r = exact._tail_decay(np.array(rising))
        assert exact._geometric_tail(40, p, r) == (math.inf, math.inf)


# The certificate's test points: both phases, g1 != g2, lam < 0, g2 = 0 (the
# U(1) line), beta_c itself, and a slow geometric tail (omega0 = 0.3, beta = 1)
CERTIFIED_POINTS = [
    ((1.0, 1.0, 0.4, 0.4, 0.1), 0.5),
    ((1.0, 1.0, 0.4, 0.4, 0.1), 1.0),
    ((2.0, 0.5, 0.3, 0.6, -0.2), 0.7),
    ((1.0, 1.0, 1.5, 0.0, 0.0), 5.0),
    ((1.0, 1.0, 0.6, 0.6, 0.4), 3.932),
    ((1.0, 1.0, 1.0, 1.0, 0.5), 5.0),
    ((0.3, 1.0, 0.4, 0.2, 0.0), 1.0),
]


@pytest.mark.parametrize("n_atoms", [2, 6])
@pytest.mark.parametrize("couplings, beta", CERTIFIED_POINTS)
def test_certified_cutoff_is_within_tol_of_a_level_four_times_larger(couplings, beta, n_atoms):
    params, thermo = ModelParams(*couplings), Thermo(beta)
    trunc = TruncationConfig.seeded(params, thermo)
    result, occupation = exact._cutoff_loop(params, n_atoms, thermo, trunc)()
    ln_z, reference, _ = _sector_sums(params, n_atoms, thermo, 4 * result.n_max)
    assert abs(result.f - (-ln_z / (n_atoms * beta))) < trunc.tol
    assert abs(occupation - reference) < trunc.tol
