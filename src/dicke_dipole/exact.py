"""Finite-N exact diagonalization oracle for the dipole-coupled Dicke model.

The N-atom Hamiltonian on a truncated boson Fock space is assembled once, by
_hamiltonian, from a spin space's S^+, S^z and dipole exchange: NumPy index
arithmetic writes each term as (row, col, value) triplets, and one sum,
_summed, adds the triplets that share an entry (a stable sort by row and
column, then np.add.reduceat) and leaves out each entry that sums to exactly
zero.  Those triplets (_Triplets) are the one matrix form from the assembly
to the dense solve: the symmetry split relabels them, and the dense solves
scatter them into a zero array.  Only the thermal window's two solvers build
a SciPy (CSC) matrix from them and import scipy.sparse to do so, so the full
product basis and the fermion check load no SciPy at all.  The three bases
differ only in those spin operators; the product and fermion bases build
them alike, each term a tensor product (_kron) over the sites of per-site
blocks and the identity (_site_sums), and the collective sectors from closed
forms:

  * full product basis: N spin-1/2 tensor factors (sigma^z = diag(+1,-1),
    sigma^+ = |up><down| per site) times Fock states |0..n_max>, with the
    boson as the fastest index.  The dipole exchange sum runs over ordered
    pairs i != j only.
  * collective sectors: the Hamiltonian commutes with total spin, so it
    block-diagonalizes on |j,m> ladders.  With J^z = 2 S^z and J^+- = S^+-
    (standard angular momentum matrix elements), the i != j exchange equals
    J^+ J^- - (N + J^z)/2, and every sector enters the trace with the
    SU(2) multiplicity d(N,j).
  * two-mode-per-atom fermion Fock space for the trace identity:
    sigma^z -> a'a - b'b, sigma^+ -> a'b, sigma^- -> b'a.  All Hamiltonian
    terms are products of same-site parity-even bilinears, which commute
    across sites, so plain tensor products of 4x4 site blocks reproduce the
    algebra exactly and no Jordan-Wigner strings are needed.  The physical
    trace is recovered as i^N Tr exp(-beta H_F - i pi/2 N_F), where the two
    unphysical occupation sectors per atom cancel in pairs.

The full-product and fermion bases are diagonalized densely: they are the
independent oracles.  One split, _symmetry_blocks, cuts H's triplets into
one block per class of a conserved quantity: it relabels the row and column
of each stored entry to its place in its class, and any nonzero element
coupling two classes raises CommutationError, with no tolerance.  The
fermion check takes its fixed-N_F blocks from it, once _check_hermitian has
passed H_F, as it passes the other bases' H.  One sector solve,
_sector_spectrum, serves build_collective and the thermal sums.  It splits
a collective sector once (_parity_split) by the Dicke parity
exp(i pi (b'b + S^z + j)) (Emary & Brandes, PRE 67, 066203, 2003), which
commutes with H for any g1, g2 and lam, into its (n + m + j) even and odd
classes, each a band matrix of half-bandwidth at most j+1 (j+3/2 for
half-integer j).  Each block takes the thermal window below, or the full
solve: dense eigh on the half-size block, with eigenvectors or without.
Every collective solve goes through SciPy's LAPACK, as SuperLU and ARPACK
do: NumPy and SciPy link separate OpenBLAS builds, each with its own thread
pool, and a NumPy solve among SciPy's ones contends with SciPy's pool.
build_collective is the window path with W = inf, so it returns full
spectra.  One reducer, _thermal_sums, forms every shifted (log-sum-exp)
sum but the fermion check's own.

The thermal sums (free_energy_exact's sector sum, thermal_boson_occupation)
need only the states below a window top e_min + W, with
W = (ln(n_max * sum_j d_j dim_j) + 53 ln 2) / beta: all the others together
weigh less than 2^-53/n_max of Z and move <b'b> by less than 2^-53.  A block
of at least WINDOW_MIN_DIM states is factored once as H - top = L D L' by
SuperLU, in natural order and without pivoting; the negative pivots count
the eigenvalues below the top (Sylvester's law of inertia), and shift-invert
Lanczos (Ericsson & Ruhe, Math. Comp. 35, 1251, 1980) on the same factor
finds exactly that many.  A block with none below the top is skipped.  The
full solve is used instead when the window holds a large share of the
block, a pivot was permuted or is tiny, Lanczos fails or returns a value
above, or within rounding of, the top, or returns a different number of
values than the count.  Where every block takes the full solve (all blocks
small, or a high temperature), the sums are bit for bit those of the full
spectra.

One cutoff loop, _converged, serves free_energy_exact and the oracle table
(sweep.oracle_table), and each atom count's plan for it is formed once
(_starting_cutoff).  The plan starts where the mean-field saddle point
predicts (_saddle_cutoff): the boson is displaced by sqrt(N) b0 and
thermal, so its mean occupation is N b0^2 plus 1/(exp(beta omega0) - 1),
with a tail that the mean-field Boltzmann factor of each occupation widens
at high temperature, and the start is the first cutoff at which that tail
is small enough, at least the given n_max and at most the ceiling, the
highest level whose doubling the size checks admit (the given n_max where
no level up to the ceiling is); the plan keeps that mean occupation too.
That model is the only heuristic that picks a start: nothing clamps it
near n_max, and only the size checks bound it.  Each level is solved once
in the collective basis, with eigenvectors, and certifies itself: the
eigenvectors that give <b'b> also give the thermal weight on the top Fock
levels, whose decay bounds the truncation error of both f and <b'b>/N
(_tail_bound); the loop stops at the first level whose bound is below the
tolerance, or else grows to the level where that decay predicts it will
be, at most twice the last.  It stops at once when that predicted level
fails a size check, or, where the top weights do not fall, when the plan's
mean occupation does, as no level below it can be certified.  The full
product basis, the independent oracle, starts at the same saddle point and
is solved for eigenvalues only; its cutoff doubles until two levels agree
to the tolerance.

One size rule guards every solve: before it assembles anything, the bytes
of its largest dense block are checked against VECTOR_BYTE_BUDGET
(_check_bytes).  That block is the whole full product basis, a collective
sector's larger parity block, or the fermion check's largest N_F block.
The cutoff loops check each level where it starts (_check_level), and the
plan checks the given n_max and its doubling, then bisects for the ceiling,
before any level is solved.
"""

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CommutationError, ConvergenceError, DimensionError, DomainError,
                     HermiticityError, TruncationError)
from .model import ModelParams, Thermo, _check_count, _check_real, effective_coupling

MAX_ATOMS_FULL = 12
# The bytes one dense solve may need (_check_bytes), the one size limit: the
# whole full product basis, the larger parity block of a collective sector,
# or the largest fermion-number block of the fermion check.
VECTOR_BYTE_BUDGET = 2**31
HERMITICITY_TOL = 1e-12
# Thermal-window sector solves, which always want eigenvectors.  A parity
# block of at least WINDOW_MIN_DIM states is windowed when at most
# WINDOW_MAX_SHARE_VECTORS of it lies below the top: past that share the
# full solve (dense eigh, O(dim^3)) is the faster.  A pivot within PIVOT_TOL
# of the largest |H - top| element, or an eigenvalue that close below the
# top, sends the block to the full solve.
WINDOW_MIN_DIM = 256
WINDOW_MAX_SHARE_VECTORS = 1 / 6
PIVOT_TOL = 2.0**-26
# The boson cutoff's certificate (_tail_decay, _tail_bound): the thermal
# weights on the top TAIL_LEVELS Fock levels give the tail's decay, and
# weights at or below TAIL_FLOOR are rounding.  A predicted cutoff, from the
# saddle point or from a measured tail, aims AIM_MARGIN times below the
# tolerance, so that the level it names is seldom one short.
TAIL_LEVELS = 5
TAIL_FLOOR = 2.0**-70
AIM_MARGIN = 10.0


@dataclass(frozen=True)
class TruncationConfig:
    """Boson Fock cutoff n_max (highest retained occupation) plus the
    absolute tolerance of the adaptive cutoff loop.

    A fixed-cutoff solve uses n_max as it is.  The adaptive loops
    (free_energy_exact, the oracle table; the module docstring describes
    them) take n_max as a floor only: they try no cutoff below it, start
    where the saddle point predicts, and stop where tol bounds the
    truncation error."""

    n_max: int
    tol: float = 1e-8

    def __post_init__(self):
        _check_count("n_max", self.n_max)
        _check_real("tol", self.tol, positive=True)

    @classmethod
    def seeded(cls, params: ModelParams, thermo: Thermo, tol: float = 1e-8):
        """Deprecated, with no runtime warning: nothing in the package calls
        it, as the adaptive loops start where the saddle point predicts
        (_saddle_cutoff) from any n_max, 1 included.  It is kept, unchanged,
        for callers that still use it.

        A heuristic smallest cutoff for the adaptive cutoff loop:
        superradiant states displace the oscillator by O(sqrt(N)*g/omega0),
        and low beta populates the thermal tail, so seed with
        ceil(8*(g1+g2)**2/omega0**2 + 10*max(1, 1/(beta*omega0))).
        DomainError when that is not a finite double.
        """
        g = params.g1 + params.g2
        try:
            seed = math.ceil(8.0 * g * g / params.omega0**2
                             + 10.0 * max(1.0, 1.0 / (thermo.beta * params.omega0)))
        except (ZeroDivisionError, OverflowError):
            raise DomainError(f"no finite seeded cutoff at omega0={params.omega0!r}, "
                              f"g1+g2={g!r}, beta={thermo.beta!r}; set n_max (--n-max)") from None
        return cls(max(seed, 1), tol)


@dataclass
class SpectralData:
    """Sorted eigenvalues of one finite-N Hamiltonian block.

    occupations holds the per-eigenstate expectation <k|b'b|k> and is only
    populated when observables were requested at build time (eigenvectors
    are reduced to it immediately and discarded).
    """

    eigenvalues: np.ndarray
    dimension: int
    basis: str  # "full_product" | "collective"
    n_atoms: int
    n_max: int
    sector_j: float | None = None
    occupations: np.ndarray | None = None


class _Triplets(NamedTuple):
    """A matrix as (row, col, data) arrays, each entry stored at most once,
    and its shape: the one matrix form of this module, from the assembly to
    the dense solve.  Only the window's two solvers, _lowest_ritz_value and
    _window_eigh, turn it into a SciPy matrix."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.row, self.col] = self.data
        return dense


def _symmetry_blocks(h, listing, classes):
    """One symmetric block (_Triplets) of h per class of a conserved
    quantity, in class order: listing holds h's index of each state, listed
    class by class, and classes the class of each listed state, ascending.

    Each stored entry of h is relabelled to the listed places of its row and
    column, so each block keeps the order of the listing.  A nonzero entry
    between two classes raises CommutationError: the split allows no
    tolerance.
    """
    place = np.empty_like(listing)
    place[listing] = np.arange(listing.size)  # the listed place of each state, at h's index
    row, col, data = place[h.row], place[h.col], h.data
    leak = (classes[row] != classes[col]) & (data != 0)
    if leak.any():
        raise CommutationError(f"symmetry-breaking entry of magnitude "
                               f"{float(np.abs(data[leak]).max()):.3e} couples two classes "
                               f"({int(leak.sum())} such entries)")
    starts = np.flatnonzero(np.diff(classes, prepend=classes[0] - 1))  # each class's first place
    blocks = []
    for start, stop in zip(starts, [*starts[1:], listing.size]):
        # a stored zero may still cross the classes, so both bounds are kept
        keep = (row >= start) & (row < stop) & (col >= start) & (col < stop)
        blocks.append(_Triplets(row[keep] - start, col[keep] - start, data[keep],
                                (stop - start, stop - start)))
    return blocks


def _parity_split(h, n_max: int, spin_dim: int):
    """[(block, basis occupations)] of the sector Hamiltonian h on its
    (n + m + j) even and odd classes (_symmetry_blocks), each block listed
    n-outer, m-inner.

    In that order every term of H moves a state by at most j+1 places
    within its class (j+3/2 for half-integer j): b S^+ and b' S^- take
    (n, m) to (n-1, m+1) and back, b S^- and b' S^+ take it to (n-1, m-1)
    and back, the rest is diagonal.
    """
    n, spin = np.divmod(np.arange(spin_dim * (n_max + 1)), spin_dim)
    parity = (n + spin) % 2
    order = np.argsort(parity, kind="stable")  # the even class, then the odd
    # h's index of each listed state (boson fastest)
    blocks = _symmetry_blocks(h, (spin * (n_max + 1) + n)[order], parity[order])
    return list(zip(blocks, np.split(n[order].astype(float), [blocks[0].shape[0]])))


def _vector_sums(vecs, obs):
    """sum_i |v_i|^2 obs_i for each eigenvector v (a column of vecs): one value
    per eigenvector for a 1-d obs, one row per column of a 2-d obs, such as
    the basis occupations and the indicators of the top Fock levels."""
    weights = np.abs(vecs) ** 2
    # elementwise, not a matrix product: NumPy's BLAS must not run among SciPy's solves
    sums = [(weights * column[:, None]).sum(axis=0) for column in obs.reshape(len(obs), -1).T]
    return sums[0] if obs.ndim == 1 else np.array(sums)


def _block_eigh(a, occ):
    """Every eigenvalue of the symmetric block a (_Triplets), read from its
    lower triangle by a dense solve, and the _vector_sums of the
    eigenvectors with occ (the basis observables: occupations, or more
    columns) when occ is given; without occ no eigenvector is formed.
    _check_bytes counts this solve's bytes before the block is assembled."""
    # imported here, as scipy.sparse is in the two solvers below, so that
    # fermion-check and build_full, which call none of them, load no SciPy
    import scipy.linalg

    # dense eigh (LAPACK dsyevd) reads only the lower triangle, and every
    # block is exactly symmetric.  SciPy's LAPACK, not NumPy's: the two link
    # separate OpenBLAS builds with a thread pool each, and a NumPy call among
    # the SciPy solves around it contends with SciPy's pool (about 3x slower
    # on 2 CPUs)
    dense = a.toarray()
    if occ is None:
        return scipy.linalg.eigh(dense, lower=True, eigvals_only=True, driver="evd"), None
    vals, vecs = scipy.linalg.eigh(dense, lower=True, driver="evd")
    return vals, _vector_sums(vecs, occ)


def _lowest_ritz_value(a) -> float:
    """An upper bound on the lowest eigenvalue of the symmetric block a
    (_Triplets), close to it: a Lanczos Ritz value, else the smallest
    diagonal element (both are Rayleigh quotients)."""
    import scipy.sparse as sparse
    import scipy.sparse.linalg as splinalg

    a = sparse.csc_matrix((a.data, (a.row, a.col)), shape=a.shape)
    v0 = np.random.default_rng(0).standard_normal(a.shape[0])
    try:
        # a loose tolerance still gives an upper bound, which is all a window needs
        return float(splinalg.eigsh(a, 1, which="SA", v0=v0, tol=1e-6,
                                    return_eigenvectors=False)[0])
    except RuntimeError:  # ArpackError
        return float(a.diagonal().min())


def _window_eigh(a, top, occ):
    """(every eigenvalue of the symmetric block a (_Triplets) below top,
    the _vector_sums of their eigenvectors with occ), or None when the full
    solve must be used instead.

    H - top is factored once by SuperLU in natural order without pivoting,
    so its negative pivots count the eigenvalues below top (Sylvester's law
    of inertia); shift-invert Lanczos on the same factor then finds them.
    None when a pivot was permuted or is tiny, when the window holds too
    large a share of the block, or when Lanczos does not return exactly that
    many values, all clear of top.
    """
    # imported here, so that only the window branch loads them
    import scipy.sparse as sparse
    import scipy.sparse.linalg as splinalg

    a = sparse.csc_matrix((a.data, (a.row, a.col)), shape=a.shape)
    size = a.shape[0]
    shifted = (a - top * sparse.identity(size, format="csc")).tocsc()
    tiny = PIVOT_TOL * float(abs(shifted).max())
    try:
        lu = splinalg.splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError:  # an exactly zero pivot
        return None
    pivots = lu.U.diagonal()
    natural = np.arange(size)
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)
            and (np.abs(pivots) > tiny).all()):
        return None
    count = int((pivots < 0).sum())
    if count == 0:
        return np.empty(0), _vector_sums(np.empty((size, 0)), occ)
    if count > WINDOW_MAX_SHARE_VECTORS * size:
        return None
    inverse = splinalg.LinearOperator((size, size), matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(size)
    try:
        # which="SA" on 1/(E - top): the most negative values are those below top
        vals, vecs = splinalg.eigsh(a, count, sigma=top, which="SA", OPinv=inverse, v0=v0)
    except RuntimeError:  # ArpackError, no convergence included
        return None
    # a value within rounding of top may have been counted on the wrong side
    if vals.shape != (count,) or not (vals < top - tiny).all():
        return None
    return vals, _vector_sums(vecs, occ)


def _check_hermitian(h) -> None:
    # the entries of H - H' that do not cancel, so that no dense copy is made
    deviation = float(np.abs(_summed(h.shape, h[:3], (h.col, h.row, -h.data)).data).max(initial=0))
    if deviation > HERMITICITY_TOL:
        raise HermiticityError(
            f"max |H - H^dag| entry = {deviation:.3e} exceeds {HERMITICITY_TOL:g}"
        )


# the (rows, cols, values) of no entry, which _summed adds to its terms
_NO_ENTRIES = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))


def _summed(shape, *terms):
    """The _Triplets of the (rows, cols, values) triplets in terms, in row
    order and in column order within a row: the triplets on one entry are
    added, and an entry that sums to exactly zero (-0.0 included) is left
    out.  No terms, or only empty ones, give no entry.  No caller puts more
    than two triplets on one entry, except the site sums, whose values are
    small integers, so each sum has the same bits in any order."""
    rows, cols, values = (np.concatenate(part) for part in zip(_NO_ENTRIES, *terms))
    key = rows * shape[1] + cols
    order = np.argsort(key, kind="stable")
    key, values = key[order], values[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # each entry's first triplet
    # no reduceat over no entries, which older NumPy may refuse
    sums = np.add.reduceat(values, starts) if starts.size else values
    keep = sums != 0
    return _Triplets(*np.divmod(key[starts][keep], shape[1]), sums[keep], shape)


def _kron(left, right, size: int):
    """Triplets of the tensor product of two operators' triplets, the right
    one on size states and its index the faster (the boson's, after the
    spin space; the next site's, in _site_sums); each value is the product
    of the two."""
    (a, b, v), (i, k, w) = left, right
    return ((a[:, None] * size + i).ravel(), (b[:, None] * size + k).ravel(),
            (v[:, None] * w).ravel())


def _hamiltonian(params, n_atoms, n_max, spin_dim, s_p, s_z, exchange):
    """The five-term Hamiltonian on spin x Fock, boson index fastest:

        (lam/N) X + Omega S^z + omega0 b'b
        + (g1/sqrt N) (S^+ b + S^- b') + (g2/sqrt N) (S^- b + S^+ b'),

    with S^- = (S^+)' and X the dipole exchange, given as (rows, cols,
    values) triplets in the spin_dim-state spin space of whichever basis
    supplies s_p, s_z and exchange.  Each term is written as triplets and the
    CSR matrix is built once, from all of them.  The spin-space sum
    (lam/N) X + Omega S^z is formed first, so that an entry gets two terms
    at most: a diagonal one gets the spin sum and omega0 n, and a g1 and a
    g2 term can meet only at n_max = 1 in the product bases.  S^- b' is
    (S^+ b)' and S^+ b' is (S^- b)', written by swapping rows and columns,
    so the matrix is exactly symmetric.
    """
    (xr, xc, xv), (zr, zc, zv), (pr, pc, pv) = exchange, s_z, s_p
    spin = _summed((spin_dim, spin_dim), (xr, xc, (params.lam / n_atoms) * xv),
                   (zr, zc, params.Omega * zv))
    size = n_max + 1
    dim = spin_dim * size
    n = np.arange(size)
    occ = n.astype(float)
    diagonal = np.arange(dim)
    lower = (n[:-1], n[1:], np.sqrt(occ[1:]))  # <n-1|b|n> = sqrt(n)
    terms = [
        # the spin sum x the Fock identity
        _kron(spin[:3], (n, n, np.ones(size)), size),
        (diagonal, diagonal, np.tile(params.omega0 * occ, spin_dim)),  # omega0 b'b
    ]
    scale = 1.0 / math.sqrt(n_atoms)
    # S^+ b, then S^- b from the transposed S^+
    for coupling, ladder in ((params.g1, (pr, pc)), (params.g2, (pc, pr))):
        rows, cols, values = _kron((*ladder, pv), lower, size)
        values = coupling * scale * values
        terms += [(rows, cols, values), (cols, rows, values)]
    return _summed((dim, dim), *terms)


def _site_sums(site_ops, n_atoms: int):
    """(spin dimension, S^+, S^z, exchange), each operator as (rows, cols,
    values) triplets, from one site's (sigma^z, sigma^+) blocks: the site
    sums of sigma^+ and sigma^z/2, and the ordered-pair sum over i != j of
    sigma^+_i sigma^-_j (never the collective identity, which the tests
    check against this construction).  Each term is a _kron over the
    sites, site 0 leftmost, of its one or two site operators and the
    identity on every other site; its values are products of the blocks'
    small integers, so every sum is exact."""
    site_dim = len(site_ops[0])
    sz1, sp1 = ((*np.nonzero(op), op[np.nonzero(op)]) for op in site_ops)
    sm1 = (sp1[1], sp1[0], sp1[2])
    identity = (np.arange(site_dim), np.arange(site_dim), np.ones(site_dim))

    def on_sites(ops):  # {site: operator}
        return functools.reduce(lambda left, site: _kron(left, ops.get(site, identity), site_dim),
                                range(1, n_atoms), ops.get(0, identity))

    dim = site_dim**n_atoms
    s_p, s_z, exchange = (_summed((dim, dim), *terms) for terms in (
        [on_sites({i: sp1}) for i in range(n_atoms)],
        [on_sites({i: sz1}) for i in range(n_atoms)],
        [on_sites({i: sp1, j: sm1}) for i, j in itertools.permutations(range(n_atoms), 2)]))
    return dim, s_p[:3], (s_z.row, s_z.col, 0.5 * s_z.data), exchange[:3]


def build_full(
    params: ModelParams,
    n_atoms: int,
    trunc: TruncationConfig,
    want_occupations: bool = False,
) -> SpectralData:
    """Dense spectrum in the full 2^N x (n_max+1) product basis.

    The dipole term is the ordered-pair sum of one-site operators (see
    _site_sums).
    """
    _check_level(n_atoms, trunc.n_max, "full")
    dim = 2**n_atoms * (trunc.n_max + 1)
    site_ops = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    h = _hamiltonian(params, n_atoms, trunc.n_max, *_site_sums(site_ops, n_atoms))
    _check_hermitian(h)
    hd = h.toarray()
    if want_occupations:
        vals, vecs = np.linalg.eigh(hd)
        # b'b is diagonal; the boson index is fastest
        occupations = _vector_sums(vecs, np.tile(np.arange(trunc.n_max + 1, dtype=float),
                                                 2**n_atoms))
    else:
        vals, occupations = np.linalg.eigvalsh(hd), None
    return SpectralData(vals, dim, "full_product", n_atoms, trunc.n_max, None, occupations)


def _check_sector(n_atoms: int, j) -> None:
    _check_count("n_atoms", n_atoms)
    two_j = 2.0 * _check_real("j", j)
    if not (
        math.isfinite(two_j)  # 2*j overflows for j above ~9e307
        and two_j >= 0
        and abs(two_j - round(two_j)) < 1e-12
        and (n_atoms - round(two_j)) % 2 == 0
        and round(two_j) <= n_atoms
    ):
        raise DomainError(
            f"j={j!r} is not a valid spin sector for N={n_atoms} "
            f"(need j in {{N/2, N/2-1, ...}} down to 0 or 1/2)"
        )


def build_collective(
    params: ModelParams,
    n_atoms: int,
    j,
    trunc: TruncationConfig,
    want_occupations: bool = False,
) -> SpectralData:
    """Spectrum on the total-spin-j ladder tensor the truncated Fock space.

    Basis |j,m> x |n> with m ascending; S^+|j,m> = sqrt(j(j+1)-m(m+1))|j,m+1>,
    J^z = 2 S^z, and the dipole exchange enters as
    (lam/N) * (S^+ S^- - (N + 2 S^z)/2).  DimensionError, before anything is
    assembled, when the dense solve of its larger parity block, with or
    without occupations, is over VECTOR_BYTE_BUDGET (_check_bytes).
    """
    vals, sums, _ = _sector_spectrum(params, n_atoms, j, trunc.n_max, want_occupations)
    occupations = None if sums is None else sums[0]
    return SpectralData(vals, vals.size, "collective", n_atoms, trunc.n_max, float(j), occupations)


def _collective_hamiltonian(params, n_atoms, j, n_max):
    spin_dim = int(round(2 * j)) + 1
    m = -float(j) + np.arange(spin_dim, dtype=float)
    ladder = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))  # <m+1|S^+|m>
    states = np.arange(spin_dim)
    # S^+ S^- is diagonal, <m|S^+ S^-|m> = <m|S^+|m-1>^2
    exchange = np.concatenate(([0.0], ladder * ladder)) - 0.5 * (n_atoms + 2.0 * m)
    return _hamiltonian(params, n_atoms, n_max, spin_dim, (states[1:], states[:-1], ladder),
                        (states, states, m), (states, states, exchange))


def _sector_spectrum(params, n_atoms, j, n_max, want_occupations, width=math.inf, top=math.inf):
    """(ascending eigenvalues, per-eigenvector sums or None, top) of the
    spin-j sector: each eigenpair below top, or all of them when width is
    infinite.

    With want_occupations, row 0 of the sums holds each eigenvector's <b'b>,
    and row 1 + i its weight on the Fock level n_max - i, for i below
    TAIL_LEVELS.  A finite width, which only the thermal sums give and
    always with want_occupations, windows each parity block of at least
    WINDOW_MIN_DIM states (an infinite top starts at its lowest Ritz value +
    width); any other, or one the window cannot certify, is solved in full,
    densely (_block_eigh).  top falls to each solved block's lowest
    eigenvalue + width and is returned for the next sector.  The sector is
    checked first, then the bytes of its larger parity block's dense solve,
    which bound every block whether its window holds or not.
    """
    _check_sector(n_atoms, j)
    _check_bytes(n_atoms, n_max, _parity_block(round(2 * j) + 1, n_max))
    h = _collective_hamiltonian(params, n_atoms, j, n_max)
    _check_hermitian(h)
    levels = n_max - np.arange(TAIL_LEVELS)
    parts = []
    for a, occ in _parity_split(h, n_max, round(2 * j) + 1):
        occ = np.column_stack([occ, occ[:, None] == levels]) if want_occupations else None
        part = None
        if a.shape[0] >= WINDOW_MIN_DIM and math.isfinite(width):
            if math.isinf(top):
                top = _lowest_ritz_value(a) + width
            part = _window_eigh(a, top, occ)
        if part is None:
            part = _block_eigh(a, occ)
        if part[0].size:
            top = min(top, float(part[0].min()) + width)
        parts.append(part)
    vals = np.concatenate([v for v, _ in parts])
    order = np.argsort(vals, kind="stable")  # the sums permuted alike
    sums = np.concatenate([o for _, o in parts], axis=1)[:, order] if want_occupations else None
    return vals[order], sums, top


def sector_multiplicity(n_atoms: int, j) -> int:
    """SU(2) multiplicity d(N,j) = C(N, N/2-j) - C(N, N/2-j-1)."""
    _check_sector(n_atoms, j)
    k = round(n_atoms / 2.0 - float(j))
    lower = math.comb(n_atoms, k - 1) if k >= 1 else 0
    return math.comb(n_atoms, k) - lower


def sector_spins(n_atoms: int) -> list[float]:
    """All total-spin values N/2, N/2-1, ... down to 0 or 1/2."""
    _check_count("n_atoms", n_atoms)
    return [n_atoms / 2.0 - k for k in range(n_atoms // 2 + 1)]


@dataclass(frozen=True)
class LogPartition:
    """Partition sum in shifted form: Z = shifted_sum * exp(-beta*e_min)."""

    shifted_sum: float
    e_min: float
    beta: float

    @property
    def ln_z(self) -> float:
        return math.log(self.shifted_sum) - self.beta * self.e_min


def _thermal_sums(sectors, beta):
    """(sum_k d exp(-beta (E_k - E_min)), E_min, the same sum weighted by
    each row of the per-eigenvector sums) over (multiplicity d, ascending
    eigenvalues, sums or None) sectors; a sector without sums adds nothing
    to the last, which stays 0.0 when none has them."""
    e_min = min(float(vals[0]) for _, vals, _ in sectors if vals.size)
    shifted = 0.0
    weighted = 0.0
    for degeneracy, vals, sums in sectors:
        weights = np.exp(-beta * (vals - e_min))
        shifted += degeneracy * float(weights.sum())
        if sums is not None:
            weighted = weighted + degeneracy * (weights * sums).sum(axis=-1)
    return shifted, e_min, weighted


def partition_function(spectral: SpectralData, thermo: Thermo) -> LogPartition:
    """Z = sum_k exp(-beta*(E_k - E_min)) together with the shift E_min."""
    shifted, e_min, _ = _thermal_sums([(1, spectral.eigenvalues, None)], thermo.beta)
    return LogPartition(shifted, e_min, thermo.beta)


def _check_bytes(n_atoms, n_max, block) -> None:
    """DimensionError when the dense solve of a block of block states at
    N = n_atoms and the cutoff n_max needs more than VECTOR_BYTE_BUDGET
    bytes: the one size limit, which every solve checks for its largest
    dense block before it assembles anything.  It is counted as six doubles
    per entry, as a solve with eigenvectors holds them: the matrix, eigh's
    copy that becomes the vectors, LAPACK dsyevd's work array (two) and
    _vector_sums' weights.  An eigenvalue-only solve, which needs fewer, is
    counted alike."""
    if 6 * 8 * block * block > VECTOR_BYTE_BUDGET:
        raise DimensionError(f"the dense solve at N={n_atoms}, n_max={n_max} needs about "
                             f"{6 * 8 * block * block} bytes for a block of {block} states, "
                             f"over the budget {VECTOR_BYTE_BUDGET}")


def _parity_block(spin_dim, n_max) -> int:
    """The states in the larger parity block of a sector of spin_dim spin
    states at the cutoff n_max: half the sector, rounded up."""
    return (spin_dim * (n_max + 1) + 1) // 2


def _check_level(n_atoms, n_max, basis="collective") -> None:
    """The size checks that the solve of one cutoff level starts with.

    The full product basis checks the atom count, then the bytes of its
    dense solve, the whole basis of 2^N (n_max+1) states.  The collective
    sectors check the atom count, then the bytes of the larger parity block
    of the largest sector, j = N/2, at the cutoff n_max, which is solved
    densely when its window fails; then that the sector sums fit a double,
    before any spin or multiplicity is listed.  n_max 2^N (n_max+1) bounds
    every multiplicity d(N,j) <= 2^N, the shifted sum (each state weighs at
    most 1) and the occupation-weighted sum; past the largest double, d
    times a weight would raise OverflowError.  Every check grows with n_max.
    """
    if basis == "full":
        _check_count("n_atoms", n_atoms, 1, MAX_ATOMS_FULL)
        _check_bytes(n_atoms, n_max, 2**n_atoms * (n_max + 1))
        return
    _check_bytes(n_atoms, n_max, _parity_block(_check_count("n_atoms", n_atoms) + 1, n_max))
    if n_max * 2**n_atoms * (n_max + 1) >= sys.float_info.max:
        raise DimensionError(
            f"the sector sums at N={n_atoms}, n_max={n_max} overflow a double: "
            f"n_max * 2^N * (n_max+1) is not below {sys.float_info.max:g}"
        )


def _starting_cutoff(params, n_atoms, thermo, trunc, basis="collective"):
    """The plan of one atom count's cutoff loop, from one saddle point
    (_saddle_cutoff): (the checked level the loop starts at, the saddle
    point's mean occupation).  The start is the saddle-point cutoff, at
    least trunc.n_max and at most the ceiling, the highest level whose
    doubling the size checks admit; no prediction is lowered to it.

    trunc.n_max is checked first, and the atom count with it, then its
    doubling, all before the saddle point is formed: DimensionError when
    trunc.n_max fails, TruncationError when its doubling does, as the full
    basis's loop never ends at its start and the collective loop may grow
    to its doubling.  The checks grow with the level, so the ceiling is
    bisected, below 2^62, whose doubling every check refuses.
    """
    _check_level(n_atoms, trunc.n_max, basis)
    try:
        _check_level(n_atoms, 2 * trunc.n_max, basis)
    except DimensionError as exc:
        raise TruncationError(f"no converged cutoff from n_max={trunc.n_max}: "
                              f"its first doubling is refused: {exc}") from exc
    low, high = trunc.n_max, 2**62
    while low < high:
        mid = (low + high + 1) // 2
        try:
            _check_level(n_atoms, 2 * mid, basis)
            low = mid
        except DimensionError:
            high = mid - 1
    return _saddle_cutoff(params, n_atoms, thermo, trunc, low)


def _sector_sums(params, n_atoms, thermo, n_max):
    """(ln Z, <b'b>/N, top weights) of the thermal state over every spin
    sector at the cutoff n_max, from one sector pass that solves each sector
    for at least each eigenpair below e_min + width, with eigenvectors.  The
    top weights are the thermal weights on the Fock levels n_max,
    n_max - 1, ..., n_max - TAIL_LEVELS + 1 (_tail_decay).

    With width = (ln(n_max * sum_j d_j dim_j) + 53 ln 2) / beta, the states
    left out weigh less than 2^-53/n_max of Z, and as none holds more than
    n_max bosons, they move <b'b> by less than 2^-53; sum_j d_j dim_j is
    2^N (n_max+1).  The top starts above e_min + width and only falls, so
    every window taken stays complete.  The sizes are checked first.
    """
    _check_level(n_atoms, n_max)
    beta = thermo.beta
    width = (math.log(n_max * 2**n_atoms * (n_max + 1)) + 53 * math.log(2)) / beta
    spins = sector_spins(n_atoms)
    multiplicities = [sector_multiplicity(n_atoms, j) for j in spins]
    top = math.inf
    sectors = []
    for d, j in zip(multiplicities, spins):
        vals, sums, top = _sector_spectrum(params, n_atoms, j, n_max, True, width, top)
        sectors.append((d, vals, sums))
    shifted, e_min, weighted = _thermal_sums(sectors, beta)
    ln_z = math.log(shifted) - beta * e_min
    return ln_z, float(weighted[0]) / shifted / n_atoms, weighted[1:] / shifted


def _tail_decay(top):
    """(p, r) of a truncated thermal state: p estimates the weight on its
    top Fock level n_max, and r the ratio by which the weights above it
    fall per level, from top, the weights on the levels n_max, n_max - 1,
    ..., n_max - TAIL_LEVELS + 1.

    The top level and the one below it are depleted by the truncation, so r
    is the largest of the ratios between the levels below, and p the larger
    of the top weight and the weight below it times r.  r is not below 1
    (no bound) where the weights still rise, or where one is zero below a
    nonzero one.  Weights at or below TAIL_FLOOR cannot be told from the
    eigenvectors' rounding: a level whose top weights all lie there is read
    as a tail of weight TAIL_FLOOR that halves per level.
    """
    if top.max() <= TAIL_FLOOR:
        return TAIL_FLOOR, 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        r = float((top[1:-1] / top[2:]).max())  # nan, from 0/0, gives no bound
    return max(float(top[0]), float(top[1]) * r), r


def _geometric_tail(n_max, p, r):
    """(s, m) of a tail that weighs p at level n_max and falls by r per
    level: its weight s = sum_i p r^i and its occupation
    m = sum_i (n_max + i) p r^i, summed over i >= 0."""
    if not r < 1.0:
        return math.inf, math.inf
    return p / (1.0 - r), p * (n_max / (1.0 - r) + r / (1.0 - r) ** 2)


def _tail_bound(n_max, s, m, n_atoms, beta, omega0):
    """A bound on the truncation errors of both f and <b'b>/N at the cutoff
    n_max, where the thermal weight from the top level up is s and its
    occupation m; n_max, s and m may be arrays, one entry per level.

    Cutting off a weight s moves ln Z by about s when the states cut off are
    thermal, and by beta times their energy when they are the tail of a
    displaced ground state, and each holds at least omega0 n_max boson
    energy; so the error of f = -ln Z/(N beta) is taken as
    (1 + beta omega0 n_max) s/(N beta).  <b'b> = -(1/beta) d ln Z/d omega0
    and the weight of level n falls like exp(-beta omega0 n), which gives m
    in place of s/beta for <b'b>/N.  The estimates are taken as the bound,
    which leaves a constant margin of about 4: at the cutoffs 8 to 32 of
    the points that tests/test_exact.py certifies (CERTIFIED_POINTS), with
    N = 2, 6 and 12 and s and m from _tail_decay, the errors against a
    cutoff 4x larger were at most 0.26 (f) and 0.2 (<b'b>/N) of them.
    """
    energy = 1.0 + beta * omega0 * n_max
    return energy * np.maximum(s / (n_atoms * beta), m / n_atoms)


def _next_cutoff(n_max, p, r, tol, n_atoms, beta, omega0) -> int | None:
    """The cutoff that the tail (p, r) measured at n_max predicts: the first
    level above n_max at which that tail, continued at the same r, passes
    tol AIM_MARGIN times over; None when r is not below 1.

    The levels up to 2 n_max are tried one by one.  Past them the level
    doubles until one passes and is then bisected down to one that passes
    above one that does not; the bound is a polynomial in the level times
    r^level, so it falls from some level on, and r^level reaches 0 within
    about 2^63 levels."""
    if not r < 1.0:
        return None

    def passes(level):
        step = level - n_max
        return AIM_MARGIN * _tail_bound(level, *_geometric_tail(level, p * r**step, r),
                                        n_atoms, beta, omega0) < tol

    for level in range(n_max + 1, 2 * n_max + 1):
        if passes(level):
            return level
    low, high = 2 * n_max, 4 * n_max
    while not passes(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if passes(mid) else (mid, high)
    return high


def _saddle_cutoff(params, n_atoms, thermo, trunc, ceiling):
    """(the starting cutoff that the mean-field saddle point predicts, in
    [trunc.n_max, ceiling], the saddle point's mean boson occupation
    N b0^2 + 1/(exp(beta omega0) - 1), rounded up and at most 2^62, which
    every size check refuses).  (trunc.n_max, 0) when no saddle can be
    formed; the start is trunc.n_max, too, where no level up to the ceiling
    passes, or where N b0^2 is not finite or beta omega0 underflows, and the
    occupation is 2^62 then.

    Two models of the boson occupation, and the larger weight of the two at
    each level:
      * at the saddle the boson is displaced by sqrt(N) b0 and thermal: a
        Poisson count of mean N b0^2 plus a geometric one of mean
        1/(exp(beta omega0) - 1), which holds the quantum width at low
        temperature;
      * each occupation n weighed by its mean-field Boltzmann factor,
        exp(-beta omega0 n) (2 cosh(beta Omega_n/2))^N with
        Omega_n^2 = Omega^2 + 4 K n/N, which peaks at the saddle's N b0^2
        when K = G, and holds the heavy thermal tail that the coupling gives
        at high temperature.  K = max(G, (g1 + g2)^2): lam < 0 keeps its
        share of G, and at lam > 0 the bare coupling sets the tail at large n.
    Both are summed up to twice the ceiling.  The start is the smallest
    cutoff at which their tail passes _tail_bound AIM_MARGIN times over.
    """
    # imported here, as the SciPy solvers are, so that importing exact
    # stays as cheap as a fixed-cutoff solve needs
    from .meanfield import solve_gap

    n_max = trunc.n_max
    try:
        b0 = solve_gap(params, thermo).b0
    except ConvergenceError:
        return n_max, 0
    beta, omega0 = thermo.beta, params.omega0
    mean = n_atoms * b0 * b0
    x = math.exp(-beta * omega0)
    gap = -math.expm1(-beta * omega0)  # 1 - x, without cancellation
    occupation = math.ceil(min(mean + (x / gap if gap > 0.0 else math.inf), 2.0**62))
    if not (math.isfinite(mean) and gap > 0.0):
        return n_max, occupation
    k = np.arange(2 * ceiling + 1)
    if mean > 0.0:
        ln_factorial = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
        poisson = np.exp(k * math.log(mean) - mean - ln_factorial)
    else:
        poisson = (k == 0).astype(float)
    # the geometric part convolved in: q_k = x q_(k-1) + (1 - x) poisson_k
    displaced = np.fromiter(itertools.accumulate(gap * poisson, lambda acc, t: x * acc + t),
                            float, k.size)
    total = params.g1 + params.g2
    coupling = max(effective_coupling(params).G, total * total)
    half_gaps = 0.5 * beta * np.sqrt(params.Omega**2 + (4.0 * coupling / n_atoms) * k)
    ln_boltzmann = n_atoms * np.logaddexp(half_gaps, -half_gaps) - beta * omega0 * k
    boltzmann = np.exp(ln_boltzmann - ln_boltzmann.max())
    weights = np.maximum(displaced, boltzmann / boltzmann.sum())
    s = np.cumsum(weights[::-1])[::-1]  # the weight from each level up
    m = np.cumsum((k * weights)[::-1])[::-1]
    levels = k[n_max:ceiling + 1]
    # a tiny beta overflows s/(N beta) to inf, a level that does not pass
    with np.errstate(over="ignore"):
        passes = AIM_MARGIN * _tail_bound(levels, s[levels], m[levels], n_atoms,
                                          beta, omega0) < trunc.tol
    return (n_max + int(passes.argmax()) if passes.any() else n_max), occupation


def _ln_z_free(params, n_atoms, beta, n_max) -> float:
    """Noninteracting reference lam = g1 = g2 = 0 at the same truncation:
    N free two-level atoms times the truncated boson geometric sum."""
    spin = n_atoms * (abs(0.5 * beta * params.Omega) + math.log1p(math.exp(-beta * params.Omega)))
    x = beta * params.omega0
    boson = math.log(-math.expm1(-x * (n_max + 1))) - math.log(-math.expm1(-x))
    return spin + boson


@dataclass(frozen=True)
class ExactFreeEnergy:
    """f = -(1/(N*beta)) ln Z at the converged cutoff, and its difference
    from the noninteracting finite-N reference at the same cutoff."""

    f_diff: float
    f: float
    n_max: int


def free_energy_exact(
    params: ModelParams,
    n_atoms: int,
    thermo: Thermo,
    trunc: TruncationConfig,
    basis: str = "collective",
) -> ExactFreeEnergy:
    """Finite-N free energy per atom with adaptive boson cutoff.

    basis="collective" assembles Z as the multiplicity-weighted sector sum
    and runs the self-certifying cutoff loop (_converged), bit for bit the
    oracle table's row.  basis="full" uses the product basis, the
    independent oracle: from the same saddle start its eigenvalue-only
    cutoff doubles until the free energy moves by less than trunc.tol.  The
    module docstring describes both loops.  DimensionError if trunc.n_max
    fails a size check (_check_level), TruncationError if a later level
    does; the start and its doubling are checked before either is solved.
    """
    if basis == "collective":
        return _cutoff_loop(params, n_atoms, thermo, trunc)()[0]
    if basis != "full":
        raise DomainError(f"basis must be 'collective' or 'full', got {basis!r}")
    level, _ = _starting_cutoff(params, n_atoms, thermo, trunc, "full")
    scale = -1.0 / (n_atoms * thermo.beta)
    n_max = f = None
    while True:
        try:
            spectral = build_full(params, n_atoms, TruncationConfig(level))
        except DimensionError as exc:
            raise _refused(trunc, n_max, f, exc) from exc
        f_prev, n_max, f = f, level, scale * partition_function(spectral, thermo).ln_z
        if f_prev is not None and abs(f - f_prev) < trunc.tol:
            f0 = scale * _ln_z_free(params, n_atoms, thermo.beta, n_max)
            return ExactFreeEnergy(f - f0, f, n_max)
        level = 2 * n_max


def _refused(trunc, n_max, f, exc, why=""):
    """The TruncationError of a cutoff loop whose next level fails a size
    check (exc) after the level n_max, which gave the free energy f."""
    return TruncationError(f"free energy not stable to tol={trunc.tol:g} within the size limits "
                           f"(last n_max={n_max}, f={f!r}){why}: {exc}")


def _cutoff_loop(params, n_atoms, thermo, trunc):
    """The collective cutoff loop of one atom count, its plan formed and
    checked (_starting_cutoff): calling it without arguments runs it
    (_converged)."""
    return functools.partial(_converged, params, n_atoms, thermo, trunc,
                             _starting_cutoff(params, n_atoms, thermo, trunc))


def _converged(params, n_atoms, thermo, trunc, plan):
    """(ExactFreeEnergy, <b'b>/N at its cutoff): the collective cutoff loop
    that the module docstring describes, from plan, the (start, mean
    occupation) that _starting_cutoff formed and checked.

    One thermal sum gives ln Z, <b'b>/N and the top weights at each level,
    so the occupation is bit for bit thermal_boson_occupation's at the
    returned n_max.  TruncationError when a level it would grow to fails a
    size check: the level its measured tail predicts (_next_cutoff), or,
    where the top weights do not fall, the plan's mean occupation.
    """
    n_next, saddle = plan
    scale = -1.0 / (n_atoms * thermo.beta)
    args = (n_atoms, thermo.beta, params.omega0)
    n_max = f = None
    while True:
        try:
            ln_z, occupation, top = _sector_sums(params, n_atoms, thermo, n_next)
        except DimensionError as exc:
            raise _refused(trunc, n_max, f, exc) from exc
        n_max, f = n_next, scale * ln_z
        p, r = _tail_decay(top)
        if _tail_bound(n_max, *_geometric_tail(n_max, p, r), *args) < trunc.tol:
            f0 = scale * _ln_z_free(params, n_atoms, thermo.beta, n_max)
            return ExactFreeEnergy(f - f0, f, n_max), occupation
        level = _next_cutoff(n_max, p, r, trunc.tol, *args)
        if level is not None:
            floor, why = level, f"its tail predicts a certified cutoff at n_max={level}"
        else:  # no decay to continue, but a certified level lies above the mean
            floor = saddle
            why = f"its top weights do not fall, and the saddle point's mean occupation is {floor}"
        try:
            _check_level(n_atoms, floor)
        except DimensionError as exc:
            raise _refused(trunc, n_max, f, exc, f"; {why}") from exc
        n_next = 2 * n_max if level is None else min(level, 2 * n_max)


def boson_occupation(spectral: SpectralData, thermo: Thermo) -> float:
    """Thermal average <b'b>/N over one spectral block.

    Requires the block to have been built with want_occupations=True.
    """
    if spectral.occupations is None:
        raise DomainError("spectral data was built without occupation expectations")
    shifted, _, occupation = _thermal_sums(
        [(1, spectral.eigenvalues, spectral.occupations)], thermo.beta)
    return float(occupation) / shifted / spectral.n_atoms


def thermal_boson_occupation(
    params: ModelParams, n_atoms: int, thermo: Thermo, trunc: TruncationConfig
) -> float:
    """<b'b>/N of the full thermal state, assembled from collective sectors
    with their multiplicities at the fixed cutoff trunc.n_max."""
    return _sector_sums(params, n_atoms, thermo, trunc.n_max)[1]


def _fermion_site_ops():
    """sigma^z, sigma^+ as 4x4 blocks on one site's {|00>, |01>, |10>, |11>} =
    |n_a n_b> space, and the diagonal of that site's fermion number."""
    sz = np.diag([0.0, -1.0, 1.0, 0.0])  # a'a - b'b
    sp = np.zeros((4, 4))
    sp[2, 1] = 1.0  # a'b : |01> -> |10>, annihilated on |11> and |00>
    nf = np.array([0, 1, 1, 2])  # a'a + b'b
    return sz, sp, nf


def fermionic_identity_check(
    params: ModelParams, n_atoms: int, thermo: Thermo, trunc: TruncationConfig
) -> float:
    """Relative discrepancy of the phase-weighted fermionic trace identity.

    Builds the spin model and its two-mode-per-atom fermionic counterpart at
    the same boson truncation and returns

        | Tr exp(-beta H) - i^N Tr exp(-beta H_F - i pi/2 N_F) | / Tr exp(-beta H).

    H_F conserves N_F, so the fermionic trace is evaluated by diagonalizing
    H_F inside fixed-N_F blocks and attaching the phase (-i)^{n_F} to each
    block; no complex matrix exponential is needed.  H_F is checked as the
    other bases' H are (HermiticityError), as eigvalsh reads one triangle of
    each block.  The blocks come from the shared split (_symmetry_blocks),
    which raises CommutationError for any nonzero element of H_F between
    two N_F classes, with no tolerance.
    Restricted to N <= 2 to keep 4^N harmless.  DimensionError before
    either side is built when the largest N_F block, N_F = N with
    C(2N, N) (n_max+1) states, is over VECTOR_BYTE_BUDGET (_check_bytes);
    it holds at least as many states as the spin side.
    """
    _check_count("n_atoms", n_atoms, 1, 2)
    _check_bytes(n_atoms, trunc.n_max, math.comb(2 * n_atoms, n_atoms) * (trunc.n_max + 1))

    spin_side = build_full(params, n_atoms, trunc)

    sz1, sp1, nf1 = _fermion_site_ops()
    h_f = _hamiltonian(params, n_atoms, trunc.n_max, *_site_sums((sz1, sp1), n_atoms))
    _check_hermitian(h_f)  # eigvalsh reads one triangle of each block
    # N_F of each basis state: the site occupations summed over an open mesh
    nf_diag = np.repeat(sum(np.ix_(*[nf1] * n_atoms)).ravel(), trunc.n_max + 1)
    listing = np.argsort(nf_diag, kind="stable")  # N_F = 0, 1, ..., 2N
    # split as triplets, so that only one N_F block is ever dense
    block_energies = [np.linalg.eigvalsh(block.toarray())
                      for block in _symmetry_blocks(h_f, listing, nf_diag[listing])]
    # one common shift keeps both sides' shifted sums of comparable size
    e_ref = min(
        float(spin_side.eigenvalues[0]),
        min(float(energies[0]) for energies in block_energies),
    )
    fermion_trace = 0.0 + 0.0j
    for n_f, energies in enumerate(block_energies):
        fermion_trace += (-1j) ** n_f * float(
            np.exp(-thermo.beta * (energies - e_ref)).sum()
        )
    fermion_trace *= (1j) ** n_atoms

    spin_trace = float(np.exp(-thermo.beta * (spin_side.eigenvalues - e_ref)).sum())
    return abs(spin_trace - fermion_trace) / abs(spin_trace)
