"""Independent numerical oracles used across the test suite.

Nothing here calls into dicke_dipole's solvers: these are the brute-force
references that the library's closed forms and root finders are checked
against.
"""

import math

import numpy as np


def bisect_critical_beta(omega0, Omega, g1, g2, lam, rtol=1e-12):
    """Root of tanh(beta*Omega/2)*G - omega0*Omega = 0 by bracketed bisection.

    G = (g1+g2)**2 - omega0*lam.  Returns None when the equation has no
    root for any beta > 0 (G <= 0 or the tanh plateau G stays below
    omega0*Omega).
    """
    G = (g1 + g2) ** 2 - omega0 * lam
    if G <= 0:
        return None

    def h(beta):
        return math.tanh(0.5 * beta * Omega) * G - omega0 * Omega

    hi = 1.0
    for _ in range(200):
        if h(hi) > 0:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _ln_cosh(x):
    ax = abs(x)
    return ax + math.log((1.0 + math.exp(-2.0 * ax)) / 2.0)


def mean_field_point(omega0, Omega, g1, g2, lam, beta):
    """(phase, omega_delta, b0, f_diff) at one point, with math only.

    The superradiant branch exists iff G > 0 and tanh(beta*Omega/2)/Omega
    exceeds omega0/G (equality counts as normal).  Its gap is the root of
    G*tanh(beta*x/2) - omega0*x on [Omega, G/omega0], bisected until the
    midpoint is one of the two endpoints, i.e. to adjacent doubles.
    """
    G = (g1 + g2) ** 2 - omega0 * lam
    if G <= 0 or math.tanh(0.5 * beta * Omega) * G <= omega0 * Omega:
        return "normal", Omega, 0.0, 0.0

    def h(x):
        return G * math.tanh(0.5 * beta * x) - omega0 * x

    lo, hi = Omega, G / omega0  # h(lo) > 0 >= h(hi) since tanh < 1
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            break
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    x = lo if abs(h(lo)) <= abs(h(hi)) else hi
    # ordered so that no intermediate overflows where the result fits:
    # delta <= G/(2*omega0), so omega0*delta/G <= 1/2
    delta = 0.5 * math.sqrt(x - Omega) * math.sqrt(x + Omega)
    b0 = (g1 + g2) / G * delta
    entropic = (_ln_cosh(0.5 * beta * x) - _ln_cosh(0.5 * beta * Omega)) / beta
    f_diff = omega0 * delta / G * delta - entropic
    return "superradiant", x, b0, f_diff


def draw_transition_params(rng, max_ratio=0.995):
    """One random parameter tuple guaranteed to have a finite transition.

    Rejection-samples (omega0, Omega, g1, g2, lam) until
    0 < omega0*Omega/G < max_ratio, then returns the tuple together with
    the closed-form beta_c (validated elsewhere against bisection).
    """
    while True:
        omega0 = rng.uniform(0.3, 2.0)
        Omega = rng.uniform(0.3, 2.0)
        gsum = rng.uniform(0.4, 3.0)
        split = rng.uniform(0.05, 0.95)
        g1, g2 = gsum * split, gsum * (1.0 - split)
        lam = rng.uniform(-0.6, 0.8)
        G = (g1 + g2) ** 2 - omega0 * lam
        if G <= 0:
            continue
        ratio = omega0 * Omega / G
        if not 0.0 < ratio < max_ratio:
            continue
        beta_c = (2.0 / Omega) * math.atanh(ratio)
        return (omega0, Omega, g1, g2, lam), beta_c


def rabi_hamiltonian(omega0, Omega, g1, g2, n_max):
    """Single-atom spin-boson Hamiltonian assembled with explicit indices.

    Basis index k = s*(n_max+1) + n with s = 0 the sigma^z = +1 state.
    Kept loop-based on purpose, independent of the package's kron builders.
    """
    dim = 2 * (n_max + 1)
    h = np.zeros((dim, dim))
    for s in (0, 1):
        for n in range(n_max + 1):
            k = s * (n_max + 1) + n
            h[k, k] = omega0 * n + 0.5 * Omega * (1 - 2 * s)
    up, down = 0, 1
    for n in range(n_max):
        amp = math.sqrt(n + 1)
        # g1: b sigma^+ takes |down, n+1> to |up, n>; plus Hermitian partner
        h[up * (n_max + 1) + n, down * (n_max + 1) + n + 1] += g1 * amp
        h[down * (n_max + 1) + n + 1, up * (n_max + 1) + n] += g1 * amp
        # g2: b sigma^- takes |up, n+1> to |down, n>; plus Hermitian partner
        h[down * (n_max + 1) + n, up * (n_max + 1) + n + 1] += g2 * amp
        h[up * (n_max + 1) + n + 1, down * (n_max + 1) + n] += g2 * amp
    return h


def product_basis_spin_ops(n_atoms):
    """Dense per-site sigma^z and sigma^+ on 2^N, by explicit np.kron chains."""
    sz1 = np.diag([1.0, -1.0])
    sp1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    eye = np.eye(2)
    sz, sp = [], []
    for i in range(n_atoms):
        oz = op = np.ones((1, 1))
        for k in range(n_atoms):
            oz = np.kron(oz, sz1 if k == i else eye)
            op = np.kron(op, sp1 if k == i else eye)
        sz.append(oz)
        sp.append(op)
    return sz, sp


def full_product_hamiltonian(omega0, Omega, g1, g2, lam, n_atoms, n_max):
    """Dense N-atom Hamiltonian on 2^N spin states x Fock |0..n_max>.

    The boson index is fastest.  Spin operators come from
    product_basis_spin_ops, the boson from explicit matrices, and the dipole
    exchange is the ordered-pair sum over i != j of sigma^+_i sigma^-_j:

        H = omega0 b'b + (Omega/2) sum_i sigma^z_i + (lam/N) exchange
            + (g1/sqrt N) (J^+ b + J^- b') + (g2/sqrt N) (J^- b + J^+ b').
    """
    sz, sp = product_basis_spin_ops(n_atoms)
    spin_dim = 2**n_atoms
    occ = np.arange(n_max + 1, dtype=float)
    lower = np.diag(np.sqrt(occ[1:]), 1)
    exchange = np.zeros((spin_dim, spin_dim))
    for i in range(n_atoms):
        for j in range(n_atoms):
            if i != j:
                exchange += sp[i] @ sp[j].T
    jp = sum(sp)
    jm = jp.T
    spin_part = 0.5 * Omega * sum(sz) + (lam / n_atoms) * exchange
    c = 1.0 / math.sqrt(n_atoms)
    return (
        np.kron(spin_part, np.eye(n_max + 1))
        + np.kron(np.eye(spin_dim), omega0 * np.diag(occ))
        + g1 * c * (np.kron(jp, lower) + np.kron(jm, lower.T))
        + g2 * c * (np.kron(jm, lower) + np.kron(jp, lower.T))
    )


def collective_hamiltonian(omega0, Omega, g1, g2, lam, n_atoms, j, n_max):
    """Dense total-spin-j sector on |j,m> x |n>, from closed-form elements.

    Basis index k = (m + j)*(n_max+1) + n, m ascending.  With
    S^+-|j,m> = sqrt(j(j+1) - m(m+-1)) |j,m+-1> and the dipole exchange
    written as S^+ S^- - (N + 2 S^z)/2 (its ordered-pair sum), the elements
    are

        <m,n|H|m,n> = omega0 n + Omega m
                      + (lam/N) ((j+m)(j-m+1) - (N + 2m)/2),
        <m+1,n-1|H|m,n> = (g1/sqrt N) sqrt(j(j+1) - m(m+1)) sqrt(n),
        <m-1,n-1|H|m,n> = (g2/sqrt N) sqrt(j(j+1) - m(m-1)) sqrt(n),

    plus the transposes.  Loop-based on purpose, like rabi_hamiltonian.
    """
    spin_dim = int(round(2 * j)) + 1
    dim = spin_dim * (n_max + 1)
    c = 1.0 / math.sqrt(n_atoms)
    h = np.zeros((dim, dim))

    def index(m, n):
        return int(round(m + j)) * (n_max + 1) + n

    for s in range(spin_dim):
        m = s - j
        for n in range(n_max + 1):
            k = index(m, n)
            exchange = (j + m) * (j - m + 1) - 0.5 * (n_atoms + 2 * m)
            h[k, k] = omega0 * n + Omega * m + (lam / n_atoms) * exchange
            if n == 0:
                continue
            if m < j:  # g1: b S^+
                amp = g1 * c * math.sqrt(j * (j + 1) - m * (m + 1)) * math.sqrt(n)
                h[index(m + 1, n - 1), k] += amp
                h[k, index(m + 1, n - 1)] += amp
            if m > -j:  # g2: b S^-
                amp = g2 * c * math.sqrt(j * (j + 1) - m * (m - 1)) * math.sqrt(n)
                h[index(m - 1, n - 1), k] += amp
                h[k, index(m - 1, n - 1)] += amp
    return h
