"""Thermodynamic-limit phase structure of the dipole-coupled Dicke model.

For N -> infinity the partition function is dominated by constant stationary
configurations of the rescaled boson amplitude b0 and of the auxiliary field
r0 that decouples the dipole exchange.  With

    G     = (g1 + g2)**2 - omega0*lam          (effective coupling, energy^2)
    Delta = (g1 + g2)*b0 - sqrt(lam)*r0        (condensate amplitude, energy)

the effective atomic gap is Omega_Delta = sqrt(Omega**2 + 4*Delta**2), and a
nonzero condensate must solve the gap equation

    tanh(beta*Omega_Delta/2) / Omega_Delta = omega0 / G.

The left side is strictly decreasing in Omega_Delta for Omega_Delta > 0, so
the superradiant root on [Omega, inf) is unique whenever it exists, i.e. when
G > 0 and tanh(beta*Omega/2)/Omega > omega0/G.  Setting b0 = 0 instead gives
the critical condition tanh(beta_c*Omega/2) = omega0*Omega/G, hence

    beta_c = (2/Omega) * artanh(omega0*Omega/G)        for 0 < omega0*Omega/G < 1

and no finite-temperature transition otherwise.  In the superradiant phase
the free energy per atom drops below the noninteracting reference by

    f_diff = omega0*(Omega_Delta**2 - Omega**2)/(4*G)
             - (1/beta)*ln( cosh(beta*Omega_Delta/2) / cosh(beta*Omega/2) ),

while f_diff = 0 in the normal phase.

Solutions are reported in the canonical gauge b0 >= 0, Delta >= 0 (the model
has a b -> -b symmetry combined with a spin phase flip).  For lam < 0 the
auxiliary stationary value sqrt(lam)*r0 is real even though r0 itself would
be imaginary; GapSolution.r0 then stores the sqrt(lam)-rescaled value
r0~ = Delta*omega0/G, and every residual involving r0 is evaluated through
the products sqrt(lam)*r0 = lam*r0~, which stay real.
"""

import math
import sys
from dataclasses import astuple, dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ModelParams, Thermo, _check_real, _coupling, effective_coupling

# Bisection relative tolerance on Omega_Delta.
GAP_RTOL = 1e-13

_LN2 = math.log(2.0)


class PhaseLabel(Enum):
    NORMAL = "normal"
    SUPERRADIANT = "superradiant"
    NO_FINITE_TRANSITION = "no_transition"


@dataclass(frozen=True)
class GapSolution:
    """Stationary-point data returned by :func:`solve_gap`.

    Attributes:
        omega_delta: effective gap; equals Omega in the normal phase.
        delta: condensate amplitude, sqrt(omega_delta**2 - Omega**2)/2.
        b0: boson order parameter (per-sqrt(N) rescaled), >= 0.
        r0: auxiliary-field stationary value; for lam < 0 this holds the
            sqrt(lam)-rescaled value r0~ (see module docstring).
        phase: NORMAL or SUPERRADIANT.
    """

    omega_delta: float
    delta: float
    b0: float
    r0: float
    phase: PhaseLabel


@dataclass(frozen=True)
class FreeEnergyResult:
    """Free energy per atom relative to the noninteracting model.

    f_diff is exactly 0.0 in the normal phase and strictly negative in the
    superradiant phase; f0 = -(1/beta)*ln(2*cosh(beta*Omega/2)) is the
    noninteracting per-atom reference (the boson contributes O(1/N) per atom
    in the thermodynamic limit and is dropped).
    """

    f_diff: float
    f0: float


class StationaryResiduals(NamedTuple):
    """Left-minus-right values of the four stationary equations plus the
    reduction identity sqrt(lam)*omega0*b0 = (g1 + g2)*r0."""

    eq_b: float
    eq_b_conj: float
    eq_aux: float
    eq_aux_conj: float
    reduction: float

    def max_abs(self) -> float:
        return max(abs(v) for v in self)


class CurvePoint(NamedTuple):
    beta: float
    b0: float
    omega_delta: float


def _critical_point(params: ModelParams) -> tuple[float | None, float | None]:
    """(ratio, beta_c): ratio = omega0*Omega/G, None where G = 0 and +-inf
    where it overflows a double, and beta_c as critical_inverse_temperature
    returns it.

    Both are formed from the frexp mantissas of omega0, Omega and G and
    scaled back exactly, so that neither omega0*Omega, nor 2/Omega, nor a
    ratio that underflows can spoil a result that fits in a double; where no
    intermediate underflows or overflows, the bits are those of the unscaled
    (2/Omega)*artanh(omega0*Omega/G).  A beta_c that overflows a double
    raises ConvergenceError.
    """
    G = effective_coupling(params).G
    if G == 0:
        return None, None
    (w0, a), (w, b), (g, c) = map(math.frexp, (params.omega0, params.Omega, G))
    q, e = math.frexp(w0 * w / g)
    e += a + b - c  # ratio == q * 2**e with 0.5 <= |q| < 1, so it overflows iff e > 1024
    ratio = math.ldexp(q, e) if e <= 1024 else math.copysign(math.inf, q)
    if G < 0 or ratio >= 1.0:
        return ratio, None
    # artanh(x) rounds to x below 2**-27, so a ratio below 2**-60 keeps its
    # scale, and one that would underflow still gives beta_c
    t, k = (math.atanh(ratio), 0) if e > -60 else (q, e)
    try:
        return ratio, math.ldexp((2.0 / w) * t, k - b)
    except OverflowError:
        raise ConvergenceError(f"beta_c = (2/Omega)*artanh(omega0*Omega/G) overflows a double "
                               f"(omega0={params.omega0}, Omega={params.Omega}, G={G})") from None


def critical_inverse_temperature(params: ModelParams) -> float | None:
    """Inverse critical temperature beta_c, or None if no finite transition.

    beta_c = (2/Omega)*artanh(omega0*Omega/G) whenever 0 < omega0*Omega/G < 1;
    for G <= 0 or omega0*Omega/G >= 1 the critical condition has no solution
    at any beta > 0 and None is returned (a normal outcome, not an error).
    The value is accurate wherever it fits in a double, even where
    omega0*Omega or 2/Omega does not; a beta_c that overflows raises
    ConvergenceError.
    """
    return _critical_point(params)[1]


def critical_coupling_zero_temperature(
    omega0: float, Omega: float, lam: float, ratio: float
) -> float:
    """Quantum-critical rotating coupling g1_c at T = 0, for fixed g2/g1.

    In the zero-temperature limit tanh -> 1 and the critical condition
    becomes (g1*(1 + ratio))**2 = omega0*(Omega + lam), so

        g1_c = sqrt(omega0*(Omega + lam)) / (1 + ratio).

    ``ratio`` is g2/g1 >= 0.  Raises DomainError when omega0*(Omega + lam)
    <= 0, i.e. lam <= -Omega, where no transition exists at any coupling.
    The product is formed from frexp mantissas, so it cannot underflow.
    """
    ModelParams(omega0=omega0, Omega=Omega, g1=0.0, g2=0.0, lam=lam)  # validates the three
    if _check_real("ratio g2/g1", ratio) < 0:
        raise DomainError(f"ratio g2/g1 must be finite and nonnegative, got {ratio!r}")
    if Omega + lam <= 0:
        raise DomainError(
            f"omega0*(Omega + lambda) = {omega0 * (Omega + lam)} is not positive; "
            "no zero-temperature transition exists"
        )
    (w0, a), (w, b), (d, c) = math.frexp(omega0), math.frexp(Omega + lam), math.frexp(1.0 + ratio)
    # sqrt(x * 4**n) == sqrt(x) * 2**n exactly: an odd exponent moves one 2 into x
    return math.ldexp(math.sqrt(math.ldexp(w0 * w, (a + b) % 2)) / d, (a + b) // 2 - c)


def _gap_kernel(omega0, Omega, g1, g2, lam, beta):
    """Solve the gap equation at every point of broadcast, validated inputs.

    Returns 1-d arrays (superradiant, omega_delta, delta, b0, r0) with the
    conventions of GapSolution.  The root of the strictly decreasing
    tanh(beta*x/2)/x = omega0/G on [Omega, inf) is bracketed by
    [Omega, 2*max(Omega, G/omega0)] (as tanh <= 1, the residual at the upper
    end is at most -omega0/(2G)), then bisected.  An upper end that
    overflows a double, or a superradiant b0, r0 or beta*omega_delta/2 that
    does, raises ConvergenceError with the flat index of the first such
    point as ``index``.
    """
    omega0, Omega, g1, g2, lam, beta = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (omega0, Omega, g1, g2, lam, beta))
    )
    G = _coupling(omega0, Omega, g1, g2, lam)
    safe_G = np.where(G > 0, G, 1.0)
    half_beta = 0.5 * beta

    def residual(x):
        return np.tanh(half_beta * x) / x - target

    def failure(mask, message):
        k = int(np.flatnonzero(mask)[0])
        exc = ConvergenceError(f"{message} (beta={beta[k]}, Omega={Omega[k]}, target={target[k]})")
        exc.index = k
        return exc

    # target overflows to inf for a subnormal G, which is the normal phase;
    # hi overflows to inf for a tiny or zero target, and is rejected; beta*x
    # may overflow to inf, where tanh is 1; b0, r0 and the beta*omega_delta/2
    # that f_diff needs may overflow, and are rejected below
    with np.errstate(divide="ignore", over="ignore"):
        target = omega0 / safe_G
        superradiant = (G > 0) & (_tanh_ratio(half_beta, Omega) > target)
        lo, hi = Omega, 2.0 * np.maximum(Omega, 1.0 / target)
        unbracketed = superradiant & ~np.isfinite(hi)
        if unbracketed.any():
            raise failure(
                unbracketed,
                "failed to bracket the gap equation root: the upper end "
                "2*max(Omega, G/omega0) overflows a double",
            )
        active = superradiant
        while (active := active & (hi - lo > GAP_RTOL * hi)).any():
            mid = 0.5 * (lo + hi)
            active &= (mid > lo) & (mid < hi)  # stop once the interval is two adjacent floats
            above = residual(mid) >= 0.0
            lo = np.where(active & above, mid, lo)
            hi = np.where(active & ~above, mid, hi)
        omega_delta = np.where(superradiant, 0.5 * (lo + hi), Omega)
        excess, e = _gap_excess(omega_delta, Omega)
        # delta, b0 and r0 are formed at the scale 2**-e and scaled back
        # exactly, so that an intermediate product cannot overflow a result
        # that fits in a double
        scaled_delta = 0.5 * np.sqrt(np.maximum(excess, 0.0))
        delta = np.ldexp(scaled_delta, e)
        b0 = np.ldexp((g1 + g2) * scaled_delta / safe_G, e)
        r0 = np.ldexp(np.sqrt(np.where(lam >= 0, lam, 1.0)) * scaled_delta * omega0 / safe_G, e)
        overflowed = superradiant & ~np.isfinite([b0, r0, half_beta * omega_delta]).all(axis=0)
    if overflowed.any():
        raise failure(overflowed, "the superradiant solution overflows a double")
    return superradiant, omega_delta, delta, b0, r0


def _tanh_ratio(half_beta, Omega):
    """tanh(half_beta*Omega)/Omega, the gap equation's left side at Omega.

    Where half_beta*Omega is below the smallest normal double it is
    half_beta: tanh(x)/Omega equals it to rounding there, while the product
    underflows or loses bits.  Every other point keeps its bits.
    """
    x = half_beta * Omega
    ratio = np.tanh(x) / Omega
    np.copyto(ratio, half_beta, where=x < sys.float_info.min)
    return ratio


def _gap_excess(omega_delta, Omega):
    """(excess, e) with omega_delta**2 - Omega**2 == excess * 4.0**e, squared
    after an exact scaling by 2**-e: it rounds as the unscaled difference
    does wherever that is finite, and a gap above ~1e154 cannot overflow."""
    e = np.frexp(omega_delta)[1]
    x, w = np.ldexp(omega_delta, -e), np.ldexp(Omega, -e)
    return x * x - w * w, e


def _free_energy_arrays(omega0, Omega, g1, g2, lam, beta, omega_delta, superradiant):
    """(f_diff, f0) at scalar or broadcast array inputs; f_diff = 0.0 off the mask.

    Squares are written as products, so that scalars and arrays round alike.
    """

    def ln_2cosh(x):
        return np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x)))

    ln_2cosh_x, ln_2cosh_omega = ln_2cosh(0.5 * beta * omega_delta), ln_2cosh(0.5 * beta * Omega)
    G = np.where(superradiant, _coupling(omega0, Omega, g1, g2, lam), 1.0)
    excess, e = _gap_excess(omega_delta, Omega)
    quad = np.ldexp(omega0 * excess / (4.0 * G), 2 * e)
    entropic = ((ln_2cosh_x - _LN2) - (ln_2cosh_omega - _LN2)) / beta
    return np.where(superradiant, quad - entropic, 0.0), -ln_2cosh_omega / beta


def solve_gap(params: ModelParams, thermo: Thermo) -> GapSolution:
    """Solve the stationary-point system at inverse temperature beta.

    Returns the normal solution (omega_delta = Omega, b0 = r0 = delta = 0)
    when G <= 0 or tanh(beta*Omega/2)/Omega <= omega0/G, and otherwise the
    unique superradiant solution with

        b0 = (g1 + g2)*Delta/G,    r0 = sqrt(lam)*Delta*omega0/G  (lam >= 0)

    where Delta = sqrt(Omega_Delta**2 - Omega**2)/2.  The exact phase
    boundary (equality) is classified normal, so b0 > 0 iff superradiant
    whenever g1 + g2 > 0.  For lam < 0, r0 carries the rescaled value
    Delta*omega0/G instead.

    Corner case: with g1 = g2 = 0 and lam < -Omega the gap equation still
    has a root (G = -omega0*lam > 0) describing pure transverse spin
    exchange ordering with b0 = 0; the boson is a spectator there and the
    ordered solution is reported with its lam-only observables.
    """
    superradiant, *values = _gap_kernel(*astuple(params), thermo.beta)
    phase = PhaseLabel.SUPERRADIANT if superradiant[0] else PhaseLabel.NORMAL
    return GapSolution(*(float(v[0]) for v in values), phase)


def stationary_residuals(
    params: ModelParams, thermo: Thermo, sol: GapSolution
) -> StationaryResiduals:
    """Evaluate the four stationary equations literally at (b0, r0).

    Each entry is left side minus right side under the real-solution
    convention (conjugation acts as the identity), plus the reduction
    identity as the fifth entry.  The effective gap entering the equations
    is recomputed from the fields through its definition
    Omega_Delta = sqrt(Omega**2 + 4*|Delta|**2), never taken from
    sol.omega_delta: that is what lets the residuals detect a perturbed
    (b0, r0) pair instead of vanishing identically along the b0 direction.

    For lam < 0 sol.r0 stores the rescaled r0~ with sqrt(lam)*r0 = lam*r0~,
    and the auxiliary-field entries are evaluated in the sqrt(lam)-divided
    form, which keeps every residual real.
    """
    b0, r0 = sol.b0, sol.r0
    g1, g2 = params.g1, params.g2
    if params.lam >= 0:
        root_lam = math.sqrt(params.lam)
        aux = root_lam * r0  # sqrt(lam)*conj(r0), real convention
    else:
        root_lam = None
        aux = params.lam * r0  # sqrt(lam)*r0 expressed through the rescaled r0~
    # d = g1*b0 + g2*conj(b0) - sqrt(lam)*conj(r0); d_conj swaps the conjugates
    d = g1 * b0 + g2 * b0 - aux
    d_conj = g1 * b0 + g2 * b0 - aux
    omega_delta = math.sqrt(params.Omega**2 + 4.0 * d * d_conj)
    t = math.tanh(0.5 * thermo.beta * omega_delta) / omega_delta
    eq_b = params.omega0 * b0 - (g1 * d + g2 * d_conj) * t
    eq_b_conj = params.omega0 * b0 - (g1 * d_conj + g2 * d) * t
    if root_lam is not None:
        eq_aux = r0 - root_lam * d_conj * t
        eq_aux_conj = r0 - root_lam * d * t
        reduction = root_lam * params.omega0 * b0 - (g1 * r0 + g2 * r0)
    else:
        # auxiliary equations and reduction divided through by sqrt(lam)
        eq_aux = r0 - d_conj * t
        eq_aux_conj = r0 - d * t
        reduction = params.omega0 * b0 - (g1 * r0 + g2 * r0)
    return StationaryResiduals(eq_b, eq_b_conj, eq_aux, eq_aux_conj, reduction)


def free_energy_diff(
    params: ModelParams, thermo: Thermo, sol: GapSolution
) -> FreeEnergyResult:
    """Per-atom free energy relative to the noninteracting reference.

    Normal phase: f_diff = 0 exactly.  Superradiant phase: the condensation
    formula from the module docstring, evaluated through ln cosh in log
    space so beta*Omega_Delta in the thousands cannot overflow.
    """
    f_diff, f0 = _free_energy_arrays(
        *astuple(params), thermo.beta, sol.omega_delta, sol.phase is PhaseLabel.SUPERRADIANT
    )
    return FreeEnergyResult(float(f_diff), float(f0))


def order_parameter_curve(params: ModelParams, beta_list) -> list[CurvePoint]:
    """solve_gap along a strictly increasing list of inverse temperatures.

    Returns one (beta, b0, omega_delta) point per entry; b0 is nondecreasing
    along the list.  Solver errors are re-raised with the offending index.
    """
    betas = list(beta_list)
    for i in range(1, len(betas)):
        if not betas[i] > betas[i - 1]:
            raise DomainError(
                f"beta_list must be strictly increasing; "
                f"beta_list[{i}]={betas[i]} after {betas[i - 1]}"
            )
    for i, beta in enumerate(betas):
        try:
            Thermo(beta)
        except DomainError as exc:
            raise DomainError(f"beta_list[{i}]={beta}: {exc}") from exc
    try:
        _, omega_delta, _, b0, _ = _gap_kernel(*astuple(params), betas)
    except ConvergenceError as exc:
        raise ConvergenceError(f"beta_list[{exc.index}]={betas[exc.index]}: {exc}") from exc
    return [CurvePoint(*point) for point in zip(betas, b0.tolist(), omega_delta.tolist())]
