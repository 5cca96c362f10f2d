"""Parameter records for the full Dicke model with dipole-dipole interaction.

The model couples N two-level atoms (splitting Omega) to a single boson mode
(frequency omega0) through independent rotating (g1) and counter-rotating (g2)
terms, and adds an all-to-all atomic exchange of strength lam.  Everything is
expressed in natural units hbar = k_B = 1, so each parameter is an energy and
beta is an inverse energy.  No unit conversion is performed anywhere.

All downstream phase structure enters through the single derived combination

    G = (g1 + g2)**2 - omega0*lam

which has units of energy squared and may be negative (no superradiance).
The closed forms that are functions of G alone live here too: the critical
inverse temperature beta_c and the zero-temperature critical coupling g1_c
(derived in the meanfield module's docstring).  This module imports no
NumPy, so the commands that need only these start without it.
"""

import math
from dataclasses import astuple, dataclass, fields
from enum import Enum

from .errors import ConvergenceError, DomainError

# Beyond this magnitude, products like beta*Omega or (g1+g2)**2 start to lose
# the conditioning the solvers rely on.  Chosen far above any physical regime.
MAGNITUDE_CAP = 1e12

# The parameter names of JSON objects, CLI flags and grid axes: ModelParams'
# fields in order, lam written as lambda, then beta.
CONFIG_KEYS = ("omega0", "Omega", "g1", "g2", "lambda", "beta")

# the least int whose float() overflows: it rounds up to 2**1024
_INT_OVERFLOW = 2**1024 - 2**970
_SMALLEST_DOUBLE = math.ulp(0.0)  # 2**-1074


def _check_real(name, value, finite=True, positive=False):
    """value if it is a number (an int or float, not a bool), finite if finite, > 0 if positive.

    An int too large for a double is refused as not finite even when finite
    is False, since callers convert the value with float().
    """
    huge = isinstance(value, int) and abs(value) >= _INT_OVERFLOW
    if (isinstance(value, bool) or not isinstance(value, (int, float)) or huge
            or finite and not math.isfinite(value) or positive and not value > 0):
        kind = ("positive finite number" if positive else
                "finite number" if finite or huge else "number")
        raise DomainError(f"{name} must be a {kind}, got {value!r}")
    return value


def _check_count(name, value, lo=1, hi=None):
    """value if it is an int (not a bool) in [lo, hi], or >= lo when hi is None."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < lo or hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """The five couplings of the dipole-coupled Dicke Hamiltonian.

    Attributes:
        omega0: boson mode frequency, > 0.
        Omega: two-level splitting, > 0.
        g1: rotating (resonant) coupling, >= 0.
        g2: counter-rotating (anti-resonant) coupling, >= 0.
        lam: dipole-dipole exchange strength; any finite real value.  The
            formulas remain well defined for lam < 0, but that regime is an
            extrapolation past where the underlying derivation was developed;
            results there should be treated accordingly.

    Construction runs :func:`validate`, so every instance lies in the
    domain; an invalid field raises DomainError naming it.
    """

    omega0: float
    Omega: float
    g1: float
    g2: float
    lam: float

    def __post_init__(self):
        validate(self)


@dataclass(frozen=True)
class Thermo:
    """Thermal state descriptor: inverse temperature beta = 1/T > 0.

    Zero temperature is never represented as beta = inf; the analytic
    zero-temperature limit lives in
    :func:`critical_coupling_zero_temperature`.
    """

    beta: float

    def __post_init__(self):
        if _check_real("beta", self.beta, positive=True) > MAGNITUDE_CAP:
            raise DomainError(f"beta exceeds the magnitude cap {MAGNITUDE_CAP:g}")


@dataclass(frozen=True)
class EffectiveCoupling:
    """Cached value of G = (g1 + g2)**2 - omega0*lam (energy squared).

    Always recomputed from a ModelParams by :func:`effective_coupling`;
    never mutated independently.
    """

    G: float


def validate(params: ModelParams) -> ModelParams:
    """Check all ModelParams invariants, returning the params unchanged;
    every ModelParams runs it on construction.

    Raises DomainError naming the offending field otherwise.  Negative g1/g2
    are rejected because a sign flip of either coupling is a unitary spin
    phase redefinition; restricting to g >= 0 removes redundant parameter
    space.  lam may take either sign.
    """
    for field in fields(params):
        if abs(_check_real(field.name, getattr(params, field.name))) > MAGNITUDE_CAP:
            raise DomainError(f"{field.name} exceeds the magnitude cap {MAGNITUDE_CAP:g}")
    if params.omega0 <= 0:
        raise DomainError(f"omega0 must be strictly positive, got {params.omega0}")
    if params.Omega <= 0:
        raise DomainError(f"Omega must be strictly positive, got {params.Omega}")
    if params.g1 < 0:
        raise DomainError(f"g1 must be nonnegative, got {params.g1}")
    if params.g2 < 0:
        raise DomainError(f"g2 must be nonnegative, got {params.g2}")
    return params


def _any(flags) -> bool:
    """Whether a bool, or any element of a NumPy bool array, is set."""
    return bool(flags.any()) if hasattr(flags, "any") else flags


def _coupling(omega0, Omega, g1, g2, lam):
    """G = (g1 + g2)*(g1 + g2) - omega0*lam, for floats and NumPy arrays alike:
    the one formula of G, so that the closed forms and the gap kernel always
    see the same value.

    DomainError where g1 + g2 > 0 but its square underflows to 0 (g1 + g2
    below about 1.5e-162) and omega0*Omega is below the smallest positive
    double: there G would read as no coupling, although a G that small gives
    a transition (one exists iff G > omega0*Omega).  Where omega0*Omega is
    not that small, no G below the smallest double gives one, and G = 0
    gives the same normal phase.
    """
    total = g1 + g2
    square = total * total
    lost = (total > 0) & (square == 0)
    if _any(lost) and _any(lost & (omega0 * Omega < _SMALLEST_DOUBLE)):
        raise DomainError("G = (g1 + g2)**2 - omega0*lambda cannot be formed: (g1 + g2)**2 "
                          "underflows to 0 although g1 + g2 > 0 and omega0*Omega is smaller still")
    return square - omega0 * lam


def effective_coupling(params: ModelParams) -> EffectiveCoupling:
    """Return G = (g1 + g2)**2 - omega0*lam, exactly in that form.

    G depends on the couplings only through g1 + g2 and may be negative,
    which signals that no superradiant transition exists downstream.
    DomainError where (g1 + g2)**2 underflows to 0 although a transition
    could hang on it (see _coupling).
    """
    return EffectiveCoupling(_coupling(*astuple(params)))


class PhaseLabel(Enum):
    NORMAL = "normal"
    SUPERRADIANT = "superradiant"
    NO_FINITE_TRANSITION = "no_transition"


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


def _check_mapping_keys(mapping) -> None:
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise DomainError(f"unknown parameter key(s): {', '.join(unknown)}")
    for key, value in mapping.items():
        # float() below would take "1.0"; the records check the range
        _check_real(key, value, finite=False)


def params_from_mapping(mapping, require_beta: bool = False):
    """Build (ModelParams, Thermo | None) from a JSON-style mapping.

    The accepted key set is exactly CONFIG_KEYS; any other key is rejected.
    The five model parameters are required, ``beta`` only when
    ``require_beta`` is set, and the first missing key in CONFIG_KEYS order
    is reported.  The returned params are validated.
    """
    _check_mapping_keys(mapping)
    for key in CONFIG_KEYS if require_beta else CONFIG_KEYS[:-1]:
        if key not in mapping:
            raise DomainError(f"missing required parameter: {key}")
    params = ModelParams(*(float(mapping[key]) for key in CONFIG_KEYS[:-1]))
    thermo = Thermo(float(mapping["beta"])) if "beta" in mapping else None
    return params, thermo


def params_to_mapping(params: ModelParams, thermo: Thermo | None = None) -> dict:
    """Inverse of params_from_mapping; keys match the JSON interface."""
    values = astuple(params) if thermo is None else (*astuple(params), thermo.beta)
    return dict(zip(CONFIG_KEYS, values))
