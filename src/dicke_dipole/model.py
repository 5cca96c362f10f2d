"""Parameter records for the full Dicke model with dipole-dipole interaction.

The model couples N two-level atoms (splitting Omega) to a single boson mode
(frequency omega0) through independent rotating (g1) and counter-rotating (g2)
terms, and adds an all-to-all atomic exchange of strength lam.  Everything is
expressed in natural units hbar = k_B = 1, so each parameter is an energy and
beta is an inverse energy.  No unit conversion is performed anywhere.

All downstream phase structure enters through the single derived combination

    G = (g1 + g2)**2 - omega0*lam

which has units of energy squared and may be negative (no superradiance).
"""

import math
from dataclasses import astuple, dataclass, fields

from .errors import DomainError

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
    :func:`dicke_dipole.meanfield.critical_coupling_zero_temperature`.
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
