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
from dataclasses import dataclass

from .errors import DomainError

# Beyond this magnitude, products like beta*Omega or (g1+g2)**2 start to lose
# the conditioning the solvers rely on.  Chosen far above any physical regime.
MAGNITUDE_CAP = 1e12

# The exact key set accepted in JSON parameter objects.
CONFIG_KEYS = ("omega0", "Omega", "g1", "g2", "lambda", "beta")


def _check_real(name, value, finite=True, positive=False):
    """value if it is a number (an int or float, not a bool), finite if finite, > 0 if positive."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or finite and not math.isfinite(value) or positive and not value > 0):
        kind = "positive finite number" if positive else "finite number" if finite else "number"
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
    for name in ("omega0", "Omega", "g1", "g2", "lam"):
        if abs(_check_real(name, getattr(params, name))) > MAGNITUDE_CAP:
            raise DomainError(f"{name} exceeds the magnitude cap {MAGNITUDE_CAP:g}")
    if params.omega0 <= 0:
        raise DomainError(f"omega0 must be strictly positive, got {params.omega0}")
    if params.Omega <= 0:
        raise DomainError(f"Omega must be strictly positive, got {params.Omega}")
    if params.g1 < 0:
        raise DomainError(f"g1 must be nonnegative, got {params.g1}")
    if params.g2 < 0:
        raise DomainError(f"g2 must be nonnegative, got {params.g2}")
    return params


def effective_coupling(params: ModelParams) -> EffectiveCoupling:
    """Return G = (g1 + g2)**2 - omega0*lam, exactly in that form.

    G depends on the couplings only through g1 + g2 and may be negative,
    which signals that no superradiant transition exists downstream.
    """
    return EffectiveCoupling((params.g1 + params.g2) ** 2 - params.omega0 * params.lam)


def _check_mapping_keys(mapping) -> None:
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise DomainError(f"unknown parameter key(s): {', '.join(unknown)}")
    for key, value in mapping.items():
        # float() below would take "1.0"; the records check the range
        _check_real(key, value, finite=False)


def params_from_mapping(mapping, require_beta: bool = False):
    """Build (ModelParams, Thermo | None) from a JSON-style mapping.

    The accepted key set is exactly ``omega0, Omega, g1, g2, lambda, beta``;
    any other key is rejected.  The five model parameters are required,
    ``beta`` only when ``require_beta`` is set.  The returned params are
    validated.
    """
    _check_mapping_keys(mapping)
    required = ["omega0", "Omega", "g1", "g2", "lambda"]
    if require_beta:
        required.append("beta")
    for key in required:
        if key not in mapping:
            raise DomainError(f"missing required parameter: {key}")
    params = ModelParams(
        omega0=float(mapping["omega0"]),
        Omega=float(mapping["Omega"]),
        g1=float(mapping["g1"]),
        g2=float(mapping["g2"]),
        lam=float(mapping["lambda"]),
    )
    thermo = Thermo(float(mapping["beta"])) if "beta" in mapping else None
    return params, thermo


def params_to_mapping(params: ModelParams, thermo: Thermo | None = None) -> dict:
    """Inverse of params_from_mapping; keys match the JSON interface."""
    mapping = {
        "omega0": params.omega0,
        "Omega": params.Omega,
        "g1": params.g1,
        "g2": params.g2,
        "lambda": params.lam,
    }
    if thermo is not None:
        mapping["beta"] = thermo.beta
    return mapping
