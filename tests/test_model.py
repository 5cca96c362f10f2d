"""Parameter validation, the effective coupling, and the JSON interface."""

import dataclasses
import math

import numpy as np
import pytest

from dicke_dipole import (
    DomainError,
    ModelParams,
    Thermo,
    effective_coupling,
    params_from_mapping,
    params_to_mapping,
    validate,
)


def test_validate_accepts_standard_point():
    p = ModelParams(1.0, 1.0, 0.6, 0.6, 0.0)
    assert validate(p) is p


def test_validate_rejects_zero_omega0_naming_field():
    with pytest.raises(DomainError, match="omega0"):
        validate(ModelParams(0.0, 1.0, 0.0, 0.0, 0.0))


def test_params_validate_at_construction():
    with pytest.raises(DomainError, match="omega0"):
        ModelParams(0.0, 1, 0, 0, 0)
    # a copy with a changed field is a new construction, and is checked too
    with pytest.raises(DomainError, match="g2"):
        dataclasses.replace(ModelParams(1.0, 1.0, 0.1, 0.1, 0.0), g2=-0.1)


def test_bool_is_not_a_number():
    fields = ("omega0", "Omega", "g1", "g2", "lam")
    for i, name in enumerate(fields):
        values = [1.0, 1.0, 0.1, 0.1, 0.0]
        values[i] = True
        with pytest.raises(DomainError, match=f"^{name} must be a finite number"):
            ModelParams(*values)


def test_validate_accepts_negative_lambda():
    p = ModelParams(1.0, 1.0, 1.0, 1.0, -0.5)
    assert validate(p) is p


def test_validate_rejects_negative_couplings():
    with pytest.raises(DomainError, match="g1"):
        validate(ModelParams(1.0, 1.0, -0.1, 0.0, 0.0))
    with pytest.raises(DomainError, match="g2"):
        validate(ModelParams(1.0, 1.0, 0.0, -0.1, 0.0))


def test_validate_rejects_nonfinite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="lam"):
            validate(ModelParams(1.0, 1.0, 0.1, 0.1, bad))
    with pytest.raises(DomainError, match="Omega"):
        validate(ModelParams(1.0, math.nan, 0.1, 0.1, 0.0))


def test_validate_enforces_magnitude_cap():
    with pytest.raises(DomainError, match="omega0"):
        validate(ModelParams(1e13, 1.0, 0.0, 0.0, 0.0))
    validate(ModelParams(1e11, 1.0, 0.0, 0.0, 0.0))


def test_thermo_rejects_bad_beta():
    for bad in (0.0, -1.0, math.nan, math.inf, 1e13, True):
        with pytest.raises(DomainError, match="beta"):
            Thermo(bad)
    assert Thermo(2.5).beta == 2.5


def test_effective_coupling_examples():
    assert effective_coupling(ModelParams(1, 1, 0.6, 0.6, 0.0)).G == pytest.approx(1.44, abs=1e-14)
    assert effective_coupling(ModelParams(1, 1, 0.6, 0.6, 0.4)).G == pytest.approx(1.04, abs=1e-14)
    # negative G is allowed and signals no superradiance downstream
    assert effective_coupling(ModelParams(2, 1, 1.0, 0.0, 1.0)).G == -1.0


def test_effective_coupling_is_symmetric_in_g1_g2():
    rng = np.random.default_rng(7)
    for _ in range(200):
        omega0, Omega = rng.uniform(0.1, 3.0, size=2)
        g1, g2 = rng.uniform(0.0, 2.0, size=2)
        lam = rng.uniform(-1.0, 1.0)
        a = effective_coupling(ModelParams(omega0, Omega, g1, g2, lam)).G
        b = effective_coupling(ModelParams(omega0, Omega, g2, g1, lam)).G
        assert a == b


def test_effective_coupling_energy_rescaling():
    # Multiplying every energy parameter by s (g linearly, being an energy)
    # multiplies G, an energy squared, by s**2.
    rng = np.random.default_rng(11)
    for s in (0.1, 7.3):
        for _ in range(50):
            omega0, Omega = rng.uniform(0.1, 3.0, size=2)
            g1, g2 = rng.uniform(0.0, 2.0, size=2)
            lam = rng.uniform(-1.0, 1.0)
            base = effective_coupling(ModelParams(omega0, Omega, g1, g2, lam)).G
            scaled = effective_coupling(
                ModelParams(s * omega0, s * Omega, s * g1, s * g2, s * lam)
            ).G
            assert scaled == pytest.approx(s * s * base, rel=1e-12)


def test_mapping_round_trip():
    params = ModelParams(1.5, 0.8, 0.3, 0.7, -0.2)
    thermo = Thermo(3.25)
    mapping = params_to_mapping(params, thermo)
    assert set(mapping) == {"omega0", "Omega", "g1", "g2", "lambda", "beta"}
    back, thermo_back = params_from_mapping(mapping, require_beta=True)
    assert back == params
    assert thermo_back == thermo


def test_mapping_rejects_unknown_keys():
    mapping = params_to_mapping(ModelParams(1, 1, 0.1, 0.1, 0.0))
    mapping["extra"] = 1.0
    with pytest.raises(DomainError, match="extra"):
        params_from_mapping(mapping)


def test_mapping_rejects_non_numeric_values():
    for bad in (True, "1.0", None):
        mapping = params_to_mapping(ModelParams(1, 1, 0.1, 0.1, 0.0))
        mapping["g1"] = bad
        with pytest.raises(DomainError, match="g1"):
            params_from_mapping(mapping)


def test_mapping_beta_handling():
    mapping = params_to_mapping(ModelParams(1, 1, 0.1, 0.1, 0.0))
    params, thermo = params_from_mapping(mapping)
    assert thermo is None and params.g1 == 0.1
    with pytest.raises(DomainError, match="beta"):
        params_from_mapping(mapping, require_beta=True)
    with pytest.raises(DomainError, match="g2"):
        params_from_mapping({"omega0": 1.0, "Omega": 1.0, "g1": 0.1, "lambda": 0.0})
