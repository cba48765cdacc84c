"""Thermal de Broglie wavelength and the condensation threshold classifier."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decolab.constants import MASS_RB87
from decolab.errors import InvalidParameter
from decolab.scenarios.bose import (
    CONDENSED,
    SEPARATED,
    BoseConfig,
    bose_critical_temperature,
    thermal_de_broglie,
)

RB87_SPACING = 2e-7
FORMULA_RTOL = 1e-12


# ------------------------------------------------------------- wavelength


def test_wavelength_direct_formula():
    lam = thermal_de_broglie(MASS_RB87, 1e-6)
    hand = 6.62607015e-34 / math.sqrt(1.443e-25 * 1.380649e-23 * 1e-6)
    assert math.isclose(lam, hand, rel_tol=FORMULA_RTOL)
    assert math.isclose(lam, 4.7e-7, rel_tol=0.01)


def test_wavelength_scaling_with_temperature():
    lam1 = thermal_de_broglie(MASS_RB87, 2e-6)
    lam2 = thermal_de_broglie(MASS_RB87, 1e-6)
    assert math.isclose(lam2 / lam1, math.sqrt(2.0), rel_tol=FORMULA_RTOL)


def test_wavelength_strictly_decreasing_over_six_decades():
    temps = np.logspace(-9, -3, 61)
    lams = [thermal_de_broglie(MASS_RB87, float(t)) for t in temps]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_wavelength_rejects_nonpositive_inputs():
    with pytest.raises(InvalidParameter, match="mass and temperature must be positive"):
        thermal_de_broglie(MASS_RB87, 0.0)
    with pytest.raises(InvalidParameter, match="mass and temperature must be positive"):
        thermal_de_broglie(-1e-25, 1e-6)
    with pytest.raises(InvalidParameter, match="mass and temperature must be positive"):
        thermal_de_broglie(MASS_RB87, math.nan)
    with pytest.raises(InvalidParameter, match="mass and temperature must be positive"):
        thermal_de_broglie(math.nan, 1e-6)


def test_wavelength_out_of_double_range_is_invalid():
    # m k_B T underflows to 0 (division by zero) or overflows to inf (lambda = 0)
    for mass, temperature in ((1e-30, 1e-300), (1e300, 1e300)):
        with pytest.raises(InvalidParameter, match="overflows"):
            thermal_de_broglie(mass, temperature)


# ---------------------------------------------------------------- threshold


def test_critical_temperature_rubidium_headline_value():
    cfg = BoseConfig(mass=MASS_RB87, spacing=RB87_SPACING, temperatures=(1e-6,))
    result = bose_critical_temperature(cfg)
    hand = (6.62607015e-34) ** 2 / (1.443e-25 * 1.380649e-23 * 4e-14)
    assert math.isclose(result.t_c, hand, rel_tol=FORMULA_RTOL)
    assert math.isclose(result.t_c, 5.5e-6, rel_tol=0.01)


def test_critical_temperature_inverse_square_spacing():
    t_c = lambda d: bose_critical_temperature(
        BoseConfig(mass=MASS_RB87, spacing=d, temperatures=(1e-6,))
    ).t_c
    assert math.isclose(t_c(1e-7), 4.0 * t_c(2e-7), rel_tol=FORMULA_RTOL)


def test_wavelength_equals_spacing_at_critical_temperature():
    cfg = BoseConfig(mass=MASS_RB87, spacing=RB87_SPACING, temperatures=(1e-6,))
    t_c = bose_critical_temperature(cfg).t_c
    assert math.isclose(thermal_de_broglie(MASS_RB87, t_c), RB87_SPACING, rel_tol=1e-12)


def test_boundary_temperature_is_separated():
    cfg = BoseConfig(mass=MASS_RB87, spacing=RB87_SPACING, temperatures=(1e-6,))
    t_c = bose_critical_temperature(cfg).t_c
    probe = BoseConfig(
        mass=MASS_RB87,
        spacing=RB87_SPACING,
        temperatures=(t_c * (1.0 - 1e-9), t_c, t_c * (1.0 + 1e-9)),
    )
    phases = bose_critical_temperature(probe).phases
    assert phases == (CONDENSED, SEPARATED, SEPARATED)


def test_classification_crossover_is_exact_and_monotone():
    cfg = BoseConfig(mass=MASS_RB87, spacing=RB87_SPACING, temperatures=(1e-6,))
    t_c = bose_critical_temperature(cfg).t_c
    temps = tuple(np.logspace(math.log10(t_c) - 3, math.log10(t_c) + 3, 25))
    result = bose_critical_temperature(
        BoseConfig(mass=MASS_RB87, spacing=RB87_SPACING, temperatures=temps)
    )
    condensed = [t for t, p in zip(temps, result.phases) if p == CONDENSED]
    separated = [t for t, p in zip(temps, result.phases) if p == SEPARATED]
    assert condensed and separated
    assert max(condensed) < min(separated)
    assert all(t < t_c for t in condensed)
    assert all(t >= t_c for t in separated)


@seed(16)
@settings(max_examples=60, deadline=None)
@given(
    log_t=st.floats(min_value=-9.0, max_value=-3.0),
    log_d=st.floats(min_value=-8.0, max_value=-6.0),
)
def test_phase_agrees_with_wavelength_comparison(log_t, log_d):
    t, d = 10.0**log_t, 10.0**log_d
    result = bose_critical_temperature(
        BoseConfig(mass=MASS_RB87, spacing=d, temperatures=(t,))
    )
    lam = thermal_de_broglie(MASS_RB87, t)
    expected = CONDENSED if lam > d else SEPARATED
    assert result.phases[0] == expected


def test_config_validation():
    with pytest.raises(InvalidParameter, match="mass and spacing must be positive"):
        BoseConfig(mass=MASS_RB87, spacing=0.0, temperatures=(1e-6,))
    with pytest.raises(InvalidParameter, match="temperatures must be positive"):
        BoseConfig(mass=MASS_RB87, spacing=1e-7, temperatures=(1e-6, -1e-6))
    for bad, cause in (
        ({"mass": math.nan}, "mass and spacing"),
        ({"spacing": math.nan}, "mass and spacing"),
        ({"temperatures": (1e-6, math.nan)}, "temperatures"),
    ):
        fields = {"mass": MASS_RB87, "spacing": 1e-7, "temperatures": (1e-6,), **bad}
        with pytest.raises(InvalidParameter, match=f"{cause} must be positive"):
            BoseConfig(**fields)


def test_critical_temperature_out_of_double_range_is_invalid():
    # d**2 overflows, m k_B d^2 underflows to 0, and T_c underflows to 0
    for mass, spacing in ((MASS_RB87, 1e300), (1e-300, RB87_SPACING), (1e300, 1e100)):
        config = BoseConfig(mass=mass, spacing=spacing, temperatures=(1e-6,))
        with pytest.raises(InvalidParameter, match="overflows"):
            bose_critical_temperature(config)
