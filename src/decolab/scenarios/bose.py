"""Thermal de Broglie overlap criterion for identical-particle condensation.

At temperature T a particle of mass m carries the characteristic thermal
momentum sqrt(m k_B T) and wavelength lambda = h / sqrt(m k_B T).  Packets on
a lattice of spacing d stop being separable once lambda reaches d, which
happens below

    T_c = h^2 / (m k_B d^2).

Temperatures strictly below T_c classify as "condensed" (overlapping,
symmetrization-dominated); T >= T_c, the boundary included, classifies as
"separated".  A T_c or wavelength that leaves the range of a double (zero,
infinite, or an overflow on the way) raises InvalidParameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import K_B, PLANCK_H
from ..errors import InvalidParameter

CONDENSED = "condensed"
SEPARATED = "separated"


@dataclass(frozen=True)
class BoseConfig:
    mass: float  # kg
    spacing: float  # m, inter-particle distance
    temperatures: tuple  # K

    def __post_init__(self):
        if not (self.mass > 0 and self.spacing > 0):
            raise InvalidParameter("mass and spacing must be positive")
        temps = tuple(float(t) for t in self.temperatures)
        if not all(t > 0 for t in temps):
            raise InvalidParameter("temperatures must be positive")
        object.__setattr__(self, "temperatures", temps)


@dataclass(frozen=True)
class BoseResult:
    t_c: float
    wavelengths: tuple
    phases: tuple


def _in_range(compute, quantity: str) -> float:
    """compute(), which must be positive and finite; an overflow raises InvalidParameter."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0.0 < value < math.inf:
        raise InvalidParameter(f"{quantity} overflows the range of a double")
    return value


def thermal_de_broglie(mass: float, temperature: float) -> float:
    """lambda = h / sqrt(m k_B T)."""
    if not (mass > 0 and temperature > 0):
        raise InvalidParameter("mass and temperature must be positive")
    return _in_range(
        lambda: PLANCK_H / math.sqrt(mass * K_B * temperature),
        f"thermal wavelength at mass {mass!r} kg, T {temperature!r} K",
    )


def bose_critical_temperature(config: BoseConfig) -> BoseResult:
    """T_c = h^2 / (m k_B d^2), plus a phase label per requested temperature.

    The classification is exactly the wavelength crossover: lambda(T) > d iff
    T < T_c, so the boundary T = T_c (lambda = d) lands on "separated".
    """
    t_c = _in_range(
        lambda: PLANCK_H**2 / (config.mass * K_B * config.spacing**2),
        f"T_c at mass {config.mass!r} kg, spacing {config.spacing!r} m",
    )
    wavelengths = tuple(thermal_de_broglie(config.mass, t) for t in config.temperatures)
    phases = tuple(CONDENSED if t < t_c else SEPARATED for t in config.temperatures)
    return BoseResult(t_c=t_c, wavelengths=wavelengths, phases=phases)
