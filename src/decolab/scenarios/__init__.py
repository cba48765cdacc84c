"""Worked measurement scenarios built on the core modules."""

from .bell import (
    BellReport,
    audited_configuration,
    bell_evaluate,
    chsh_optimal_observables,
    singlet_state,
    spin_observable,
)
from .bose import BoseConfig, BoseResult, bose_critical_temperature, thermal_de_broglie
from .sterngerlach import (
    SGConfig,
    SGRunResult,
    sg_correlated_state,
    sg_critical_time,
    sg_hamiltonian,
    sg_run,
)

__all__ = [
    "BellReport",
    "BoseConfig",
    "BoseResult",
    "SGConfig",
    "SGRunResult",
    "audited_configuration",
    "bell_evaluate",
    "bose_critical_temperature",
    "chsh_optimal_observables",
    "sg_correlated_state",
    "sg_critical_time",
    "sg_hamiltonian",
    "sg_run",
    "singlet_state",
    "spin_observable",
    "thermal_de_broglie",
]
