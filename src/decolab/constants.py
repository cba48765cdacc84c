"""Physical constants used throughout the package.

All SI values come from the CODATA 2018 adjustment and are frozen here under
the CONSTANTS_VERSION tag, which emitted provenance records echo to pin the
exact numbers a run used.  The textbook scenarios can also be driven with
the round order-of-magnitude values quoted in the literature (mu_B ~ 1e-23
J/T, m ~ 1e-25 kg); those live in PAPER_ROUND and are switched on by the CLI
flag --paper-constants.
"""

from __future__ import annotations

CONSTANTS_VERSION = "codata-2018"

HBAR = 1.0545718e-34  # J s
PLANCK_H = 6.62607015e-34  # J s
K_B = 1.380649e-23  # J/K
MU_B = 9.2740100783e-24  # J/T

# Round values used in back-of-the-envelope estimates, keyed like the
# sterngerlach CLI keys whose defaults --paper-constants replaces.
PAPER_ROUND = {
    "mu-b": 1.0e-23,  # J/T
    "mass": 1.0e-25,  # kg (generic heavy-atom scale)
}

# Silver atom, the classic beam-splitting test mass.
MASS_SILVER = 1.79e-25  # kg
# Rubidium-87, the classic condensation test mass.
MASS_RB87 = 1.443e-25  # kg
