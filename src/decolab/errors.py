"""Exception types shared across the package.

Every error raised on a violated contract derives from DecolabError so
callers (and the CLI) can distinguish usage problems from genuine bugs.
"""

from __future__ import annotations


class DecolabError(Exception):
    """Base class for all package-level errors."""


class EmptyInput(DecolabError, ValueError):
    """An amplitude list or state collection was empty."""


class ZeroVector(DecolabError, ValueError):
    """A vector with zero norm cannot be normalized into a state."""


class DimensionMismatch(DecolabError, ValueError):
    """Operands live in Hilbert spaces of different dimension."""


class NonHermitian(DecolabError, ValueError):
    """An operation that requires a Hermitian operator got a non-Hermitian one."""


class NonHermitianDeviation(NonHermitian):
    """Standard deviation was requested for a non-Hermitian operator."""


class PacketOutsideGrid(DecolabError, ValueError):
    """A Gaussian packet's support (center +/- 6 sigma) leaves the grid."""


class DerivativeUndefined(DecolabError, ValueError):
    """An observable's derivative could not be evaluated at the packet center."""


class EmptyTimes(DecolabError, ValueError):
    """A time series for an order-parameter trace was empty."""


class IndexOutOfRange(DecolabError, IndexError):
    """A pointer shift or branch index exceeds the available dimension."""


class NonlinearPotential(DecolabError, ValueError):
    """Closed-form packet evolution needs an at-most-linear potential."""


class TooManyParticles(DecolabError, ValueError):
    """Bose symmetrization is capped at 6 particles (n! branches)."""


class DegenerateSpectrum(DecolabError, ValueError):
    """A coupling operator with degenerate eigenvalues cannot label branches."""


class ConditionViolated(DecolabError, ValueError):
    """An exact precondition of the approximate Bell bound failed."""


class NonPositiveInput(DecolabError, ValueError):
    """Mass, temperature, spacing or trial count must be strictly positive."""


class InvalidParameter(DecolabError, ValueError):
    """A count, sign, interval or normalization lies outside what a model supports."""


class TMaxBeforeCritical(UserWarning):
    """Requested readout time precedes the critical (collapse) time."""


class ConfigError(DecolabError):
    """Base class for CLI/config-file parsing failures (exit code 2)."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{message} (key: {key})")


class UnknownKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(key, "unknown configuration key")


class TypeMismatch(ConfigError):
    def __init__(self, key: str, expected: str, got: str):
        super().__init__(key, f"expected {expected}, got {got!r}")


class MissingRequired(ConfigError):
    def __init__(self, key: str):
        super().__init__(key, "missing required configuration key")
