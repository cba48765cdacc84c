"""Exception types shared across the package.

One class per exit code of the CLI:

- ConfigError: a flag or config-file value the parser rejects (exit 2).
- InvalidParameter: any other violated contract, from an empty amplitude
  list to a packet the grid cannot resolve (exit 1).

Both derive from DecolabError, which the CLI also maps to exit 1.  The
message, not the type, names the cause.
"""

from __future__ import annotations


class DecolabError(Exception):
    """Base class for all package-level errors."""


class InvalidParameter(DecolabError, ValueError):
    """An input violates a documented contract of the model or scenario."""


class TMaxBeforeCritical(UserWarning):
    """Requested readout time precedes the critical (collapse) time."""


class ConfigError(DecolabError):
    """A CLI flag or config-file line failed to parse (exit code 2)."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{message} (key: {key})")
