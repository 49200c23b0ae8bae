"""Exception hierarchy shared across the package.

Every qchain-specific failure derives from :class:`QchainError` so callers can
catch the whole family with one clause.  Errors that signal a bad *argument*
additionally derive from :class:`ValueError`, matching how the library reports
plain shape/positivity violations.  The network route defines no error of its
own: it states the one chain it solves, and an exactly singular port solve
would surface as numpy's ``LinAlgError``, itself a :class:`ValueError`.
"""

from __future__ import annotations


class QchainError(Exception):
    """Base class for all qchain-specific failures."""


class ConstructionInconsistencyError(QchainError, ValueError):
    """A built object fails one of its own defining identities.

    Carries the offending residual so callers can report how badly the
    identity was violated.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IntegratorAccuracyError(QchainError):
    """A simulated trajectory violated a conservation law beyond tolerance."""

    def __init__(self, message: str, drift: float | None = None):
        super().__init__(message)
        self.drift = drift


class ConfigError(QchainError, ValueError):
    """An experiment configuration is malformed; ``path`` names the bad field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
