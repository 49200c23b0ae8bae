"""Exception hierarchy shared across the package.

Every qchain-specific failure derives from :class:`QchainError` so callers can
catch the whole family with one clause.  Errors that signal a bad *argument*
additionally derive from :class:`ValueError`, matching how the library reports
plain shape/positivity violations.
"""

from __future__ import annotations


class QchainError(Exception):
    """Base class for all qchain-specific failures."""


class RealizabilityError(QchainError, ValueError):
    """The dynamics are not generated by any symmetric Hamiltonian.

    Raised when recovering a Hamiltonian from a drift matrix leaves an
    asymmetric remainder beyond tolerance, i.e. the flow cannot preserve
    canonical commutation relations.
    """

    def __init__(self, message: str, asymmetry: float | None = None):
        super().__init__(message)
        self.asymmetry = asymmetry


class UnknownPortError(QchainError, ValueError):
    """An interconnection references a field port no subsystem exposes."""


class AlgebraicLoopError(QchainError, ValueError):
    """The interconnection equations are singular; a feedback loop is ill-posed."""


class ConstructionInconsistencyError(QchainError, ValueError):
    """A built object fails one of its own defining identities.

    Carries the offending residual so callers can report how badly the
    identity was violated.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ReadoutOrientationError(QchainError, ValueError):
    """A consensus readout row does not reproduce the plant observable with unit gain."""


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
