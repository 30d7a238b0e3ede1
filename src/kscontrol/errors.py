"""Exception types shared across the solver stack.

Every failure mode that user input can trigger maps onto one of these, so
the command line layer can translate them into exit codes without string
matching.  Each parameter type states the rules for its own fields and
raises `InvalidValue` naming the rejected constructor argument; the command
line maps that name to its configuration key and reports a `ConfigError`.
"""

from __future__ import annotations


class KSControlError(Exception):
    """Base class for all package errors."""


class InvalidValue(KSControlError, ValueError):
    """A constructor argument breaks its type's rule; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def require(ok: bool, field: str, message: str) -> None:
    """Raise `InvalidValue` for ``field`` unless ``ok``."""
    if not ok:
        raise InvalidValue(field, message)


class GridMismatchError(KSControlError):
    """Two fields (or a field and a mask) live on different grids."""


class LinearSolverError(KSControlError):
    """An inner linear solve did not reach its residual target.

    Carries the achieved relative residual so callers can report how far
    off the solve was.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


class PicardDivergenceError(KSControlError):
    """A per-step fixed-point iteration stalled at its sweep cap or diverged.

    ``last_increment`` is the final relative increment, ``time_index`` the
    step at which the iteration gave up.
    """

    def __init__(self, message: str, last_increment: float, time_index: int):
        super().__init__(message)
        self.last_increment = last_increment
        self.time_index = time_index


class StepConditioningError(KSControlError):
    """A time step is too large for an implicit system to stay definite."""


class ConfigError(KSControlError):
    """Invalid run configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class SnapshotFormatError(KSControlError):
    """A snapshot file is not readable as the documented binary format."""
