"""Exception types shared across the package."""

import math


class SegnceError(Exception):
    """Base class for all structured errors raised by this package."""


class ShapeMismatchError(SegnceError, ValueError):
    """Array shapes are incompatible with the requested operation."""


class EmptyInputError(SegnceError, ValueError):
    """An operation received an empty input where at least one element is required."""


class GraphError(SegnceError, RuntimeError):
    """The compute graph cannot support the requested operation (e.g. non-scalar root)."""


class NumericalError(SegnceError, ArithmeticError):
    """A numerical evaluation produced NaN or Inf where finite values are required."""


class VocabularyError(SegnceError, ValueError):
    """A token or instruction is outside the known vocabulary."""


class CheckpointFormatError(SegnceError, ValueError):
    """A checkpoint file is malformed, truncated, or has an unsupported version."""


class DatasetFormatError(SegnceError, ValueError):
    """A dataset file is malformed or carries an unsupported version."""


def check_number(error: type, name: str, value, positive: bool = False) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is finite and >= 0
    (> 0 if ``positive``); a config's ``__post_init__`` calls this per field."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise error(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value!r}")


class TrainingDivergedError(SegnceError, RuntimeError):
    """Training produced a non-finite loss; carries the iteration where it happened."""

    def __init__(self, iteration: int, message: str):
        super().__init__(message)
        self.iteration = iteration
