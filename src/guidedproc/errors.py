"""Semantic exceptions raised by the library."""

__all__ = [
    "GuidedProcError",
    "DegenerateContaminationError",
    "InfeasibleBandError",
    "InfeasibleBudgetError",
    "ModelFormatError",
    "WorkSizeError",
]


class GuidedProcError(Exception):
    """Base class for every error raised intentionally by this package."""


class DegenerateContaminationError(GuidedProcError, ValueError):
    """Contamination level of 1 leaves no nominal mass to work with."""


class InfeasibleBandError(GuidedProcError, ArithmeticError):
    """No ratio band satisfies both normalization constraints."""


class InfeasibleBudgetError(GuidedProcError, ValueError):
    """Energy budget outside the range any policy can achieve."""


class ModelFormatError(GuidedProcError, ValueError):
    """A model file or inline model description failed validation."""


class WorkSizeError(GuidedProcError, MemoryError):
    """The arrays a computation needs exceed the package's memory budget."""
