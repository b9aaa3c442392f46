"""Semantic exception hierarchy for the selection-games library."""


class SelectionGamesError(Exception):
    """Base class for all library errors."""


class SpecValidationError(SelectionGamesError, ValueError):
    """A distribution spec or argument failed validation."""


class UnsupportedDistributionError(SelectionGamesError, ValueError):
    """The requested computation does not support this distribution
    (e.g. the no-recall recursion requires an atomless law)."""


class DegenerateDistributionError(SelectionGamesError, ValueError):
    """The computation is undefined for this law (e.g. zero mean)."""


class InconsistencyError(SelectionGamesError, RuntimeError):
    """Stage-game parameters violate a structural invariant of the model."""


class ResourceBudgetError(SelectionGamesError, RuntimeError):
    """An enumeration or a grid exceeded its size or memory guard."""
