"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to converge, or its result is not a double."""


class InfeasibleMomentsError(ValueError):
    """No distribution of the family matches the requested moments."""
