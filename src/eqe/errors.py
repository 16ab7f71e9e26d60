"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to reach its tolerance, or its result is
    not a double.  ``work`` is the work it spent where that is counted
    (quadrature evaluations), else None."""

    def __init__(self, message: str, *, work: int | None = None):
        super().__init__(message)
        self.work = work


class InfeasibleMomentsError(ValueError):
    """No distribution of the family matches the requested moments.

    ``ratio`` is the offending value of c4 / c2**2 and ``boundary`` the
    largest ratio attainable in the given dimension (the Gaussian limit).
    """

    def __init__(self, message: str, *, ratio: float | None = None,
                 boundary: float | None = None):
        super().__init__(message)
        self.ratio = ratio
        self.boundary = boundary
