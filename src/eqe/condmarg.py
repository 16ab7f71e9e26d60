"""Conditionals and marginals of the quartic exponential under coordinate
splits x = (x1, x2).

Both reduce to the same observation: with q = q1 + q2 the joint exponent
lambda1 q - lambda2 q**2 splits into a term in q1 alone plus
(lambda1 - 2 lambda2 q1) q2 - lambda2 q2**2, so conditioning shifts the
linear coefficient and marginalizing integrates x2 into a lower-dimensional
normalization constant at that shifted coefficient.  The marginal's peaks
follow in closed form from the same picture: it decays from the origin
unless x2 is one coordinate, and then it has a single peak whose place is
set by the one real zero of D_{1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import DomainError

# the one real zero of D_{1/2} (30 digits, mpmath)
_Z0 = -0.764950867389759566027391419413


@dataclass(frozen=True)
class BlockSplit:
    """Split of the coordinates into a leading block of dim1 and a trailing
    block of dim2; dim1 + dim2 must equal the dimension of the law it is
    used with."""

    dim1: int
    dim2: int

    def __post_init__(self):
        for name in ("dim1", "dim2"):
            object.__setattr__(self, name,
                               core._positive_int(name, getattr(self, name)))

    @property
    def total_dim(self) -> int:
        return self.dim1 + self.dim2


def _check_split(p: core.RadialParams, split: BlockSplit) -> None:
    if isinstance(p, core.EllipticalParams):
        raise DomainError(
            "conditionals and marginals are defined for the spherical form; "
            "whiten elliptical data first (axis-aligned blocks only)")
    if not isinstance(p, core.RadialParams):
        raise DomainError(f"expected RadialParams, got {type(p)!r}")
    if split.total_dim != p.dim:
        raise DomainError(
            f"split {split.dim1}+{split.dim2} does not cover dim {p.dim}")


def conditional_params(p: core.RadialParams, split: BlockSplit,
                       x2_norm_sq: float) -> core.RadialParams:
    """Law of x1 given |x2|**2 = x2_norm_sq: same lambda2, linear
    coefficient shifted to lambda1 - 2 lambda2 x2_norm_sq.

    For lambda1 > 0 the result is annular exactly when x2_norm_sq lies
    inside the squared mode radius, and unimodal at the origin otherwise.
    """
    _check_split(p, split)
    x2_norm_sq = float(x2_norm_sq)
    if not (math.isfinite(x2_norm_sq) and x2_norm_sq >= 0.0):
        raise DomainError(
            f"x2_norm_sq must be finite and nonnegative, got {x2_norm_sq}")
    return core.RadialParams(split.dim1,
                             p.lambda1 - 2.0 * p.lambda2 * x2_norm_sq,
                             p.lambda2)


def marginal_log_density(p: core.RadialParams, split: BlockSplit,
                         x1) -> float:
    """Log density of the leading block at the point x1, with the trailing
    dim2 coordinates integrated out.

    The inner integral over x2 is exactly the dim2-dimensional
    normalization constant at the shifted linear coefficient, so

        log p(x1) = lambda1 q1 - lambda2 q1**2
                    + log Z_dim2(lambda1 - 2 lambda2 q1, lambda2)
                    - log Z_D(lambda1, lambda2),   q1 = |x1|**2.

    Never NaN and silent for finite x1: where q1 or q1**2 overflows, the
    density underflows and the result is -inf.
    """
    _check_split(p, split)
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    if x1.shape != (split.dim1,):
        raise DomainError(
            f"x1 must be a vector of length {split.dim1}, got shape "
            f"{x1.shape}")
    if not np.all(np.isfinite(x1)):
        raise DomainError("x1 must be finite")
    with np.errstate(over="ignore"):
        q1 = float(x1 @ x1)
    shifted = p.lambda1 - 2.0 * p.lambda2 * q1
    if not math.isfinite(shifted):
        return -math.inf  # q1 so large that the density underflows
    log_z_inner = core.log_norm_const(
        core.RadialParams(split.dim2, shifted, p.lambda2))
    out = (p.lambda1 * q1 - p.lambda2 * q1 * q1 + log_z_inner
           - core.log_norm_const(p))
    # inf - inf once q1**2 overflows; lambda2 > 0, so the quartic term wins
    return -math.inf if math.isnan(out) else out


def marginal_peaks(p: core.RadialParams, split: BlockSplit) -> list[float]:
    """Radii of the local maxima of the marginal density along r1 = |x1|,
    ascending.  Includes 0.0 when the marginal decays from the origin.

    Up to a constant the marginal in q1 = r1**2 is

        integral_{q1}^inf (t - q1)**(dim2/2 - 1)
                          exp(lambda1 t - lambda2 t**2) dt,

    which does not increase in q1 for dim2 >= 2: the only peak is the
    origin.  For dim2 = 1 the recurrences of D_nu (DLMF 12.8) give its log
    slope in q1 as -sqrt(2 lambda2) D_{1/2}(z) / D_{-1/2}(z), with
    z = (2 lambda2 q1 - lambda1) / sqrt(2 lambda2).  D_{-1/2} is positive
    and D_{1/2} changes sign once, from - to +, at z0, so the marginal
    rises up to q1 = (lambda1 + sqrt(2 lambda2) z0) / (2 lambda2) and
    falls after it; that point is the peak when it is positive.
    """
    _check_split(p, split)
    if split.dim2 == 1:
        c = p.lambda1 + math.sqrt(2.0 * p.lambda2) * _Z0
        if c > 0.0:
            return [math.sqrt(c / (2.0 * p.lambda2))]
    return [0.0]
