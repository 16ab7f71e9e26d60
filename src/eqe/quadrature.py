"""Two deterministic quadrature rules that share no code.

integrate_semi_infinite is adaptive double-exponential (tanh-sinh)
quadrature over (0, infinity).  It is both the fallback normalization
path and the independent oracle the closed-form special function route is
tested against, so this module deliberately depends on nothing else in
the package.  The trapezoid rule in the transformed variable is refined
by halving the step; previously evaluated nodes are reused, the result is
a pure function of the integrand and tolerances, and the error estimate
is the standard last-level difference.  Integrable endpoint singularities
up to y**(-1/2) are absorbed by the double-exponential weight decay.

gauss_legendre_panels is a fixed 24-point Gauss-Legendre rule on panels
the caller places around a smooth, already located peak: the integral
representation of D_nu and the sampler's radial CDF table use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = 2.220446049250313e-16
_TINY = 2.2250738585072014e-308  # the smallest normal float
_HALF_PI = 0.5 * math.pi
_BASE_STEP = 0.5
_T_MAX = 4.8
_MAX_LEVEL = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


def _evaluate(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.array([float(f(v)) for v in x])
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise DomainError(f"integrand returned a non-finite value at x={bad!r}")
    return y


def integrate_semi_infinite(f: Callable[[float], float], *,
                            target_rel_tol: float = 1e-10,
                            target_abs_tol: float = 0.0,
                            max_evaluations: int = 10 ** 6) -> QuadResult:
    """Integral of f over (0, infinity) by tanh-sinh quadrature.

    y = exp(pi/2 sinh t) maps the half-line onto t in R; the trapezoid
    rule in t starts at step 1/2 and halves it per level, evaluating only
    the new odd multiples.  ``target_abs_tol`` is an optional absolute
    escape for integrals whose true value may be zero, where a purely
    relative criterion can never be met.
    """
    running = 0.0
    evals = 0
    prev = math.inf
    value = math.nan
    diff = math.inf
    for level in range(_MAX_LEVEL + 1):
        h = _BASE_STEP / 2 ** level
        # positive abscissas new at this level; t = 0 is added at level 0
        t = h * np.arange(1, math.floor(_T_MAX / h) + 1,
                          1 if level == 0 else 2)
        u = _HALF_PI * np.sinh(t)
        coshs = _HALF_PI * np.cosh(t)
        # y_hi, y_lo and, at level 0, the centre node y = 1
        y = np.exp(np.concatenate((u, -u, [0.0] if level == 0 else [])))
        fy = _evaluate(f, y)
        k = t.size
        terms = coshs * y[:k] * fy[:k] + coshs * y[k:2 * k] * fy[k:2 * k]
        if level == 0:
            terms = np.append(terms, _HALF_PI * fy[-1])
        n = y.size
        if evals + n > max_evaluations:
            raise ConvergenceError(
                "quadrature evaluation budget exhausted",
                best_estimate=QuadResult(value, diff, evals), work=evals)
        evals += n
        running += float(np.sum(terms))
        value = h * running
        if level >= 1:
            diff = abs(value - prev)
            tol = max(target_rel_tol * abs(value), target_abs_tol, 1e-300)
            # a subnormal value is mass the coarse levels missed, not zero
            if level >= 2 and diff <= tol and (
                    abs(value) >= _TINY or target_abs_tol > 0.0):
                return QuadResult(value, max(diff, _EPS * abs(value)), evals)
        prev = value
    raise ConvergenceError(
        "quadrature failed to converge to the requested tolerance",
        best_estimate=QuadResult(value, diff, evals), work=evals)


def gauss_legendre_panels(log_f: Callable[[np.ndarray], np.ndarray],
                          lo: np.ndarray, hi: np.ndarray,
                          shift: float) -> np.ndarray:
    """Integral of exp(log_f(x) - shift) over each panel [lo_i, hi_i], by
    the 24-point Gauss-Legendre rule."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return (np.exp(log_f(nodes) - shift) @ _GL_WEIGHTS) * half
