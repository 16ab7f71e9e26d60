"""Two deterministic quadrature rules that share no code.

integrate_semi_infinite is double-exponential (tanh-sinh) quadrature over
(0, infinity), used only as the independent oracle that the closed-form
routes are tested against (log_norm_const's "quadrature" method), so this
module deliberately depends on nothing else in the package.  It is one
fixed rule: the trapezoid rule in the transformed variable is refined by
halving the step, reusing the nodes already evaluated, until two levels
agree to 1e-11 relative, or it raises ConvergenceError at level 12
(78,643 evaluations; every log Z stops by level 5, 615 evaluations).  The
result is a pure function of the integrand, which maps an array of nodes
to an array of values, and the error estimate is the last-level
difference.  Integrable endpoint singularities up to y**(-1/2) are
absorbed by the double-exponential weight decay.  Each level's nodes and
weights are built once and kept read-only: about 1.3 MB for all 13.

gauss_legendre_panels is a fixed 24-point Gauss-Legendre rule on panels
the caller places around a smooth, already located peak: the integrals of
D_nu and K_{1/4} and the sampler's radial CDF table use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = 2.220446049250313e-16
_TINY = 2.2250738585072014e-308  # the smallest normal float
_HALF_PI = 0.5 * math.pi
_BASE_STEP = 0.5
_T_MAX = 4.8
_MAX_LEVEL = 12
_REL_TOL = 1e-11
# numpy.polynomial.legendre.leggauss(24), frozen (it is symmetric bit for
# bit), so that no process imports numpy.polynomial and its LAPACK call
_GL_HALF = np.array([float.fromhex(v) for v in """
1.0660853eda2e8p-4 1.8769542b94f8dp-3 1.429a8c588e910p-2 1.bc345d81e24b5p-2
1.17417bac4d72bp-1 1.4bd2ee5fa1086p-1 1.7af18edb9ddd6p-1 1.a3d74ce0d3700p-1
1.c5d841864d0f5p-1 1.e06585a70aa4dp-1 1.f30f9f0cbf876p-1 1.fd892de691982p-1
1.060475e763731p-3 1.01b7117cf8bd6p-3 1.f25cbce1d1fefp-4 1.d91c78acb1b27p-4
1.b8177ba4a68d7p-4 1.8fd8936444b19p-4 1.6108ef5044635p-4 1.2c6d5c2eff05ap-4
1.e5c6255d25e9dp-5 1.6ab884f57c940p-5 1.d375514486effp-6 1.9465bd311255dp-7
""".split()]).reshape(2, 12)
_GL_NODES = np.concatenate((-_GL_HALF[0, ::-1], _GL_HALF[0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[1, ::-1], _GL_HALF[1]))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


def _evaluate(f: Callable[[np.ndarray], np.ndarray],
              x: np.ndarray) -> np.ndarray:
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise TypeError(f"the integrand must map an array of nodes to an "
                        f"array of their shape, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise DomainError(f"integrand returned a non-finite value at x={bad!r}")
    return y


@lru_cache(maxsize=None)
def _level_nodes(level: int) -> tuple:
    """Read-only nodes y of a tanh-sinh level (at level 0 the centre node 1
    last) and the weights (pi/2) cosh(t) y of their halves y > 1, y < 1."""
    h = _BASE_STEP / 2 ** level
    # positive abscissas new at this level; t = 0 is added at level 0
    t = h * np.arange(1, math.floor(_T_MAX / h) + 1,
                      1 if level == 0 else 2)
    u, coshs = _HALF_PI * np.sinh(t), _HALF_PI * np.cosh(t)
    y = np.exp(np.concatenate((u, -u, [0.0] if level == 0 else [])))
    nodes = y, coshs * y[:t.size], coshs * y[t.size:2 * t.size]
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray]
                            ) -> QuadResult:
    """Integral of f over (0, infinity) by tanh-sinh quadrature.

    y = exp(pi/2 sinh t) maps the half-line onto t in R; the trapezoid
    rule in t starts at step 1/2 and halves it per level, evaluating only
    the new odd multiples.  The criterion is relative only, so an
    integral whose value is zero never converges.
    """
    running = 0.0
    evals = 0
    prev = math.inf
    for level in range(_MAX_LEVEL + 1):
        y, w_hi, w_lo = _level_nodes(level)
        evals += y.size
        fy = _evaluate(f, y)
        k = w_hi.size
        terms = w_hi * fy[:k] + w_lo * fy[k:2 * k]
        if level == 0:
            terms = np.append(terms, _HALF_PI * fy[-1])
        running += float(np.sum(terms))
        value = _BASE_STEP / 2 ** level * running
        diff = abs(value - prev)
        # a subnormal value is mass the coarse levels missed, not zero
        if (level >= 2 and abs(value) >= _TINY
                and diff <= _REL_TOL * abs(value)):
            return QuadResult(value, max(diff, _EPS * abs(value)), evals)
        prev = value
    raise ConvergenceError(
        "quadrature evaluation budget exhausted",
        best_estimate=QuadResult(value, diff, evals), work=evals)


def gauss_legendre_panels(log_f: Callable[[np.ndarray], np.ndarray],
                          lo: np.ndarray, hi: np.ndarray, g=None,
                          order: int = 0) -> np.ndarray:
    """Integral of exp(log_f(x)) over each panel [lo_i, hi_i], by the
    24-point Gauss-Legendre rule; given g, the integrals of exp(log_f(x))
    g(x)**i, i = 0..order, over all the panels together."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    f = np.exp(log_f(nodes))
    if g is None:
        return (f @ _GL_WEIGHTS) * half
    rows, gx = np.empty((order + 1, *f.shape)), g(nodes)
    rows[0] = f
    for i in range(order):
        np.multiply(rows[i], gx, out=rows[i + 1])
    return (rows @ _GL_WEIGHTS) @ half
