"""The tanh-sinh log Z oracle, which shares no code with the pcf route.

log_integral(dim, z) is the log of the integral of u**(D/2-1) e**(-z u -
u**2/2) over u > 0, the standard law of shape (D, z) whose closed form
specfun computes through D_nu.  It is the independent oracle that closed
form is tested against (log_norm_const's "quadrature" method), so this
module depends on nothing else in the package but its errors.  One map u
= m v**w puts the integrand's mass where tanh-sinh's coarse levels
resolve it, and the integrand is written about u = m, so that neither
its peak nor its scale enters as a large difference.

integrate_semi_infinite is one fixed rule: the trapezoid rule in the
transformed variable is refined by halving the step, reusing the nodes
already evaluated, until two levels agree to 1e-11 relative, or it raises
ConvergenceError at level 12 (78,643 evaluations; every log Z stops by
level 5, 615 evaluations).  The test starts at level 3 (153 evaluations):
levels 1 and 2 can agree by chance, as at D = 1, z = 1.95430917938537,
where they agree 1.3e-12 off.  The result is a pure function of the
integrand, which maps an array of nodes to an array of values, and the
error estimate is the last-level difference.  Integrable endpoint
singularities up to y**(-1/2) are absorbed by the double-exponential
weight decay.  Each level's nodes and weights are built once and kept
read-only: about 1.3 MB for all 13.
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


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


def _peak(power: float, z: float) -> float:
    """The peak u* > 0 of power ln u - z u - u**2/2, the positive root of
    u**2 + z u = power (of -z u - u**2/2 where power <= 0; 0 if it has
    none), free of cancellation."""
    q = max(power, 0.0)
    disc = math.hypot(z, 2.0 * math.sqrt(q))
    return (0.5 * (disc - z) if z < 0 else
            q / (0.5 * disc + 0.5 * z) if q else 0.0)


def log_integral(dim: int, z: float) -> float:
    """log of the integral of u**(D/2-1) e**(-z u - u**2/2) over u > 0, D
    = dim, for finite z > -1e154, by tanh-sinh in v, u = m v**w.

    Where the peak u* is narrow, u***2/2 > 40, m = u* and w = 1 / sqrt(D/2
    - 1 + u***2) make it O(1) wide in v, where the coarse levels resolve
    it at any contrast; its v -> 0 end then holds no mass (e**-40), where
    v**(w D/2 - 1) is near-singular at D = 1.  Elsewhere m = 2.8 t, t the
    peak of u**2 times the integrand, and w = 1 put the mass on the
    coarse nodes for every D, whether the peak is broad or at u = 0.
    With E = expm1(w ln v), c = -z - m and h = m**2/2 the integrand is
    v**(w D/2 - 1) e**(E (m c - h E) - top) times m w e**shift, shift =
    (D/2 - 1) ln m + m c + h + top; c cancels no rounded terms, since
    where it cancels -z and m are within a factor 2 and their difference
    is exact (Sterbenz).  top, the exponent at the peak v = (u*/m)**(1/w),
    is 0 where m = u*; taken out, it keeps a broad peak at D ~ 2000, e**700
    above u = m, from overflowing.
    """
    if not -1e154 < z < math.inf:  # the pcf route's domain
        raise DomainError(f"quadrature log Z needs a finite z > -1e154: {z}")
    half = 0.5 * dim
    peak = _peak(half - 1.0, z)
    if 0.5 * peak * peak > 40.0:
        m, w = peak, 1.0 / math.sqrt(half - 1.0 + peak * peak)
    else:
        m, w = 2.8 * _peak(half + 1.0, z), 1.0
    mc, h, k = m * (-z - m), 0.5 * m * m, w * half - 1.0

    def log_f(lv):
        e = np.expm1(w * lv)
        return k * lv + e * (mc - h * e)

    top = float(log_f(math.log(peak / m) / w)) if peak > 0.0 else 0.0
    res = integrate_semi_infinite(lambda v: np.exp(log_f(np.log(v)) - top))
    if not res.value > 0.0:
        raise ConvergenceError(f"quadrature gave a nonpositive integral for "
                               f"dim={dim}, z={z}")
    shift = (half - 1.0) * math.log(m) + mc + h + top
    return shift + math.log(m * w) + math.log(res.value)


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
        if (level >= 3 and abs(value) >= _TINY
                and diff <= _REL_TOL * abs(value)):
            return QuadResult(value, max(diff, _EPS * abs(value)), evals)
        prev = value
    raise ConvergenceError("quadrature evaluation budget exhausted",
                           work=evals)
