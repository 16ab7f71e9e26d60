"""Special functions for the quartic exponential closed forms.

The normalization constant of the family involves the parabolic cylinder
function D_nu multiplied by exp(lambda1**2 / (8*lambda2)), which overflows
double precision long before the parameters become physically extreme
(the prefactor alone reaches e**1000 inside the supported parameter box).
Only the exponentially compensated functions are provided, as the float
log of a value that is positive by construction:
pcf_d_scaled = log(e**(z**2/4) D_nu(z)) and
bessel_k_quarter_scaled = log(e**x K_{1/4}(x)).

D_nu is evaluated by one route, its integral representation (DLMF 12.5.1)

    e**(z**2/4) D_nu(z) = Gamma(-nu)**-1 * integral over t > 0 of
                          t**(-nu-1) e**(-t**2/2 - z t) dt,

whose integrand is positive for every real z, so no digits are lost to
cancellation.  In u = ln t it is one smooth peak; the Gauss-Legendre
panels that cover it are placed in closed form from its Laplace width and
its known decay on either side.  The rule shares no code with the
tanh-sinh oracle the closed forms are checked against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import gauss_legendre_panels

_EPS = 2.220446049250313e-16
_SQRT_2 = math.sqrt(2.0)
# where the integrand is e**-46 of its peak, its remainder is below 1e-17
_DROP = 46.0
_REACH = math.sqrt(2.0 * _DROP)
_LN_2_DROP = math.log(2.0 * _DROP)
# below t = 1e-17 / (1 + |z|) the factor e**(-t**2/2 - z t) is 1 to
# within 1e-17, so the rest of the integral is the closed form t**a / a
_LN_TAIL_T = math.log(1e-17)
_SPLIT = 134217729.0  # 2**27 + 1


def _two_prod(x: float, y: float) -> tuple:
    """x*y as an unevaluated sum of two floats (Dekker); where splitting x
    or y would overflow, the rounding error is left out."""
    p = x * y
    c = _SPLIT * x
    xh = c - (c - x)
    c = _SPLIT * y
    yh = c - (c - y)
    err = ((xh * yh - p) + xh * (y - yh) + (x - xh) * yh) + (x - xh) * (y - yh)
    return p, (err if math.isfinite(err) else 0.0)


def _check_args(nu: float, z: float) -> None:
    if not -1e305 < nu <= 0.0:  # below, log Gamma(-nu) overflows
        raise DomainError(
            f"pcf_d implemented for -1e305 < nu <= 0 only, got nu={nu}")
    if not (math.isfinite(z) and z > -1e154):  # below, z**2 overflows
        raise DomainError(f"pcf_d requires a finite z > -1e154, got z={z}")


def pcf_d_scaled(nu: float, z: float) -> float:
    """log(e**(z**2/4) D_nu(z)), the compensated parabolic cylinder
    function, for -1e305 < nu <= 0 and finite z > -1e154 (beyond either
    bound the log overflows).

    The factor e**(-z**2/4) inside D_nu(z) is carried as an exact additive
    log term, so callers that build log-partition functions cancel it
    analytically against a matching e**(+z**2/4) prefactor and never form
    two huge floats whose difference is modest.  Against the 40-digit
    references of tests/data/pcf_reference.json (nu = -D/2 for D 1-12 and
    nu from -1e-12 to -500, z in [-1.5e4, 1.4e5]) the error is at most
    1e-14 of max(1, |value|); the tests hold it to 1e-13.  As nu -> 0 the
    value goes to 0 and that error stays absolute, not relative: at (-1e-12,
    0) it is 6.272e-13 against 6.352e-13, 1.3 % off, which a caller that
    divides by the log or differentiates it in nu near 0 must allow for.

    With a = -nu, t* > 0 solves t**2 + z t = a and the integrand peaks at
    u* = ln t*.  About the peak, with d = u - u* and E = expm1(d), its log
    is a (d - E) - (t* E)**2 / 2 <= 0, of curvature -1 / sigma**2 at d = 0,
    sigma = 1 / sqrt(t*^2 + a).  Right of the peak the curvature only
    grows, so past d = sqrt(92) sigma the integrand is below e**-46; for
    small a it falls there sooner, once a E / 2 or (t* E)**2 / 2 passes 46.
    Left of the peak its slope bounds the span it needs to fall that far.
    Where that span is long (a small), it stops at a t so small that the
    integrand is t**a to within 1e-17, and the rest is integrated in
    closed form.  Panels 4 sigma wide (at most 1.5) cover the peak from
    the right end, and panels that double in width cover the span left.
    """
    _check_args(nu, z)
    if nu == 0:
        return 0.0
    a = -nu
    u_star, t_star, log_f, edges, log_tail = _panels(a, z)
    total = float(gauss_legendre_panels(log_f, edges[1:], edges[:-1]).sum())
    if not (math.isfinite(total) and total > 0.0):
        raise ConvergenceError(
            f"integral for D_{nu}({z}) came out as {total}")
    log_total = math.log(total)
    if log_tail is not None:
        log_total = max(log_total, log_tail) + math.log1p(
            math.exp(-abs(log_total - log_tail)))
    # the peak's exponent a u* - t*^2 / 2 - z t*, rounded once
    return math.fsum((*_two_prod(a, u_star), *_two_prod(-0.5 * t_star, t_star),
                      *_two_prod(-z, t_star), log_total, -math.lgamma(a)))


def pcf_moment_sums(nu: float, z: float) -> tuple:
    """t* and E[E**i], i = 1..4, for E = t / t* - 1 under pcf_d_scaled's
    integrand, -1e305 < nu < 0, on its nodes; I_j / I_0 = t***j E[(1 +
    E)**j] for I_j the integral of t**(j-nu-1) e**(-t**2/2 - z t).  Where
    the panels end the integrand falls as e**(-(t* E)**2 / 2) or
    e**(-a E / 2), far faster than E**4 grows."""
    _check_args(nu, z)
    _, t_star, log_f, edges, log_tail = _panels(-nu, z)
    sums = gauss_legendre_panels(log_f, edges[1:], edges[:-1], np.expm1,
                                 4).tolist()
    if log_tail is not None:  # there E = -1 to within 1e-17
        tail = math.exp(log_tail)
        sums = [s + (-tail if i % 2 else tail) for i, s in enumerate(sums)]
    if not (sums[0] > 0.0 and math.isfinite(sum(sums))):
        raise ConvergenceError(
            f"moment integrals of D_{nu}({z}) came out as {sums}")
    return t_star, [s / sums[0] for s in sums[1:]]


@lru_cache(maxsize=64)
def _panels(a: float, z: float) -> tuple:
    """u*, t*, the order-a integrand's log about its peak as a function of
    d = u - u*, the descending panel edges in d (read-only), and the log of
    the closed-form tail left of the last edge (None if there is none).
    Kept for the moments pass, which follows log Z's on the same law."""
    # sqrt(z**2 + 4 a), and t*, free of overflow and cancellation
    r = math.hypot(z, 2.0 * math.sqrt(a))
    u_star = (math.log(0.5 * r - 0.5 * z) if z <= 0.0
              else math.log(a) - math.log(0.5 * r + 0.5 * z))
    t_star = math.exp(u_star)
    sigma = 1.0 / math.hypot(t_star, math.sqrt(a))
    width = min(4.0 * sigma, 1.5)
    # E - log1p(E) >= E / 2 for E >= 2.52, and log1p(E) <= ln E + 0.4 there;
    # past d = 700, where a < 1e-300, the panels would hold under 1e-297
    # of the closed-form tail's mass
    ln_e = max(math.log(2.52), min(_LN_2_DROP - math.log(a),
                                   0.5 * _LN_2_DROP - u_star))
    right = min(_REACH * sigma, ln_e + 0.4, 700.0)
    tail = _LN_TAIL_T - math.log1p(abs(z)) - u_star
    left = tail
    d1 = -_REACH * sigma
    if d1 > left:
        # the slope -E (a + t*^2 (1 + E)) is concave in e**d, so left of d1
        # it is at least its smaller value at the ends of [d1 - 1, d1], or
        # of (-inf, d1); the span leaves under e**-46 sigma of mass beyond
        e1, e2 = math.expm1(d1), math.expm1(d1 - 1.0)
        log_f1 = a * (d1 - e1) - 0.5 * (t_star * e1) ** 2
        t2 = t_star * t_star
        slope1 = -e1 * (a + t2 * (1.0 + e1))
        for m, reach in ((min(slope1, -e2 * (a + t2 * (1.0 + e2))), 1.0),
                         (min(slope1, a), math.inf)):
            span = max(0.0, _DROP + log_f1 - math.log(m)
                       - math.log(sigma)) / m
            if span <= reach:
                break
        left = max(left, d1 - span)
    closed_tail = left == tail
    if closed_tail:  # keep a panel where tail > right (a < 1e-300)
        left = min(left, right - 1.0)
    edges = [right]
    for _ in range(min(8, math.ceil((right - max(left, d1)) / width))):
        edges.append(edges[-1] - width)
    while edges[-1] > left:
        width *= 2.0
        edges.append(edges[-1] - width)
    edges[-1] = left
    k = math.sqrt(0.5) * t_star

    def log_f(d):
        e = np.expm1(d)
        return (d - e) * a - (k * e) ** 2

    # log of the integral of e**(a d + a - t*^2 / 2) over d < left
    log_tail = a * (left + 1.0) - k * k - math.log(a) if closed_tail else None
    edges = np.array(edges)
    edges.flags.writeable = False
    return u_star, t_star, log_f, edges, log_tail


def _bessel_i_series(order: float, x: float) -> float:
    t = math.exp(order * math.log(0.5 * x) - math.lgamma(1.0 + order))
    total = t
    q = 0.25 * x * x
    for k in range(200):
        t *= q / ((k + 1.0) * (k + 1.0 + order))
        total += t
        if abs(t) <= _EPS * abs(total):
            return total
    raise ConvergenceError(f"modified Bessel series stalled at x={x}")


def bessel_k_quarter_scaled(x: float) -> float:
    """Exponentially compensated K_{1/4}: log(e**x K_{1/4}(x)), x > 0.

    Series difference of I_{-1/4} and I_{1/4} up to x = 2 (where the
    cancellation costs under two digits), Temme/Thompson-Barnett continued
    fraction beyond.  The continued fraction produces the e**(-x) decay as
    an explicit log term, so the compensated value stays O(1) and callers
    with a matching e**(+x) prefactor can cancel it analytically.
    """
    if not x > 0:
        raise DomainError(f"bessel_k_quarter requires x > 0, got {x}")
    if x <= 2.0:
        diff = _bessel_i_series(-0.25, x) - _bessel_i_series(0.25, x)
        # K_nu = pi/2 * (I_{-nu} - I_nu) / sin(nu pi); sin(pi/4) = sqrt(2)/2
        val = math.pi / _SQRT_2 * diff
        if val <= 0:
            raise ConvergenceError(f"K_{{1/4}}({x}) series cancelled")
        return math.log(val) + x
    # CF2 continued fraction for K_mu, |mu| < 1/2 (Numerical Recipes bessik).
    mu = 0.25
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 40001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _EPS:
            return 0.5 * math.log(0.5 * math.pi / x) - math.log(s)
    raise ConvergenceError(f"K_{{1/4}} continued fraction stalled at x={x}",
                           work=40000)
