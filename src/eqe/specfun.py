"""Special functions for the quartic exponential closed forms.

The normalization constant of the family involves the parabolic cylinder
function D_nu multiplied by exp(lambda1**2 / (8*lambda2)), which overflows
double precision long before the parameters become physically extreme
(the prefactor alone reaches e**1000 inside the supported parameter box).
Only the exponentially compensated functions are provided, as the float
log of a value that is positive by construction:
pcf_d_scaled = log(e**(z**2/4) D_nu(z)) and
bessel_k_quarter_scaled = log(e**x K_{1/4}(x)).

Each is evaluated by one route, an integral with a positive integrand, so
no digits are lost to cancellation: DLMF 10.32.9 for K_{1/4}, and 12.5.1

    e**(z**2/4) D_nu(z) = Gamma(-nu)**-1 * integral over t > 0 of
                          t**(-nu-1) e**(-t**2/2 - z t) dt,

one smooth peak in u = ln t.  The Gauss-Legendre panels that cover either
integrand are placed in closed form from its width and its known decay.
gauss_legendre_panels, a fixed 24-point rule on such panels, computes
both integrals and the sampler's radial CDF table.  Nothing here imports
the tanh-sinh oracle that the closed forms are checked against
(quadrature), nor does it import this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

# B_2, ..., B_16: at x >= 10 the first term left out is below 4e-18
_BERNOULLI = (1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510)
# where the integrand is e**-46 of its peak, its remainder is below 1e-17
_DROP = 46.0
_REACH = math.sqrt(2.0 * _DROP)
_LN_2_DROP = math.log(2.0 * _DROP)
# below t = 1e-17 / (1 + |z|) the factor e**(-t**2/2 - z t) is 1 to
# within 1e-17, so the rest of the integral is the closed form t**a / a
_LN_TAIL_T = math.log(1e-17)
_SPLIT = 134217729.0  # 2**27 + 1
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


def gauss_legendre_panels(log_f, lo: np.ndarray, hi: np.ndarray, g=None,
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


def _two_prod(x, y) -> tuple:
    """x*y as an unevaluated sum of two floats (Dekker), elementwise for
    arrays; where splitting a float x or y would overflow, the rounding
    error is left out."""
    p = x * y
    c = _SPLIT * x
    xh = c - (c - x)
    c = _SPLIT * y
    yh = c - (c - y)
    err = ((xh * yh - p) + xh * (y - yh) + (x - xh) * yh) + (x - xh) * (y - yh)
    return p, (err if not isinstance(err, float) or math.isfinite(err)
               else 0.0)


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
    0) it is 6.288e-13 against 6.352e-13, 1 % off, which a caller that
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
    return 0.0 if nu == 0 else _integral(nu, z)[0] - math.lgamma(-nu)


def _integral(nu: float, z: float, order: int = 0) -> tuple:
    """One panel pass over I_0, the integral of t**(a-1) e**(-t**2/2 - z
    t), a = -nu, for -1e305 < nu < 0 (pcf_d_scaled describes the panels):
    log I_0; log P, for P = I_0 e**-(a u* - t*^2/2 - z t*) the integral
    about the peak; t*; and E[E**i], i = 1..order, for E = t / t* - 1, so
    that I_j / I_0 = t***j E[(1 + E)**j] for I_j the integral at a + j.
    Where the panels end the integrand falls as e**(-(t* E)**2 / 2) or
    e**(-a E / 2), far faster than E**4 grows; but they reach d = 700
    where a < 1e-300, and E**4 overflows there, so order 0 forms no
    moment rows."""
    _check_args(nu, z)
    a = -nu
    u_star, t_star, log_f, edges, log_tail = _panels(a, z)
    lo, hi = edges[1:], edges[:-1]
    sums = (gauss_legendre_panels(log_f, lo, hi, np.expm1, order).tolist()
            if order else [float(gauss_legendre_panels(log_f, lo, hi).sum())])
    log_p = math.log(sums[0]) if sums[0] > 0.0 else math.nan
    moments = [s / sums[0] for s in sums[1:]]
    if log_tail is not None:
        # the tail holds a share of the mass at E = -1 (to within 1e-17);
        # added in logs, as it reaches e**744 at the smallest a
        gap = log_tail - log_p
        soft = math.log1p(math.exp(-abs(gap)))
        log_p += max(gap, 0.0) + soft
        share = math.exp(min(gap, 0.0) - soft)
        moments = [(1.0 - share) * m + (-share if i % 2 else share)
                   for i, m in enumerate(moments, 1)]
    if not math.isfinite(log_p + sum(moments)):
        raise ConvergenceError(
            f"integrals of D_{nu}({z}) came out as {sums}")
    # the peak's exponent a u* - t*^2 / 2 - z t*, rounded once with log P
    log_i = math.fsum((*_two_prod(a, u_star),
                       *_two_prod(-0.5 * t_star, t_star),
                       *_two_prod(-z, t_star), log_p))
    return log_i, log_p, t_star, tuple(moments)


def _panels(a: float, z: float) -> tuple:
    """u*, t*, the order-a integrand's log about its peak as a function of
    d = u - u*, the descending panel edges in d, and the log of the
    closed-form tail left of the last edge (None if there is none)."""
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
    return u_star, t_star, log_f, np.array(edges), log_tail


def bessel_k_quarter_scaled(x: float) -> float:
    """log(e**x K_{1/4}(x)) for finite x > 0, to 4e-16 of max(1, |value|),
    by its integral over t > 0 of e**(-2 x sinh(t/2)**2) cosh(t/4).  That
    is 1 at t = 0 and at most e**(t/4 - 2 x sinh(t/2)**2), so past T, where
    2 x sinh(T/2)**2 = 46 + T/4, it is under e**-46 of its peak and falls
    at least as fast as a Gaussian.  Panels min(1, T/8) wide cover [T - 10,
    T], which holds the peak, and panels that double in width the rest."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"bessel_k_quarter requires a finite x > 0, got {x}")
    rx = math.sqrt(2.0) * math.sqrt(x)  # 2 x overflows past 9e307
    right = 0.0
    for _ in range(3):  # fixed-point steps to T, from below
        right = 2.0 * math.asinh(math.sqrt(_DROP + 0.25 * right) / rx)
    width, edges = min(1.0, right / 8.0), [right]
    while edges[-1] > 0.0:
        width *= 2.0 if edges[-1] < right - 10.0 else 1.0
        edges.append(max(0.0, edges[-1] - width))

    def log_f(t):  # log(2 cosh(t/4)), free of overflow, - 2 x sinh(t/2)**2
        return (0.25 * t + np.log1p(np.exp(-0.5 * t))
                - (rx * np.sinh(0.5 * t)) ** 2)

    e = np.array(edges)
    return math.log(0.5 * gauss_legendre_panels(log_f, e[1:], e[:-1]).sum())


def _gamma_law(a: float) -> tuple:
    """psi(a) and h(a) = a + lgamma(a) + (1 - a) psi(a), the entropy of
    Gamma(a, 1), for a > 0: psi by recurrence up to x >= 10 and its series
    there (DLMF 5.15.8); for a >= 10, h = 1/2 ln(2 pi a) + 1/2 - 1/(2a) +
    S(a) + (a - 1) T(a), S and T the Stirling series of lgamma and psi."""
    x, shift = a, 0.0
    while x < 10.0:
        x, shift = x + 1.0, shift + 1.0 / x
    r = 1.0 / x
    # the terms B_2k / (2k x**(2k-1)) of T(x) / r, k = 1..8
    u = [b * r ** (2 * k - 1) / (2 * k) for k, b in enumerate(_BERNOULLI, 1)]
    t = math.fsum(u)
    psi = math.log(x) - (0.5 + t) * r - shift
    if a < 10.0:
        return psi, a + math.lgamma(a) + (1.0 - a) * psi
    s = math.fsum(v / (2 * k - 1) for k, v in enumerate(u, 1))
    return psi, (0.5 * (math.log(2.0 * math.pi) + math.log(a)) + 0.5
                 - 0.5 * r + s + (1.0 - r) * t)
