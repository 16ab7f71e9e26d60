"""Special functions for the quartic exponential closed forms.

The normalization constant of the family involves the parabolic cylinder
function D_nu multiplied by exp(lambda1**2 / (8*lambda2)), which overflows
double precision long before the parameters become physically extreme
(the prefactor alone reaches e**1000 inside the supported parameter box).
Everything here therefore works in (log magnitude, sign) form, see
:class:`ScaledValue`, and only the exponentially compensated functions
are provided: pcf_d_scaled = e**(z**2/4) D_nu(z) and
bessel_k_quarter_scaled = e**x K_{1/4}(x).  Kummer's M is provided for
z >= 0, the only half-line the D_nu route needs.

D_nu is evaluated by one of three routes depending on the argument:

* a two-term Kummer M combination near the origin,
* the large-|z| asymptotic series on either side,
* a nonnegative-integrand integral representation in between, where the
  Kummer combination cancels catastrophically and the asymptotic series
  has not yet converged.  It uses the Gauss-Legendre panel rule, which
  shares no code with the tanh-sinh oracle it is checked against.

The regime boundaries below were tuned once against the adaptive
quadrature oracle and frozen.  The Kummer and asymptotic routes also
measure their own rounding/truncation error at run time and fall back to
the integral route when the estimate is too large, so the boundaries only
pick the cheapest safe method rather than guarding correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import gauss_legendre_panels

_EPS = 2.220446049250313e-16
_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_SQRT_2 = math.sqrt(2.0)

# pcf_d regime boundaries (see module docstring).
_PCF_SERIES_ZMAX_POS = 3.0
_PCF_SERIES_ZMAX_NEG = 10.0
_PCF_ASYMPTOTIC_ZMIN_POS = 14.0
# Upward recurrence keeps the integral route away from nu near 0, where its
# integrand decays too slowly on the left.
_PCF_RECURRENCE_NU_MIN = -0.75

# Internal accuracy budget: routes whose estimated relative error exceeds
# this fall back to the integral representation.  The cancellation loss is
# amplified by the rounding already accumulated in the two series sums,
# hence the extra factor of 8 eps rather than eps.
_PCF_REL_BUDGET = 3e-11
_LOST_NATS_BUDGET = math.log(_PCF_REL_BUDGET / (8.0 * _EPS))

_MAX_SERIES_TERMS = 20000


@dataclass(frozen=True)
class ScaledValue:
    """A real number stored as sign * exp(mantissa_log).

    ``sign`` is -1, 0 or +1; zero is canonically (-inf, 0).  The
    representation survives magnitudes far beyond double range, which the
    normalization constants here routinely reach.
    """

    mantissa_log: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign}")
        if math.isnan(self.mantissa_log):
            raise DomainError("mantissa_log is NaN")
        if self.sign == 0 and self.mantissa_log != -math.inf:
            object.__setattr__(self, "mantissa_log", -math.inf)

    @classmethod
    def from_float(cls, x: float) -> "ScaledValue":
        if x == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def zero(cls) -> "ScaledValue":
        return cls(-math.inf, 0)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.mantissa_log)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def times(self, other: "ScaledValue") -> "ScaledValue":
        s = self.sign * other.sign
        if s == 0:
            return ScaledValue.zero()
        return ScaledValue(self.mantissa_log + other.mantissa_log, s)

    def times_exp(self, log_factor: float) -> "ScaledValue":
        if self.sign == 0:
            return self
        return ScaledValue(self.mantissa_log + log_factor, self.sign)

    def negated(self) -> "ScaledValue":
        return ScaledValue(self.mantissa_log, -self.sign)

    def plus(self, other: "ScaledValue") -> "ScaledValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.mantissa_log >= other.mantissa_log:
            hi, lo = self, other
        else:
            hi, lo = other, self
        rel = hi.sign * lo.sign
        r = 1.0 + rel * math.exp(lo.mantissa_log - hi.mantissa_log)
        if r == 0.0:
            return ScaledValue.zero()
        return ScaledValue(hi.mantissa_log + math.log(abs(r)),
                           hi.sign * (1 if r > 0 else -1))

    def __float__(self) -> float:
        return self.to_float()


def _rgamma_scaled(x: float) -> ScaledValue:
    """1/Gamma(x) on the whole real line; exactly zero at the poles."""
    if x > 0:
        return ScaledValue(-math.lgamma(x), 1)
    if x == math.floor(x):
        return ScaledValue.zero()
    # reflection: 1/Gamma(x) = Gamma(1-x) * sin(pi*x) / pi
    s = math.sin(math.pi * x)
    return ScaledValue(math.lgamma(1.0 - x) + math.log(abs(s)) - _LN_PI,
                       1 if s > 0 else -1)


def _kummer_series(a: float, b: float, z: float):
    """Raw confluent series at z >= 0: (total, scale_log, max_term, n_terms)."""
    term = 1.0
    total = 1.0
    scale_log = 0.0
    max_term = 1.0
    small_streak = 0
    k = 0
    while k < _MAX_SERIES_TERMS:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        if abs(term) > 1e280 or abs(total) > 1e280:
            term *= 1e-200
            total *= 1e-200
            max_term *= 1e-200
            scale_log += 200.0 * math.log(10.0)
        at = abs(term)
        if at > max_term:
            max_term = at
        if at <= _EPS * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total, scale_log, max_term, k + 1
        else:
            small_streak = 0
        k += 1
    raise ConvergenceError(
        f"Kummer M series for a={a}, b={b}, z={z} did not converge",
        work=_MAX_SERIES_TERMS)


def kummer_m(a: float, b: float, z: float) -> ScaledValue:
    """Confluent hypergeometric M(a, b, z) in scaled form, for z >= 0.

    That is the only half-line the parabolic cylinder route needs (its
    argument is z**2 / 2).  When the series cancels badly a
    ConvergenceError is raised rather than returning silently inaccurate
    digits.
    """
    if b <= 0 and b == math.floor(b):
        raise DomainError(f"kummer_m undefined for nonpositive integer b={b}")
    if not z >= 0:
        raise DomainError(f"kummer_m implemented for z >= 0 only, got z={z}")
    total, scale_log, max_term, _ = _kummer_series(a, b, z)
    if total == 0.0:
        return ScaledValue.zero()
    est = _EPS * max_term / abs(total)
    if est > _PCF_REL_BUDGET:
        raise ConvergenceError(
            f"Kummer M({a},{b},{z}) lost too many digits to cancellation "
            f"(estimated relative error {est:.2e})")
    return ScaledValue(scale_log + math.log(abs(total)),
                       1 if total > 0 else -1)


def _pcf_kummer(nu: float, z: float) -> ScaledValue:
    """Two-term Kummer combination for e^(z^2/4) D_nu(z); cancels for
    large z > 0."""
    x = 0.5 * z * z
    m1 = kummer_m(-0.5 * nu, 0.5, x)
    m2 = kummer_m(0.5 * (1.0 - nu), 1.5, x)
    t1 = m1.times(_rgamma_scaled(0.5 * (1.0 - nu)))
    t2 = m2.times(_rgamma_scaled(-0.5 * nu)).times(
        ScaledValue.from_float(-_SQRT_2 * z))
    bracket = t1.plus(t2)
    if bracket.sign <= 0:
        raise ConvergenceError(
            f"Kummer combination for D_{nu}({z}) cancelled to a nonpositive "
            "value")
    lost = max(t1.mantissa_log, t2.mantissa_log) - bracket.mantissa_log
    if lost > _LOST_NATS_BUDGET:
        raise ConvergenceError(
            f"Kummer combination for D_{nu}({z}) lost {lost:.1f} nats to "
            "cancellation")
    return bracket.times_exp(0.5 * nu * _LN_2 + 0.5 * _LN_PI)


def _pcf_asymptotic_tail(a: float, sign: float, zsq2: float):
    """Sum_k sign**k (a)_{2k} / (k! * zsq2**k), zsq2 = 2 z**2.

    a = -nu, sign = -1 is the z -> +inf expansion of D_nu; a = nu + 1,
    sign = +1 the second series of the z -> -inf expansion.  Returns
    (sum, relative truncation estimate).  The series is summed to its
    smallest term; divergence past that point is the usual asymptotic
    behaviour, not an error.
    """
    term = 1.0
    total = 1.0
    min_rel = math.inf
    for k in range(400):
        nxt = (sign * term * (a + 2 * k) * (a + 2 * k + 1.0)
               / (zsq2 * (k + 1.0)))
        if abs(nxt) >= abs(term):
            min_rel = abs(term) / max(abs(total), 5e-324)
            break
        term = nxt
        total += term
        if abs(term) <= _EPS * abs(total):
            min_rel = _EPS
            break
    else:
        min_rel = abs(term) / max(abs(total), 5e-324)
    return total, min_rel


def _pcf_asymptotic_pos(nu: float, z: float) -> ScaledValue:
    total, rel = _pcf_asymptotic_tail(-nu, -1.0, 2.0 * z * z)
    if rel > _PCF_REL_BUDGET or total <= 0.0:
        raise ConvergenceError(
            f"asymptotic series for D_{nu}({z}) stalls at relative error "
            f"{rel:.2e}")
    return ScaledValue(nu * math.log(z) + math.log(total), 1)


def _pcf_asymptotic_neg(nu: float, z: float) -> ScaledValue:
    za = -z
    zsq2 = 2.0 * z * z
    s1, rel1 = _pcf_asymptotic_tail(-nu, -1.0, zsq2)
    s2, rel2 = _pcf_asymptotic_tail(nu + 1.0, 1.0, zsq2)
    t1 = ScaledValue.from_float(math.cos(math.pi * nu) * s1).times_exp(
        nu * math.log(za))
    t2 = ScaledValue.from_float(s2).times(
        _rgamma_scaled(-nu)).times_exp(
        0.5 * math.log(2.0 * math.pi) + 0.5 * z * z
        - (nu + 1.0) * math.log(za))
    result = t1.plus(t2)
    # t2 dominates by e**(z*z/2); rel1 only matters if t1 is comparable.
    dom = max(t1.mantissa_log, t2.mantissa_log)
    rel = rel2 + rel1 * math.exp(min(t1.mantissa_log - dom, 0.0))
    if rel > _PCF_REL_BUDGET or result.sign <= 0:
        raise ConvergenceError(
            f"asymptotic series for D_{nu}({z}) stalls at relative error "
            f"{rel:.2e}")
    return result


def _pcf_integral(nu: float, z: float) -> ScaledValue:
    """Integral representation, valid for nu < 0 and any real z.

    e**(z**2/4) D_nu(z) = 1 / Gamma(-nu) * integral over t > 0 of
    t**(-nu-1) e**(-t**2/2 - z t) dt.  Substituting t = e**u makes the
    integrand strictly positive, smooth and peaked at u* = log(t*) with
    t* the positive root of t**2 + z t + nu = 0; composite Gauss-Legendre
    panels spread out from u* until the integrand has fallen 46 nats.
    """
    if nu >= -1e-12:
        raise DomainError(f"integral route requires nu < 0, got {nu}")
    t_star = 0.5 * (-z + math.sqrt(z * z - 4.0 * nu))
    u_star = math.log(t_star)

    def phi(u):
        eu = np.exp(u)
        return -nu * u - 0.5 * eu * eu - z * eu

    phi_star = float(phi(u_star))
    drop = 46.0
    edges = [u_star]
    # right side: double-exponential decay, fixed-width panels
    u = u_star
    for _ in range(400):
        u += 0.8
        edges.append(u)
        if float(phi(u)) < phi_star - drop:
            break
    else:
        raise ConvergenceError(f"integral for D_{nu}({z}) has an unbounded "
                               "right tail")
    left = [u_star]
    u = u_star
    width = 0.8
    for _ in range(400):
        u -= width
        left.append(u)
        if float(phi(u)) < phi_star - drop:
            break
        width *= 1.35
    else:
        raise ConvergenceError(f"integral for D_{nu}({z}) has an unbounded "
                               "left tail")
    boundaries = np.array(left[::-1] + edges[1:])
    total = float(np.sum(gauss_legendre_panels(phi, boundaries, phi_star)))
    return ScaledValue(phi_star + math.log(total) - math.lgamma(-nu), 1)


def pcf_d_scaled(nu: float, z: float) -> ScaledValue:
    """Exponentially compensated parabolic cylinder function for nu <= 0.

    Returns e**(z**2/4) * D_nu(z) in scaled form.  Every evaluation route
    carries the factor e**(-z**2/4) as an explicit additive log term, so
    omitting it here is exact; callers that build log-partition functions
    cancel it analytically against a matching e**(+z**2/4) prefactor and
    avoid forming two huge floats whose difference is modest.  Positive
    for all real z in this parameter range.  Relative accuracy is a few
    1e-12 to 1e-10 across nu in [-10, 0], |z| <= 40, degrading gracefully
    beyond.
    """
    if math.isnan(nu) or math.isnan(z):
        raise DomainError("pcf_d requires finite arguments")
    if nu > 0:
        raise DomainError(f"pcf_d implemented for nu <= 0 only, got nu={nu}")
    if nu == 0:
        return ScaledValue(0.0, 1)
    if z <= 0.0:
        if -z <= _PCF_SERIES_ZMAX_NEG:
            try:
                return _pcf_kummer(nu, z)
            except ConvergenceError:
                return _pcf_integral_or_recur(nu, z)
        try:
            return _pcf_asymptotic_neg(nu, z)
        except ConvergenceError:
            return _pcf_integral_or_recur(nu, z)
    if z <= _PCF_SERIES_ZMAX_POS:
        try:
            return _pcf_kummer(nu, z)
        except ConvergenceError:
            return _pcf_integral_or_recur(nu, z)
    if z >= _PCF_ASYMPTOTIC_ZMIN_POS:
        try:
            return _pcf_asymptotic_pos(nu, z)
        except ConvergenceError:
            return _pcf_integral_or_recur(nu, z)
    return _pcf_integral_or_recur(nu, z)


def _pcf_integral_or_recur(nu: float, z: float) -> ScaledValue:
    if nu <= _PCF_RECURRENCE_NU_MIN:
        return _pcf_integral(nu, z)
    # D_nu = z D_{nu-1} - (nu-1) D_{nu-2}: both terms positive for z > 0,
    # so the recurrence is stable where the integral route is not (its
    # integrand decays like e**(nu*u) on the left, too slowly near nu=0).
    d1 = _pcf_integral(nu - 1.0, z)
    d2 = _pcf_integral(nu - 2.0, z)
    return d1.times(ScaledValue.from_float(z)).plus(
        d2.times(ScaledValue.from_float(-(nu - 1.0))))


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


def bessel_k_quarter_scaled(x: float) -> ScaledValue:
    """Exponentially compensated K_{1/4}: returns e**x * K_{1/4}(x), x > 0.

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
        return ScaledValue(math.log(val) + x, 1)
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
            return ScaledValue(
                0.5 * math.log(0.5 * math.pi / x) - math.log(s), 1)
    raise ConvergenceError(f"K_{{1/4}} continued fraction stalled at x={x}",
                           work=40000)
