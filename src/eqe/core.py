"""Quartic exponential distribution: parameters, normalization, moments.

The density is p(x) = Z**-1 exp(lambda1 * q - lambda2 * q**2) with
q = (x - mu)' Sigma**-1 (x - mu); lambda2 > 0 makes it normalizable for
either sign of lambda1, and lambda1 > 0 puts the mode on a shell of
radius R = sqrt(lambda1 / (2 lambda2)) instead of at the origin.

Everything radial reduces to one-dimensional integrals of
y**(D/2-1) exp(lambda1 y - lambda2 y**2) over y = r**2 > 0, in u = s y,
s = sqrt(2 lambda2), of the standard law u**(D/2-1) e**(-z u - u**2/2) of
shape (D, z), z = -lambda1 / s: they are computed, and cached, on it, and
the scale applied once.  Its integral has a closed form in the parabolic
cylinder function.  log_norm_const exposes both that route and direct
quadrature; they are developed and tested independently, and the pair
doubles as a cross-check in the CLI selfcheck.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from . import quadrature, specfun
from .errors import ConvergenceError, DomainError

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_BLOCK = 8192  # rows per pass of the row-wise maps, which stay in cache

Method = Literal["pcf", "quadrature", "auto"]


@dataclass(frozen=True)
class RadialParams:
    """Natural parameters (lambda1, lambda2) of a spherical quartic
    exponential in ``dim`` dimensions."""

    dim: int
    lambda1: float
    lambda2: float

    def __post_init__(self):
        d = self.dim
        if isinstance(d, bool) or not float(d).is_integer():
            raise DomainError(f"dim must be a positive integer, got {d!r}")
        if d < 1:
            raise DomainError(f"dim must be >= 1, got {d}")
        if not math.isfinite(self.lambda1):
            raise DomainError(f"lambda1 must be finite, got {self.lambda1}")
        if not (math.isfinite(2.0 * self.lambda2) and self.lambda2 > 0):
            raise DomainError(f"lambda2 must be positive, and 2 lambda2 "
                              f"finite, got {self.lambda2}")
        object.__setattr__(self, "dim", int(d))
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))

    # the interface EllipticalParams shares: identity shape matrix
    log_det_sigma = 0.0

    @property
    def radial(self) -> RadialParams:
        return self


@dataclass(frozen=True)
class RingParams:
    """Ring form: mode shell radius and density contrast exponent.

    alpha = ln(p(R) / p(0)) * 2 is the natural "how annular" knob; the
    density at the mode exceeds the density at the center by e**(alpha/2).
    """

    dim: int
    alpha: float
    radius: float

    def __post_init__(self):
        d = self.dim
        if isinstance(d, bool) or not float(d).is_integer() or d < 1:
            raise DomainError(f"dim must be a positive integer, got {d!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "dim", int(d))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "radius", float(self.radius))


def ring_to_radial(ring: RingParams) -> RadialParams:
    r2 = ring.radius * ring.radius
    return RadialParams(ring.dim, ring.alpha / r2,
                        ring.alpha / (2.0 * r2 * r2))


def radial_to_ring(params: RadialParams) -> RingParams:
    if params.lambda1 <= 0:
        raise DomainError(
            "ring form exists only for lambda1 > 0 (annular case), got "
            f"lambda1={params.lambda1}")
    return RingParams(params.dim,
                      params.lambda1 ** 2 / (2.0 * params.lambda2),
                      math.sqrt(params.lambda1 / (2.0 * params.lambda2)))


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of sigma, which must be symmetric positive
    definite."""
    if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=0.0):
        raise DomainError("sigma must be symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise DomainError("sigma must be positive definite") from None


def _blocks(n: int) -> list:
    """Slices of _BLOCK rows covering n rows; a lone last row joins the block
    before, as BLAS rounds one-row products by another kernel."""
    starts = list(range(0, n - 1, _BLOCK)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _whitened_sq_norms(chol: np.ndarray, x: np.ndarray,
                       mu: np.ndarray | float = 0.0) -> np.ndarray:
    """Squared norms of chol^-1 (x_i - mu) over the rows x_i of an (n, dim)
    batch, the Mahalanobis forms for sigma = chol chol', by row blocks."""
    # as accurate as a triangular solve for these forms, and far faster
    inv_t = np.linalg.inv(chol).T.copy()  # C order: BLAS takes it faster
    q = np.empty(x.shape[0])
    shift, v = np.empty((2, min(q.size, _BLOCK + 1), x.shape[1]))
    for rows in _blocks(q.size):
        w = v[:rows.stop - rows.start]
        np.matmul(np.subtract(x[rows], mu, out=shift[:len(w)]), inv_t, out=w)
        np.einsum("ij,ij->i", w, w, out=q[rows])
    return q


def _draws(rng, n: int, dim: int, radii, chol=None, mu=0.0) -> np.ndarray:
    """n draws mu + chol (r_i v_i / |v_i|), v_i the next n * dim normals of
    rng (chol None: the identity) and r = radii(), scaled block by block in
    place.  One helper thread fills the normals, a call that releases the
    GIL, while this one computes the radii; nothing else may use rng
    meanwhile.  rng is read in the order a fill after the radii would read
    it, so the draws are the same bit for bit."""
    x = np.empty((n, dim))
    failure = []

    def fill():
        try:
            rng.standard_normal(out=x)
        except BaseException as exc:  # raised in the caller after the join
            failure.append(exc)

    thread = threading.Thread(target=fill)
    thread.start()
    try:
        r = radii()
    finally:
        thread.join()
    if failure:
        raise failure[0]
    if chol is not None:
        buf = np.empty((min(n, _BLOCK + 1), dim))
        chol_t = chol.T.copy()  # C order, as above
    for rows in _blocks(n):
        v = x[rows]
        norms = np.sqrt(np.einsum("ij,ij->i", v, v))
        norms[norms == 0.0] = 1.0
        v *= (r[rows] / norms)[:, None]
        if chol is not None:
            np.add(np.matmul(v, chol_t, out=buf[:len(v)]), mu, out=v)
    return x


class _ShapeMatrix:
    """An SPD shape matrix ``sigma`` held with its Cholesky factor."""

    def _set_sigma(self, sigma: np.ndarray) -> None:
        chol = _cholesky(sigma)
        sigma.flags.writeable = False
        chol.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)

    @property
    def log_det_sigma(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))


@dataclass(frozen=True, eq=False)
class EllipticalParams(_ShapeMatrix):
    """Full-shape parameters: center mu, SPD shape matrix sigma, and the
    radial law applied to the Mahalanobis form q = (x-mu)' sigma^-1 (x-mu).
    """

    mu: np.ndarray
    sigma: np.ndarray
    radial: RadialParams

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        d = self.radial.dim
        if mu.shape != (d,):
            raise DomainError(f"mu must have shape ({d},), got {mu.shape}")
        if sigma.shape != (d, d):
            raise DomainError(
                f"sigma must have shape ({d}, {d}), got {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise DomainError("mu and sigma must be finite")
        self._set_sigma(sigma)
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.radial.dim


Params = RadialParams | EllipticalParams


@dataclass(frozen=True)
class MomentPair:
    """Radial moment targets E[q] = c2 and E[q**2] = c4.

    Jensen forces c4 > c2**2 for any nondegenerate distribution; the
    constructor rejects anything else outright.
    """

    c2: float
    c4: float

    def __post_init__(self):
        if not (math.isfinite(self.c2) and self.c2 > 0):
            raise DomainError(f"c2 must be positive, got {self.c2}")
        if not (math.isfinite(self.c4) and self.c4 > self.c2 * self.c2):
            raise DomainError(
                f"c4 must exceed c2**2 (got c2={self.c2}, c4={self.c4})")


def log_sphere_surface_area(n: int) -> float:
    """log of the surface area of the unit n-sphere embedded in R^(n+1)."""
    if isinstance(n, bool) or not float(n).is_integer() or n < 0:
        raise DomainError(f"sphere dimension must be a nonnegative integer, "
                          f"got {n!r}")
    return _LN_2 + 0.5 * (n + 1) * _LN_PI - math.lgamma(0.5 * (n + 1))


def sphere_surface_area(n: int) -> float:
    """Surface area S_n of the unit n-sphere (S_1 = 2 pi, S_2 = 4 pi)."""
    return math.exp(log_sphere_surface_area(n))


def mode_radius(params: Params) -> float:
    """Radius of the density's maximum; 0 when the origin is the mode."""
    p = params.radial
    if p.lambda1 <= 0:
        return 0.0
    return math.sqrt(p.lambda1 / (2.0 * p.lambda2))


@dataclass(frozen=True)
class LogNormInfo:
    value: float
    method_used: Literal["pcf", "quadrature"]
    fell_back: bool


def _z(p: RadialParams) -> float:
    """The shape z = -lambda1 / sqrt(2 lambda2) of the standard law."""
    return -p.lambda1 / math.sqrt(2.0 * p.lambda2)


@lru_cache(maxsize=512)
def _standard(dim: int, z: float) -> tuple:
    """The standard law of shape (dim, z), from one panel pass of D_nu's
    integral (DLMF 12.5.1, nu = -D/2): log of its integral I, log P, t* and
    E[E**i], i = 1..4, for E = u / t* - 1 (see specfun._integral).  log Z,
    the moments, the entropy, the standard errors and each fit step all
    read it."""
    return specfun._integral(-0.5 * dim, z, 4)


def _about_peak(power: float, z: float) -> tuple:
    """power ln u - z u - u**2/2 about its peak u* > 0 (of -z u - u**2/2
    if power <= 0; u* = 0 if none): u*, shift, a = u***2/2 and c = -z - u*
    such that at u = u* s it is shift + power ln s + (s - 1)(u* c - a (s -
    1)).  c cancels no rounded terms: where it cancels, -z and u* are
    within a factor 2 and their difference is exact (Sterbenz)."""
    # the positive root of u^2 + z u - power, cancellation-free
    q = max(power, 0.0)
    disc = math.hypot(z, 2.0 * math.sqrt(q))
    peak = (0.5 * (disc - z) if z < 0 else
            q / (0.5 * disc + 0.5 * z) if q else 0.0)
    a, c = 0.5 * peak * peak, -z - peak
    shift = power * math.log(peak) + peak * c + a if peak > 0 else 0.0
    return peak, shift, a, c


@lru_cache(maxsize=512)
def _log_z_quadrature(dim: int, z: float) -> float:
    # log of the integral of u**power e**(-z u - u**2/2) over u > 0
    if not -1e154 < z < math.inf:  # the pcf route's domain
        raise DomainError(f"quadrature log Z needs a finite z > -1e154: {z}")
    power = 0.5 * dim - 1.0
    peak, shift, a, c = _about_peak(power, z)
    if a > 40.0:
        # u = u* v**w, w = 1 / sqrt(power + 2 a), makes the peak O(1) wide
        # in v, where tanh-sinh's coarse levels resolve it at any contrast.
        # Only where the v -> 0 end holds no mass (e**-a < 1e-17): below,
        # v**(w (power + 1) - 1) is near-singular at D = 1
        w = 1.0 / math.sqrt(power + 2.0 * a)
        scale, c = peak * w, peak * c

        def integrand(v):
            lv = np.log(v)
            e = np.expm1(w * lv)
            return np.exp((w * (power + 1.0) - 1.0) * lv + e * (c - a * e))
    else:
        # u = m s, m = 2.8 t with t the peak of u**2 times the integrand,
        # puts the mass on the rule's coarse nodes for every D, whether
        # the peak is broad or at u = 0; off scales the integrand by its
        # peak value, or it underflows at large D
        scale = 2.8 * _about_peak(power + 2.0, z)[0]
        off = shift - power * math.log(scale)

        def integrand(s):
            u = scale * s
            return np.exp(power * np.log(s) - u * (z + 0.5 * u) - off)

    res = quadrature.integrate_semi_infinite(integrand)
    if not res.value > 0.0:
        raise ConvergenceError(f"quadrature gave a nonpositive integral for "
                               f"dim={dim}, z={z}")
    return shift + math.log(scale) + math.log(res.value)


def _log_scale(params: Params) -> float:
    """log Z minus log I of the standard law: log S_{D-1} - ln 2 - (D/4)
    ln(2 lambda2) + (1/2) log det sigma."""
    p = params.radial
    return log_sphere_surface_area(p.dim - 1) - _LN_2 + 0.5 * (
        params.log_det_sigma - 0.5 * p.dim * math.log(2.0 * p.lambda2))


def log_norm_const_info(params: Params, method: Method = "auto") -> LogNormInfo:
    """log Z with provenance: which route produced it ("auto" is pcf, so
    fell_back is always False)."""
    if method not in ("pcf", "quadrature", "auto"):
        raise DomainError(f"unknown method {method!r}")
    p = params.radial
    if method == "quadrature":
        log_i, route = _log_z_quadrature(p.dim, _z(p)), "quadrature"
    else:
        log_i, route = _standard(p.dim, _z(p))[0], "pcf"
    return LogNormInfo(log_i + _log_scale(params), route, False)


def log_norm_const(params: Params, method: Method = "auto") -> float:
    """log of the normalization constant Z.

    For elliptical parameters this is the full log-normalizer of the
    density, i.e. the radial Z plus (1/2) log det sigma.
    """
    return log_norm_const_info(params, method).value


def log_norm_const_d2_closed(lambda1: float, lambda2: float) -> float:
    """Closed form for dim = 2, where D_-1 collapses to an erf.

    Z_2 = (pi/2) sqrt(pi/lambda2) e**(lambda1**2/(4 lambda2))
          erfc(-lambda1 / (2 sqrt(lambda2))).
    """
    if not (math.isfinite(lambda2) and lambda2 > 0):
        raise DomainError(f"lambda2 must be positive, got {lambda2}")
    if not math.isfinite(lambda1):
        raise DomainError(f"lambda1 must be finite, got {lambda1}")
    w = -lambda1 / (2.0 * math.sqrt(lambda2))
    return (math.log(0.5 * math.pi) + 0.5 * (_LN_PI - math.log(lambda2))
            + _log_erfc_scaled(w))


def _log_erfc_scaled(w: float) -> float:
    """w**2 + log erfc(w), with the cancellation at large w done in closed
    form so the result stays accurate where erfc underflows."""
    if w < 20.0:
        return w * w + math.log(math.erfc(w))
    # asymptotic: erfc(w) = e^{-w^2}/(w sqrt(pi)) * sum_k (-1)^k (2k-1)!!/(2w^2)^k
    term = 1.0
    total = 1.0
    for k in range(30):
        term *= -(2 * k + 1) / (2.0 * w * w)
        total += term
        if abs(term) < 1e-18:
            break
    return -math.log(w) - 0.5 * _LN_PI + math.log(total)


def log_norm_const_d1_neg(lambda1: float, lambda2: float) -> float:
    """Closed form for dim = 1 with lambda1 < 0, via K_{1/4}.

    Z_1 = (1/2) sqrt(-lambda1/lambda2) e**w K_{1/4}(w),
    w = lambda1**2 / (8 lambda2); ConvergenceError where w is not a double.
    """
    if not -math.inf < lambda1 < 0:
        raise DomainError(
            f"this closed form requires a finite lambda1 < 0, got {lambda1}")
    if not (math.isfinite(lambda2) and lambda2 > 0):
        raise DomainError(f"lambda2 must be positive, got {lambda2}")
    r = lambda1 / math.sqrt(lambda2) / math.sqrt(8.0)
    w = r * r  # lambda1**2 itself may overflow or underflow
    if not 0.0 < w < math.inf:
        raise ConvergenceError(f"w = lambda1**2 / (8 lambda2) rounds to {w}")
    # e**w K_{1/4}(w) as one compensated value; forming e**w and K
    # separately would overflow and lose the cancellation at large w.
    return (-_LN_2 + 0.5 * (math.log(-lambda1) - math.log(lambda2))
            + specfun.bessel_k_quarter_scaled(w))


def radial_moment(params: Params, k: int, method: Method = "auto") -> float:
    """E[r**k] of the Mahalanobis radius, for k in {2, 4, 6, 8}.

    It is (2 lambda2)**(-k/4) E[u**j], j = k/2, under the standard law.
    The pcf route reads that as t***j E[(1 + E)**j] from its one panel
    pass, within 6e-15 relative of 40-digit references on rings to alpha
    1e8, box and near-Gaussian laws; the quadrature route is the ratio of
    its standard integrals at D + k and D.  ConvergenceError where E[r**k]
    overflows.
    """
    if k not in (2, 4, 6, 8):
        raise DomainError(f"radial moments implemented for k in {{2,4,6,8}}, "
                          f"got {k}")
    if method not in ("pcf", "quadrature", "auto"):
        raise DomainError(f"unknown method {method!r}")
    p = params.radial
    z, j = _z(p), k // 2
    if method == "quadrature":  # the j-th root of the lifted ratio
        t, value = math.exp((_log_z_quadrature(p.dim + k, z)
                             - _log_z_quadrature(p.dim, z)) / j), 1.0
    else:
        _, _, t, e = _standard(p.dim, z)
        value = math.fsum(math.comb(j, i) * c
                          for i, c in enumerate((1.0, *e[:j])))
    y = t / math.sqrt(2.0 * p.lambda2)
    for _ in range(j):
        value *= y
    if value == math.inf:
        raise ConvergenceError(f"E[r**{k}] of {p} overflows")
    return value


def entropy(params: Params) -> float:
    """Differential entropy in nats.

    H = lambda2 E[r**4] - lambda1 E[r**2] + log Z, which in the standard
    law's u = t* (1 + E), with t*^2 + z t* = a = D/2, is a ln t* + log P +
    a E[E] + t*^2 E[E**2] / 2 plus log Z's scale term, P = I e**-(a ln t*
    - t*^2/2 - z t*) the integral about the peak: no alpha-sized terms
    cancel on a thin ring.  Within 1e-12 nats of 40-digit references on
    rings to alpha 1e8, and 1e-13 of max(1, |H|) on box and near-Gaussian
    laws.
    """
    p = params.radial
    a = 0.5 * p.dim
    _, log_p, t, (e1, e2, _, _) = _standard(p.dim, _z(p))
    return (a * (math.log(t) + e1) + log_p + 0.5 * t * t * e2
            + _log_scale(params))


def _sq_norms(params: Params | EllipticalGammaReference,
              x: np.ndarray) -> np.ndarray:
    """Mahalanobis forms q for one point (dim,) or a batch (n, dim); the
    elliptical Gamma reference is centred at the origin."""
    x = np.asarray(x, dtype=float)
    d = params.dim
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != d:
        raise DomainError(f"points must have shape ({d},) or (n, {d}), got "
                          f"{np.asarray(x).shape}")
    q = (np.einsum("ij,ij->i", x, x) if isinstance(params, RadialParams) else
         _whitened_sq_norms(params._chol, x, getattr(params, "mu", 0.0)))
    # a non-finite point always gives a non-finite q, so x needs a look
    # only then: a finite point may overflow q too (its density is 0)
    if not np.all(np.isfinite(q)) and not np.all(np.isfinite(x)):
        raise DomainError("points must be finite")
    return q[0] if squeeze else q


def log_density(params: Params, x: np.ndarray) -> float | np.ndarray:
    """log p(x) for a single point (dim,) or a batch (n, dim).

    Never NaN and silent for finite points: where q or q**2 overflows,
    the density underflows and the result is -inf.
    """
    p = params.radial
    log_z = log_norm_const(params)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.atleast_1d(_sq_norms(params, x))
        out = np.empty_like(q)
        for rows in _blocks(q.size):  # l1 q - l2 q q - log Z, in that order
            quartic = p.lambda2 * q[rows] * q[rows]
            np.subtract(p.lambda1 * q[rows], quartic, out=out[rows])
            out[rows] -= log_z
    # inf - inf once q overflows; lambda2 > 0, so the quartic term wins
    out[np.isnan(out)] = -np.inf
    return float(out[0]) if np.ndim(x) == 1 else out


def density(params: Params, x: np.ndarray) -> float | np.ndarray:
    return np.exp(log_density(params, x))


@dataclass(frozen=True, eq=False)
class EllipticalGammaReference(_ShapeMatrix):
    """Elliptical Gamma distribution used as the maximum entropy reference.

    Radial generator phi(q) = q**(a - D/2) e**(-q/b), which makes the
    Mahalanobis form q exactly Gamma(a, scale=b).  It satisfies the same
    (c2, c4) moment constraints when a = c2**2/(c4 - c2**2) and
    b = (c4 - c2**2)/c2, but always has lower entropy than the quartic
    exponential fit to the same constraints.
    """

    sigma: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DomainError(f"sigma must be square, got {sigma.shape}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise DomainError(f"a must be positive, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise DomainError(f"b must be positive, got {self.b}")
        self._set_sigma(sigma)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def log_norm_const(self) -> float:
        # integral of phi(q(x)) dx = |sigma|^(1/2) (S_{D-1}/2) Gamma(a) b^a
        return (0.5 * self.log_det_sigma
                + log_sphere_surface_area(self.dim - 1) - _LN_2
                + math.lgamma(self.a) + self.a * math.log(self.b))

    def log_density(self, x: np.ndarray) -> float | np.ndarray:
        """log p(x): -inf where q overflows, never NaN, silently; at the
        origin -inf, finite or +inf as a - D/2 is > 0, = 0 or < 0."""
        power = self.a - 0.5 * self.dim
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q = _sq_norms(self, x)
            # q**0 = 1 also at q = 0, where 0 * log q would be NaN
            log_q_part = power * np.log(q) if power != 0.0 else 0.0
            out = log_q_part - q / self.b - self.log_norm_const
        # inf - inf once q overflows with power > 0; the exponential wins
        out = np.where(np.isnan(out), -np.inf, out)
        return float(out) if np.ndim(q) == 0 else out

    def entropy(self) -> float:
        """Differential entropy in nats, 1/2 log det sigma + log S_{D-1} -
        ln 2 + h(a) + (D/2 - 1) psi(a) + (D/2) ln b, h the entropy of
        Gamma(a, 1), to 1e-13 of max(1, |H|); ConvergenceError on overflow."""
        psi, h = specfun._gamma_law(self.a)
        d = self.dim
        value = log_sphere_surface_area(d - 1) - _LN_2 + h + 0.5 * (
            self.log_det_sigma + (d - 2) * psi + d * math.log(self.b))
        if not math.isfinite(value):
            raise ConvergenceError(f"the entropy at a={self.a} overflows")
        return value

    def sample(self, n: int, gen) -> np.ndarray:
        """n draws; gen is a SeededGenerator or a numpy Generator."""
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or n < 1):
            raise DomainError(f"n must be a positive integer, got {n!r}")
        rng = getattr(gen, "rng", gen)
        if not isinstance(rng, np.random.Generator):
            raise DomainError(f"gen must be a SeededGenerator or numpy "
                              f"Generator, got {type(gen).__name__}")
        q = rng.gamma(shape=self.a, scale=self.b, size=n)
        return _draws(rng, n, self.dim, lambda: np.sqrt(q), self._chol)


def eg_reference(sigma: np.ndarray, a: float, b: float
                 ) -> EllipticalGammaReference:
    """Elliptical Gamma reference with shape matrix sigma and q ~ Gamma(a, b)."""
    return EllipticalGammaReference(sigma=np.asarray(sigma, dtype=float),
                                    a=a, b=b)


def eg_reference_from_moments(sigma: np.ndarray, moments: MomentPair
                              ) -> EllipticalGammaReference:
    """The EG distribution matching E[q] = c2 and E[q**2] = c4 exactly.

    The shape a = c2**2 / (c4 - c2**2) takes the variance as a difference
    of rounded moments, so it keeps about 16 + log10(1 / (a + 1)) digits:
    about 8 on the ring (3, alpha 1e8, R 1), where the matched entropy is
    then about 1.2e-8 nats off.  Build it with eg_reference from the
    variance itself where that matters.
    """
    excess = moments.c4 - moments.c2 * moments.c2
    return eg_reference(sigma, moments.c2 * moments.c2 / excess,
                        excess / moments.c2)
