"""Quartic exponential distribution: parameters, normalization, moments.

The density is p(x) = Z**-1 exp(lambda1 * q - lambda2 * q**2) with
q = (x - mu)' Sigma**-1 (x - mu); lambda2 > 0 makes it normalizable for
either sign of lambda1, and lambda1 > 0 puts the mode on a shell of
radius R = sqrt(lambda1 / (2 lambda2)) instead of at the origin.

Everything radial reduces to one-dimensional integrals of
y**(D/2-1) exp(lambda1 y - lambda2 y**2) over y = r**2 > 0, which have a
closed form in the parabolic cylinder function.  log_norm_const exposes
both that route and direct quadrature; they are developed and tested
independently, and the pair doubles as a cross-check in the CLI
selfcheck.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.lambda2) and self.lambda2 > 0):
            raise DomainError(f"lambda2 must be positive, got {self.lambda2}")
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


def _draws(rng, r: np.ndarray, dim: int, chol=None, mu=0.0) -> np.ndarray:
    """Draws mu + chol (r_i v_i / |v_i|), v_i the next r.size * dim normals
    of rng (chol None: the identity), made block by block in place."""
    x, buf = np.empty((r.size, dim)), np.empty((min(r.size, _BLOCK + 1), dim))
    chol_t = None if chol is None else chol.T.copy()  # C order, as above
    for rows in _blocks(r.size):
        v = x[rows]
        rng.standard_normal(out=v)
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


@lru_cache(maxsize=512)
def _log_z_pcf(dim: int, l1: float, l2: float) -> float:
    # The raw assembly pairs a prefactor e**(l1**2/(8 l2)) with the
    # e**(-z**2/4) inside D_nu(z); at z**2/4 = l1**2/(8 l2) these cancel
    # exactly, so use the compensated e**(z**2/4) D_nu(z) and skip both
    # terms rather than subtracting two huge floats.
    z = -l1 / math.sqrt(2.0 * l2)
    return (log_sphere_surface_area(dim - 1) - _LN_2
            + math.lgamma(0.5 * dim) - 0.25 * dim * math.log(2.0 * l2)
            + specfun.pcf_d_scaled(-0.5 * dim, z))


def _about_peak(power: float, l1: float, l2: float) -> tuple:
    """power ln y + l1 y - l2 y^2 about its peak y* > 0 (of l1 y - l2 y^2
    if power <= 0; y* = 0 if none): y*, shift, a and c such that at y = y* s
    it is shift + power ln s + (s - 1)(c - a (s - 1)), a form that cancels
    no terms of size l1 y (their rounding is ~1e-8 at alpha ~ 1e8)."""
    if power > 0.0:
        # the positive root of 2 l2 y^2 - l1 y - power, cancellation-free
        disc = math.hypot(l1, math.sqrt(8.0 * l2 * power))
        peak = ((l1 + disc) / (4.0 * l2) if l1 > 0
                else 2.0 * power / (disc - l1))
    else:
        peak = 0.5 * l1 / l2 if l1 > 0 else 0.0
    a = l2 * peak * peak
    shift = power * math.log(peak) + l1 * peak - a if peak > 0 else 0.0
    return peak, shift, a, l1 * peak - 2.0 * a


@lru_cache(maxsize=512)
def _log_z_quadrature(dim: int, l1: float, l2: float) -> float:
    power = 0.5 * dim - 1.0
    peak, shift, a, c = _about_peak(power, l1, l2)
    if a > 40.0:
        # s = z**w, w = 1 / sqrt(power + 2 a), makes the peak O(1) wide in
        # z, where tanh-sinh's coarse levels resolve it at any contrast.
        # Only where the s -> 0 end holds no mass (e**-a < 1e-17): below,
        # z**(w (power + 1) - 1) is near-singular at D = 1
        w = 1.0 / math.sqrt(power + 2.0 * a)
        scale = peak * w

        def integrand(z):
            lz = np.log(z)
            e = np.expm1(w * lz)
            return np.exp((w * (power + 1.0) - 1.0) * lz + e * (c - a * e))
    elif power + 2.0 * a > 4.0:
        # y = peak * s puts a peak narrower than half its distance from 0
        # on the rule's centre node s = 1, where every level sees it
        scale = peak

        def integrand(s):
            return np.exp(power * np.log(s) + (s - 1.0) * (c - a * (s - 1.0)))
    else:
        scale = 1.0
        if dim < 3:  # the peak of l1 y - l2 y^2 alone, so no value moves
            shift = l1 * l1 / (4.0 * l2) if l1 > 0 else 0.0

        def integrand(y):
            return np.exp(power * np.log(y) + l1 * y - l2 * y * y - shift)

    res = quadrature.integrate_semi_infinite(integrand, target_rel_tol=1e-11)
    if not res.value > 0.0:
        raise ConvergenceError(f"quadrature gave a nonpositive integral for "
                               f"dim={dim}, lambda1={l1}, lambda2={l2}")
    return (log_sphere_surface_area(dim - 1) - _LN_2 + shift
            + math.log(scale) + math.log(res.value))


def log_norm_const_info(params: Params, method: Method = "auto") -> LogNormInfo:
    """log Z with provenance: which route produced it and whether the
    closed form fell back to quadrature."""
    if method not in ("pcf", "quadrature", "auto"):
        raise DomainError(f"unknown method {method!r}")
    p = params.radial
    extra = 0.5 * params.log_det_sigma
    if method != "quadrature":
        try:
            return LogNormInfo(
                _log_z_pcf(p.dim, p.lambda1, p.lambda2) + extra, "pcf", False)
        except ConvergenceError:
            if method == "pcf":
                raise
    return LogNormInfo(_log_z_quadrature(p.dim, p.lambda1, p.lambda2) + extra,
                       "quadrature", method == "auto")


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
    w = lambda1**2 / (8 lambda2).
    """
    if not lambda1 < 0:
        raise DomainError(
            f"this closed form requires lambda1 < 0, got {lambda1}")
    if not (math.isfinite(lambda2) and lambda2 > 0):
        raise DomainError(f"lambda2 must be positive, got {lambda2}")
    w = lambda1 * lambda1 / (8.0 * lambda2)
    # e**w K_{1/4}(w) as one compensated value; forming e**w and K
    # separately would overflow and lose the cancellation at large w.
    return (-_LN_2 + 0.5 * (math.log(-lambda1) - math.log(lambda2))
            + specfun.bessel_k_quarter_scaled(w))


@lru_cache(maxsize=512)
def _moments(dim: int, l1: float, l2: float) -> tuple:
    """E[q**j], j = 1..4, and y = t* / sqrt(2 lambda2) with the covariance
    (g11, g12, g22) of (E, 2 E + E**2), E = q / y - 1, and its Schur
    complement g22 - g12**2 / g11, from one moments pass.  The central
    moments of E are of one size on a thin ring, where a variance of raw
    moments is ~1e-16 alpha off relative."""
    scale = math.sqrt(2.0 * l2)
    t_star, c = specfun.pcf_moment_sums(-0.5 * dim, -l1 / scale)
    y, (c1, c2, c3, c4) = t_star / scale, c
    y2 = y * y
    raw = (y * (1.0 + c1), y2 * math.fsum((1.0, 2.0 * c1, c2)),
           y2 * y * math.fsum((1.0, 3.0 * c1, 3.0 * c2, c3)),
           y2 * y2 * math.fsum((1.0, 4.0 * c1, 6.0 * c2, 4.0 * c3, c4)))
    var, cov, var2 = c2 - c1 * c1, c3 - c1 * c2, c4 - c2 * c2
    return raw, (y, var, 2.0 * var + cov, 4.0 * (var + cov) + var2,
                 var2 - cov * cov / var if var > 0.0 else 0.0)


def radial_moment(params: Params, k: int, method: Method = "auto") -> float:
    """E[r**k] of the Mahalanobis radius, for k in {2, 4, 6, 8}.

    The pcf route reads E[q**j] = y**j E[(1 + E)**j] from one moments
    pass, within 6e-15 relative of 40-digit references on rings to alpha
    1e8, box and near-Gaussian laws; the quadrature route, also "auto"'s
    fallback, is the lifted ratio (Z_{D+k} / Z_D) (S_{D-1} / S_{D+k-1}).
    """
    if k not in (2, 4, 6, 8):
        raise DomainError(f"radial moments implemented for k in {{2,4,6,8}}, "
                          f"got {k}")
    if method not in ("pcf", "quadrature", "auto"):
        raise DomainError(f"unknown method {method!r}")
    p = params.radial
    if method != "quadrature":
        try:
            return _moments(p.dim, p.lambda1, p.lambda2)[0][k // 2 - 1]
        except ConvergenceError:
            if method == "pcf":
                raise
    base = log_norm_const(p, "quadrature")
    lifted = log_norm_const(RadialParams(p.dim + k, p.lambda1, p.lambda2),
                            "quadrature")
    return math.exp(lifted - base
                    + log_sphere_surface_area(p.dim - 1)
                    - log_sphere_surface_area(p.dim + k - 1))


def entropy(params: Params) -> float:
    """Differential entropy in nats.

    H = lambda2 E[r**4] - lambda1 E[r**2] + log Z, plus
    (1/2) log det sigma in the elliptical case: within 1e-7 nats of
    40-digit references on rings to alpha 1e8.
    """
    p = params.radial
    return (p.lambda2 * radial_moment(p, 4) - p.lambda1 * radial_moment(p, 2)
            + log_norm_const(p) + 0.5 * params.log_det_sigma)


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
        """Differential entropy; E[ln q] is integrated numerically."""
        a, b, d = self.a, self.b, self.dim
        norm = math.lgamma(a) + a * math.log(b)

        def integrand(y):
            return np.log(y) * np.exp((a - 1.0) * np.log(y) - y / b - norm)

        mean_log_q = quadrature.integrate_semi_infinite(
            integrand, target_rel_tol=1e-12, target_abs_tol=1e-12).value
        return (self.log_norm_const - (a - 0.5 * d) * mean_log_q + a)

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
        return _draws(rng, np.sqrt(q), self.dim, self._chol)


def eg_reference(sigma: np.ndarray, a: float, b: float
                 ) -> EllipticalGammaReference:
    """Elliptical Gamma reference with shape matrix sigma and q ~ Gamma(a, b)."""
    return EllipticalGammaReference(sigma=np.asarray(sigma, dtype=float),
                                    a=a, b=b)


def eg_reference_from_moments(sigma: np.ndarray, moments: MomentPair
                              ) -> EllipticalGammaReference:
    """The EG distribution matching E[q] = c2 and E[q**2] = c4 exactly."""
    excess = moments.c4 - moments.c2 * moments.c2
    return eg_reference(sigma, moments.c2 * moments.c2 / excess,
                        excess / moments.c2)
