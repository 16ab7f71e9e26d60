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
cylinder function (specfun).  log_norm_const's "quadrature" method takes
it instead from the tanh-sinh oracle (quadrature.log_integral); the two
modules share no code, and the pair doubles as a cross-check in the CLI
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
_REAL = (float, int, np.floating, np.integer)  # bool, an int, is not

Method = Literal["pcf", "quadrature", "auto"]


def _positive_int(name: str, value) -> int:
    """value as an int: a positive integer, or a float of integer value."""
    if (isinstance(value, _REAL) and not isinstance(value, bool)
            and value >= 1 and (isinstance(value, (int, np.integer))
                                or float(value).is_integer())):
        return int(value)
    raise DomainError(f"{name} must be a positive integer, got {value!r}")


def _set_real(obj, name: str, positive: bool = False) -> float:
    """Set the field ``name`` of a frozen dataclass to its value as a float
    and return it; DomainError unless that is a finite real number (a bool
    is not), and positive if ``positive``."""
    value = getattr(obj, name)
    if isinstance(value, _REAL) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond double range
            x = math.inf
        if math.isfinite(x) and (x > 0.0 or not positive):
            object.__setattr__(obj, name, x)
            return x
    kind = "positive" if positive else "finite"
    raise DomainError(f"{name} must be a {kind} real number, got {value!r}")


def _reals(name: str, value) -> np.ndarray:
    """value as a new float array, if a rectangular array of real numbers."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged
        arr = np.array(None)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of real numbers, got "
                          f"{value!r}")
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class RadialParams:
    """Natural parameters (lambda1, lambda2) of a spherical quartic
    exponential in ``dim`` dimensions."""

    dim: int
    lambda1: float
    lambda2: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _positive_int("dim", self.dim))
        _set_real(self, "lambda1")
        if not math.isfinite(2.0 * _set_real(self, "lambda2", positive=True)):
            raise DomainError(f"2 lambda2 must be finite, got {self.lambda2}")

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
        object.__setattr__(self, "dim", _positive_int("dim", self.dim))
        _set_real(self, "alpha", positive=True)
        _set_real(self, "radius", positive=True)


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


class SeededGenerator:
    """Deterministic random stream (PCG64 keyed by an integer seed)."""

    def __init__(self, seed: int):
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or seed < 0):
            raise DomainError(
                f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self.rng = np.random.Generator(np.random.PCG64(self.seed))


def _as_rng(n: int, gen) -> np.random.Generator:
    """The Generator that both samplers' n draws take from gen, an integer
    seed, a SeededGenerator or a numpy Generator; n is checked too."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if isinstance(gen, SeededGenerator):
        return gen.rng
    if isinstance(gen, np.random.Generator):
        return gen
    if isinstance(gen, (int, np.integer)) and not isinstance(gen, bool):
        return SeededGenerator(int(gen)).rng
    raise DomainError(f"gen must be an integer seed, a SeededGenerator or a "
                      f"numpy Generator, got {type(gen)!r}")


def _draws(rng, n: int, dim: int, r, chol=None, mu=0.0) -> np.ndarray:
    """n draws mu + chol (r_i v_i / |v_i|), v_i the next n * dim normals of
    rng (chol None: the identity) and r the array of n radii, scaled block
    by block in place."""
    x = rng.standard_normal((n, dim))
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
        mu, sigma = _reals("mu", self.mu), _reals("sigma", self.sigma)
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
        c2, c4 = _set_real(self, "c2", positive=True), _set_real(self, "c4")
        if not c4 > c2 * c2:
            raise DomainError(f"c4 must exceed c2**2 (got c2={c2}, c4={c4})")


def log_sphere_surface_area(n: int) -> float:
    """log of the surface area of the unit n-sphere embedded in R^(n+1)."""
    if isinstance(n, bool) or not float(n).is_integer() or n < 0:
        raise DomainError(f"sphere dimension must be a nonnegative integer, "
                          f"got {n!r}")
    return _LN_2 + 0.5 * (n + 1) * _LN_PI - math.lgamma(0.5 * (n + 1))


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
        log_i, route = quadrature.log_integral(p.dim, _z(p)), "quadrature"
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
          erfc(-lambda1 / (2 sqrt(lambda2))); the arguments are checked as
    RadialParams checks them.
    """
    p = RadialParams(2, lambda1, lambda2)
    w = -p.lambda1 / (2.0 * math.sqrt(p.lambda2))
    return (math.log(0.5 * math.pi) + 0.5 * (_LN_PI - math.log(p.lambda2))
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
    w = lambda1**2 / (8 lambda2); the arguments are checked as RadialParams
    checks them, and ConvergenceError where w is not a double.
    """
    p = RadialParams(1, lambda1, lambda2)
    lambda1, lambda2 = p.lambda1, p.lambda2
    if not lambda1 < 0:
        raise DomainError(
            f"this closed form requires lambda1 < 0, got {lambda1}")
    r = lambda1 / math.sqrt(lambda2) / math.sqrt(8.0)
    w = r * r  # lambda1**2 itself may overflow or underflow
    if not 0.0 < w < math.inf:
        raise ConvergenceError(f"w = lambda1**2 / (8 lambda2) rounds to {w}")
    # e**w K_{1/4}(w) as one compensated value; forming e**w and K
    # separately would overflow and lose the cancellation at large w.
    return (-_LN_2 + 0.5 * (math.log(-lambda1) - math.log(lambda2))
            + specfun.bessel_k_quarter_scaled(w))


def radial_moment(params: Params, k: int,
                  method: Literal["pcf", "auto"] = "auto") -> float:
    """E[r**k] of the Mahalanobis radius, for k in {2, 4, 6, 8}.

    It is (2 lambda2)**(-k/4) E[u**j], j = k/2, under the standard law,
    read as t***j E[(1 + E)**j] from its one panel pass: within 6e-15
    relative of 40-digit references on rings to alpha 1e8, box and
    near-Gaussian laws.  ``method`` is "pcf" or "auto", the one route.
    ConvergenceError where E[r**k] overflows.
    """
    if k not in (2, 4, 6, 8):
        raise DomainError(f"radial moments implemented for k in {{2,4,6,8}}, "
                          f"got {k}")
    if method not in ("pcf", "auto"):
        raise DomainError(f"unknown method {method!r}")
    p = params.radial
    j = k // 2
    _, _, t, e = _standard(p.dim, _z(p))
    value = math.fsum(math.comb(j, i) * c for i, c in enumerate((1.0, *e[:j])))
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
    the density underflows and the result is -inf.  A row of a batch has
    the same value, bit for bit, in any row block of any batch; an
    elliptical point alone can differ from it by a few ulps (up to 4 of q
    and 7 of log p were measured over 30 seeded laws, D 2-10), because
    numpy hands a one-row product to BLAS's vector kernel.
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
        sigma = _reals("sigma", self.sigma)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DomainError(f"sigma must be square, got {sigma.shape}")
        _set_real(self, "a", positive=True)
        _set_real(self, "b", positive=True)
        self._set_sigma(sigma)

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
        """n draws, shape (n, dim), from gen as sampling.sample takes it: n
        Gamma variates for the radii, then n*dim normals."""
        rng = _as_rng(n, gen)
        q = rng.gamma(shape=self.a, scale=self.b, size=n)
        return _draws(rng, n, self.dim, np.sqrt(q), self._chol)


def eg_reference_from_moments(sigma: np.ndarray, moments: MomentPair
                              ) -> EllipticalGammaReference:
    """The EG distribution matching E[q] = c2 and E[q**2] = c4 exactly.

    The shape a = c2**2 / (c4 - c2**2) takes the variance as a difference
    of rounded moments, so it keeps about 16 + log10(1 / (a + 1)) digits:
    about 8 on the ring (3, alpha 1e8, R 1), where the matched entropy is
    then about 1.2e-8 nats off.  Where that matters, build it with
    EllipticalGammaReference(sigma, mean**2 / var, var / mean) from the
    variance itself.
    """
    excess = moments.c4 - moments.c2 * moments.c2
    return EllipticalGammaReference(sigma, moments.c2 * moments.c2 / excess,
                                    excess / moments.c2)
