"""Exact sampling by tabulated inverse CDF of the radial law.

Directions on the sphere are trivial (normalized Gaussians); all the work
is in the radius r, whose density is proportional to
r**(D-1) exp(lambda1 r**2 - lambda2 r**4).  A pilot pass places table
knots uniformly in CDF, per-interval Gauss-Legendre integration gives the
CDF at the knots to near machine accuracy, and a cubic Hermite
interpolant with exact density derivatives represents the CDF between
them.  Inversion seeds a monotone (PCHIP) inverse and polishes with a
few clamped Newton steps on the forward interpolant, so identical seeds
produce identical samples with no iteration-count dependence on the
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from . import core
from .errors import ConvergenceError, DomainError
from .quadrature import gauss_legendre_panels

_TAIL_MASS = 1e-14


class SeededGenerator:
    """Deterministic random stream (PCG64 keyed by an integer seed)."""

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        self.rng = np.random.Generator(np.random.PCG64(self.seed))


def _as_rng(gen) -> np.random.Generator:
    if isinstance(gen, SeededGenerator):
        return gen.rng
    if isinstance(gen, np.random.Generator):
        return gen
    if isinstance(gen, (int, np.integer)) and not isinstance(gen, bool):
        return SeededGenerator(int(gen)).rng
    raise DomainError(
        f"gen must be an integer seed, a SeededGenerator or a "
        f"numpy Generator, got {type(gen)!r}")


def _log_radial_profile(p: core.RadialParams, r: np.ndarray) -> np.ndarray:
    """(D-1) ln r + lambda1 r^2 - lambda2 r^4, elementwise; -inf at r=0
    for D >= 2."""
    r = np.asarray(r, dtype=float)
    quad_part = p.lambda1 * r * r - p.lambda2 * r ** 4
    if p.dim == 1:
        return quad_part
    with np.errstate(divide="ignore"):
        return (p.dim - 1) * np.log(r) + quad_part


def _profile_peak(p: core.RadialParams) -> float:
    """Radius maximizing the radial density (0 allowed only for D = 1)."""
    disc = p.lambda1 * p.lambda1 + 4.0 * p.lambda2 * (p.dim - 1)
    r_sq = (p.lambda1 + math.sqrt(disc)) / (4.0 * p.lambda2)
    return math.sqrt(max(r_sq, 0.0))


def _tail_cutoff(p: core.RadialParams, log_norm: float, shift: float) -> float:
    """Radius beyond which the remaining mass is below _TAIL_MASS.

    Uses the bound integral_r^inf e^g <= e^g(r) / |g'(r)|, valid once g
    is decreasing and concave, which holds past the peak.
    """
    target = log_norm + math.log(_TAIL_MASS) - 2.0
    r = _profile_peak(p) + max(1.0, 0.5 / p.lambda2 ** 0.25)
    for _ in range(300):
        g = float(_log_radial_profile(p, r))
        slope = abs((p.dim - 1) / r + 2.0 * p.lambda1 * r
                    - 4.0 * p.lambda2 * r ** 3)
        if g - math.log(max(slope, 1e-300)) <= target:
            return r
        r *= 1.15
    raise ConvergenceError(f"could not bound the radial tail for {p}")


def _interval_integrals(p: core.RadialParams, knots: np.ndarray,
                        shift: float) -> np.ndarray:
    """Integral of e^(g - shift) between consecutive knots, long intervals
    subdivided first.

    Knots are placed uniformly in CDF, so near-zero-density stretches
    collapse into single wide intervals that a 24-point rule cannot
    resolve on its own.
    """
    h_cap = (knots[-1] - knots[0]) / 4096.0
    n_sub = np.maximum(1, np.ceil(np.diff(knots) / h_cap)).astype(int)
    edges = np.empty(int(np.sum(n_sub)) + 1)
    offsets = np.concatenate(([0], np.cumsum(n_sub)))
    for i in range(knots.size - 1):
        edges[offsets[i]:offsets[i + 1]] = np.linspace(
            knots[i], knots[i + 1], n_sub[i] + 1)[:-1]
    edges[-1] = knots[-1]
    pieces = gauss_legendre_panels(partial(_log_radial_profile, p), edges,
                                   shift)
    return np.add.reduceat(pieces, offsets[:-1])


@dataclass(frozen=True, eq=False)
class RadialCdfTable:
    """Shareable, immutable inverse-CDF table for the radial density."""

    params: core.RadialParams
    knots: np.ndarray
    cdf_values: np.ndarray
    pdf_values: np.ndarray
    r_max: float
    log_norm: float
    _forward: CubicHermiteSpline = field(init=False, repr=False)
    _inverse_seed: PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_forward",
            CubicHermiteSpline(self.knots, self.cdf_values, self.pdf_values))
        keep = np.concatenate(([True], np.diff(self.cdf_values) > 0))
        object.__setattr__(
            self, "_inverse_seed",
            PchipInterpolator(self.cdf_values[keep], self.knots[keep]))
        for arr in (self.knots, self.cdf_values, self.pdf_values):
            arr.flags.writeable = False

    def cdf(self, r) -> np.ndarray | float:
        r = np.clip(np.asarray(r, dtype=float), 0.0, self.r_max)
        out = np.clip(self._forward(r), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def inverse_cdf(self, u) -> np.ndarray | float:
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any((u_arr < 0.0) | (u_arr > 1.0)) or not np.all(
                np.isfinite(u_arr)):
            raise DomainError("quantile levels must lie in [0, 1]")
        idx = np.clip(
            np.searchsorted(self.cdf_values, u_arr, side="right") - 1,
            0, self.knots.size - 2)
        r_lo = self.knots[idx]
        r_hi = self.knots[idx + 1]
        # Newton on the forward interpolant, clamped into the bracketing
        # knot interval; the secant slope floors the divisor so that flat
        # (zero-mass) intervals cannot launch the iterate out of bracket.
        secant = ((self.cdf_values[idx + 1] - self.cdf_values[idx])
                  / (r_hi - r_lo))
        floor = np.maximum(1e-3 * secant, 1e-300)
        r = np.clip(self._inverse_seed(np.clip(u_arr, self.cdf_values[0],
                                               self.cdf_values[-1])),
                    r_lo, r_hi)
        deriv = self._forward.derivative()
        for _ in range(4):
            slope = np.maximum(deriv(r), floor)
            r = np.clip(r - (self._forward(r) - u_arr) / slope, r_lo, r_hi)
        # bisect the stragglers (cells whose slope floor throttled Newton)
        bad = (np.abs(self._forward(r) - u_arr)
               > 1e-12 + 1e-9 * secant * (r_hi - r_lo))
        if np.any(bad):
            lo, hi = r_lo[bad].copy(), r_hi[bad].copy()
            ub = u_arr[bad]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                high_side = self._forward(mid) > ub
                hi = np.where(high_side, mid, hi)
                lo = np.where(high_side, lo, mid)
            r[bad] = 0.5 * (lo + hi)
        return float(r[0]) if np.ndim(u) == 0 else r


def build_radial_table(params: core.Params,
                       n_knots: int = 2048) -> RadialCdfTable:
    """Build the radial inverse-CDF table.

    The tail beyond the last knot carries less than 1e-14 of the mass;
    the table treats the CDF there as exactly 1.
    """
    p = params.radial if isinstance(params, core.EllipticalParams) else params
    if n_knots < 8:
        raise DomainError(f"n_knots must be at least 8, got {n_knots}")
    log_norm = (core.log_norm_const(p)
                - core.log_sphere_surface_area(p.dim - 1))
    r_peak = _profile_peak(p)
    shift = float(_log_radial_profile(p, r_peak)) if r_peak > 0 else 0.0
    r_max = _tail_cutoff(p, log_norm, shift)

    pilot = np.linspace(0.0, r_max, 4097)
    pilot_cum = np.concatenate(
        ([0.0], np.cumsum(gauss_legendre_panels(
            partial(_log_radial_profile, p), pilot, shift))))
    pilot_cdf = pilot_cum / pilot_cum[-1]

    # mostly uniform in CDF, with log-spaced targets at both ends so that
    # steep density edges (sharp rings) keep knots through the "dead" zone
    edge = np.array([1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-4])
    targets = np.unique(np.concatenate(
        [edge, np.linspace(0.0, 1.0, n_knots - 2 * edge.size),
         1.0 - edge[::-1]]))
    knots = np.interp(targets, pilot_cdf, pilot)
    knots[0], knots[-1] = 0.0, r_max
    knots = np.unique(knots)

    cum = np.concatenate(
        ([0.0], np.cumsum(_interval_integrals(p, knots, shift))))
    total = cum[-1]
    resid = abs(shift + math.log(total) - log_norm)
    if resid > 1e-8:
        raise ConvergenceError(
            f"radial CDF normalization disagrees with log_norm_const by "
            f"{resid:.2e} for {p}")
    cdf = np.minimum(cum / total, 1.0)
    cdf[-1] = 1.0
    pdf = np.exp(_log_radial_profile(p, knots) - shift) / total
    if p.dim >= 2:
        pdf[0] = 0.0
    return RadialCdfTable(params=p, knots=knots, cdf_values=cdf,
                          pdf_values=pdf, r_max=r_max, log_norm=log_norm)


@lru_cache(maxsize=64)
def _cached_table(p: core.RadialParams, n_knots: int) -> RadialCdfTable:
    return build_radial_table(p, n_knots)


def sample(params: core.Params, n: int, gen) -> np.ndarray:
    """n independent draws, shape (n, dim).

    The stream consumption order is fixed (n uniforms for the radii, then
    n*dim normals for the directions), so results are reproducible for a
    given seed across parameterizations of the same dimension.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    rng = _as_rng(gen)
    p = params.radial if isinstance(params, core.EllipticalParams) else params
    table = _cached_table(p, 2048)
    r = np.atleast_1d(table.inverse_cdf(rng.random(n)))
    v = rng.standard_normal((n, p.dim))
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0.0] = 1.0
    x = r[:, None] * v / norms[:, None]
    if isinstance(params, core.EllipticalParams):
        x = params.mu + x @ params._chol.T
    return x
