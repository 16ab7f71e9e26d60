"""Exact sampling by tabulated inverse CDF of the radial law.

Directions on the sphere are trivial (normalized Gaussians); all the work
is in the radius r, whose density is proportional to
r**(D-1) exp(lambda1 r**2 - lambda2 r**4).  The table is built in one
Gauss-Legendre pass over a pilot grid: a uniform grid on [0, r_max] joined
with a finer one over +-40 Laplace widths of the density's peak, so thin
rings are resolved.  Knots go uniformly in the pilot CDF (log-spaced in
both tails), and each knot's CDF is the pilot mass up to its pilot cell
plus one panel to the knot, near machine accuracy.  A cubic Hermite
interpolant with exact density derivatives represents the CDF between
knots; the table builds each cell's cubic once.  Inversion finds each
level's knot cell through a guide index (Chen & Asau 1974; Devroye 1986,
sec. III.2.4): [0, 1] is cut into 4096 equal buckets, each recording the
last knot at or below its left edge, and a level steps on from its
bucket's knot past the few knots inside the bucket.  In the cell one
clamped Newton step runs from a seed, the inverse's own cubic Hermite, in
blocks that stay in cache.  Levels whose residual is still above the
cell's tolerance (1e-9 of its mass plus 4 ulps of its upper CDF; a few
per thousand, in the cells next to the log-spaced edge knots) get four
more steps and, if need be, bisection in one compact pass over all blocks.

A draw takes its radius from the first n uniforms of the stream and its
direction from the n*D normals after them.  The same seed gives the same
draws within a version; between versions they may move in the last bits
(4 ulps once; drawing in row blocks kept spherical draws byte-identical
and moved a single elliptical draw by at most 1 ulp, see the README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .errors import ConvergenceError, DomainError
from .quadrature import gauss_legendre_panels

_TAIL_MASS = 1e-14
_PILOT_PANELS = 4096
_N_KNOTS = 2048
_GUIDE = 4096  # a power of two: u * _GUIDE and its floor are exact


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


def _radial_profile(p: core.RadialParams) -> tuple:
    """g(r) = (D-1) ln r + lambda1 r^2 - lambda2 r^4 about its peak: the
    peak radius r* (0 only for D = 1), g and -g'' there, and g less its
    peak value as a function of r (-inf at 0 for D >= 2).  That is
    core._about_peak's form with s - 1 = t / y*, y* = r*^2: power ln s +
    t (c - lambda2 t), t = r^2 - y*, power = (D-1)/2 and c = lambda1 -
    2 lambda2 y*; it needs no y*^2, which underflows when D = 1 and
    lambda1 is tiny."""
    power, l1, l2 = 0.5 * (p.dim - 1), p.lambda1, p.lambda2
    y_peak, shift, a, _ = core._about_peak(power, l1, l2)
    r_peak = math.sqrt(y_peak)
    # c exactly (int division rounds correctly): its rounding would move a
    # ring of alpha 1e8 by ~1e-12 of its width and its CDF by ~1e-13
    (n1, d1), (ny, dy), (n2, d2) = (
        v.as_integer_ratio() for v in (l1, y_peak, l2))
    c = (n1 * d2 * dy - 2 * n2 * ny * d1) / (d1 * d2 * dy)

    def log_f(r):
        t = r * r - y_peak
        with np.errstate(divide="ignore"):
            log_term = 2.0 * power * np.log(r / r_peak) if power else 0.0
        return log_term + t * (c - l2 * t)
    curvature = 4.0 * (power + 2.0 * a) / y_peak if y_peak else -2.0 * l1
    return r_peak, shift, curvature, log_f


def _tail_cutoff(p: core.RadialParams, log_f, log_mass: float,
                 r_peak: float) -> float:
    """Radius beyond which the remaining mass of exp(log_f) is below
    _TAIL_MASS of exp(log_mass), its integral.

    Uses the bound integral_r^inf e^g <= e^g(r) / |g'(r)|, valid once g
    is decreasing and concave, which holds past the peak.
    """
    target = log_mass + math.log(_TAIL_MASS) - 2.0
    r = r_peak + max(1.0, 0.5 / p.lambda2 ** 0.25)
    for _ in range(300):
        g = float(log_f(r))
        slope = abs((p.dim - 1) / r + 2.0 * p.lambda1 * r
                    - 4.0 * p.lambda2 * r ** 3)
        if g - math.log(max(slope, 1e-300)) <= target:
            return r
        r *= 1.15
    raise ConvergenceError(f"could not bound the radial tail for {p}")


def _hermite(coef: tuple, t, slope: bool = False):
    """Cell cubics ``coef`` at t in [0, 1], with t-derivatives if ``slope``:
    c0 + t (c1 + t (c2 + t c3)) and c1 + t (2 c2 + 3 t c3), by Horner's
    rule in place, which spares the temporaries."""
    c0, c1, c2, c3 = coef
    value = t * c3
    for c in (c2, c1):
        value += c
        value *= t
    value += c0
    if not slope:
        return value
    d = 3.0 * t * c3
    d += 2.0 * c2
    d *= t
    d += c1
    return value, d


def _newton(coef, floor, tol, u, t, steps: int) -> tuple:
    """``steps`` clamped Newton steps on the cell cubics from t, the slope
    floored in near-flat cells; t, and where |F(t) - u| is above ``tol``."""
    for _ in range(steps):
        value, slope = _hermite(coef, t, slope=True)
        t -= (value - u) / np.maximum(slope, floor)
        np.clip(t, 0.0, 1.0, out=t)
    return t, np.abs(_hermite(coef, t) - u) > tol


@dataclass(frozen=True, eq=False)
class RadialCdfTable:
    """Shareable, immutable inverse-CDF table for the radial density."""

    params: core.RadialParams
    knots: np.ndarray
    cdf_values: np.ndarray
    pdf_values: np.ndarray
    r_max: float
    log_norm: float

    def __post_init__(self):
        for arr in (self.knots, self.cdf_values, self.pdf_values):
            arr.flags.writeable = False
        # per-cell constants, so that a lookup only gathers: the Hermite
        # CDF's power-basis coefficients in t, the cell's mass, its Newton
        # slope floor, the seed's p and q and the residual tolerance.  The
        # seed t = w + w (1 - w) (p + q w), w = (u - c0) / mass, is the
        # inverse's cubic Hermite, its end slopes mass / a and mass / b
        # capped at 3 so that it stays monotone
        h, mass = np.diff(self.knots), np.diff(self.cdf_values)
        a, b = h * self.pdf_values[:-1], h * self.pdf_values[1:]
        s0, s1 = (np.divide(mass, x, out=np.full_like(mass, 3.0),
                            where=3.0 * x > mass) for x in (a, b))
        cells = np.stack((self.cdf_values[:-1], a, 3.0 * mass - 2.0 * a - b,
                          a + b - 2.0 * mass, mass,
                          np.maximum(1e-3 * mass, 1e-300), s0 - 1.0,
                          2.0 - s0 - s1,
                          1e-9 * mass + 4.0 * np.spacing(self.cdf_values[1:])))
        # guide[j]: the last cell whose CDF starts at or below j / _GUIDE;
        # upper: each cell's end CDF, inf at the last so no lookup passes it
        guide = np.minimum(np.searchsorted(
            self.cdf_values, np.arange(_GUIDE + 1) / _GUIDE, side="right") - 1,
            mass.size - 1)
        upper = np.append(self.cdf_values[1:-1], np.inf)
        for name, arr in (("_cells", cells), ("_guide", guide),
                          ("_upper", upper)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def cdf(self, r) -> np.ndarray | float:
        r = np.clip(np.asarray(r, dtype=float), 0.0, self.r_max)
        if np.isnan(r).any():
            raise DomainError("radii must not be NaN")
        idx = np.clip(np.searchsorted(self.knots, r, side="right") - 1,
                      0, self.knots.size - 2)
        t = (r - self.knots[idx]) / (self.knots[idx + 1] - self.knots[idx])
        out = np.clip(_hermite(self._cells[:4, idx], t), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def inverse_cdf(self, u) -> np.ndarray | float:
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if not np.all((u_arr >= 0.0) & (u_arr <= 1.0)):  # NaN fails too
            raise DomainError("quantile levels must lie in [0, 1]")
        # the work is elementwise: do it in blocks that stay in cache
        flat = u_arr.ravel()
        r = np.empty_like(flat)
        lanes, iterates = [np.empty(0, np.intp)], [np.empty(0)]
        for start in range(0, flat.size, core._BLOCK):
            lane, t = self._invert(flat[start:start + core._BLOCK],
                                   r[start:start + core._BLOCK])
            lanes.append(lane + start)
            iterates.append(t)
        # the stragglers in one pass: more Newton steps from their
        # iterates, then bisection for any still unresolved
        lane = np.concatenate(lanes)
        if lane.size:
            ub = flat[lane]
            idx = self._cell(ub)
            *coef, _, floor, _, _, tol = self._cells.take(idx, axis=1)
            t, bad = _newton(coef, floor, tol, ub, np.concatenate(iterates),
                             steps=4)
            if np.any(bad):
                coef, ub = [c[bad] for c in coef], ub[bad]
                lo, hi = np.zeros_like(ub), np.ones_like(ub)
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    high = _hermite(coef, mid) > ub
                    lo, hi = np.where(high, lo, mid), np.where(high, mid, hi)
                t[bad] = 0.5 * (lo + hi)
            r[lane] = self._radius(idx, t)
        return float(r[0]) if np.ndim(u) == 0 else r.reshape(u_arr.shape)

    def _cell(self, u: np.ndarray) -> np.ndarray:
        """Knot cell of each level u of a 1-d array: the last knot with CDF
        <= u, or the last cell.  Steps on from the guide's cell to it."""
        idx = self._guide[(u * _GUIDE).astype(np.intp)]
        lane = np.flatnonzero(self._upper[idx] <= u)
        while lane.size:
            idx[lane] += 1
            lane = lane[self._upper[idx[lane]] <= u[lane]]
        return idx

    def _invert(self, u: np.ndarray, out: np.ndarray) -> tuple:
        """Write the radii of a 1-d block of levels to ``out``; return the
        lanes left unresolved and their iterates."""
        idx = self._cell(u)
        *coef, mass, floor, p, q, tol = self._cells.take(idx, axis=1)
        # the seed, at w = 1 in a flat last cell (u = 1)
        w = np.divide(u - coef[0], mass, out=np.ones_like(u),
                      where=mass > 0.0)
        t = (p + q * w) * (1.0 - w) + 1.0
        t *= w
        t, bad = _newton(coef, floor, tol, u, t, steps=1)
        out[:] = self._radius(idx, t)
        lane = np.flatnonzero(bad)
        return lane, t[lane]

    def _radius(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        # exact knots at t = 0 and t = 1, unlike knots[idx] + t h
        return (1.0 - t) * self.knots[idx] + t * self.knots[idx + 1]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique for finite floats, without the numpy.ma import that
    np.unique and np.union1d trigger on first use."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def build_radial_table(params: core.Params) -> RadialCdfTable:
    """Build the radial inverse-CDF table.

    The tail beyond the last knot carries less than 1e-14 of the mass;
    the table treats the CDF there as exactly 1.
    """
    p = params.radial
    log_norm = (core.log_norm_const(p)
                - core.log_sphere_surface_area(p.dim - 1))
    r_peak, shift, curvature, log_f = _radial_profile(p)
    r_max = _tail_cutoff(p, log_f, log_norm - shift, r_peak)

    # a uniform grid, refined over +-40 Laplace widths of the peak so that
    # thin rings are resolved too
    half = 40.0 / math.sqrt(curvature) if curvature > 0 else r_max
    pilot = _sorted_unique(np.concatenate((
        np.linspace(0.0, r_max, _PILOT_PANELS + 1),
        np.linspace(max(r_peak - half, 0.0), min(r_peak + half, r_max),
                    _PILOT_PANELS + 1))))
    pilot_cum = np.concatenate(([0.0], np.cumsum(
        gauss_legendre_panels(log_f, pilot[:-1], pilot[1:]))))
    total = pilot_cum[-1]
    # both log masses carry rounding of a few ulps of their size
    resid = abs(shift + math.log(total) - log_norm)
    if resid > max(1e-8, 8.0 * math.ulp(max(abs(shift), abs(log_norm)))):
        raise ConvergenceError(
            f"radial CDF normalization disagrees with log_norm_const by "
            f"{resid:.2e} for {p}")

    # mostly uniform in CDF, with log-spaced targets at both ends so that
    # steep density edges (sharp rings) keep knots through the "dead" zone;
    # a decade apart, the density changes little enough across an edge
    # cell for the cubic there to stay monotone
    edge = np.logspace(-13.0, -4.0, 10)
    targets = _sorted_unique(np.concatenate(
        [edge, np.linspace(0.0, 1.0, _N_KNOTS - 2 * edge.size),
         1.0 - edge[::-1]]))
    knots = np.interp(targets, pilot_cum / total, pilot)
    knots[0], knots[-1] = 0.0, r_max
    knots = _sorted_unique(knots)

    # the pilot's mass up to each knot's cell plus one panel to the knot
    cell = np.minimum(np.searchsorted(pilot, knots, side="right") - 1,
                      pilot.size - 2)
    cum = pilot_cum[cell] + gauss_legendre_panels(log_f, pilot[cell], knots)
    cdf = np.minimum(cum / total, 1.0)
    cdf[-1] = 1.0
    pdf = np.exp(log_f(knots)) / total
    return RadialCdfTable(params=p, knots=knots, cdf_values=cdf,
                          pdf_values=pdf, r_max=r_max, log_norm=log_norm)


@lru_cache(maxsize=64)
def _cached_table(p: core.RadialParams) -> RadialCdfTable:
    return build_radial_table(p)


def sample(params: core.Params, n: int, gen) -> np.ndarray:
    """n independent draws, shape (n, dim).

    The stream consumption order is fixed (n uniforms for the radii, then
    n*dim normals for the directions), so results are reproducible for a
    given seed across parameterizations of the same dimension.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    rng = _as_rng(gen)
    p = params.radial
    table = _cached_table(p)
    r = np.atleast_1d(table.inverse_cdf(rng.random(n)))
    if isinstance(params, core.EllipticalParams):
        return core._draws(rng, r, p.dim, params._chol, params.mu)
    return core._draws(rng, r, p.dim)
