"""Exact sampling by tabulated inverse CDF of the radial law.

Directions on the sphere are trivial (normalized Gaussians); all the work
is in the radius r, whose density is proportional to r**(D-1) exp(lambda1
r**2 - lambda2 r**4).  In u = sqrt(2 lambda2) r**2 that is the standard law
u**(D/2-1) e**(-z u - u**2/2) of shape (D, z), whose integral is log Z's,
and the table is built on that integral's own Gauss-Legendre panels, in d =
ln(u / t*): each panel is cut into 64 equal sub-panels, integrated in one
pass.  Knots go uniformly in the CDF, and 10**(1/8) apart in the tails;
each knot's CDF is the sub-panel mass up to its sub-panel plus one panel
to the knot, near machine accuracy.  A cubic Hermite interpolant with exact
density derivatives represents the CDF between knots; the table builds each
cell's cubic once.  Inversion finds each level's knot cell through a guide
index (Chen & Asau 1974; Devroye 1986, sec. III.2.4): [0, 1] is cut into
4096 equal buckets, each recording the last knot at or below its left edge,
and a level steps on from its bucket's knot past the few knots inside the
bucket, or is searched for in the two end buckets, which hold the tail
ladders.  In the cell one clamped Newton step runs from a seed, the
inverse's own cubic Hermite, in blocks that stay in cache.  Levels whose
residual is still above the cell's tolerance (1e-9 of its mass plus 4 ulps
of its upper CDF; a few per thousand, most in the tails) get four more
steps and, if need be, bisection in one compact pass over all blocks.

A draw takes its radius from the first n uniforms of the stream and its
direction from the n*D normals after them.  One helper thread fills those
normals while the radii are inverted; the stream layout, and so every draw,
is the same as if they were filled after, bit for bit, but the Generator
must not be used by another thread during the call.  A seed gives the same
draws within a version; across versions they may move within the inversion
tolerance of a radius (see the README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import core, specfun
from .core import SeededGenerator  # noqa: F401 (re-exported)
from .errors import DomainError
from .quadrature import gauss_legendre_panels

_SUB = 64  # equal sub-panels per panel of log Z's integral
_UNIFORM = 2048  # the middle knots are 1 / _UNIFORM apart in the CDF
_GUIDE = 4096  # a power of two: u * _GUIDE and its floor are exact


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
    """Shareable, immutable inverse-CDF table for the radial density: its
    CDF and density at knots from r = 0 to r_max, where the CDF is 1."""

    params: core.RadialParams
    knots: np.ndarray
    cdf_values: np.ndarray
    pdf_values: np.ndarray

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

    @property
    def r_max(self) -> float:
        """The last knot, at or beyond which the CDF is 1."""
        return float(self.knots[-1])

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
        """Knot cell of each level u of a 1-d array, the last knot with CDF
        <= u or the last cell: searched in the end buckets, else stepped to."""
        j = (u * _GUIDE).astype(np.intp)
        idx = self._guide[j]
        end = np.flatnonzero((j == 0) | (j >= _GUIDE - 1))
        idx[end] = np.searchsorted(self._upper, u[end], side="right")
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


def build_radial_table(params: core.Params) -> RadialCdfTable:
    """Build the radial inverse-CDF table on the panels of log Z's own
    integral, specfun._panels(D/2, z).

    With u = t* e**d and r = r* e**(d/2), r* = (2 lambda2)**(-1/4)
    sqrt(t*), the radial law in d is that integral's integrand plus g E,
    E = expm1(d): g = lambda1 r*^2 - 2 lambda2 r*^4 + D/2, formed exactly,
    takes out the rounding of z, t* and r*.  The total mass is the panels'
    sum, plus the closed-form tail left of them where there is one.  The
    panels end where the integrand is under e**-46 of its peak: the tail
    beyond the last knot carries less than 1e-14 of the mass, and the
    table treats the CDF there as exactly 1.
    """
    p = params.radial
    _, t_star, log_f, edges, log_tail = specfun._panels(0.5 * p.dim,
                                                        core._z(p))
    r_star = (2.0 * p.lambda2) ** -0.25 * math.sqrt(t_star)
    (n1, d1), (n2, d2), (nr, dr) = (
        v.as_integer_ratio() for v in (p.lambda1, p.lambda2, r_star))
    g = ((2 * n1 * d2 * dr ** 2 - 4 * n2 * nr ** 2 * d1) * nr ** 2
         + p.dim * d1 * d2 * dr ** 4) / (2 * d1 * d2 * dr ** 4)

    def law(d):
        return log_f(d) + g * np.expm1(d)

    # each panel cut into _SUB equal sub-panels, ascending in d; the mass
    # below the first is the closed-form tail's, if any
    e = edges[::-1]
    grid = np.append((e[:-1, None] + np.diff(e)[:, None]
                      * (np.arange(_SUB) / _SUB)).ravel(), e[-1])
    tail = math.exp(log_tail) if log_tail is not None else 0.0
    mass = gauss_legendre_panels(law, grid[:-1], grid[1:])
    cum = np.concatenate(([tail], tail + np.cumsum(mass)))
    total = cum[-1]

    # uniform in CDF, and in each tail a ladder 10**(1/8) apart up to where
    # its step reaches the uniform one: steep edges (sharp rings) keep
    # knots, and the density changes little across any tail cell.  They
    # start at 1e-16, under the least positive uniform (2**-53), so that
    # only u = 0 falls in the cell at r = 0, and 1 - 1e-13, which a CDF
    # resolves
    rung = 10.0 ** 0.125
    top = 1.0 / (_UNIFORM * (rung - 1.0))
    low, high = (start * rung ** np.arange(math.ceil(math.log(top / start,
                                                               rung)))
                 for start in (1e-16, 1e-13))
    even = np.arange(1, _UNIFORM) / _UNIFORM
    targets = np.concatenate((
        [0.0], low, even[(even > low[-1]) & (even < 1.0 - high[-1])],
        1.0 - high[::-1], [1.0]))
    # each placed by the log of the mass below it, or in the upper half of
    # the mass above it, summed from that end: near linear in both tails
    above = np.append(np.cumsum(mass[::-1])[::-1], 0.0)
    with np.errstate(divide="ignore"):  # log 0 at the ends
        d = np.where(targets > 0.5, np.interp(
            -np.log1p(-targets), math.log(total) - np.log(above), grid),
            np.interp(np.log(targets), np.log(cum / total), grid))
    d[0], d[-1] = -np.inf, grid[-1]  # r = 0 and the panels' end
    # linear in log(1 - F), the upper interpolation lies below the lower,
    # linear in log F: where they meet at 0.5 a knot may fall back
    np.maximum.accumulate(d, out=d)
    # each radius once: r* w, with w = e**(d/2) off 1 + expm1(d/2) by its
    # rounding; err is the exact radius less the knot
    w = np.exp(0.5 * d)
    knots, err = specfun._two_prod(r_star, w)
    err += r_star * (np.expm1(0.5 * d) - (w - 1.0))
    keep = np.diff(knots, prepend=-1.0) > 0.0
    d, knots, err = d[keep], knots[keep], err[keep]

    # the sub-panel mass up to each knot's sub-panel plus one panel to it
    mid = d[1:-1]
    j = np.searchsorted(grid, mid, side="right") - 1
    cdf = np.concatenate((
        [0.0], (cum[j] + gauss_legendre_panels(law, grid[j], mid)) / total,
        [1.0]))
    # at D = 1 the density at r = 0, from the same mass: the limit of 2
    # e**law(d) / (total r), law(d) -> d/2 + 1/2 - t*^2/2 - g as d -> -inf
    pdf = np.concatenate((
        [2.0 * math.exp(0.5 - 0.5 * t_star * t_star - g) / (total * r_star)
         if p.dim == 1 else 0.0],
        2.0 * np.exp(law(d[1:])) / (total * knots[1:])))
    # the density times the rounding of each knot, out of its CDF
    cdf[1:-1] -= pdf[1:-1] * err[1:-1]
    return RadialCdfTable(params=p, knots=knots,
                          cdf_values=np.minimum(cdf, 1.0), pdf_values=pdf)


@lru_cache(maxsize=64)
def _cached_table(p: core.RadialParams) -> RadialCdfTable:
    return build_radial_table(p)


def sample(params: core.Params, n: int, gen) -> np.ndarray:
    """n independent draws, shape (n, dim).

    The stream consumption order is fixed (n uniforms for the radii, then
    n*dim normals for the directions), so results are reproducible for a
    given seed across parameterizations of the same dimension.  The normals
    fill on one helper thread while the radii are inverted, which leaves
    the layout and the draws unchanged bit for bit; no other thread may use
    ``gen`` until the call returns.
    """
    rng = core._as_rng(n, gen)
    p = params.radial
    table = _cached_table(p)
    radii = partial(table.inverse_cdf, rng.random(n))  # uniforms first
    if isinstance(params, core.EllipticalParams):
        return core._draws(rng, n, p.dim, radii, params._chol, params.mu)
    return core._draws(rng, n, p.dim, radii)
