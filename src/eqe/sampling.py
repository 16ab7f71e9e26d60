"""Exact sampling by tabulated inverse CDF of the radial law.

Directions on the sphere are trivial (normalized Gaussians); all the work
is in the radius r, whose density is proportional to r**(D-1) exp(lambda1
r**2 - lambda2 r**4).  In u = sqrt(2 lambda2) r**2 that is the standard law
u**(D/2-1) e**(-z u - u**2/2) of shape (D, z), whose integral is log Z's,
and the table is built on that integral's own Gauss-Legendre panels
(specfun), in d = ln(u / t*): each panel is cut into 64 equal sub-panels,
integrated in one pass.  The law's CDF at a radius is the sub-panel mass
below it plus one panel to it, near machine accuracy; that is
RadialCdfTable.cdf.  Knots go uniformly in the CDF, and 10**(1/8) apart in
the tails, each placed by interpolating its log-odds l = ln F - ln(1 - F),
the masses below and above it each summed from its own end.

The table interpolates the inverse itself (Hormann & Leydold, ACM TOMACS
13(4), 2003): between knots, ln r is the cubic Hermite in l with the exact
slopes d ln r / dl = F (1 - F) / (f r); below the first knot r = r_1 (u /
F_1)**(1/D), exact where the tail is in closed form; past the last
interior knot ln r is linear in l up to r_max.  A draw takes l = ln(u / (1
- u)), finds its knot cell through a guide index (Chen & Asau 1974;
Devroye 1986, sec. III.2.4), evaluates one cubic by Horner's rule and takes
one exp: no iteration.  [0, 1] is cut into 4096 equal buckets, each
recording the last knot at or below its left edge, and a level steps on
from its bucket's knot past the few knots inside the bucket, or is
searched for in the two end buckets, which hold the tail ladders.
Against 40-digit quantiles (tests/data/pcf_reference.json) the radius is
within 8.0e-8 between the tail decades, 1.3e-9 at 1e-12 and 5.8e-13 at
1 - 1e-12; two cells' cubics meet at a knot to the exp's rounding of ln
r, so draws are non-decreasing in u to within 16 ulps.

A draw takes its radius from the first n uniforms of the stream and its
direction from the n*D normals after them.  A seed gives the same draws
within a version; across versions they may move within the
interpolation error of a radius (see the README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import core, specfun
from .core import SeededGenerator  # noqa: F401 (re-exported)
from .errors import DomainError
from .specfun import gauss_legendre_panels

_SUB = 64  # equal sub-panels per panel of log Z's integral
_UNIFORM = 2048  # the middle knots are 1 / _UNIFORM apart in the CDF
_GUIDE = 4096  # a power of two: u * _GUIDE and its floor are exact
_END = 1e300  # |l| at u = 0 and 1: finite, so no cell forms inf * 0


def _log_odds(u: np.ndarray) -> np.ndarray:
    """ln(u / (1 - u)) of levels u in [0, 1]; -_END at 0, _END at 1."""
    with np.errstate(divide="ignore"):
        l = np.log(u / (1.0 - u))
    return np.clip(l, -_END, _END, out=l)


@dataclass(frozen=True, eq=False)
class RadialCdfTable:
    """Shareable, immutable inverse-CDF table for the radial density: the
    log-odds of its CDF and its density at knots from r = 0 to r_max, where
    the CDF is 1 (log-odds -inf and inf at the two ends)."""

    params: core.RadialParams
    knots: np.ndarray
    log_odds: np.ndarray
    pdf_values: np.ndarray

    def __post_init__(self):
        lo = self.log_odds
        if not (np.all(lo[1:] > lo[:-1]) and lo[0] == -np.inf == -lo[-1]):
            raise DomainError("knot log-odds must increase from -inf to inf")
        for arr in (self.knots, lo, self.pdf_values):
            arr.flags.writeable = False
        # per cell, so that a lookup only gathers: l at its start, the
        # scale of t, and the coefficients by powers of t of y = ln(r /
        # r_mid), r_mid the middle knot, so that y and its rounding stay
        # small where the mass is at any scale.  Inner cells: the cubic
        # Hermite in t = (l - l_k) / (l_k+1 - l_k), slopes F (1 - F) /
        # (f r); the first and last: linear in l - l0, slopes 1 / D (the
        # power law replaces it) and the last inner knot's
        e = np.exp(-np.abs(lo))
        q = e / (1.0 + e)  # the lesser of F and 1 - F
        l, r = lo[1:-1], self.knots[1:-1]
        mid = float(r[r.size // 2])
        y = np.log(r / mid)
        s = (q / (1.0 + e))[1:-1] / (self.pdf_values[1:-1] * r)
        h, dy = np.diff(l), np.diff(y)
        a, b, zero = h * s[:-1], h * s[1:], np.zeros(1)
        cells = np.stack((
            np.append(l[0], l), np.concatenate(([1.0], 1.0 / h, [1.0])),
            np.append(y[0], y), np.concatenate(([1.0 / self.params.dim], a,
                                                 s[-1:])),
            np.concatenate((zero, 3.0 * dy - 2.0 * a - b, zero)),
            np.concatenate((zero, a + b - 2.0 * dy, zero))))
        # guide[j]: the last cell whose log-odds start at or below those of
        # j / _GUIDE; upper: each cell's end log-odds, inf at the last
        guide = np.searchsorted(lo, _log_odds(np.arange(_GUIDE + 1) / _GUIDE),
                                side="right") - 1
        upper = np.append(l, np.inf)
        cdf = np.where(lo < 0.0, q, 1.0 - q)
        for name, arr in (("cdf_values", cdf), ("_cells", cells),
                          ("_guide", guide), ("_upper", upper)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_mid", mid)

    @property
    def r_max(self) -> float:
        """The last knot, at or beyond which the CDF is 1."""
        return float(self.knots[-1])

    @cached_property
    def _law(self) -> tuple:
        """_law(params), built once per table."""
        return _law(self.params)

    def cdf(self, r) -> np.ndarray | float:
        """The law's own CDF at radii r (not an interpolant of it)."""
        r = np.clip(np.asarray(r, dtype=float), 0.0, self.r_max)
        if np.isnan(r).any():
            raise DomainError("radii must not be NaN")
        r_star, law, _, grid, below, _ = self._law
        with np.errstate(divide="ignore"):  # ln 0 at r = 0
            d = 2.0 * np.log(r.ravel() / r_star)
        # left of the panels, the closed-form tail's e**(D d / 2), if any
        mass = _mass(law, grid, below, np.maximum(d, grid[0])) * np.exp(
            0.5 * self.params.dim * np.minimum(d - grid[0], 0.0))
        out = np.where(r.ravel() < self.r_max,
                       np.minimum(mass / below[-1], 1.0), 1.0)
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)

    def inverse_cdf(self, u) -> np.ndarray | float:
        """The radii at levels u in [0, 1], of any shape (a scalar gives a
        float): 0 at u = 0 and r_max at u = 1; DomainError if a level is
        NaN or outside [0, 1]."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if not np.all((u_arr >= 0.0) & (u_arr <= 1.0)):  # NaN fails too
            raise DomainError("quantile levels must lie in [0, 1]")
        # the work is elementwise: do it in blocks that stay in cache
        flat = u_arr.ravel()
        r = np.empty_like(flat)
        for rows in core._blocks(flat.size):
            ub, out = flat[rows], r[rows]
            t = _log_odds(ub)  # then t in each level's cell
            idx = self._cell(ub, t)
            l0, scale, c0, c1, c2, c3 = self._cells.take(idx, axis=1)
            t -= l0
            t *= scale
            # y by Horner's rule in place; past the last knot at u = 1 it
            # overflows, and r_max caps it
            with np.errstate(over="ignore"):
                value = t * c3
                for c in (c2, c1):
                    value += c
                    value *= t
                value += c0
                np.exp(value, out=out)
                out *= self._mid
            np.minimum(out, self.r_max, out=out)
            lane = np.flatnonzero(idx == 0)  # the power law
            out[lane] = self.knots[1] * (
                ub[lane] / self.cdf_values[1]) ** (1.0 / self.params.dim)
        return float(r[0]) if np.ndim(u) == 0 else r.reshape(u_arr.shape)

    def _cell(self, u: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Knot cell of each level u of a 1-d array, whose log-odds are l:
        the last knot with log-odds <= l, or the last cell; searched in the
        end buckets, else stepped to."""
        j = (u * _GUIDE).astype(np.intp)
        idx = self._guide[j]
        end = np.flatnonzero((j == 0) | (j >= _GUIDE - 1))
        idx[end] = np.searchsorted(self._upper, l[end], side="right")
        lane = np.flatnonzero(self._upper[idx] <= l)
        while lane.size:
            idx[lane] += 1
            lane = lane[self._upper[idx[lane]] <= l[lane]]
        return idx


def _law(p: core.RadialParams) -> tuple:
    """The radial law on the panels of log Z's own integral,
    specfun._panels(D/2, z), each cut into _SUB equal sub-panels: r*, the
    law's log in d as a function and its limit less d/2 as d -> -inf, the
    sub-panel edges, ascending, and the masses below and above each edge,
    each summed from its own end (below the first, the closed-form tail's,
    if any).

    With u = t* e**d and r = r* e**(d/2), r* = (2 lambda2)**(-1/4)
    sqrt(t*), the radial law in d is that integral's integrand plus g E,
    E = expm1(d): g = lambda1 r*^2 - 2 lambda2 r*^4 + D/2, formed exactly,
    takes out the rounding of z, t* and r*.
    """
    _, t_star, log_f, edges, log_tail = specfun._panels(0.5 * p.dim,
                                                        core._z(p))
    r_star = (2.0 * p.lambda2) ** -0.25 * math.sqrt(t_star)
    (n1, d1), (n2, d2), (nr, dr) = (
        v.as_integer_ratio() for v in (p.lambda1, p.lambda2, r_star))
    g = ((2 * n1 * d2 * dr ** 2 - 4 * n2 * nr ** 2 * d1) * nr ** 2
         + p.dim * d1 * d2 * dr ** 4) / (2 * d1 * d2 * dr ** 4)

    def law(d):
        return log_f(d) + g * np.expm1(d)

    e = edges[::-1]
    grid = np.append((e[:-1, None] + np.diff(e)[:, None]
                      * (np.arange(_SUB) / _SUB)).ravel(), e[-1])
    tail = math.exp(log_tail) if log_tail is not None else 0.0
    mass = gauss_legendre_panels(law, grid[:-1], grid[1:])
    below = np.concatenate(([tail], tail + np.cumsum(mass)))
    above = np.append(np.cumsum(mass[::-1])[::-1], 0.0)
    return r_star, law, 0.5 - 0.5 * t_star * t_star - g, grid, below, above


def _mass(law, grid, sums, d, upper: bool = False) -> np.ndarray:
    """The law's mass below each d of a 1-d array in the panels (above it
    if ``upper``): that of ``sums``, _law's masses below (above) the
    sub-panel edges, at d's sub-panel, plus one panel to d, in passes of
    1024 points, whose temporaries stay small."""
    j = np.clip(np.searchsorted(grid, d, side="right"), 1, grid.size - 1)
    lo, hi = (d, grid[j]) if upper else (grid[j - 1], d)
    out = sums[j] if upper else sums[j - 1]
    for part in (slice(k, k + 1024) for k in range(0, d.size, 1024)):
        out[part] += gauss_legendre_panels(law, lo[part], hi[part])
    return out


def build_radial_table(params: core.Params) -> RadialCdfTable:
    """Build the radial inverse-CDF table on the panels of log Z's own
    integral (see _law).  The total mass is the panels' sum, plus the
    closed-form tail left of them where there is one.  The panels end where
    the integrand is under e**-46 of its peak: the tail beyond the last
    knot carries less than 1e-14 of the mass, and the table treats the CDF
    there as exactly 1.
    """
    p = params.radial
    r_star, law, origin, grid, below, above = record = _law(p)
    total = below[-1]

    # uniform in CDF, and in each tail a ladder 10**(1/8) apart up to where
    # its step reaches the uniform one: steep edges (sharp rings) keep
    # knots, and the density changes little across any tail cell.  The
    # ladders start at 1e-16 and 1 - 1e-16, beyond the least and greatest
    # uniforms in (0, 1) (2**-53 and 1 - 2**-53), so that only u = 0 and 1
    # fall in the end cells.  Each knot is placed by its log-odds, which
    # increase and are near linear in both tails; the two halves mirror
    rung = 10.0 ** 0.125
    ladder = 1e-16 * rung ** np.arange(math.ceil(
        math.log(1e16 / (_UNIFORM * (rung - 1.0)), rung)))
    even = np.arange(1, _UNIFORM // 2 + 1) / _UNIFORM
    half = np.append(ladder, even[even > ladder[-1]])  # up to F = 1/2
    l = np.log(half) - np.log1p(-half)
    # r = 0, the knots of both halves and the panels' end
    with np.errstate(divide="ignore"):  # log 0 at the grid's ends
        d = np.concatenate(([-np.inf], np.interp(
            np.append(l, -l[-2::-1]), np.log(below) - np.log(above), grid),
            [grid[-1]]))
    # each radius once: r* w, with w = e**(d/2) off 1 + expm1(d/2) by its
    # rounding; err is the exact radius less the knot
    w = np.exp(0.5 * d)
    knots, err = specfun._two_prod(r_star, w)
    err += r_star * (np.expm1(0.5 * d) - (w - 1.0))
    keep = np.diff(knots, prepend=-1.0) > 0.0
    d, knots, err = d[keep], knots[keep], err[keep]

    # at D = 1 the density at r = 0, from the same mass: the limit of 2
    # e**law(d) / (total r), law(d) - d/2 -> origin as d -> -inf
    pdf = np.concatenate((
        [2.0 * math.exp(origin) / (total * r_star) if p.dim == 1 else 0.0],
        2.0 * np.exp(law(d[1:])) / (total * knots[1:])))
    # the masses below and above each inner knot, the density times its
    # rounding moved from one to the other
    shift = total * pdf[1:-1] * err[1:-1]
    odds = ((_mass(law, grid, below, d[1:-1]) - shift)
            / (_mass(law, grid, above, d[1:-1], upper=True) + shift))
    table = RadialCdfTable(params=p, knots=knots, log_odds=np.concatenate((
        [-np.inf], np.log(odds), [np.inf])), pdf_values=pdf)
    table.__dict__["_law"] = record  # so cdf does not build it again
    return table


@lru_cache(maxsize=64)
def _cached_table(p: core.RadialParams) -> RadialCdfTable:
    return build_radial_table(p)


def sample(params: core.Params, n: int, gen) -> np.ndarray:
    """n independent draws, shape (n, dim).

    The stream consumption order is fixed (n uniforms for the radii, then
    n*dim normals for the directions), so results are reproducible for a
    given seed across parameterizations of the same dimension.
    """
    rng = core._as_rng(n, gen)
    p = params.radial
    table = _cached_table(p)
    r = table.inverse_cdf(rng.random(n))  # uniforms first
    if isinstance(params, core.EllipticalParams):
        return core._draws(rng, n, p.dim, r, params._chol, params.mu)
    return core._draws(rng, n, p.dim, r)
