"""Maximum entropy parameter fitting from radial moment constraints.

Among all densities with prescribed E[q] = c2 and E[q**2] = c4 (q the
Mahalanobis form), the quartic exponential is the entropy maximizer, and
the fit solves the stationarity conditions of its dual.  The scale
separates out of them: with s = sqrt(2 lambda2), u = s q has density
proportional to u**(D/2-1) e**(-z u - u**2/2), z = -lambda1 / s, so the
excess Var q / E[q]**2 depends on z alone, and then s = E[u] / c2.  Newton
solves log excess(z) = log((c4 - c2**2) / c2**2) in z, reading the excess
and its slope from the central moments of the standard law's one panel
pass (core._standard), which keep their digits on thin rings.  The excess
increases in z from 0 (rings, ~ z**-2) to 2/D (the Gaussian limit, ~ 2/D -
(1 + 2/D) / z**2); Newton starts on the nearer asymptote and stays inside
a bracket of the z evaluated so far.

Feasibility: as lambda2 -> 0 the family degenerates to a Gaussian in q,
where c4/c2**2 -> (D+2)/D.  Ratios at or beyond that boundary admit no
lambda2 > 0 solution and raise InfeasibleMomentsError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import core
from .errors import ConvergenceError, DomainError, InfeasibleMomentsError

# ratios within this relative distance of the Gaussian boundary are
# rejected as infeasible; within _NEAR_BAND they fit but are flagged
_BOUNDARY_MARGIN = 1e-6
_NEAR_BAND = 0.02

# Newton stops at _RESIDUAL_TARGET, a few ulps of the excess, or where its
# bracket closes; it reports converged within _CONVERGED_CEILING
_RESIDUAL_TARGET = 1e-14
_CONVERGED_CEILING = 1e-12

Feasibility = Literal["interior", "near_boundary"]


@dataclass(frozen=True)
class FitReport:
    params: core.Params
    iterations: int
    residual: tuple[float, float]
    converged: bool
    feasibility: Feasibility
    trace: tuple[dict, ...]


def gaussian_moment_ratio(dim: int) -> float:
    """c4/c2**2 of the lambda2 -> 0 (Gaussian) limit: (D+2)/D."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    return (dim + 2.0) / dim


def fit_moments(dim: int, moments: core.MomentPair, *,
                max_iterations: int = 200) -> FitReport:
    """Fit (lambda1, lambda2) so that E[q] = c2 and E[q**2] = c4.

    Raises InfeasibleMomentsError when c4/c2**2 reaches the Gaussian
    boundary (D+2)/D; reports feasibility "near_boundary" within 2% of
    it, where lambda2 is small and the problem badly conditioned.
    """
    if isinstance(dim, bool) or not float(dim).is_integer() or dim < 1:
        raise DomainError(f"dim must be a positive integer, got {dim!r}")
    dim = int(dim)
    if max_iterations < 1:
        raise DomainError(f"max_iterations must be >= 1, got {max_iterations}")
    c2, c4 = moments.c2, moments.c4
    ratio = c4 / (c2 * c2)
    bound = gaussian_moment_ratio(dim)
    if ratio >= bound * (1.0 - _BOUNDARY_MARGIN):
        raise InfeasibleMomentsError(
            f"moment ratio c4/c2**2 = {ratio:.6g} is at or beyond the "
            f"Gaussian boundary {bound:.6g} for dim={dim}; such moments "
            "(Gaussian or heavier-tailed) admit no lambda2 > 0 solution",
            ratio=ratio, boundary=bound)
    feasibility: Feasibility = (
        "near_boundary" if ratio >= bound * (1.0 - _NEAR_BAND)
        else "interior")

    excess = (c4 - c2 * c2) / (c2 * c2)
    # start on the ring asymptote, at 0, or on the Gaussian one
    z = (-excess ** -0.5 if excess < 0.5 / dim else 0.0 if excess < 1.5 / dim
         else math.sqrt((1.0 + 2.0 / dim) / (2.0 / dim - excess)))
    lo, hi = -math.inf, math.inf
    trace = []
    for iterations in range(1, max_iterations + 1):
        _, _, t_star, (e1, e2, e3, _) = core._standard(dim, z)
        m1, var = 1.0 + e1, e2 - e1 * e1
        gap = math.log(var / (m1 * m1) / excess)
        s = t_star * m1 / c2
        l1, l2 = -z * s, 0.5 * s * s
        residual = (abs(t_star * m1 / s / c2 - 1.0), abs(math.expm1(gap)))
        trace.append({"iteration": iterations, "lambda1": l1,
                      "lambda2": l2, "residual": max(residual)})
        if max(residual) <= _RESIDUAL_TARGET:
            break
        lo, hi = (lo, z) if gap > 0.0 else (z, hi)
        # d/dz E[f] = -Cov(f, u), so d log excess / dz = 2 mu2 / m1 -
        # mu3 / mu2 in the central moments of u = t* (1 + E)
        mu3 = math.fsum((e3, -3.0 * e1 * e2, 2.0 * e1 * e1 * e1))
        slope = t_star * (2.0 * var / m1 - mu3 / var)
        z_new = z - gap / slope if slope > 0.0 else math.nan
        if not lo < z_new < hi:
            z_new = (0.5 * (lo + hi) if math.isfinite(lo + hi)
                     else hi - 1.0 - abs(hi) if math.isfinite(hi)
                     else lo + 1.0 + abs(lo))
            if not lo < z_new < hi:  # the bracket has closed
                break
        z = z_new

    return FitReport(params=core.RadialParams(dim, l1, l2),
                     iterations=iterations, residual=residual,
                     converged=max(residual) <= _CONVERGED_CEILING,
                     feasibility=feasibility, trace=tuple(trace))


def fit_data(data: np.ndarray,
             model: Literal["spherical", "elliptical"] = "elliptical"
             ) -> FitReport:
    """Fit parameters to data rows by moment matching.

    ``spherical`` uses raw squared norms.  ``elliptical`` first estimates
    the center and a determinant-one shape matrix from the sample
    covariance (the determinant convention resolves the scale ambiguity
    between sigma and the radial law), then fits the radial law to the
    Mahalanobis moments.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"data must be 2-D (n, dim), got shape {x.shape}")
    n, dim = x.shape
    if not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    if model not in ("spherical", "elliptical"):
        raise DomainError(f"unknown model {model!r}")
    if n < dim + 2:
        raise DomainError(f"need at least dim + 2 = {dim + 2} rows, got {n}")

    if model == "spherical":
        q = np.einsum("ij,ij->i", x, x)
        return fit_moments(dim, _sample_moments(q))

    mu = x.mean(axis=0)
    centered = x - mu
    cov = centered.T @ centered / n
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not math.isfinite(logdet):
        raise DomainError("sample covariance is degenerate; cannot form a "
                          "shape matrix")
    sigma = cov * math.exp(-logdet / dim)
    q = core._whitened_sq_norms(core._cholesky(sigma), centered)
    radial = fit_moments(dim, _sample_moments(q))
    return replace(radial,
                   params=core.EllipticalParams(mu, sigma, radial.params))


def _sample_moments(q: np.ndarray) -> core.MomentPair:
    c2 = float(np.mean(q))
    c4 = float(np.mean(q * q))
    if not c4 > c2 * c2:
        raise DomainError(
            "sample moments are degenerate (all squared norms equal); no "
            "nondegenerate distribution matches them")
    return core.MomentPair(c2, c4)


def parameter_standard_errors(params: core.RadialParams,
                              n: int) -> tuple[float, float]:
    """Asymptotic standard errors of (lambda1, lambda2) fitted from n draws.

    The moment-matching estimator satisfies
    cov(eta_hat) ~= H**-1 / n with H the covariance of (q, q**2), by the
    delta method applied to eta(c) with deta/dc = H**-1.  It is
    equivariant under u = s q, s = sqrt(2 lambda2), so these are the
    standard law's errors times that map's Jacobian diag(s, s**2);
    ConvergenceError where H is not finite and positive definite, or an
    error not finite and positive, at double precision.
    """
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    _, _, t, (e1, e2, e3, e4) = core._standard(params.dim, core._z(params))
    # the covariance g of (E, 2 E + E**2), in central moments of E, which
    # are of one size on a thin ring, where a variance of raw moments is
    # ~1e-16 alpha off relative
    g11, cov, var2 = e2 - e1 * e1, e3 - e1 * e2, e4 - e2 * e2
    g22 = 4.0 * (g11 + cov) + var2
    schur = var2 - cov * cov / g11 if g11 > 0.0 else 0.0
    if not (g11 > 0.0 and schur > 0.0 and math.isfinite(g11 + g22 + schur)):
        raise ConvergenceError(
            f"moment covariance of {params} is not positive definite at "
            "double precision, so the standard errors are undefined")
    # the standard law's H = diag(t, t**2) g diag(t, t**2), and g**-1 =
    # [[g22 / g11, .], [., 1]] / schur; t * t alone may underflow
    s2 = 2.0 * params.lambda2
    se = (math.sqrt(g22 / g11 / schur / n) / t * math.sqrt(s2),
          s2 / t / t / math.sqrt(schur * n))
    if not all(0.0 < v < math.inf for v in se):
        raise ConvergenceError(f"standard errors of {params} overflow: {se}")
    return se
