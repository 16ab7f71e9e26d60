"""Maximum entropy parameter fitting from radial moment constraints.

Among all densities with prescribed E[q] = c2 and E[q**2] = c4 (q the
Mahalanobis form), the quartic exponential is the entropy maximizer, so
fitting is a smooth two-variable convex problem in the natural parameters
eta = (lambda1, -lambda2): minimize log Z - eta . (c2, c4).  The gradient
is the moment mismatch and the Hessian is the covariance of (q, q**2),
so a damped Newton iteration converges quadratically from a
moment-matched starting point.  Each step reads the moments and that
covariance from one moments pass (core._moments), the covariance in
central moments: formed from raw moments up to order eight, its
determinant would be ~1e-16 alpha**2 off relative on a ring of contrast
alpha.

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

_RESIDUAL_TARGET = 1e-10
_CONVERGED_CEILING = 1e-8

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

    # moment-matched start: lambda2 from the excess, lambda1 re-centering
    l2 = dim / (2.0 * (c4 - c2 * c2))
    l1 = 2.0 * l2 * c2
    target = np.array([c2, c4])

    # Work in (lambda1, log lambda2): positivity disappears, so Newton
    # steps are never truncated against the boundary (where a plain
    # f-decrease search can stall at a non-stationary point).  The
    # pullback Hessian J' H J stays positive definite everywhere and
    # coincides with the exact Hessian at the optimum, keeping the
    # terminal convergence quadratic.
    v = np.array([l1, math.log(l2)])

    def dual(w):
        e = np.array([w[0], -math.exp(w[1])])
        return core.log_norm_const(
            core.RadialParams(dim, e[0], -e[1]), "pcf") - e @ target

    f_val = dual(v)
    trace = []
    residual = (math.inf, math.inf)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        lam2 = math.exp(v[1])
        p = core.RadialParams(dim, v[0], lam2)
        (m2, m4, _, _), (y, g11, g12, g22, _) = core._moments(
            dim, p.lambda1, p.lambda2)
        mismatch = np.array([m2 - c2, m4 - c4])
        residual = (float(abs(mismatch[0]) / c2), float(abs(mismatch[1]) / c4))
        trace.append({"iteration": iterations, "lambda1": p.lambda1,
                      "lambda2": p.lambda2, "objective": f_val,
                      "residual": max(residual)})
        if max(residual) <= _RESIDUAL_TARGET:
            converged = True
            break
        grad = np.array([mismatch[0], -lam2 * mismatch[1]])
        y2 = y * y
        h11, h12, h22 = y2 * g11, y2 * y * g12, y2 * y2 * g22
        # Exact Hessian in (lambda1, log lambda2): the Gauss-Newton part
        # J' H J plus the chain-rule term d(lambda2)/d(log lambda2)**2
        # contribution grad[1] in the corner.  The extra term is O(lambda2)
        # against O(lambda2**2), so dropping it flattens the Hessian near
        # lambda2 = 0 and Newton stalls there; with it the step turns back
        # toward the interior.  It can break positive definiteness far from
        # the solution (the objective is not convex in log coordinates), in
        # which case the Gauss-Newton part, always covariance-definite,
        # still gives a descent direction.
        hess = np.array([[h11, -lam2 * h12],
                         [-lam2 * h12, lam2 * lam2 * h22 + grad[1]]])
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        if not (hess[0, 0] > 0 and det > 0):
            hess[1, 1] = lam2 * lam2 * h22
            det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        if not (hess[0, 0] > 0 and det > 0):
            raise ConvergenceError(
                f"moment covariance lost positive definiteness at "
                f"iteration {iterations} (params {p})")
        step = -np.linalg.solve(hess, grad)
        # moderate single-step moves in log lambda2; the line search
        # still guarantees monotone descent
        if abs(step[1]) > 4.0:
            step *= 4.0 / abs(step[1])
        slope = float(grad @ step)
        if -slope <= 1e-12 * (1.0 + abs(f_val)):
            # The predicted decrease is below the evaluation noise of the
            # dual, so a sufficient-decrease test can only reject or accept
            # a rounded-to-zero move.  The moment residuals still resolve
            # the remaining error, so take the bare Newton step and let the
            # residual test decide termination.
            v = v + step
            f_val = dual(v)
            continue
        t = 1.0
        while True:
            f_new = dual(v + t * step)
            if f_new <= f_val + 1e-4 * t * slope:
                v = v + t * step
                f_val = f_new
                break
            t *= 0.5
            if t < 2.0 ** -60:
                raise ConvergenceError(
                    "line search could not reduce the dual objective at "
                    f"iteration {iterations} (params {p})")
    else:
        iterations = max_iterations

    converged = converged or max(residual) <= _CONVERGED_CEILING
    return FitReport(params=core.RadialParams(dim, float(v[0]),
                                              float(math.exp(v[1]))),
                     iterations=iterations, residual=residual,
                     converged=converged, feasibility=feasibility,
                     trace=tuple(trace))


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
    delta method applied to eta(c) with deta/dc = H**-1; ConvergenceError
    where H is not finite and positive definite at double precision.
    """
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    _, (y, g11, _, g22, schur) = core._moments(params.dim, params.lambda1,
                                               params.lambda2)
    if not (g11 > 0.0 and schur > 0.0 and math.isfinite(g11 + g22 + schur)):
        raise ConvergenceError(
            f"moment covariance of {params} is not positive definite at "
            "double precision, so the standard errors are undefined")
    # H = diag(y, y**2) g diag(y, y**2), and g**-1 = [[g22 / g11, .],
    # [., 1]] / schur
    return (math.sqrt(g22 / g11 / schur / n) / y,
            1.0 / (y * y * math.sqrt(schur * n)))
