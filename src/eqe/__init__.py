"""Quartic exponential distribution: the maximum entropy density under
second and fourth radial moment constraints.

p(x) = Z**-1 exp(lambda1 q - lambda2 q**2) with q the squared Mahalanobis
radius; annular (ring-shaped) for lambda1 > 0.  The package evaluates
densities, normalization constants, entropies, radial moments, conditionals
and marginals under coordinate splits, draws exact samples, and fits
parameters from moment constraints or data.
"""

from .condmarg import (BlockSplit, conditional_params, marginal_log_density,
                       marginal_peaks)
from .core import (EllipticalGammaReference, EllipticalParams, LogNormInfo,
                   MomentPair, RadialParams, RingParams, density,
                   eg_reference_from_moments, entropy, log_density,
                   log_norm_const, log_norm_const_d1_neg,
                   log_norm_const_d2_closed, log_norm_const_info,
                   log_sphere_surface_area, mode_radius, radial_moment,
                   radial_to_ring, ring_to_radial)
from .errors import ConvergenceError, DomainError, InfeasibleMomentsError
from .fit import (FitReport, fit_data, fit_moments, gaussian_moment_ratio,
                  parameter_standard_errors)
from .sampling import RadialCdfTable, SeededGenerator, build_radial_table, sample

__version__ = "0.1.0"

__all__ = [
    "BlockSplit",
    "ConvergenceError",
    "DomainError",
    "EllipticalGammaReference",
    "EllipticalParams",
    "FitReport",
    "InfeasibleMomentsError",
    "LogNormInfo",
    "MomentPair",
    "RadialCdfTable",
    "RadialParams",
    "RingParams",
    "SeededGenerator",
    "build_radial_table",
    "conditional_params",
    "density",
    "eg_reference_from_moments",
    "entropy",
    "fit_data",
    "fit_moments",
    "gaussian_moment_ratio",
    "log_density",
    "log_norm_const",
    "log_norm_const_d1_neg",
    "log_norm_const_d2_closed",
    "log_norm_const_info",
    "log_sphere_surface_area",
    "marginal_log_density",
    "marginal_peaks",
    "mode_radius",
    "parameter_standard_errors",
    "radial_moment",
    "radial_to_ring",
    "ring_to_radial",
    "sample",
    "__version__",
]
