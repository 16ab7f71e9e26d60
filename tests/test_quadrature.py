import math

import numpy as np
import pytest

from eqe import quadrature
from eqe.errors import ConvergenceError


def _damped_oscillation(y):
    # int_0^inf e^-y sin(5y)^2 dy = 50/101: needs several refinement levels
    return np.exp(-y) * np.sin(5.0 * y) ** 2


def test_polynomial():
    # int_0^inf y^3 e^-y dy = 3!
    res = quadrature.integrate_semi_infinite(lambda y: y ** 3 * math.exp(-y))
    np.testing.assert_allclose(res.value, 6.0, rtol=1e-12)
    assert res.evaluations > 0
    assert res.error_estimate < 1e-8


def test_sine_hump():
    # int_0^inf e^-y sin(y) dy = 1/2
    res = quadrature.integrate_semi_infinite(
        lambda y: math.exp(-y) * math.sin(y))
    np.testing.assert_allclose(res.value, 0.5, rtol=1e-12)


def test_inverse_sqrt_endpoint_singularity():
    """Integrable y**(-1/2) singularity at the lower endpoint, as in the
    dim = 1 log Z integrand: int_0^inf e^-y / sqrt(y) dy = sqrt(pi)."""
    res = quadrature.integrate_semi_infinite(
        lambda y: math.exp(-y) / math.sqrt(y))
    np.testing.assert_allclose(res.value, math.sqrt(math.pi), rtol=1e-11)


def test_log_endpoint_singularity():
    # int_0^inf log(y) e^-y dy = -(Euler's constant), the E[ln q] integrand
    # of the elliptical Gamma entropy
    res = quadrature.integrate_semi_infinite(
        lambda y: math.log(y) * math.exp(-y))
    np.testing.assert_allclose(res.value, -0.57721566490153286, rtol=1e-11)


def test_double_square_root_singularity():
    # int_0^1 dx / sqrt(x (1-x)) = pi mapped by x = y / (1 + y): singular
    # at the origin and only algebraically decaying at infinity
    res = quadrature.integrate_semi_infinite(
        lambda y: 1.0 / (math.sqrt(y) * (1.0 + y)))
    np.testing.assert_allclose(res.value, math.pi, rtol=1e-7)


def test_zero_integral_needs_absolute_escape():
    # int_0^inf (1 - y) e^-y dy = 0: a relative criterion alone never holds
    def f(y):
        return (1.0 - y) * np.exp(-y)

    with pytest.raises(ConvergenceError):
        quadrature.integrate_semi_infinite(f, max_evaluations=5000)
    res = quadrature.integrate_semi_infinite(f, target_abs_tol=1e-12)
    assert abs(res.value) < 1e-12


def test_semi_infinite_exponential():
    res = quadrature.integrate_semi_infinite(lambda x: math.exp(-x))
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-12)


def test_semi_infinite_gaussian():
    res = quadrature.integrate_semi_infinite(lambda x: math.exp(-x * x))
    np.testing.assert_allclose(res.value, 0.5 * math.sqrt(math.pi),
                               rtol=1e-12)


def test_semi_infinite_gamma_integrand():
    # int_0^inf x^(3/2) e^-x dx = Gamma(5/2)
    res = quadrature.integrate_semi_infinite(
        lambda x: x ** 1.5 * math.exp(-x))
    np.testing.assert_allclose(res.value, math.gamma(2.5), rtol=1e-12)


def test_semi_infinite_heavy_tail():
    res = quadrature.integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 2)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-10)


@pytest.mark.parametrize("rtol", [1e-6, 1e-9, 1e-12])
def test_tolerance_is_honored(rtol):
    res = quadrature.integrate_semi_infinite(_damped_oscillation,
                                             target_rel_tol=rtol)
    np.testing.assert_allclose(res.value, 50.0 / 101.0, rtol=10 * rtol)


def test_tighter_tolerance_costs_more_evaluations():
    loose = quadrature.integrate_semi_infinite(_damped_oscillation,
                                               target_rel_tol=1e-4)
    tight = quadrature.integrate_semi_infinite(_damped_oscillation,
                                               target_rel_tol=1e-13)
    assert tight.evaluations > loose.evaluations


def test_budget_exhaustion_reports_best_estimate():
    with pytest.raises(ConvergenceError,
                       match="quadrature evaluation budget exhausted") as info:
        quadrature.integrate_semi_infinite(_damped_oscillation,
                                           max_evaluations=40)
    err = info.value
    assert err.best_estimate is not None
    assert math.isfinite(err.best_estimate.value)
    assert err.work is not None and 0 < err.work <= 40


def test_oscillatory_integrand_converges_with_budget():
    # int_0^inf e^-y sin(50y)^2 dy = (1 - 1/10001) / 2
    res = quadrature.integrate_semi_infinite(
        lambda y: math.exp(-y) * math.sin(50.0 * y) ** 2)
    np.testing.assert_allclose(res.value, 0.5 * (1.0 - 1.0 / 10001.0),
                               rtol=1e-10)
