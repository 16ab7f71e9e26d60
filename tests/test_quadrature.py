import ast
import math
from pathlib import Path

import numpy as np
import pytest

from eqe import quadrature, specfun
from eqe.errors import ConvergenceError, DomainError


def _damped_oscillation(y):
    # int_0^inf e^-y sin(5y)^2 dy = 50/101: needs several refinement levels
    return np.exp(-y) * np.sin(5.0 * y) ** 2


def _off_centre_peak(y):
    return np.exp(-((y - 50.0) / 1e-2) ** 2)


def test_polynomial():
    # int_0^inf y^3 e^-y dy = 3!
    res = quadrature.integrate_semi_infinite(lambda y: y ** 3 * np.exp(-y))
    np.testing.assert_allclose(res.value, 6.0, rtol=1e-12)
    assert res.evaluations > 0
    assert res.error_estimate < 1e-8


def test_sine_hump():
    # int_0^inf e^-y sin(y) dy = 1/2
    res = quadrature.integrate_semi_infinite(
        lambda y: np.exp(-y) * np.sin(y))
    np.testing.assert_allclose(res.value, 0.5, rtol=1e-12)


def test_inverse_sqrt_endpoint_singularity():
    """Integrable y**(-1/2) singularity at the lower endpoint, as in the
    dim = 1 log Z integrand: int_0^inf e^-y / sqrt(y) dy = sqrt(pi)."""
    res = quadrature.integrate_semi_infinite(
        lambda y: np.exp(-y) / np.sqrt(y))
    np.testing.assert_allclose(res.value, math.sqrt(math.pi), rtol=1e-11)


def test_log_endpoint_singularity():
    # int_0^inf log(y) e^-y dy = -(Euler's constant)
    res = quadrature.integrate_semi_infinite(
        lambda y: np.log(y) * np.exp(-y))
    np.testing.assert_allclose(res.value, -0.57721566490153286, rtol=1e-11)


def test_double_square_root_singularity():
    # int_0^1 dx / sqrt(x (1-x)) = pi mapped by x = y / (1 + y): singular
    # at the origin and only algebraically decaying at infinity
    res = quadrature.integrate_semi_infinite(
        lambda y: 1.0 / (np.sqrt(y) * (1.0 + y)))
    np.testing.assert_allclose(res.value, math.pi, rtol=1e-7)


def test_zero_integral_never_converges():
    # int_0^inf (1 - y) e^-y dy = 0: a relative criterion never holds
    def f(y):
        return (1.0 - y) * np.exp(-y)

    with pytest.raises(ConvergenceError):
        quadrature.integrate_semi_infinite(f)


def test_missed_narrow_peak_is_not_converged():
    """Levels that miss a narrow peak far from y = 1 see only underflow;
    two such levels agreeing is no convergence."""
    try:
        res = quadrature.integrate_semi_infinite(_off_centre_peak)
    except ConvergenceError:
        return
    np.testing.assert_allclose(res.value, 1e-2 * math.sqrt(math.pi),
                               rtol=1e-8)


def test_nonfinite_centre_node_is_a_domain_error():
    def f(y):
        return np.where(y == 1.0, np.nan, np.exp(-y))

    with pytest.raises(DomainError, match="non-finite"):
        quadrature.integrate_semi_infinite(f)


def test_semi_infinite_exponential():
    res = quadrature.integrate_semi_infinite(lambda x: np.exp(-x))
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-12)


def test_semi_infinite_gaussian():
    res = quadrature.integrate_semi_infinite(lambda x: np.exp(-x * x))
    np.testing.assert_allclose(res.value, 0.5 * math.sqrt(math.pi),
                               rtol=1e-12)


def test_semi_infinite_gamma_integrand():
    # int_0^inf x^(3/2) e^-x dx = Gamma(5/2)
    res = quadrature.integrate_semi_infinite(
        lambda x: x ** 1.5 * np.exp(-x))
    np.testing.assert_allclose(res.value, math.gamma(2.5), rtol=1e-12)


def test_semi_infinite_heavy_tail():
    res = quadrature.integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 2)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-10)


@pytest.mark.parametrize("rtol", [1e-6, 1e-9, 1e-12])
def test_tolerance_is_honored(rtol):
    # the rule stops where two levels agree to 1e-11 relative, which meets
    # each of these tolerances, and its error estimate says so
    res = quadrature.integrate_semi_infinite(_damped_oscillation)
    np.testing.assert_allclose(res.value, 50.0 / 101.0, rtol=10 * rtol)
    assert res.error_estimate <= rtol * abs(res.value)


@pytest.mark.parametrize("scale", [1e-295, 1e-302, 1e-306])
def test_tolerance_is_relative_near_the_bottom_of_the_range(scale):
    # the tolerance stays relative down to the smallest normal value: a
    # floor of 1e-300 would stop a 1e-302-scaled integral 5 % off
    res = quadrature.integrate_semi_infinite(
        lambda y: scale * _damped_oscillation(y))
    np.testing.assert_allclose(res.value, scale * 50.0 / 101.0, rtol=1e-10)


def test_budget_exhaustion_reports_the_work():
    # the zero integral runs through all 13 levels, 78,643 evaluations
    with pytest.raises(ConvergenceError,
                       match="quadrature evaluation budget exhausted") as info:
        quadrature.integrate_semi_infinite(lambda y: (1.0 - y) * np.exp(-y))
    assert info.value.work == 78643


@pytest.mark.parametrize("budget", [40, 5000, 10 ** 5])
def test_reported_work_is_the_real_work(monkeypatch, budget):
    """With the level cap at the deepest level whose work fits ``budget``
    (level 1, 8 or 12), the integrand is called at most ``budget`` times,
    and exactly as often as the result or the error reports, converged or
    not."""
    work_to_level = np.cumsum([quadrature._level_nodes(level)[0].size
                               for level in range(13)])
    cap = int(np.searchsorted(work_to_level, budget, side="right")) - 1
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", cap)
    calls = []

    def counted(f):
        def g(y):
            calls.append(np.size(y))
            return f(y)
        return g

    for f in (_damped_oscillation, _off_centre_peak):
        calls.clear()
        try:
            work = quadrature.integrate_semi_infinite(counted(f)).evaluations
        except ConvergenceError as err:
            work = err.work
        assert sum(calls) == work <= budget


def test_oscillatory_integrand_converges_with_budget():
    # int_0^inf e^-y sin(50y)^2 dy = (1 - 1/10001) / 2, at level 11 of 12
    res = quadrature.integrate_semi_infinite(
        lambda y: np.exp(-y) * np.sin(50.0 * y) ** 2)
    np.testing.assert_allclose(res.value, 0.5 * (1.0 - 1.0 / 10001.0),
                               rtol=1e-10)


def test_a_scalar_integrand_is_a_type_error():
    with pytest.raises(TypeError, match="array"):
        quadrature.integrate_semi_infinite(lambda y: float(np.exp(-y[0])))


@pytest.mark.parametrize("level", [0, 1, 5, 10, 12])
def test_level_nodes_are_read_only_and_exact(level):
    """Each cached level's nodes and weights equal a fresh computation of
    y = exp(pi/2 sinh t) and (pi/2) cosh(t) y."""
    h = 0.5 / 2 ** level
    t = h * np.arange(1, math.floor(4.8 / h) + 1, 1 if level == 0 else 2)
    u, coshs = 0.5 * math.pi * np.sinh(t), 0.5 * math.pi * np.cosh(t)
    y = np.exp(np.concatenate((u, -u, [0.0] if level == 0 else [])))
    k = t.size
    got = quadrature._level_nodes(level)
    for a, b in zip(got, (y, coshs * y[:k], coshs * y[k:2 * k])):
        np.testing.assert_array_equal(a, b)
        assert not a.flags.writeable
    assert quadrature._level_nodes(level) is got


def test_only_the_coarse_levels_are_kept():
    """A peak off the rule's centre needed level 15: the rule raises at
    its cap, level 12, and no level past it is built or cached."""
    with pytest.raises(ConvergenceError) as info:
        quadrature.integrate_semi_infinite(_off_centre_peak)
    assert info.value.work == 78643
    assert quadrature._level_nodes.cache_info().currsize <= 13


def _package_imports(module) -> set:
    """The package modules that ``module``'s source imports."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else
                         [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".", 1)[1] for a in node.names
                         if a.name.startswith("eqe."))
    return found


def test_the_oracle_and_the_pcf_route_import_neither_the_other():
    """The oracle depends on nothing in the package but its errors, and
    the closed forms it checks take nothing from it."""
    assert _package_imports(quadrature) == {"errors"}
    assert "quadrature" not in _package_imports(specfun)
