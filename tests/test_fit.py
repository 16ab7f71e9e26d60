import json
import math
from pathlib import Path

import numpy as np
import pytest

from eqe import core, fit, sampling
from eqe.errors import ConvergenceError, DomainError, InfeasibleMomentsError

# 40-digit references written by tests/data/make_pcf_reference.py
CORPUS = json.loads(
    (Path(__file__).parent / "data" / "pcf_reference.json").read_text())


def test_gaussian_moment_ratio():
    assert fit.gaussian_moment_ratio(1) == 3.0
    assert fit.gaussian_moment_ratio(2) == 2.0
    np.testing.assert_allclose(fit.gaussian_moment_ratio(3), 5.0 / 3.0,
                               rtol=1e-15)


@pytest.mark.parametrize("dim,l1,l2", [
    (1, -3.0, 0.5),
    (1, 6.0, 2.0),
    (2, 8.0, 4.0),
    (2, -0.5, 9.0),
    (3, 4.0, 1.5),
    (3, 0.0, 1.0),
    (5, 0.5, 2.0),
    (7, -5.0, 2.0),
    (10, 20.0, 0.05),
    (6, 12.0, 0.8),
])
def test_moment_round_trip(dim, l1, l2):
    """Fitting the exact moments of known parameters recovers them."""
    p = core.RadialParams(dim, l1, l2)
    mom = core.MomentPair(core.radial_moment(p, 2), core.radial_moment(p, 4))
    report = fit.fit_moments(dim, mom)
    assert report.converged
    assert report.feasibility == "interior"
    np.testing.assert_allclose(report.params.lambda1, l1,
                               rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(report.params.lambda2, l2, rtol=1e-6)


def test_fitted_moments_match_targets():
    mom = core.MomentPair(1.2, 1.9)
    report = fit.fit_moments(3, mom)
    p = report.params
    np.testing.assert_allclose(core.radial_moment(p, 2), 1.2, rtol=1e-9)
    np.testing.assert_allclose(core.radial_moment(p, 4), 1.9, rtol=1e-9)


def test_report_fields():
    p = core.RadialParams(3, 4.0, 1.5)
    mom = core.MomentPair(core.radial_moment(p, 2), core.radial_moment(p, 4))
    report = fit.fit_moments(3, mom)
    assert report.iterations >= 1
    assert len(report.trace) == report.iterations
    assert max(report.residual) <= 1e-10


def test_iteration_budget_gives_unconverged_report():
    p = core.RadialParams(3, 4.0, 1.5)
    mom = core.MomentPair(core.radial_moment(p, 2), core.radial_moment(p, 4))
    report = fit.fit_moments(3, mom, max_iterations=2)
    assert not report.converged
    assert report.iterations == 2


def test_gaussian_boundary_is_infeasible():
    bound = fit.gaussian_moment_ratio(3)
    with pytest.raises(InfeasibleMomentsError) as exc_info:
        fit.fit_moments(3, core.MomentPair(1.0, bound))
    err = exc_info.value
    np.testing.assert_allclose(err.ratio, bound, rtol=1e-15)
    np.testing.assert_allclose(err.boundary, bound, rtol=1e-15)


def test_beyond_boundary_is_infeasible():
    with pytest.raises(InfeasibleMomentsError):
        fit.fit_moments(3, core.MomentPair(1.0, 2.0))
    with pytest.raises(InfeasibleMomentsError):
        fit.fit_moments(1, core.MomentPair(1.0, 3.5))


def test_near_boundary_is_flagged_but_fits():
    bound = fit.gaussian_moment_ratio(3)
    report = fit.fit_moments(3, core.MomentPair(1.0, 0.995 * bound))
    assert report.converged
    assert report.feasibility == "near_boundary"
    # a nearly Gaussian q calls for small lambda2
    assert 0.0 < report.params.lambda2 < 0.1


def test_fit_moments_validates_dim():
    with pytest.raises(DomainError):
        fit.fit_moments(0, core.MomentPair(1.0, 1.4))


def test_moment_pair_is_validated_upstream():
    with pytest.raises(DomainError):
        core.MomentPair(1.0, 0.9)


@pytest.mark.parametrize("dim,l1,l2,seed", [(2, 8.0, 4.0, 201),
                                            (3, -1.0, 0.6, 202)])
def test_fit_data_spherical_recovers_truth(dim, l1, l2, seed):
    n = 50000
    truth = core.RadialParams(dim, l1, l2)
    x = sampling.sample(truth, n, sampling.SeededGenerator(seed))
    report = fit.fit_data(x, "spherical")
    assert report.converged
    assert isinstance(report.params, core.RadialParams)
    se = fit.parameter_standard_errors(report.params, n)
    assert abs(report.params.lambda1 - l1) < 4.0 * se[0]
    assert abs(report.params.lambda2 - l2) < 4.0 * se[1]


def test_fit_data_elliptical_recovers_truth():
    rad = core.RadialParams(2, 6.0, 3.0)
    mu = np.array([0.7, -1.1])
    sigma = np.array([[1.4, 0.5], [0.5, 0.9]])
    truth = core.EllipticalParams(mu, sigma, rad)
    x = sampling.sample(truth, 100000, sampling.SeededGenerator(301))
    report = fit.fit_data(x, "elliptical")
    assert report.converged
    p = report.params
    assert isinstance(p, core.EllipticalParams)
    np.testing.assert_allclose(p.mu, mu, rtol=0, atol=0.01)
    # the fitted shape matrix is normalized to unit determinant, and the
    # radial parameters absorb the scale: lambda1 -> lambda1 s,
    # lambda2 -> lambda2 s^2 with s = det(sigma)^(1/D)
    det = np.linalg.det(sigma)
    s = det ** (1.0 / 2.0)
    np.testing.assert_allclose(np.linalg.det(p.sigma), 1.0, rtol=1e-10)
    np.testing.assert_allclose(p.sigma, sigma / s, rtol=0.02)
    np.testing.assert_allclose(p.radial.lambda1, rad.lambda1 / s, rtol=0.01)
    np.testing.assert_allclose(p.radial.lambda2, rad.lambda2 / s ** 2,
                               rtol=0.01)


def test_fit_data_gaussian_input_is_rejected_or_flagged():
    # a pure Gaussian sits exactly on the feasibility boundary; sampling
    # noise lands on either side of it, and both outcomes must be loud
    rng = np.random.default_rng(1)
    data = rng.normal(size=(100000, 3))
    try:
        report = fit.fit_data(data, "spherical")
    except InfeasibleMomentsError as err:
        assert err.ratio > err.boundary * (1.0 - 1e-6)
    else:
        assert report.feasibility == "near_boundary"


def test_fit_data_input_validation():
    with pytest.raises(DomainError):
        fit.fit_data(np.zeros((3, 2)))
    with pytest.raises(DomainError):
        fit.fit_data(np.ones((100, 2)))
    with pytest.raises(DomainError):
        fit.fit_data(np.zeros((10, 2, 2)))
    with pytest.raises(DomainError):
        fit.fit_data(np.full((50, 2), np.nan))


def test_fit_data_model_name_is_checked():
    x = np.random.default_rng(0).normal(size=(100, 2))
    with pytest.raises(DomainError):
        fit.fit_data(x, "diagonal")


def test_parameter_standard_errors_scale_with_n():
    p = core.RadialParams(3, 4.0, 1.5)
    se_small = fit.parameter_standard_errors(p, 10000)
    se_large = fit.parameter_standard_errors(p, 40000)
    assert se_small[0] > 0 and se_small[1] > 0
    np.testing.assert_allclose(se_small[0] / se_large[0], 2.0, rtol=1e-12)
    np.testing.assert_allclose(se_small[1] / se_large[1], 2.0, rtol=1e-12)


def test_standard_errors_validate_n():
    p = core.RadialParams(3, 4.0, 1.5)
    with pytest.raises(DomainError):
        fit.parameter_standard_errors(p, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim,lambda1,lambda2,se1,se2", CORPUS["se_points"])
def test_standard_errors_on_thin_rings(dim, lambda1, lambda2, se1, se2):
    """Rings of radius 1, D in {1, 2, 3, 5, 10} and alpha 1e4-1e8: the
    covariance of (q, q**2) is singular to ~1/alpha**2 there, yet the
    standard errors match the references (given at n = 1)."""
    got = fit.parameter_standard_errors(
        core.RadialParams(dim, lambda1, lambda2), 100)
    np.testing.assert_allclose(got, [se1 / 10.0, se2 / 10.0], rtol=1e-12)


@pytest.mark.parametrize("schur", [0.0, -1e-30, math.nan, math.inf])
def test_standard_errors_of_a_singular_covariance_raise(monkeypatch, schur):
    p = core.RadialParams(3, 4.0, 1.5)
    # E[E**i] = (0, v, 0, v**2 + schur): var E = v, Cov(E, E**2) = 0 and
    # Var E**2 = schur, the Schur complement of the covariance
    v = 2.0 ** -50
    log_i, log_p, t, _ = core._standard(3, core._z(p))
    monkeypatch.setattr(core, "_standard", lambda *args: (
        log_i, log_p, t, (0.0, v, 0.0, v * v + schur)))
    with pytest.raises(ConvergenceError, match="not positive definite"):
        fit.parameter_standard_errors(p, 100)


def test_report_at_the_iteration_cap_holds_plain_floats():
    p = core.RadialParams(3, 4.0, 1.5)
    m2, m4 = core.radial_moment(p, 2), core.radial_moment(p, 4)
    report = fit.fit_moments(3, core.MomentPair(m2, 1.01 * m4),
                             max_iterations=1)
    assert type(report.converged) is bool and not report.converged
    assert all(type(r) is float for r in report.residual)


def test_iteration_budget_must_allow_one_evaluation():
    with pytest.raises(DomainError):
        fit.fit_moments(3, core.MomentPair(1.0, 1.4), max_iterations=0)


def test_trace_follows_the_iterates():
    p = core.RadialParams(3, 4.0, 1.5)
    mom = core.MomentPair(core.radial_moment(p, 2), core.radial_moment(p, 4))
    report = fit.fit_moments(3, mom)
    assert [set(t) for t in report.trace] == [
        {"iteration", "lambda1", "lambda2", "residual"}] * report.iterations
    last = report.trace[-1]
    assert (last["lambda1"], last["lambda2"]) == (report.params.lambda1,
                                                  report.params.lambda2)
    assert last["residual"] == max(report.residual)


@pytest.mark.filterwarnings("error")
def test_corpus_moment_round_trip():
    """Every feasible moment point of the corpus (D = -2 nu, lambda1 = -z,
    lambda2 = 1/2: rings to alpha 1e8, the seeded box laws and
    near-Gaussian laws) fits back to its law in at most 20 steps; the
    points within the boundary margin are rejected."""
    fitted = rejected = 0
    for nu, z, m2, m4, *_ in CORPUS["moment_points"]:
        dim = round(-2.0 * nu)
        try:
            report = fit.fit_moments(dim, core.MomentPair(m2, m4))
        except InfeasibleMomentsError as err:
            assert err.ratio >= err.boundary * (1.0 - 1e-6)
            rejected += 1
            continue
        fitted += 1
        p = report.params
        assert report.converged and report.iterations <= 20, (nu, z)
        np.testing.assert_allclose(
            [core.radial_moment(p, 2), core.radial_moment(p, 4)], [m2, m4],
            rtol=1e-12)
        np.testing.assert_allclose([p.lambda1, p.lambda2], [-z, 0.5],
                                   rtol=1e-7)
    assert (fitted, rejected) == (240, 24)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha,rtol", [(1e10, 1e-7), (1e12, 2e-4)])
@pytest.mark.parametrize("dim", [2, 3, 10])
def test_ring_fit_is_right_or_says_it_is_not(dim, alpha, rtol):
    """Exact moments of rings of radius 1 and contrast alpha.  The excess
    c4 / c2**2 - 1 ~ 1 / (2 alpha) keeps about 16 - log10(2 alpha) digits,
    which bounds what any fit can recover; a fit that reports converged
    must be within that."""
    p = core.RadialParams(dim, alpha, alpha / 2.0)
    mom = core.MomentPair(core.radial_moment(p, 2), core.radial_moment(p, 4))
    report = fit.fit_moments(dim, mom)
    if report.converged:
        np.testing.assert_allclose(report.params.lambda1, alpha, rtol=rtol)
        np.testing.assert_allclose(report.params.lambda2, alpha / 2.0,
                                   rtol=rtol)


def test_fit_to_draws_of_a_thin_ring_lands_within_its_errors():
    """1e5 draws of the alpha 1e8, D 3 ring of radius 1."""
    n = 100000
    truth = core.RadialParams(3, 1e8, 5e7)
    x = sampling.sample(truth, n, sampling.SeededGenerator(11))
    report = fit.fit_data(x, "spherical")
    assert report.converged
    se = fit.parameter_standard_errors(report.params, n)
    assert abs(report.params.lambda1 - 1e8) < 4.0 * se[0]
    assert abs(report.params.lambda2 - 5e7) < 4.0 * se[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", range(1, 13))
def test_excess_increases_in_z_between_its_limits(dim):
    """The fit's one assumption: Var u / E[u]**2 under the standard law
    u**(D/2-1) e**(-z u - u**2/2) increases in z, from 0 (rings) towards
    2/D (the Gaussian limit)."""
    rng = np.random.default_rng(1600 + dim)
    z = np.sort(np.concatenate([
        rng.choice([-1.0, 1.0], 150) * 10.0 ** rng.uniform(-3.0, 4.0, 150),
        [-1e4, 0.0, 1e4]]))
    excess = []
    for zi in z:
        _, _, _, (e1, e2, _, _) = core._standard(dim, float(zi))
        excess.append((e2 - e1 * e1) / (1.0 + e1) ** 2)
    excess = np.array(excess)
    assert np.all(np.diff(excess) > 0.0)
    assert excess[0] > 0.0 and excess[-1] < 2.0 / dim


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lambda1,lambda2", [(-1e170, 1e-250),
                                             (-1e160, 1e-260)])
def test_standard_errors_beyond_double_precision_raise(lambda1, lambda2):
    """There lambda2's error is about 1 / y**2 with y ~ 1e-170 or 1e-160,
    so it overflows (or y * y underflows first)."""
    with pytest.raises(ConvergenceError, match="overflow"):
        fit.parameter_standard_errors(
            core.RadialParams(3, lambda1, lambda2), 100)
