import json
import math
from pathlib import Path

import numpy as np
import pytest

from eqe import specfun
from eqe.errors import DomainError

# Reference values below were computed with 40-digit arbitrary precision
# arithmetic and frozen; tolerances leave roughly a decade of headroom
# over the observed deviation.

PCF_LOG_REFERENCE = [
    # (nu, z, log D_nu(z))
    (-0.5, 1.3, -0.68013358442508667),
    (-2.5, -4.0, 6.7371646065904878),
    (-5.0, 0.0, -1.8536501890351085),
    (-1.0, 10.0, -27.312346617307798),
    (-3.5, -20.0, 107.21197143247682),
    (-9.0, 2.5, -13.27803207272385),
    (-0.25, -0.7, 0.24663700995469496),
    (-4.5, 35.0, -322.25911926567595),
    # large orders: the panels must resolve a peak of width
    # 1/sqrt(t*^2 - nu)
    (-50.0, -22.36, 135.76011620989079135),
    (-100.0, -22.36, 82.648434734243337524),
    (-500.0, -22.36, -784.19741069803451732),
]

BESSEL_K_LOG_REFERENCE = [
    # (x, log K_{1/4}(x))
    (0.3, 0.37021273462639424),
    (2.0, -2.1595391849082104),
    (50.0, -51.7320767753011),
]


def _log_pcf_d(nu, z):
    """log D_nu(z) itself, undoing the compensation of pcf_d_scaled."""
    return specfun.pcf_d_scaled(nu, z) - 0.25 * z * z


def _log_bessel_k_quarter(x):
    """log K_{1/4}(x) itself, undoing the compensation of the scaled form."""
    return specfun.bessel_k_quarter_scaled(x) - x


@pytest.mark.parametrize("nu,z,log_ref", PCF_LOG_REFERENCE)
def test_pcf_d_reference(nu, z, log_ref):
    np.testing.assert_allclose(_log_pcf_d(nu, z), log_ref, rtol=0, atol=5e-13)


def test_pcf_d_corpus():
    """Every frozen 40-digit reference of tests/data/pcf_reference.json
    (written by make_pcf_reference.py there), within 1e-13 of
    max(1, |log|)."""
    path = Path(__file__).parent / "data" / "pcf_reference.json"
    with open(path) as f:
        points = json.load(f)["points"]
    ref = np.array([v for _, _, v in points])
    got = np.array([specfun.pcf_d_scaled(nu, z) for nu, z, _ in points])
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    worst = int(np.argmax(err))
    assert err[worst] <= 1e-13, (points[worst], got[worst])


# -nu = 10**k for k from -300 to 300 in steps of 25, the smallest
# subnormal, and orders in between
PANEL_ORDERS = [-(10.0 ** k) for k in range(-300, 301, 25)] + [
    -5e-324, -1e-12, -1e-3, -0.1, -0.25, -0.5, -0.6, -1.0, -1.5, -2.5, -6.0,
    -50.0, -500.0, -1e4, -1e8]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nu", PANEL_ORDERS)
def test_pcf_is_finite_in_few_panels(nu, monkeypatch):
    rule = specfun.gauss_legendre_panels
    panels = []

    def counted(log_f, lo, hi):
        panels.append(lo.size)
        return rule(log_f, lo, hi)

    monkeypatch.setattr(specfun, "gauss_legendre_panels", counted)
    for z in (-1e-8, 1e-8, 0.0, -1.0, 1.0, -2.5, -10.0, -50.0, 50.0, 1e5,
              1.4e295):
        panels.clear()
        assert math.isfinite(specfun.pcf_d_scaled(nu, z))
        assert len(panels) == 1 and 1 <= panels[0] <= 100


def test_pcf_order_zero_is_gaussian():
    """D_0(z) = e^(-z^2/4), so the compensated value is exactly 1."""
    for z in (-7.0, 0.0, 0.4, 12.0):
        assert specfun.pcf_d_scaled(0.0, z) == 0.0


@pytest.mark.parametrize("z", [-2.0, -0.3, 0.0, 1.5, 4.0])
def test_pcf_order_minus_one_erfc_identity(z):
    # D_{-1}(z) = e^(z^2/4) sqrt(pi/2) erfc(z/sqrt(2))
    expected = (0.25 * z * z + 0.5 * math.log(0.5 * math.pi)
                + math.log(math.erfc(z / math.sqrt(2.0))))
    np.testing.assert_allclose(_log_pcf_d(-1.0, z), expected, rtol=0,
                               atol=1e-13)


@pytest.mark.parametrize("nu", [-1.25, -2.0, -3.5, -6.0])
@pytest.mark.parametrize("z", [-3.0, -0.9, 0.7, 2.6])
def test_pcf_three_term_recurrence(nu, z):
    # D_{nu+1}(z) - z D_nu(z) + nu D_{nu-1}(z) = 0
    up, mid, down = (math.exp(_log_pcf_d(nu + k, z))
                     for k in (1.0, 0.0, -1.0))
    np.testing.assert_allclose(up, z * mid - nu * down, rtol=1e-10)


def test_pcf_positive_everywhere_for_nonpositive_order():
    rng = np.random.default_rng(3)
    for _ in range(200):
        nu = -float(rng.uniform(0.0, 12.0))
        z = float(rng.uniform(-30.0, 30.0))
        assert math.isfinite(specfun.pcf_d_scaled(nu, z))


def test_pcf_scaled_survives_extreme_arguments():
    # raw D_nu would overflow/underflow at these; the compensated form
    # must stay finite and match the leading asymptotic order
    v = specfun.pcf_d_scaled(-1.5, 2000.0)
    np.testing.assert_allclose(v, -1.5 * math.log(2000.0), rtol=0, atol=1e-5)
    w = specfun.pcf_d_scaled(-1.5, -2000.0)
    expected = (0.5 * 2000.0 ** 2 + 0.5 * math.log(2.0 * math.pi)
                - math.lgamma(1.5) + 0.5 * math.log(2000.0))
    np.testing.assert_allclose(w, expected, rtol=1e-12)


def test_pcf_rejects_positive_order():
    with pytest.raises(DomainError):
        specfun.pcf_d_scaled(0.5, 1.0)


@pytest.mark.parametrize("nu,z", [
    (-1e305, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (-1.0, math.inf),
    (-1.0, -math.inf), (-1.0, math.nan), (-1.0, -1e155)])
def test_pcf_rejects_arguments_out_of_range(nu, z):
    # log Gamma(-nu) overflows from -nu = 1e305 on, z**2 from -z = 1e154
    with pytest.raises(DomainError):
        specfun.pcf_d_scaled(nu, z)


@pytest.mark.parametrize("x,log_ref", BESSEL_K_LOG_REFERENCE)
def test_bessel_k_quarter_reference(x, log_ref):
    np.testing.assert_allclose(_log_bessel_k_quarter(x), log_ref, rtol=0,
                               atol=5e-13)


def test_bessel_k_quarter_scaled_large_argument():
    # e^x K_{1/4}(x) -> sqrt(pi/(2x)) as x -> inf
    x = 1e6
    np.testing.assert_allclose(specfun.bessel_k_quarter_scaled(x),
                               0.5 * math.log(0.5 * math.pi / x),
                               rtol=0, atol=1e-6)


def test_bessel_k_quarter_rejects_nonpositive():
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            specfun.bessel_k_quarter_scaled(x)


def test_bessel_k_quarter_corpus():
    """The frozen 40-digit log(e**x K_{1/4}(x)) of pcf_reference.json, for
    x from 1e-300 to 1e20, within 1e-15 of max(1, |log|)."""
    path = Path(__file__).parent / "data" / "pcf_reference.json"
    with open(path) as f:
        points = json.load(f)["bessel_k_points"]
    for x, ref in points:
        got = specfun.bessel_k_quarter_scaled(x)
        assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), (x, got, ref)


def test_gauss_legendre_rule_is_leggauss_24():
    # the frozen rule spares every process numpy.polynomial and its LAPACK
    # call; it must be leggauss(24) bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(24)
    np.testing.assert_array_equal(specfun._GL_NODES, nodes)
    np.testing.assert_array_equal(specfun._GL_WEIGHTS, weights)
