import math

import numpy as np
import pytest

from eqe import specfun
from eqe.errors import DomainError
from eqe.specfun import ScaledValue

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
]

KUMMER_REFERENCE = [
    # (a, b, z, M(a, b, z))
    (0.3, 0.7, 2.5, 4.5188344699579278),
    (2.0, 3.0, 8.0, 652.11580966537806010),
    (-1.5, 0.5, 3.0, -2.1711659103787283),
]

BESSEL_K_LOG_REFERENCE = [
    # (x, log K_{1/4}(x))
    (0.3, 0.37021273462639424),
    (2.0, -2.1595391849082104),
    (50.0, -51.7320767753011),
]


def _pcf_d(nu, z):
    """D_nu(z) itself, undoing the compensation of pcf_d_scaled."""
    return specfun.pcf_d_scaled(nu, z).times_exp(-0.25 * z * z)


def _bessel_k_quarter(x):
    """K_{1/4}(x) itself, undoing the compensation of the scaled form."""
    return specfun.bessel_k_quarter_scaled(x).times_exp(-x)


class TestScaledValue:
    def test_round_trip(self):
        v = ScaledValue.from_float(-3.25)
        assert v.sign == -1
        np.testing.assert_allclose(v.to_float(), -3.25, rtol=1e-15)

    def test_zero(self):
        z = ScaledValue.zero()
        assert z.sign == 0
        assert z.to_float() == 0.0

    def test_times(self):
        a = ScaledValue.from_float(6.0)
        b = ScaledValue.from_float(-0.5)
        np.testing.assert_allclose(a.times(b).to_float(), -3.0, rtol=1e-15)

    def test_times_exp(self):
        v = ScaledValue.from_float(2.0).times_exp(3.0)
        np.testing.assert_allclose(v.to_float(), 2.0 * math.exp(3.0),
                                   rtol=1e-15)

    def test_plus_with_cancellation(self):
        a = ScaledValue.from_float(5.0)
        b = ScaledValue.from_float(-5.0)
        assert a.plus(b).sign == 0

    def test_plus_mixed_magnitudes(self):
        a = ScaledValue(700.0, 1)
        b = ScaledValue(690.0, -1)
        # e^700 - e^690 without overflow
        expected = 700.0 + math.log1p(-math.exp(-10.0))
        np.testing.assert_allclose(a.plus(b).mantissa_log, expected,
                                   rtol=1e-15)

    def test_negated(self):
        v = ScaledValue.from_float(4.0).negated()
        assert v.sign == -1
        np.testing.assert_allclose(float(v), -4.0, rtol=1e-15)


@pytest.mark.parametrize("a,b,z,expected", KUMMER_REFERENCE)
def test_kummer_m_reference(a, b, z, expected):
    got = specfun.kummer_m(a, b, z).to_float()
    np.testing.assert_allclose(got, expected, rtol=5e-14)


def test_kummer_m_at_origin():
    assert specfun.kummer_m(1.3, 2.7, 0.0).to_float() == 1.0


def test_kummer_m_exponential_case():
    # M(a, a, z) = e^z
    v = specfun.kummer_m(1.5, 1.5, 8.0)
    np.testing.assert_allclose(v.mantissa_log, 8.0, rtol=1e-14)


def test_kummer_m_rejects_negative_argument():
    with pytest.raises(DomainError, match="z >= 0"):
        specfun.kummer_m(2.0, 3.0, -8.0)


@pytest.mark.parametrize("nu,z,log_ref", PCF_LOG_REFERENCE)
def test_pcf_d_reference(nu, z, log_ref):
    got = _pcf_d(nu, z)
    assert got.sign == 1
    np.testing.assert_allclose(got.mantissa_log, log_ref, rtol=0, atol=5e-13)


def test_pcf_order_zero_is_gaussian():
    """D_0(z) = e^(-z^2/4), so the compensated value is exactly 1."""
    for z in (-7.0, 0.0, 0.4, 12.0):
        v = specfun.pcf_d_scaled(0.0, z)
        assert v.sign == 1
        assert v.mantissa_log == 0.0


@pytest.mark.parametrize("z", [-2.0, -0.3, 0.0, 1.5, 4.0])
def test_pcf_order_minus_one_erfc_identity(z):
    # D_{-1}(z) = e^(z^2/4) sqrt(pi/2) erfc(z/sqrt(2))
    expected = (0.25 * z * z + 0.5 * math.log(0.5 * math.pi)
                + math.log(math.erfc(z / math.sqrt(2.0))))
    got = _pcf_d(-1.0, z)
    assert got.sign == 1
    np.testing.assert_allclose(got.mantissa_log, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("nu", [-1.25, -2.0, -3.5, -6.0])
@pytest.mark.parametrize("z", [-3.0, -0.9, 0.7, 2.6])
def test_pcf_three_term_recurrence(nu, z):
    # D_{nu+1}(z) - z D_nu(z) + nu D_{nu-1}(z) = 0
    up = _pcf_d(nu + 1.0, z).to_float()
    mid = _pcf_d(nu, z).to_float()
    down = _pcf_d(nu - 1.0, z).to_float()
    np.testing.assert_allclose(up, z * mid - nu * down, rtol=1e-10)


def test_pcf_positive_everywhere_for_nonpositive_order():
    rng = np.random.default_rng(3)
    for _ in range(200):
        nu = -float(rng.uniform(0.0, 12.0))
        z = float(rng.uniform(-30.0, 30.0))
        assert specfun.pcf_d_scaled(nu, z).sign == 1


def test_pcf_scaled_survives_extreme_arguments():
    # raw D_nu would overflow/underflow at these; the compensated form
    # must stay finite and match the leading asymptotic order
    v = specfun.pcf_d_scaled(-1.5, 2000.0)
    assert v.sign == 1 and math.isfinite(v.mantissa_log)
    np.testing.assert_allclose(v.mantissa_log, -1.5 * math.log(2000.0),
                               rtol=0, atol=1e-5)
    w = specfun.pcf_d_scaled(-1.5, -2000.0)
    assert w.sign == 1 and math.isfinite(w.mantissa_log)
    expected = (0.5 * 2000.0 ** 2 + 0.5 * math.log(2.0 * math.pi)
                - math.lgamma(1.5) + 0.5 * math.log(2000.0))
    np.testing.assert_allclose(w.mantissa_log, expected, rtol=1e-12)


def test_pcf_rejects_positive_order():
    with pytest.raises(DomainError):
        specfun.pcf_d_scaled(0.5, 1.0)


@pytest.mark.parametrize("x,log_ref", BESSEL_K_LOG_REFERENCE)
def test_bessel_k_quarter_reference(x, log_ref):
    got = _bessel_k_quarter(x)
    assert got.sign == 1
    np.testing.assert_allclose(got.mantissa_log, log_ref, rtol=0, atol=5e-13)


def test_bessel_k_quarter_scaled_large_argument():
    # e^x K_{1/4}(x) -> sqrt(pi/(2x)) as x -> inf
    x = 1e6
    v = specfun.bessel_k_quarter_scaled(x)
    np.testing.assert_allclose(v.mantissa_log,
                               0.5 * math.log(0.5 * math.pi / x),
                               rtol=0, atol=1e-6)


def test_bessel_k_quarter_rejects_nonpositive():
    with pytest.raises(DomainError):
        specfun.bessel_k_quarter_scaled(0.0)
