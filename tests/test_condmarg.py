import math

import numpy as np
import pytest

from eqe import condmarg, core, quadrature, specfun
from eqe.condmarg import BlockSplit
from eqe.errors import DomainError

# Frozen references for the marginal over the leading block, computed
# with 40-digit quadrature of the defining integral.

MARGINAL_LOG_REFERENCE = [
    # (dim, lambda1, lambda2, dim2, q1, log marginal at |x1|^2 = q1)
    (2, 8.0, 4.0, 1, 0.25, -0.88642044364698282),
    (3, 2.0, 1.0, 2, 0.64, -0.98200703849776427),
    (5, -3.0, 0.7, 3, 1.21, -5.0116533643091115),
]


def test_block_split_validation():
    s = BlockSplit(2, 3)
    assert s.total_dim == 5
    with pytest.raises(DomainError):
        BlockSplit(0, 3)
    with pytest.raises(DomainError):
        BlockSplit(2, -1)
    with pytest.raises(DomainError):
        BlockSplit(1.5, 2)


def test_split_must_cover_the_dimension():
    p = core.RadialParams(4, 1.0, 1.0)
    with pytest.raises(DomainError):
        condmarg.conditional_params(p, BlockSplit(2, 3), 0.5)
    with pytest.raises(DomainError):
        condmarg.marginal_log_density(p, BlockSplit(1, 2), np.zeros(1))


def test_elliptical_params_are_rejected():
    rad = core.RadialParams(3, 1.0, 1.0)
    p = core.EllipticalParams(np.zeros(3), np.eye(3), rad)
    with pytest.raises(DomainError):
        condmarg.conditional_params(p, BlockSplit(1, 2), 0.5)


def test_conditional_shifts_lambda1():
    """Conditioning on |x2|^2 = t maps lambda1 to lambda1 - 2 lambda2 t."""
    p = core.RadialParams(5, 4.0, 1.5)
    cond = condmarg.conditional_params(p, BlockSplit(2, 3), 0.8)
    assert cond.dim == 2
    np.testing.assert_allclose(cond.lambda1, 4.0 - 2.0 * 1.5 * 0.8,
                               rtol=1e-15)
    assert cond.lambda2 == 1.5


def test_conditional_sign_change_at_mode_shell():
    # lambda1' crosses zero exactly where |x2|^2 hits R^2
    p = core.ring_to_radial(core.RingParams(3, 8.0, 1.0))
    r_sq = core.mode_radius(p) ** 2
    at = condmarg.conditional_params(p, BlockSplit(1, 2), r_sq)
    assert abs(at.lambda1) < 1e-14 * abs(p.lambda1)
    below = condmarg.conditional_params(p, BlockSplit(1, 2), 0.5 * r_sq)
    above = condmarg.conditional_params(p, BlockSplit(1, 2), 2.0 * r_sq)
    assert below.lambda1 > 0 > above.lambda1


def test_conditional_rejects_negative_norm():
    p = core.RadialParams(3, 1.0, 1.0)
    with pytest.raises(DomainError):
        condmarg.conditional_params(p, BlockSplit(1, 2), -0.1)


@pytest.mark.parametrize("dim,l1,l2,dim2,q1,log_ref", MARGINAL_LOG_REFERENCE)
def test_marginal_log_density_reference(dim, l1, l2, dim2, q1, log_ref):
    p = core.RadialParams(dim, l1, l2)
    split = BlockSplit(dim - dim2, dim2)
    x1 = np.zeros(dim - dim2)
    x1[0] = math.sqrt(q1)
    got = condmarg.marginal_log_density(p, split, x1)
    np.testing.assert_allclose(got, log_ref, rtol=1e-12)


def test_marginal_depends_only_on_radius():
    p = core.RadialParams(4, 3.0, 1.0)
    split = BlockSplit(2, 2)
    a = condmarg.marginal_log_density(p, split, np.array([0.6, 0.8]))
    b = condmarg.marginal_log_density(p, split, np.array([1.0, 0.0]))
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_marginal_input_validation():
    p = core.RadialParams(3, 1.0, 1.0)
    with pytest.raises(DomainError):
        condmarg.marginal_log_density(p, BlockSplit(1, 2), np.zeros(2))
    with pytest.raises(DomainError):
        condmarg.marginal_log_density(p, BlockSplit(1, 2),
                                      np.array([math.nan]))


@pytest.mark.parametrize("dim,l1,l2", [(2, 8.0, 4.0), (3, 2.0, 1.0),
                                       (5, -3.0, 0.7), (4, 0.0, 1.0)])
def test_chain_rule_factorization(dim, l1, l2):
    """log joint = log marginal(x1) + log conditional(x2 given |x1|^2)."""
    p = core.RadialParams(dim, l1, l2)
    rng = np.random.default_rng(31)
    for d1 in (1, dim - 1):
        split = BlockSplit(d1, dim - d1)
        flipped = BlockSplit(dim - d1, d1)
        for _ in range(5):
            x = rng.normal(size=dim)
            joint = core.log_density(p, x)
            marg = condmarg.marginal_log_density(p, split, x[:d1])
            cond_p = condmarg.conditional_params(p, flipped,
                                                 float(x[:d1] @ x[:d1]))
            cond = core.log_density(cond_p, x[d1:])
            np.testing.assert_allclose(joint, marg + cond,
                                       rtol=0, atol=1e-10)


@pytest.mark.parametrize("dim,d1", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_marginal_normalizes(dim, d1):
    p = core.RadialParams(dim, 4.0, 1.5)
    split = BlockSplit(d1, dim - d1)

    def radial_mass(r):
        x1 = np.zeros(d1)
        x1[0] = r
        log_m = condmarg.marginal_log_density(p, split, x1)
        return math.exp((d1 - 1) * math.log(r) + log_m) if r > 0 else 0.0

    area = core.sphere_surface_area(d1 - 1)
    res = quadrature.integrate_semi_infinite(radial_mass)
    np.testing.assert_allclose(area * res.value, 1.0, rtol=1e-9)


def test_peak_of_one_dimensional_marginal():
    # ring with alpha = 8, R = 1 in the plane: the x1 marginal peaks just
    # inside the shell radius
    p = core.ring_to_radial(core.RingParams(2, 8.0, 1.0))
    peaks = condmarg.marginal_peaks(p, BlockSplit(1, 1))
    assert len(peaks) == 1
    np.testing.assert_allclose(peaks[0], 0.85413642188884837,
                               rtol=0, atol=1e-9)


def test_peak_is_a_maximum_of_the_marginal():
    p = core.ring_to_radial(core.RingParams(2, 8.0, 1.0))
    split = BlockSplit(1, 1)
    (r_star,) = condmarg.marginal_peaks(p, split)
    at = condmarg.marginal_log_density(p, split, np.array([r_star]))
    for dr in (-1e-3, 1e-3):
        off = condmarg.marginal_log_density(p, split,
                                            np.array([r_star + dr]))
        assert off < at


def test_monotone_marginal_peaks_at_origin():
    p = core.RadialParams(3, -2.0, 1.0)
    assert condmarg.marginal_peaks(p, BlockSplit(1, 2)) == [0.0]


def test_weak_ring_marginal_can_peak_at_origin():
    # small alpha: integrating out one coordinate washes the ring out
    p = core.ring_to_radial(core.RingParams(2, 0.5, 1.0))
    peaks = condmarg.marginal_peaks(p, BlockSplit(1, 1))
    assert peaks[0] == 0.0


def test_peaks_lie_inside_the_mode_shell():
    for alpha in (4.0, 8.0, 20.0, 1e2, 1e4, 1e6, 1e8):
        p = core.ring_to_radial(core.RingParams(2, alpha, 1.0))
        peaks = condmarg.marginal_peaks(p, BlockSplit(1, 1))
        assert all(0.0 < r < 1.0 for r in peaks)
    assert peaks == sorted(peaks)


@pytest.mark.parametrize("dim,dim1", [(3, 1), (4, 2), (4, 1), (5, 3),
                                      (6, 4), (6, 3)])
@pytest.mark.parametrize("alpha", [1e2, 1e3, 1e4, 1e6, 1e8])
def test_trailing_block_of_two_or_more_peaks_at_origin(dim, dim1, alpha):
    # for dim2 >= 2 the marginal in q1 is a nonincreasing integral of the
    # joint over t >= q1: thin rings must not produce spurious peaks
    p = core.ring_to_radial(core.RingParams(dim, alpha, 1.0))
    assert condmarg.marginal_peaks(p, BlockSplit(dim1, dim - dim1)) == [0.0]


def test_peak_constant_is_the_zero_of_d_half():
    # D_{1/2}(z) = z D_{-1/2}(z) + D_{-3/2}(z) / 2 (DLMF 12.8.1); the
    # scaled values share the positive factor e**(z**2/4)
    def d_half(z):
        return (z * math.exp(specfun.pcf_d_scaled(-0.5, z))
                + 0.5 * math.exp(specfun.pcf_d_scaled(-1.5, z)))

    assert d_half(condmarg._Z0 - 1e-9) < 0.0 < d_half(condmarg._Z0 + 1e-9)


@pytest.mark.parametrize("dim,l1,l2,x1", [
    (2, 1.0, 1.0, [1e155]),      # q1 overflows
    (2, 1.0, 1.0, [1e154]),      # the shifted coefficient overflows
    (2, 1e10, 1e-10, [1e150]),   # inf - inf in the q1 terms
    (3, -2.0, 1.0, [1e200, 1e200]),
])
def test_marginal_far_out_is_minus_inf(dim, l1, l2, x1):
    p = core.RadialParams(dim, l1, l2)
    split = BlockSplit(len(x1), dim - len(x1))
    assert condmarg.marginal_log_density(p, split, np.array(x1)) == -np.inf
