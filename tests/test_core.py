import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from eqe import condmarg, core, fit, quadrature, sampling, specfun
from eqe.errors import ConvergenceError, DomainError

# 40-digit references written by tests/data/make_pcf_reference.py
CORPUS = json.loads(
    (Path(__file__).parent / "data" / "pcf_reference.json").read_text())

# Normalization constants, radial moments and entropies below were
# computed with 40-digit arbitrary precision quadrature against the
# defining integrals and frozen.

LOG_Z_REFERENCE = [
    # (dim, lambda1, lambda2, log Z)
    (1, -3.0, 0.5, -0.011987738531947907),
    (2, 8.0, 4.0, 5.0216060413007973),
    (3, 4.0, 1.5, 4.9877501810197443),
    (7, -5.0, 2.0, -2.4225078715319928),
    (10, 20.0, 0.05, 2025.8105952081357),
    (4, -0.5, 9.0, -0.74568393465075426),
    (1, 40.0, 10.0, 39.079310058080472),
    # large dim: the quadrature route must shift by the peak of the whole
    # exponent, y**(D/2-1) included, or its integrand overflows
    (500, -1.0, 0.01, 109.52688446033164822),
    (1000, 3.0, 0.2, -390.72696960916802864),
    # peaks narrow against their distance from y = 1, which the coarse
    # quadrature levels miss unless the peak sits on a node
    (8, 15.7, 0.0063, 9808.6256450625486897),
    (3, 250000.0, 31250.0, 499997.92850173731159),
]

MOMENT_REFERENCE = [
    # (dim, lambda1, lambda2, k, E[r^k])
    (3, 4.0, 1.5, 2, 1.4757716703316811),
    (3, 4.0, 1.5, 4, 2.4676955604422415),
    (2, 8.0, 4.0, 2, 1.0025894295017421),
    (2, 8.0, 4.0, 4, 1.1275894295017421),
]

ENTROPY_REFERENCE = [
    (2, 8.0, 4.0, 1.5112483232938288),
    (3, 4.0, 1.5, 2.7862068403563821),
    (1, -3.0, 0.5, 0.45787235749107046),
    (5, 0.5, 2.0, 2.3483199740125891),
]

EG_ENTROPY_REFERENCE = [
    # (dim, a, b, entropy)
    (2, 3.0, 0.5, 2.2991612156524659),
    (3, 2.5, 1.2, 4.1928856314279533),
]


# ---------------------------------------------------------------------------
# parameter containers


def test_radial_params_basic():
    p = core.RadialParams(3, 4.0, 1.5)
    assert p.dim == 3
    # annular exactly when lambda1 > 0: the mode leaves the origin
    assert core.mode_radius(p) > 0.0
    assert core.mode_radius(core.RadialParams(3, -4.0, 1.5)) == 0.0
    assert core.mode_radius(core.RadialParams(3, 0.0, 1.5)) == 0.0
    # numpy scalars are real numbers too, stored as Python int and float
    q = core.RadialParams(np.int64(3), np.float32(4.0), np.float64(1.5))
    assert q == p and type(q.dim) is int and type(q.lambda1) is float


@pytest.mark.parametrize("dim,l1,l2", [
    (0, 1.0, 1.0),
    (-2, 1.0, 1.0),
    (2.5, 1.0, 1.0),
    (True, 1.0, 1.0),
    (2, math.nan, 1.0),
    (2, math.inf, 1.0),
    (2, 1.0, 0.0),
    (2, 1.0, -3.0),
    (2, 1.0, math.nan),
    (2, 1.0, 1e308),  # 2 lambda2 overflows
    ("3", 1.0, 1.0),  # fields that are not real numbers
    (3, "1", 1.0),
    (3, None, 1.0),
    (3, 1.0, True),
])
def test_radial_params_rejects_bad_input(dim, l1, l2):
    with pytest.raises(DomainError):
        core.RadialParams(dim, l1, l2)


@pytest.mark.parametrize("make", [
    lambda: core.RadialParams(3, 10 ** 400, 1.0),
    lambda: core.RingParams(3, 1.0, [1.0]),
    lambda: core.RingParams(3.5, 1.0, 1.0),
    lambda: core.EllipticalParams("ab", np.eye(2), core.RadialParams(2, 1, 1)),
    lambda: core.EllipticalParams([0, 0], [[1, 0], [0]],
                                  core.RadialParams(2, 1, 1)),
    lambda: core.EllipticalParams([0, None], np.eye(2),
                                  core.RadialParams(2, 1, 1)),
    lambda: core.EllipticalGammaReference([["1", "0"], ["0", "1"]], 1.0, 1.0),
    lambda: core.MomentPair("1", 2.0),
    lambda: core.log_norm_const_d2_closed("1", 1.0),
    lambda: core.log_norm_const_d2_closed(True, 1.0),
    lambda: core.log_norm_const_d1_neg(None, 1.0),
    lambda: core.log_norm_const_d1_neg(-1.0, "1"),
], ids=["lambda1-huge-int", "radius-list", "ring-dim-2.5", "mu-str",
        "sigma-ragged", "mu-none", "eg-sigma-str", "c2-str", "d2-str",
        "d2-bool", "d1-none", "d1-str"])
def test_fields_that_are_not_real_numbers_raise_domain_error(make):
    with pytest.raises(DomainError, match="must be"):
        make()


def test_radial_params_frozen():
    p = core.RadialParams(2, 1.0, 1.0)
    with pytest.raises(Exception):
        p.lambda1 = 5.0


def test_ring_round_trip():
    ring = core.RingParams(2, 8.0, 1.0)
    p = core.ring_to_radial(ring)
    np.testing.assert_allclose(p.lambda1, 8.0, rtol=1e-15)
    np.testing.assert_allclose(p.lambda2, 4.0, rtol=1e-15)
    back = core.radial_to_ring(p)
    np.testing.assert_allclose(back.alpha, 8.0, rtol=1e-14)
    np.testing.assert_allclose(back.radius, 1.0, rtol=1e-14)


def test_ring_mode_radius():
    p = core.ring_to_radial(core.RingParams(5, 3.0, 1.7))
    np.testing.assert_allclose(core.mode_radius(p), 1.7, rtol=1e-14)
    assert core.mode_radius(core.RadialParams(5, -3.0, 1.0)) == 0.0


def test_ring_form_needs_annular():
    with pytest.raises(DomainError):
        core.radial_to_ring(core.RadialParams(2, -1.0, 1.0))
    with pytest.raises(DomainError):
        core.RingParams(2, -8.0, 1.0)


def test_moment_pair_rejects_jensen_violation():
    core.MomentPair(1.0, 1.5)
    with pytest.raises(DomainError):
        core.MomentPair(1.0, 1.0)
    with pytest.raises(DomainError):
        core.MomentPair(-1.0, 2.0)


def test_elliptical_params_validation():
    rad = core.RadialParams(2, 1.0, 1.0)
    core.EllipticalParams([0.0, 0.0], np.eye(2), rad)
    with pytest.raises(DomainError):
        core.EllipticalParams([0.0], np.eye(2), rad)
    with pytest.raises(DomainError):
        core.EllipticalParams([0.0, 0.0], np.eye(3), rad)
    with pytest.raises(DomainError):
        core.EllipticalParams([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]], rad)
    with pytest.raises(DomainError):
        core.EllipticalParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], rad)


def test_sphere_surface_area():
    areas = [math.exp(core.log_sphere_surface_area(n)) for n in (1, 2, 0)]
    # S_0 is the two-point 0-sphere
    np.testing.assert_allclose(areas, [2.0 * math.pi, 4.0 * math.pi, 2.0],
                               rtol=1e-15)
    with pytest.raises(DomainError):
        core.log_sphere_surface_area(-1)


# ---------------------------------------------------------------------------
# normalization constant


@pytest.mark.parametrize("dim,l1,l2,log_ref", LOG_Z_REFERENCE)
def test_log_norm_const_reference(dim, l1, l2, log_ref):
    p = core.RadialParams(dim, l1, l2)
    got = core.log_norm_const(p)
    np.testing.assert_allclose(got, log_ref, rtol=1e-12)


@pytest.mark.parametrize("dim,l1,l2,log_ref", LOG_Z_REFERENCE)
def test_log_norm_const_routes_agree(dim, l1, l2, log_ref):
    p = core.RadialParams(dim, l1, l2)
    a = core.log_norm_const(p, "pcf")
    b = core.log_norm_const(p, "quadrature")
    np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("alpha", [1e2, 1e6, 1e8])
@pytest.mark.parametrize("radius", [0.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
def test_log_norm_const_routes_agree_on_thin_rings(dim, radius, alpha):
    """A thin ring at R != 1 puts the quadrature route's narrow peak far
    from y = 1, which its coarse levels miss unless the peak sits on a
    node."""
    p = core.ring_to_radial(core.RingParams(dim, alpha, radius))
    a = core.log_norm_const(p, "pcf")
    b = core.log_norm_const(p, "quadrature")
    # log Z ~ alpha / 2 carries rounding of a few ulps by either route
    np.testing.assert_allclose(b, a, rtol=2e-15, atol=1e-11)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [1e2, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
def test_quadrature_log_z_is_cheap_on_rings(monkeypatch, dim, alpha, radius):
    """Scaled by its Laplace width, a ring's peak is resolved by
    tanh-sinh's coarse levels at any contrast."""
    spent = []

    def counted(f):
        res = integrate(f)
        spent.append(res.evaluations)
        return res

    integrate = quadrature.integrate_semi_infinite
    monkeypatch.setattr(quadrature, "integrate_semi_infinite", counted)
    p = core.ring_to_radial(core.RingParams(dim, alpha, radius))
    quadrature.log_integral(p.dim, core._z(p))
    # levels 0-3 of the z-map
    assert spent == [153]


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [10.0, 30.0])
def test_d1_rings_below_the_width_map_agree_with_pcf(alpha, radius):
    """At D = 1 the width-mapped integrand is near-singular at z = 0, so
    rings whose s -> 0 end still holds mass keep the s-form."""
    p = core.ring_to_radial(core.RingParams(1, alpha, radius))
    np.testing.assert_allclose(core.log_norm_const(p, "quadrature"),
                               core.log_norm_const(p, "pcf"),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim,z", [(2000, 300.0), (5000, 1e3),
                                   (10 ** 5, 1e8), (1, 1.95430917938537)])
def test_quadrature_log_z_at_large_dim_agrees_with_pcf(dim, z):
    """At large D a broad peak stands up to e**800 above u = m, where the
    integrand is written about; the oracle takes it out, so the integrand
    neither overflows nor warns.  At D = 1, z = 1.95430917938537, tanh-sinh
    levels 1 and 2 agree to 1e-11 by chance, 1.3e-12 off; the stop test
    starts at level 3."""
    quad, pcf = quadrature.log_integral(dim, z), core._standard(dim, z)[0]
    assert abs(quad - pcf) <= 1e-13 * max(1.0, abs(pcf)), (quad, pcf)


def test_quadrature_log_z_rejects_nonpositive_integral(monkeypatch):
    monkeypatch.setattr(quadrature, "integrate_semi_infinite",
                        lambda f: quadrature.QuadResult(0.0, 0.0, 1))
    with pytest.raises(ConvergenceError):
        core.log_norm_const(core.RadialParams(2, 1.25, 0.75), "quadrature")


def test_log_norm_const_gaussian_point():
    # lambda1 = 0, lambda2 = 1, dim = 2: Z = pi^(3/2) / 2 exactly
    got = core.log_norm_const(core.RadialParams(2, 0.0, 1.0))
    np.testing.assert_allclose(got, math.log(0.5 * math.pi ** 1.5),
                               rtol=1e-13)


def test_log_norm_const_small_lambda2_limit():
    # lambda2 -> 0 with lambda1 < 0 tends to the Gaussian normalizer
    # (D/2) log(pi / -lambda1); the correction is O(lambda2)
    got = core.log_norm_const(core.RadialParams(3, -3.0, 1e-12))
    np.testing.assert_allclose(got, 1.5 * math.log(math.pi / 3.0),
                               rtol=0, atol=1e-9)


@pytest.mark.filterwarnings("error")
def test_log_norm_const_scale_identity():
    """q -> q / c maps (l1, l2) -> (c l1, c**2 l2): log Z, by either route,
    and the entropy shift by -(D/2) ln c, E[r**k] scales by c**(-k/2) and
    same-seed draws by c**-1/2, to a few ulps.  Draws to 64: each law's
    table is exact for its own rounded parameters, so the two tables' CDFs
    may differ in their last bits, which inversion magnifies where the
    density is small (measured: median 1, at most 29).  The law is
    (2.5, 1.25) at scale c**-1/2, so that both laws are in double range,
    and so are both moments where |k/4 log10 c| <= 300."""
    for c in (2.0, 1.0 / 3.0, 0.05, 1e-200, 1e-3, 7.0, 1e150):
        p = core.RadialParams(4, 2.5 / math.sqrt(c), 1.25 / c)
        pc = core.RadialParams(4, c * p.lambda1, c * (c * p.lambda2))
        shift = -2.0 * math.log(c)
        for a, b in [(core.log_norm_const(pc, method),
                      core.log_norm_const(p, method) + shift)
                     for method in ("pcf", "quadrature")] + [
                (core.entropy(pc), core.entropy(p) + shift)]:
            # within 8 ulps of the largest term
            assert abs(a - b) <= 8.0 * np.spacing(
                max(abs(a), abs(b), abs(shift))), (c, a, b)
        for k in (2, 4, 6, 8):
            if abs(k / 4 * math.log10(c)) <= 300:
                np.testing.assert_allclose(
                    core.radial_moment(pc, k) * c ** (k / 4),
                    core.radial_moment(p, k) * c ** (-k / 4), rtol=2e-15)
        x, xc = (sampling.sample(law, 1000, 5) for law in (p, pc))
        np.testing.assert_array_max_ulp(xc, x / math.sqrt(c), maxulp=64)


def test_log_norm_const_info_provenance():
    p = core.RadialParams(3, 4.0, 1.5)
    info = core.log_norm_const_info(p)
    assert info.method_used == "pcf"
    assert not info.fell_back
    forced = core.log_norm_const_info(p, "quadrature")
    assert forced.method_used == "quadrature"
    np.testing.assert_allclose(info.value, forced.value, rtol=1e-11)
    with pytest.raises(DomainError):
        core.log_norm_const_info(p, "fancy")


def test_d2_closed_form_against_pcf():
    rng = np.random.default_rng(8)
    for _ in range(50):
        l1 = float(rng.uniform(-20.0, 20.0))
        l2 = float(np.exp(rng.uniform(math.log(0.05), math.log(30.0))))
        a = core.log_norm_const_d2_closed(l1, l2)
        b = core.log_norm_const(core.RadialParams(2, l1, l2), "pcf")
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_d2_closed_form_rejects_bad_lambda2():
    with pytest.raises(DomainError):
        core.log_norm_const_d2_closed(1.0, -1.0)


def test_d1_closed_form_against_pcf():
    for l1, l2 in ((-0.5, 2.0), (-4.0, 1.0), (-30.0, 0.3), (-2.0, 40.0)):
        a = core.log_norm_const_d1_neg(l1, l2)
        b = core.log_norm_const(core.RadialParams(1, l1, l2), "pcf")
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_d1_closed_form_over_the_double_range():
    """w = lambda1**2 / (8 lambda2) from 1e-250 to 1e250, at scales where
    lambda1**2 alone leaves the double range; ConvergenceError where w
    does."""
    worst = 0.0
    for log_w in range(-250, 251, 25):
        for l2 in (1e-200, 1e-3, 1.0, 1e200):
            l1 = -math.sqrt(8.0 * l2) * 10.0 ** (0.5 * log_w)
            a = core.log_norm_const_d1_neg(l1, l2)
            b = core.log_norm_const(core.RadialParams(1, l1, l2), "pcf")
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    assert worst <= 1e-12
    for l1, l2 in ((-1e-200, 1.0), (-1e-300, 1e300), (-1e200, 1e-200),
                   (-1e300, 1e-300)):
        with pytest.raises(ConvergenceError, match="w = lambda1"):
            core.log_norm_const_d1_neg(l1, l2)


def test_d1_closed_form_requires_negative_lambda1():
    for l1 in (1.0, 0.0, -math.inf, math.nan):
        with pytest.raises(DomainError):
            core.log_norm_const_d1_neg(l1, 1.0)


def test_elliptical_log_norm_adds_half_log_det():
    rad = core.RadialParams(2, 3.0, 1.0)
    sigma = np.array([[2.0, 0.3], [0.3, 0.7]])
    full = core.EllipticalParams([0.5, -1.0], sigma, rad)
    expected = (core.log_norm_const(rad)
                + 0.5 * math.log(np.linalg.det(sigma)))
    np.testing.assert_allclose(core.log_norm_const(full), expected,
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# moments and entropy


@pytest.mark.parametrize("dim,l1,l2,k,ref", MOMENT_REFERENCE)
def test_radial_moment_reference(dim, l1, l2, k, ref):
    got = core.radial_moment(core.RadialParams(dim, l1, l2), k)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_moment_corpus():
    """E[q**j], j = 1..4, within 1e-13 relative of the 40-digit references
    on rings to alpha 1e8, seeded box laws and near-Gaussian laws (each
    at lambda1 = -z, lambda2 = 1/2)."""
    rows = CORPUS["moment_points"]
    got = np.array([[core.radial_moment(
        core.RadialParams(round(-2.0 * nu), -z, 0.5), k)
        for k in (2, 4, 6, 8)] for nu, z, *_ in rows])
    err = np.abs(got / np.array([r[2:6] for r in rows]) - 1.0).max(axis=1)
    worst = int(np.argmax(err))
    assert err[worst] <= 1e-13, (rows[worst], got[worst])


@pytest.mark.filterwarnings("error")
def test_ring_entropy_corpus():
    """Entropies of rings of radius 1, alpha 1e4-1e8 and D 1-12, within
    1e-12 nats of the 40-digit references, though lambda2 E[q**2],
    lambda1 E[q] and log Z are each ~alpha there."""
    err = [abs(core.entropy(core.RadialParams(d, l1, l2)) - h)
           for d, l1, l2, h in CORPUS["entropy_points"]]
    assert max(err) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_moment_law_entropy_corpus():
    """Entropies of the corpus's moment laws (rings to alpha 1e8, the
    seeded box laws and near-Gaussian laws, each at lambda1 = -z, lambda2
    = 1/2) within 1e-13 of max(1, |H|) of the 40-digit references."""
    rows = CORPUS["moment_points"]
    got = [core.entropy(core.RadialParams(round(-2.0 * nu), -z, 0.5))
           for nu, z, *_ in rows]
    err = [abs(g - r[6]) / max(1.0, abs(r[6])) for g, r in zip(got, rows)]
    worst = int(np.argmax(err))
    assert err[worst] <= 1e-13, (rows[worst], got[worst])


def test_moments_and_entropy_take_one_moments_pass(monkeypatch):
    """log Z, E[r**k] by pcf and "auto", the entropy and the standard
    errors of one law take one panel pass between them: no normalization
    constant of a lifted dimension, and no second pass for the moments."""
    passes = []
    rule = specfun.gauss_legendre_panels
    monkeypatch.setattr(specfun, "gauss_legendre_panels",
                        lambda *args: passes.append(args) or rule(*args))
    core._standard.cache_clear()
    p = core.RadialParams(4, 2.5, 0.75)
    core.log_norm_const(p)
    for k in (2, 4, 6, 8):
        core.radial_moment(p, k, "pcf")
        core.radial_moment(p, k, "auto")
    core.entropy(p)
    fit.parameter_standard_errors(p, 100)
    assert len(passes) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim,l1,l2", [(3, 1e300, 1e-300),
                                       (3, -1e300, 1e-300),
                                       (1, 1e200, 1e-200)])
def test_moments_beyond_the_pcf_domain_raise_domain_error(dim, l1, l2):
    """z = -l1 / sqrt(2 l2) overflows or passes -1e154, where z**2 does."""
    p = core.RadialParams(dim, l1, l2)
    for call in (lambda: core.radial_moment(p, 2), lambda: core.entropy(p),
                 lambda: fit.parameter_standard_errors(p, 10)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["pcf", "auto"])
def test_radial_moment_overflow_raises(method):
    """E[r**8] is ~1e399 there: ConvergenceError, never a silent inf."""
    p = core.RadialParams(3, -1e-160, 1e-200)
    assert 0.0 < core.radial_moment(p, 2, method) < math.inf
    with pytest.raises(ConvergenceError, match="overflows"):
        core.radial_moment(p, 8, method)


def test_radial_moment_has_one_route():
    """"pcf" and "auto" are the one route; log Z's quadrature oracle has
    no moment counterpart."""
    p = core.RadialParams(3, 4.0, 1.5)
    for k in (2, 4, 6, 8):
        assert core.radial_moment(p, k, "pcf") == core.radial_moment(p, k)
    for method in ("quadrature", "lifted"):
        with pytest.raises(DomainError, match="unknown method"):
            core.radial_moment(p, 2, method)


def test_radial_moment_rejects_odd_order():
    with pytest.raises(DomainError):
        core.radial_moment(core.RadialParams(2, 1.0, 1.0), 3)


def test_radial_moments_increase_with_order():
    p = core.RadialParams(3, 6.0, 1.0)
    moments = [core.radial_moment(p, k) for k in (2, 4, 6, 8)]
    # E[r^2] > 1 here, so the sequence must grow, and Jensen pairs hold
    assert moments[0] ** 2 < moments[1]
    assert moments[1] ** 2 < moments[3]


@pytest.mark.parametrize("dim,l1,l2", [(2, 8.0, 4.0), (3, -2.0, 1.0),
                                       (5, 1.0, 0.3), (1, 6.0, 2.0)])
def test_moment_gradient_identity(dim, l1, l2):
    """d logZ / d lambda1 = E[r^2] and d logZ / d lambda2 = -E[r^4]."""
    h = 1e-5
    p = core.RadialParams(dim, l1, l2)
    fd1 = (core.log_norm_const(core.RadialParams(dim, l1 + h, l2))
           - core.log_norm_const(core.RadialParams(dim, l1 - h, l2))) / (2 * h)
    fd2 = (core.log_norm_const(core.RadialParams(dim, l1, l2 + h))
           - core.log_norm_const(core.RadialParams(dim, l1, l2 - h))) / (2 * h)
    np.testing.assert_allclose(fd1, core.radial_moment(p, 2), rtol=1e-7)
    np.testing.assert_allclose(fd2, -core.radial_moment(p, 4), rtol=1e-7)


@pytest.mark.parametrize("dim,l1,l2,ref", ENTROPY_REFERENCE)
def test_entropy_reference(dim, l1, l2, ref):
    got = core.entropy(core.RadialParams(dim, l1, l2))
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_entropy_matches_legendre_identity():
    # H = logZ - lambda1 E[q] + lambda2 E[q^2]
    p = core.RadialParams(4, 3.0, 2.0)
    expected = (core.log_norm_const(p)
                - p.lambda1 * core.radial_moment(p, 2)
                + p.lambda2 * core.radial_moment(p, 4))
    np.testing.assert_allclose(core.entropy(p), expected, rtol=1e-12)


@pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
def test_entropy_scale_identity(s):
    p = core.RadialParams(3, 4.0, 1.5)
    ps = core.RadialParams(3, 4.0 / s, 1.5 / (s * s))
    np.testing.assert_allclose(core.entropy(ps),
                               core.entropy(p) + 1.5 * math.log(s),
                               rtol=1e-12)


def test_elliptical_entropy_adds_half_log_det():
    rad = core.RadialParams(2, 8.0, 4.0)
    sigma = np.array([[1.5, -0.2], [-0.2, 0.9]])
    full = core.EllipticalParams([1.0, 2.0], sigma, rad)
    np.testing.assert_allclose(
        core.entropy(full),
        core.entropy(rad) + 0.5 * math.log(np.linalg.det(sigma)),
        rtol=1e-12)


# ---------------------------------------------------------------------------
# density evaluation


def test_density_normalizes():
    p = core.RadialParams(3, 4.0, 1.5)
    area = math.exp(core.log_sphere_surface_area(2))

    def radial_mass(r):
        x = np.zeros((r.size, 3))
        x[:, 0] = r
        return area * r ** 2 * core.density(p, x)

    res = quadrature.integrate_semi_infinite(radial_mass)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-9)


# log p(e1) on the rings (D, alpha, R 1), and log p(x1) of their split 1+2
# at x1 = 0 and 0.5 (both the same to 17 digits), for the doubles that
# ring_to_radial returns: 50-digit quadrature of -log((S_(D-1) / 2)
# int_0^inf q**(D/2-1) e**(l1 (q-1) - l2 (q**2-1)) dq) and of log(pi
# int_(q1)^inf e**(l1 q - l2 q**2) dq / Z), frozen.  The bounds are the
# alpha-sized cancellation of l1 q - l2 q**2 - log Z, about 4 times the
# errors measured (README); ROADMAP open item 2 is to remove it
THIN_RING_LOG_DENSITY = [  # (dim, alpha, log p(e1), bound)
    (2, 1e4, 2.5415017669340183, 2e-12),
    (2, 1e6, 4.844086859928064, 1e-10),
    (2, 1e8, 7.14667195292211, 1e-8),
    (3, 1e4, 1.8483670876243963, 2e-12),
    (3, 1e6, 4.150939804368244, 1e-10),
    (3, 1e8, 6.453524773612164, 1e-8),
]
THIN_RING_MARGINAL = [  # (alpha, log p(x1), bound), at D 3
    (1e4, -0.6931346793096222, 1e-12),
    (1e6, -0.6931470555598203, 2e-10),
    (1e8, -0.6931471793099453, 2e-8),
]


def test_thin_ring_log_density_and_marginal_hold_the_readme_bounds():
    for dim, alpha, want, bound in THIN_RING_LOG_DENSITY:
        p = core.ring_to_radial(core.RingParams(dim, alpha, 1.0))
        x = np.eye(dim)[0]
        assert abs(core.log_density(p, x) - want) <= bound, (dim, alpha)
    split = condmarg.BlockSplit(1, 2)
    for alpha, want, bound in THIN_RING_MARGINAL:
        p = core.ring_to_radial(core.RingParams(3, alpha, 1.0))
        for x1 in (0.0, 0.5):
            got = condmarg.marginal_log_density(p, split, [x1])
            assert abs(got - want) <= bound, (alpha, x1)


def test_log_density_batch_matches_single():
    p = core.RadialParams(3, 2.0, 0.7)
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(20, 3))
    batch = core.log_density(p, pts)
    single = np.array([core.log_density(p, x) for x in pts])
    np.testing.assert_allclose(batch, single, rtol=1e-15)
    np.testing.assert_allclose(core.density(p, pts), np.exp(batch),
                               rtol=1e-15)


def test_density_peak_to_center_contrast():
    # by construction p(R) / p(0) = e^(alpha/2) for the ring form
    ring = core.RingParams(2, 8.0, 1.0)
    p = core.ring_to_radial(ring)
    peak = core.density(p, np.array([1.0, 0.0]))
    center = core.density(p, np.array([0.0, 0.0]))
    np.testing.assert_allclose(peak / center, math.exp(4.0), rtol=1e-12)


def test_density_rotation_invariance():
    p = core.RadialParams(2, 5.0, 2.0)
    theta = 1.1
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    x = np.array([0.4, -1.2])
    np.testing.assert_allclose(core.log_density(p, rot @ x),
                               core.log_density(p, x), rtol=1e-13)


def test_log_density_rejects_wrong_shape():
    p = core.RadialParams(3, 1.0, 1.0)
    with pytest.raises(DomainError):
        core.log_density(p, np.zeros(2))
    with pytest.raises(DomainError):
        core.log_density(p, np.zeros((4, 2)))


def test_elliptical_log_density_whitening_identity():
    rad = core.RadialParams(2, 8.0, 4.0)
    mu = np.array([1.0, -0.5])
    sigma = np.array([[2.0, 0.6], [0.6, 1.1]])
    full = core.EllipticalParams(mu, sigma, rad)
    rng = np.random.default_rng(4)
    logdet = math.log(np.linalg.det(sigma))
    chol = np.linalg.cholesky(sigma)
    for _ in range(10):
        z = rng.normal(size=2)
        x = mu + chol @ z
        np.testing.assert_allclose(
            core.log_density(full, x),
            core.log_density(rad, z) - 0.5 * logdet, rtol=1e-12)


@pytest.mark.parametrize("scale", [1e80, 1e160, 1e200])
@pytest.mark.parametrize("lambda1", [3.0, -3.0])
def test_log_density_far_out_is_minus_inf(lambda1, scale):
    # q or q**2 overflows there; the quartic term must win over lambda1 q
    # (never inf - inf = nan), silently, for single points and batches
    rad = core.RadialParams(2, lambda1, 1.0)
    full = core.EllipticalParams([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]], rad)
    batch = np.array([[scale, 0.0], [0.3, -0.2], [-scale, scale]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (rad, full):
            assert core.log_density(p, batch[0]) == -math.inf
            assert core.density(p, batch[0]) == 0.0
            out = core.log_density(p, batch)
            assert out[0] == out[2] == -math.inf
            assert math.isfinite(out[1])
            assert out[1] == core.log_density(p, batch[1])
            np.testing.assert_array_equal(core.density(p, batch)[[0, 2]], 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_density_rejects_nonfinite_points(bad):
    # a non-finite coordinate is bad input, never a -inf or NaN density,
    # in a single point and anywhere in a batch
    rad = core.RadialParams(2, 3.0, 1.0)
    full = core.EllipticalParams([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]], rad)
    points = (np.array([bad, 0.0]),
              np.array([[0.3, -0.2], [0.1, bad], [1e200, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (rad, full):
            for x in points:
                with pytest.raises(DomainError, match="points must be finite"):
                    core.log_density(p, x)


B = core._BLOCK
BLOCKED_LAWS = [core.RadialParams(3, 4.0, 1.5), core.EllipticalParams(
    [0.5, -1.0, 2.0], [[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]],
    core.RadialParams(3, 4.0, 1.5))]


def _points(n, seed=8):
    return np.random.default_rng(seed).normal(size=(n, 3)) * 1.5


@pytest.mark.parametrize("n", [B - 1, B + 1, 2 * B + 3])
@pytest.mark.parametrize("p", BLOCKED_LAWS, ids=["spherical", "elliptical"])
def test_blocked_log_density_matches_a_reference(p, n):
    # blocks change no value: a spherical batch is its rows bit for bit;
    # an elliptical one is within 2 ulps of one whitening pass over the
    # whole batch (a point alone takes BLAS's one-row kernel, which
    # rounds differently)
    x = _points(n)
    out = core.log_density(p, x)
    if isinstance(p, core.RadialParams):
        np.testing.assert_array_equal(
            out, [core.log_density(p, row) for row in x])
        return
    v = (x - p.mu) @ np.linalg.inv(p._chol).T
    q = np.einsum("ij,ij->i", v, v)
    ref = (p.radial.lambda1 * q - p.radial.lambda2 * q * q
           - core.log_norm_const(p))
    np.testing.assert_array_max_ulp(out, ref, maxulp=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("p", BLOCKED_LAWS, ids=["spherical", "elliptical"])
def test_nonfinite_point_in_the_last_block_is_rejected(p, bad):
    x = _points(2 * B + 3)
    x[-1, 1] = bad
    with pytest.raises(DomainError, match="points must be finite"):
        core.log_density(p, x)


@pytest.mark.parametrize("p", BLOCKED_LAWS, ids=["spherical", "elliptical"])
def test_overflow_in_a_later_block_is_minus_inf(p):
    x = _points(2 * B + 3)
    far = [B + 5, 2 * B + 2]
    x[far] = [1e200, -1e160, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = core.log_density(p, x)
    assert np.all(out[far] == -math.inf)
    assert np.all(np.isfinite(np.delete(out, far)))


def test_log_density_builds_no_batch_sized_temporaries():
    # an n x dim temporary would take n * dim * 8 bytes; the blocked
    # passes hold the n-vectors q and the result and two row blocks
    n, d = 100_000, 10
    rng = np.random.default_rng(3)
    a = rng.normal(size=(d, d))
    p = core.EllipticalParams(rng.normal(size=d), a @ a.T + d * np.eye(d),
                              core.RadialParams(d, 2.0, 0.7))
    x = rng.normal(size=(n, d))
    core.log_density(p, x[:2])  # log Z is cached from here on
    tracemalloc.start()
    try:
        core.log_density(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * d * 8


# ---------------------------------------------------------------------------
# elliptical Gamma reference distribution


def test_eg_reference_from_moments_matches_targets():
    mom = core.MomentPair(1.3, 2.2)
    eg = core.eg_reference_from_moments(np.eye(3), mom)
    # E[q] = a b and E[q**2] = a (a + 1) b**2 under q ~ Gamma(a, b)
    np.testing.assert_allclose(eg.a * eg.b, 1.3, rtol=1e-12)
    np.testing.assert_allclose(eg.a * (eg.a + 1.0) * eg.b ** 2, 2.2,
                               rtol=1e-12)
    # a and b from the two-moment match
    np.testing.assert_allclose(eg.a, 1.3 ** 2 / (2.2 - 1.3 ** 2), rtol=1e-12)
    np.testing.assert_allclose(eg.b, (2.2 - 1.3 ** 2) / 1.3, rtol=1e-12)


@pytest.mark.parametrize("dim,a,b,ref", EG_ENTROPY_REFERENCE)
def test_eg_entropy_reference(dim, a, b, ref):
    eg = core.EllipticalGammaReference(np.eye(dim), a, b)
    np.testing.assert_allclose(eg.entropy(), ref, rtol=1e-10)


def test_eg_entropy_corpus():
    """The frozen 40-digit entropies of pcf_reference.json, a from 1e-3 to
    1e12, within 1e-13 of max(1, |H|)."""
    for dim, a, b, ref in CORPUS["eg_entropy_points"]:
        got = core.EllipticalGammaReference(np.eye(dim), a, b).entropy()
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (a, b, got, ref)


@pytest.mark.filterwarnings("error")
def test_eg_entropy_at_extreme_shapes():
    # finite and quiet at a = 1e300; a typed error where it overflows
    eg = core.EllipticalGammaReference(np.eye(3), 1e300, 1e-300)
    assert math.isfinite(eg.entropy())
    for dim in (2, 3):
        with pytest.raises(ConvergenceError):
            core.EllipticalGammaReference(np.eye(dim), 5e-324, 1.0).entropy()


@pytest.mark.parametrize("alpha", [1e4, 1e6, 1e8])
def test_quartic_entropy_exceeds_its_moment_match_on_rings(alpha):
    """The quartic law has the most entropy for its (E[q], E[q**2]), so the
    elliptical Gamma law that matches them has less: on the rings (3,
    alpha, 1) by 3.3e-5, 3.3e-7 and 3.3e-9 nats.  At alpha 1e8 the moment
    pair's c4 - c2**2 keeps only ~8 digits of the variance, about 1e-8
    nats of entropy, so the gap is also taken from the standard law's
    central moments, which resolve it."""
    p = core.ring_to_radial(core.RingParams(3, alpha, 1.0))
    h = core.entropy(p)
    mom = core.MomentPair(core.radial_moment(p, 2), core.radial_moment(p, 4))
    assert h > core.eg_reference_from_moments(np.eye(3), mom).entropy()
    _, _, t, (e1, e2, _, _) = core._standard(3, core._z(p))
    s = math.sqrt(2.0 * p.lambda2)
    mean, var = t * (1.0 + e1) / s, (t / s) ** 2 * (e2 - e1 * e1)
    assert h > core.EllipticalGammaReference(np.eye(3), mean * mean / var,
                                             var / mean).entropy()


def test_eg_density_normalizes():
    eg = core.EllipticalGammaReference(np.eye(2), 3.0, 0.5)
    area = math.exp(core.log_sphere_surface_area(1))

    def radial_mass(r):
        x = np.zeros((r.size, 2))
        x[:, 0] = r
        return area * r * np.exp(eg.log_density(x))

    res = quadrature.integrate_semi_infinite(radial_mass)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-9)


def test_eg_sampling_moments():
    eg = core.EllipticalGammaReference(np.eye(3), 2.5, 1.2)
    x = eg.sample(40000, np.random.default_rng(99))
    assert x.shape == (40000, 3)
    q = np.sum(x * x, axis=1)
    np.testing.assert_allclose(np.mean(q), eg.a * eg.b, rtol=0.02)


@pytest.mark.parametrize("n", [True, False, 0, -3, 2.5, "10", None])
def test_eg_sample_rejects_bad_counts(n):
    eg = core.EllipticalGammaReference(np.eye(2), 3.0, 0.5)
    with pytest.raises(DomainError, match="n must be a positive integer"):
        eg.sample(n, np.random.default_rng(1))


def test_eg_sample_takes_what_sample_takes():
    """An integer seed, a SeededGenerator and a numpy Generator, checked
    as sampling.sample checks them."""
    eg = core.EllipticalGammaReference(np.eye(2), 3.0, 0.5)
    x = eg.sample(100, 7)
    for gen in (sampling.SeededGenerator(7), np.int64(7),
                np.random.Generator(np.random.PCG64(7))):
        np.testing.assert_array_equal(eg.sample(100, gen), x)
    assert sampling.SeededGenerator is core.SeededGenerator
    for gen in ("7", True, 7.0, None):
        with pytest.raises(DomainError, match="gen must be"):
            eg.sample(10, gen)


def test_eg_reference_rejects_bad_shape_matrix():
    with pytest.raises(DomainError):
        core.EllipticalGammaReference(np.ones((2, 3)), 1.0, 1.0)
    with pytest.raises(DomainError):
        core.EllipticalGammaReference(-np.eye(2), 1.0, 1.0)
    with pytest.raises(DomainError):
        core.EllipticalGammaReference(np.eye(2), -1.0, 1.0)


@pytest.mark.parametrize("a,at_origin", [(3.0, -math.inf), (1.0, None),
                                          (0.5, math.inf)])
def test_eg_log_density_far_out_and_at_origin(a, at_origin):
    # log_density's contract: -inf where q overflows, never NaN, silently;
    # at the origin q**(a - D/2) vanishes, is 1 (a = D/2) or is unbounded
    eg = core.EllipticalGammaReference(np.array([[2.0, 0.3], [0.3, 1.0]]),
                                       a, 0.5)
    batch = np.array([[0.0, 0.0], [1e155, 0.0], [0.3, -0.2], [-1e200, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = eg.log_density(batch)
        for i, x in enumerate(batch):
            assert eg.log_density(x) == out[i]
    origin = -eg.log_norm_const if at_origin is None else at_origin
    assert out[0] == pytest.approx(origin, rel=1e-15)
    assert out[1] == out[3] == -math.inf
    assert math.isfinite(out[2])


def test_eg_log_density_rejects_nonfinite_points():
    eg = core.EllipticalGammaReference(np.eye(2), 3.0, 0.5)
    for bad in ([math.nan, 0.0], [[0.1, 0.2], [math.inf, 0.0]]):
        with pytest.raises(DomainError, match="points must be finite"):
            eg.log_density(np.array(bad))
