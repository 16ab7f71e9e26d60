import json
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eqe import core, sampling
from eqe.errors import DomainError

SHAPES = [
    (1, -3.0, 0.5),
    (2, 8.0, 4.0),
    (3, 4.0, 1.5),
    (5, 0.5, 2.0),
    (4, -1.0, 0.25),
]


def test_seeded_generator_is_deterministic():
    a = sampling.SeededGenerator(7).rng.uniform(size=5)
    b = sampling.SeededGenerator(7).rng.uniform(size=5)
    c = sampling.SeededGenerator(8).rng.uniform(size=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [-1, np.int64(-7), -2 ** 70])
def test_negative_seed_raises_domain_error(seed):
    with pytest.raises(DomainError, match="non-negative"):
        sampling.SeededGenerator(seed)
    with pytest.raises(DomainError, match="non-negative"):
        sampling.sample(core.RadialParams(2, 1.0, 1.0), 3, seed)


def test_sample_shape_and_determinism():
    p = core.RadialParams(3, 4.0, 1.5)
    x = sampling.sample(p, 100, sampling.SeededGenerator(5))
    assert x.shape == (100, 3)
    assert x.dtype == np.float64
    y = sampling.sample(p, 100, sampling.SeededGenerator(5))
    np.testing.assert_array_equal(x, y)


def test_sample_accepts_bare_int_seed():
    p = core.RadialParams(2, 1.0, 1.0)
    x = sampling.sample(p, 50, 123)
    y = sampling.sample(p, 50, sampling.SeededGenerator(123))
    np.testing.assert_array_equal(x, y)


def test_sample_accepts_numpy_generator():
    p = core.RadialParams(2, 1.0, 1.0)
    x = sampling.sample(p, 50, np.random.default_rng(9))
    assert x.shape == (50, 2)


def test_sample_input_validation():
    p = core.RadialParams(2, 1.0, 1.0)
    with pytest.raises(DomainError):
        sampling.sample(p, 0, 1)
    with pytest.raises(DomainError):
        sampling.sample(p, -5, 1)
    with pytest.raises(DomainError):
        sampling.sample(p, 2.5, 1)
    with pytest.raises(DomainError):
        sampling.sample(p, 10, "not a generator")


THIN_RINGS = [core.ring_to_radial(core.RingParams(2, 1e4, 1.0)),
              core.ring_to_radial(core.RingParams(3, 1e8, 1.0))]


@pytest.mark.parametrize("dim,l1,l2", SHAPES + [
    (p.dim, p.lambda1, p.lambda2) for p in THIN_RINGS[:1]] + [
    # a peak so near the origin that lambda2 y*^2 underflows
    (1, 1e-200, 1.0)])
def test_table_cdf_properties(dim, l1, l2):
    table = sampling.build_radial_table(core.RadialParams(dim, l1, l2))
    assert table.cdf(0.0) == 0.0
    np.testing.assert_allclose(table.cdf(table.r_max), 1.0, rtol=1e-12)
    assert np.all(np.diff(table.cdf_values) >= 0.0)
    assert np.all(table.pdf_values >= 0.0)
    # the law's CDF between knots is monotone too, 201 points per cell
    t = np.linspace(0.0, 1.0, 201)
    r = (1.0 - t) * table.knots[:-1, None] + t * table.knots[1:, None]
    v = table.cdf(r)
    assert np.max(np.maximum.accumulate(v, axis=1) - v) <= 1e-14


@pytest.mark.parametrize("l1,l2", [
    (-3.0, 0.5), (0.0, 0.5), (2.0, 0.5), (-1e4, 0.5), (1e-200, 1.0),
    (-2e158, 1e-300), (-1e200, 1.0),
    (5.77434737620324e-249, 1.4373865347733858e33)])
def test_one_dimensional_table_starts_at_the_density_of_the_origin(l1, l2):
    """At D = 1 the radius has density 2 / Z at r = 0, which the table
    takes from its own mass; elsewhere it vanishes there."""
    p = core.RadialParams(1, l1, l2)
    want = 2.0 * math.exp(-core.log_norm_const(p))
    got = sampling.build_radial_table(p).pdf_values[0]
    np.testing.assert_allclose(got, want, rtol=1e-13)
    assert sampling.build_radial_table(
        core.RadialParams(2, l1, l2)).pdf_values[0] == 0.0


def test_thin_ring_table_resolves_the_ring():
    """A ring of width ~5e-5 at R = 1 keeps its knots inside the mass."""
    table = sampling.build_radial_table(THIN_RINGS[1])
    cdf = table.cdf_values
    assert np.sum((cdf > 1e-4) & (cdf < 1.0 - 1e-4)) >= 2000
    assert np.all(cdf[:-1] < 1.0)


def test_ring_thinner_than_the_radius_spacing_samples():
    """At alpha 1e26 the ring (R = 1) is 5e-14 wide, a few hundred ulps,
    so knots apart in d round to one radius; each radius is kept once."""
    p = core.ring_to_radial(core.RingParams(3, 1e26, 1.0))
    assert np.all(np.diff(sampling.build_radial_table(p).knots) > 0.0)
    x = sampling.sample(p, 20000, sampling.SeededGenerator(8))
    np.testing.assert_allclose(np.std(np.linalg.norm(x, axis=1)), 5e-14,
                               rtol=0.03)


def test_sample_thin_ring_width():
    """Radii of a thin ring are normal about R with sd R / (2 sqrt(alpha))."""
    ring = core.RingParams(2, 1e8, 1.3)
    x = sampling.sample(core.ring_to_radial(ring), 100000,
                        sampling.SeededGenerator(8))
    r = np.linalg.norm(x, axis=1)
    np.testing.assert_allclose(np.mean(r), ring.radius, rtol=1e-5)
    np.testing.assert_allclose(np.std(r),
                               ring.radius / (2.0 * math.sqrt(ring.alpha)),
                               rtol=0.02)


@pytest.mark.parametrize("dim,l1,l2", SHAPES + [
    (p.dim, p.lambda1, p.lambda2) for p in THIN_RINGS])
def test_table_inverse_round_trip(dim, l1, l2):
    table = sampling.build_radial_table(core.RadialParams(dim, l1, l2))
    # tail levels fall in the tail ladders' cells; the CDF is the law's
    tail = np.array([1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-4])
    u = np.unique(np.concatenate(
        [np.linspace(1e-9, 1.0 - 1e-9, 2001), tail, 1.0 - tail]))
    r = table.inverse_cdf(u)
    assert np.all(np.diff(r) > 0.0)
    np.testing.assert_allclose(table.cdf(r), u, rtol=0, atol=1e-8)
    assert table.inverse_cdf(0.0) == 0.0
    assert table.inverse_cdf(1.0) == table.r_max


@pytest.mark.parametrize("params", [
    core.RadialParams(*shape) for shape in SHAPES] + THIN_RINGS, ids=str)
def test_guide_finds_the_searchsorted_cell(params):
    table = sampling.build_radial_table(params)
    c, m = table.cdf_values, sampling._GUIDE
    # the tail ladders fill the two end buckets, which lookups search; the
    # inner buckets hold up to two knots, past which lookups step
    b = np.floor(c * m)
    inner = np.unique(b[(b >= 1) & (b <= m - 2)], return_counts=True)[1]
    assert np.max(inner) > 1 and min(np.sum(b == 0), np.sum(b >= m - 1)) > 30
    # u = 0 and 1, every knot CDF and its one-ulp neighbours, every guide
    # edge and 1e5 uniforms
    u = np.clip(np.concatenate(
        ([0.0, 1.0], c, np.nextafter(c, -1.0), np.nextafter(c, 2.0),
         np.arange(m + 1) / m,
         np.random.default_rng(params.dim).random(100000))), 0.0, 1.0)
    # cells are searched by log-odds, which resolve the upper ladder
    l = sampling._log_odds(u)
    want = np.clip(np.searchsorted(table.log_odds, l, side="right") - 1,
                   0, table.knots.size - 2)
    np.testing.assert_array_equal(table._cell(u, l), want)


def test_table_from_public_constructor():
    """A table built field by field inverts as build_radial_table's does,
    and its derived arrays are read-only too."""
    built = sampling.build_radial_table(THIN_RINGS[0])
    table = sampling.RadialCdfTable(
        params=built.params, knots=built.knots.copy(),
        log_odds=built.log_odds.copy(), pdf_values=built.pdf_values.copy())
    u = np.random.default_rng(3).random(50000)
    r = built.inverse_cdf(u)
    np.testing.assert_array_equal(table.inverse_cdf(u), r)
    np.testing.assert_array_equal(table.inverse_cdf(u.reshape(2, -1)),
                                  r.reshape(2, -1))
    assert [table.inverse_cdf(x) for x in u[:5]] == list(r[:5])
    assert table.inverse_cdf(np.empty(0)).shape == (0,)
    np.testing.assert_array_equal(table.cdf(r), built.cdf(r))
    np.testing.assert_array_equal(table.cdf_values, built.cdf_values)
    for arr in (table.knots, table.log_odds, table.pdf_values,
                table.cdf_values, table._cells, table._guide, table._upper):
        assert not arr.flags.writeable


def test_table_covers_the_mode():
    p = core.RadialParams(2, 8.0, 4.0)
    table = sampling.build_radial_table(p)
    assert table.r_max > core.mode_radius(p)
    # half the mass sits inside the mode shell radius for a symmetric ring
    u_mode = table.cdf(core.mode_radius(p))
    assert 0.2 < u_mode < 0.8


@pytest.mark.parametrize("seed,shape", [(27, (2, 8.0, 4.0)),
                                        (22, (3, -2.0, 1.0)),
                                        (23, (5, 1.0, 0.3))])
def test_radial_law_kolmogorov_smirnov(seed, shape):
    """PIT of sampled radii through the law's CDF must look uniform."""
    n = 20000
    p = core.RadialParams(*shape)
    table = sampling.build_radial_table(p)
    x = sampling.sample(p, n, sampling.SeededGenerator(seed))
    u = np.sort(table.cdf(np.linalg.norm(x, axis=1)))
    k = np.arange(n)
    d_ks = float(np.max(np.maximum(u - k / n, (k + 1) / n - u)))
    # 5 percent critical value of the one-sample statistic
    assert d_ks * math.sqrt(n) < 1.358


@pytest.mark.parametrize("dim,l1,l2", SHAPES)
def test_sample_second_moment(dim, l1, l2):
    p = core.RadialParams(dim, l1, l2)
    x = sampling.sample(p, 20000, sampling.SeededGenerator(40 + dim))
    m2 = float(np.mean(np.sum(x * x, axis=1)))
    np.testing.assert_allclose(m2, core.radial_moment(p, 2), rtol=0.02)


def test_directions_have_zero_mean():
    p = core.RadialParams(3, 6.0, 2.0)
    x = sampling.sample(p, 50000, sampling.SeededGenerator(55))
    u = x / np.linalg.norm(x, axis=1, keepdims=True)
    # component means are 0 with sd 1/sqrt(n D)
    bound = 5.0 / math.sqrt(50000 * 3)
    assert np.all(np.abs(u.mean(axis=0)) < bound)


def test_elliptical_sample_location_and_shape():
    rad = core.RadialParams(2, 8.0, 4.0)
    mu = np.array([1.0, -2.0])
    sigma = np.array([[1.5, 0.4], [0.4, 0.8]])
    p = core.EllipticalParams(mu, sigma, rad)
    x = sampling.sample(p, 100000, sampling.SeededGenerator(31))
    np.testing.assert_allclose(x.mean(axis=0), mu, rtol=0, atol=0.01)
    # E[(x - mu)(x - mu)'] = (E[q] / D) Sigma
    cov = np.cov(x.T, bias=True)
    expected = core.radial_moment(rad, 2) / 2.0 * sigma
    np.testing.assert_allclose(cov, expected, rtol=0.03)


def test_stream_is_stable_across_batch_sizes():
    # one call for 2n draws starts with the same uniforms as a call for n,
    # so the radii agree on the shared prefix only if the stream layout is
    # documented; here we only pin full-call determinism
    p = core.RadialParams(2, 3.0, 1.0)
    x1 = sampling.sample(p, 64, sampling.SeededGenerator(77))
    x2 = sampling.sample(p, 64, sampling.SeededGenerator(77))
    np.testing.assert_array_equal(x1, x2)


@pytest.mark.parametrize("p", [core.RadialParams(*s) for s in SHAPES]
                         + THIN_RINGS)
def test_sample_follows_the_documented_stream_layout(p):
    # n uniforms give the radii through the table, the next n * dim
    # normals give the directions; one rounding of the radius and one of
    # the scale stand between these and a draw
    n = 2000
    x = sampling.sample(p, n, sampling.SeededGenerator(61))
    rng = sampling.SeededGenerator(61).rng
    r = sampling.build_radial_table(p).inverse_cdf(rng.random(n))
    v = rng.standard_normal((n, p.dim))
    norms = np.linalg.norm(x, axis=1)
    np.testing.assert_array_max_ulp(norms, r, maxulp=4)
    np.testing.assert_array_max_ulp(
        x / norms[:, None], v / np.linalg.norm(v, axis=1)[:, None], maxulp=4)


B = core._BLOCK
ELLIPTICAL = core.EllipticalParams(
    [0.5, -1.0, 2.0], [[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]],
    core.RadialParams(3, 4.0, 1.5))


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("p", [core.RadialParams(3, 4.0, 1.5), ELLIPTICAL],
                         ids=["spherical", "elliptical"])
def test_sample_follows_the_documented_stream_layout_across_blocks(p, n):
    # the layout holds whatever the rows' split into blocks: n uniforms,
    # then n * dim normals, scaled to the radii and, for an elliptical
    # law, mapped through the Cholesky factor and shifted by mu
    x = sampling.sample(p, n, sampling.SeededGenerator(62))
    rng = sampling.SeededGenerator(62).rng
    r = sampling.build_radial_table(p.radial).inverse_cdf(rng.random(n))
    v = rng.standard_normal((n, p.dim))
    z = v * (r / np.linalg.norm(v, axis=1))[:, None]
    if isinstance(p, core.RadialParams):
        np.testing.assert_array_max_ulp(np.linalg.norm(x, axis=1), r,
                                        maxulp=4)
        np.testing.assert_array_max_ulp(x, z, maxulp=4)
        return
    expected = z @ p._chol.T + p.mu
    # a few roundings of the row's largest term
    reach = np.abs(p._chol).sum(axis=1).max()
    scale = np.maximum(np.abs(z).max(axis=1) * reach, np.abs(p.mu).max())
    assert np.all(np.abs(x - expected) <= 8.0 * np.spacing(scale)[:, None])


@pytest.mark.parametrize("n", [1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("p", [
    core.RadialParams(3, 4.0, 1.5), ELLIPTICAL,
    core.EllipticalGammaReference(ELLIPTICAL.sigma, 3.0, 0.5)],
                         ids=["spherical", "elliptical", "eg_reference"])
def test_sample_leaves_the_stream_after_its_normals(p, n):
    # the normals are filled on a helper thread: when sample returns, that
    # fill has finished and took exactly n * dim normals after the radii's
    # n variates
    g, twin = (np.random.default_rng(63) for _ in range(2))
    if isinstance(p, core.EllipticalGammaReference):
        p.sample(n, g)
        twin.gamma(p.a, p.b, size=n)
    else:
        sampling.sample(p, n, g)
        twin.random(n)
    twin.standard_normal(n * p.dim)
    np.testing.assert_array_equal(g.random(4), twin.random(4))


class _FailingNormals(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        raise ValueError("no normals")


@pytest.mark.parametrize("p", [core.RadialParams(3, 4.0, 1.5), ELLIPTICAL],
                         ids=["spherical", "elliptical"])
def test_a_failed_normal_fill_raises_in_the_caller(p):
    before = threading.active_count()
    with pytest.raises(ValueError, match="no normals"):
        sampling.sample(p, 1000, _FailingNormals(np.random.PCG64(1)))
    assert threading.active_count() == before


def test_a_failed_inversion_still_joins_the_fill(monkeypatch):
    def fail(self, u):
        raise FloatingPointError("inversion failed")

    p = core.RadialParams(3, 4.0, 1.5)
    monkeypatch.setattr(sampling.RadialCdfTable, "inverse_cdf", fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="inversion failed"):
        sampling.sample(p, 3 * B, 5)
    assert threading.active_count() == before


def test_sample_allocates_little_beyond_its_output():
    # the draws are written in place, block by block; the n-vectors of
    # uniforms and radii and one row block come on top
    n, d = 100_000, 10
    rng = np.random.default_rng(3)
    a = rng.normal(size=(d, d))
    p = core.EllipticalParams(rng.normal(size=d), a @ a.T + d * np.eye(d),
                              core.RadialParams(d, 2.0, 0.7))
    sampling.sample(p, 2, 5)  # the table is cached from here on
    tracemalloc.start()
    try:
        sampling.sample(p, n, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8


def test_annular_samples_avoid_the_origin():
    # alpha = 18 gives a hard ring; the region near r = 0 carries on the
    # order of 1e-4 of the mass, so almost every draw hugs the shell
    p = core.ring_to_radial(core.RingParams(2, 18.0, 1.0))
    x = sampling.sample(p, 5000, sampling.SeededGenerator(60))
    r = np.linalg.norm(x, axis=1)
    assert np.sum(r < 0.3) <= 3
    assert abs(np.median(r) - 1.0) < 0.05


def _cell_root(table, u, upper):
    """The root, in each level's knot cell, of the law's mass below r less
    u (above r less 1 - u if ``upper``), by 100 bisection steps in r."""
    idx = np.clip(np.searchsorted(table.log_odds, sampling._log_odds(u),
                                  side="right") - 1, 0, table.knots.size - 2)
    lo, hi = table.knots[idx], table.knots[idx + 1]
    r_star, law, _, grid, below, above = table._law
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if upper:
            d = np.minimum(2.0 * np.log(mid / r_star), grid[-1])
            low = (sampling._mass(law, grid, above, d, upper=True)
                   / below[-1] > 1.0 - u)
        else:
            low = table.cdf(mid) < u
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("params", [
    core.RadialParams(*shape) for shape in SHAPES] + THIN_RINGS, ids=str)
def test_tail_quantiles_are_the_cell_root(params):
    """The tail ladders' cells carry 1e-17 to 1e-3 of the mass; a level in
    them must come out as the root in its cell of the law's own mass below
    it, or above it near 1, where the CDF's rounding would hide it."""
    table = sampling.build_radial_table(params)
    decades = 10.0 ** -np.arange(5.0, 16.0)
    for u, upper in ((decades, False), (1.0 - decades, True)):
        want = _cell_root(table, u, upper)
        np.testing.assert_array_less(
            np.abs(table.inverse_cdf(u) - want), 1e-9 * want)


@pytest.mark.parametrize("params", [
    core.RadialParams(*shape) for shape in SHAPES] + THIN_RINGS, ids=str)
def test_inverse_cdf_meets_the_cell_tolerance(params):
    # 1e6 uniforms plus the levels at the cells' ends: every knot CDF and
    # its one-ulp neighbours, and every guide edge
    table = sampling.build_radial_table(params)
    c, m = table.cdf_values, sampling._GUIDE
    u = np.sort(np.clip(np.concatenate(
        ([0.0, 1.0], c, np.nextafter(c, -1.0), np.nextafter(c, 2.0),
         np.arange(m + 1) / m,
         np.random.default_rng(params.dim + 100).random(1_000_000))),
        0.0, 1.0))
    r = table.inverse_cdf(u)
    assert r[0] == 0.0 and r[-1] == table.r_max
    # each radius in its knot cell, and non-decreasing, up to the rounding
    # of the exp that makes it from its log (16 ulps): two cells' cubics
    # meet at a knot only to that rounding
    idx = np.clip(np.searchsorted(table.log_odds, sampling._log_odds(u),
                                  side="right") - 1, 0, table.knots.size - 2)
    slack = 16.0 * np.spacing(r)
    assert np.all(r >= table.knots[idx] - slack)
    assert np.all(r <= table.knots[idx + 1] + slack)
    assert np.all(np.diff(r) >= -slack[1:])


@pytest.mark.parametrize("params", [
    core.RadialParams(*shape) for shape in SHAPES] + THIN_RINGS + [
    # z = 1.4e308, whose radii are near 1e-80
    core.RadialParams(3, -2e158, 1e-300)], ids=str)
def test_knot_levels_invert_to_their_knots(params):
    """Where F <= 1/2 a knot's CDF keeps its log-odds to a few ulps, and
    the inverse gives back the knot to the exp's rounding, whatever the
    law's scale.  Near 1 the CDF rounds to the ulp of 1, which moves the
    log-odds (up to 5e-4 in the upper ladder), so the knots there are not
    levels of their own."""
    table = sampling.build_radial_table(params)
    k = np.flatnonzero(table.cdf_values <= 0.5)
    r = table.inverse_cdf(table.cdf_values[k])
    np.testing.assert_array_max_ulp(r, table.knots[k], maxulp=16)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", [
    core.RadialParams(1, 0.0, 0.5), THIN_RINGS[1]], ids=str)
def test_inverse_cdf_at_the_ends_warns_of_nothing(params):
    """u = 0 and 1 take ln 0 on the way (the first and last cells are
    linear in a log), and the extreme uniforms land next to them."""
    table = sampling.build_radial_table(params)
    r = table.inverse_cdf(np.array([0.0, 2.0 ** -53, 1.0 - 2.0 ** -53,
                                    1.0]))
    assert r[0] == 0.0 and r[3] == table.r_max
    assert 0.0 < r[1] < r[2] < r[3]
    assert table.inverse_cdf(0.0) == 0.0
    assert table.inverse_cdf(1.0) == table.r_max


@pytest.mark.parametrize("r", [math.nan, np.array([0.5, math.nan])])
def test_table_cdf_rejects_nan(r):
    table = sampling.build_radial_table(core.RadialParams(3, 4.0, 1.5))
    with pytest.raises(DomainError):
        table.cdf(r)


def test_a_table_builds_its_law_once(monkeypatch):
    """The builder hands its law to the table, so cdf builds none."""
    calls, law = [], sampling._law

    def counted(p):
        calls.append(p)
        return law(p)

    monkeypatch.setattr(sampling, "_law", counted)
    table = sampling.build_radial_table(core.RadialParams(3, 4.0, 1.5))
    first = table.cdf(0.7)
    assert table.cdf(np.array([0.7, 1.2]))[0] == first
    assert len(calls) == 1


def test_table_cdf_clamps_infinities():
    table = sampling.build_radial_table(core.RadialParams(3, 4.0, 1.5))
    assert table.cdf(-math.inf) == 0.0
    assert table.cdf(math.inf) == 1.0
    np.testing.assert_array_equal(table.cdf(np.array([-np.inf, np.inf])),
                                  [0.0, 1.0])


@pytest.mark.parametrize("k,value", [(-2, math.inf), (-2, math.nan),
                                     (3, -1e300), (0, -40.0), (-1, 40.0)])
def test_table_rejects_log_odds_that_do_not_increase(k, value):
    # an inner knot of CDF 1 (log-odds inf) would leave a cell of no mass
    built = sampling.build_radial_table(core.RadialParams(3, 4.0, 1.5))
    log_odds = built.log_odds.copy()
    log_odds[k] = value
    with pytest.raises(DomainError, match="log-odds"):
        sampling.RadialCdfTable(params=built.params, knots=built.knots,
                                log_odds=log_odds,
                                pdf_values=built.pdf_values)


def _reference_knot_cdf(p, knots):
    """CDF of the radial law at the knots, in 80-bit arithmetic: 24-point
    Gauss-Legendre on 16 panels per knot cell (2^15 in all), and panels
    halving towards the ring in the two edge cells, whose mass sits within
    a few ring widths of one end.  The exponent is written about its peak,
    so that no terms of size alpha cancel."""
    ld = np.longdouble
    x, w = (v.astype(ld) for v in np.polynomial.legendre.leggauss(24))
    power, l1, l2 = ld(p.dim - 1) / 2, ld(p.lambda1), ld(p.lambda2)
    peak = (l1 + np.sqrt(l1 * l1 + 8 * l2 * power)) / (4 * l2)
    a = l2 * peak * peak
    c = l1 * peak - 2 * a
    k = knots.astype(ld)
    halving = ld(2) ** -np.arange(1, 64)
    edges = np.unique(np.concatenate((
        (k[:-1, None] + np.diff(k)[:, None]
         * (np.arange(16, dtype=ld) / 16)).ravel(), k[-1:],
        k[1] - (k[1] - k[0]) * halving, k[-2] + (k[-1] - k[-2]) * halving)))
    half, mid = np.diff(edges) / 2, (edges[1:] + edges[:-1]) / 2
    y = (mid[:, None] + half[:, None] * x) ** 2
    s1 = y / peak - 1
    with np.errstate(divide="ignore"):
        f = np.exp(power * np.log(y / peak) + s1 * (c - a * s1))
    cum = np.concatenate(([ld(0)], np.cumsum((f @ w) * half)))
    cum = cum[np.searchsorted(edges, k)]
    return cum / cum[-1]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an 80-bit long double")
@pytest.mark.parametrize("ring", [core.RingParams(3, 1e8, 1.0),
                                  core.RingParams(2, 1e8, 1.3),
                                  core.RingParams(5, 1e6, 0.7),
                                  core.RingParams(1, 1e8, 1.0)], ids=str)
def test_thin_ring_knot_cdfs_match_a_reference(ring):
    """The log profile is written about its peak, so the rounding of terms
    of size alpha / 2 does not reach the knot CDFs."""
    table = sampling.build_radial_table(core.ring_to_radial(ring))
    want = _reference_knot_cdf(table.params, table.knots)
    assert np.max(np.abs(table.cdf_values - want.astype(float))) <= 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lambda1", [-1e200, -1e300])
def test_table_where_lambda1_squared_overflows(dim, lambda1):
    """lambda1**2 overflows, yet the peak of y**(D/2-1) e**(lambda1 y) is
    representable: the law is Gaussian to within lambda2 / lambda1**2, so
    -lambda1 q is Gamma(D/2, 1)."""
    p = core.RadialParams(dim, lambda1, 1.0)
    n = 20000
    x = sampling.sample(p, n, sampling.SeededGenerator(9))
    g = np.sort(-lambda1 * np.einsum("ij,ij->i", x, x))
    if dim == 2:
        cdf = -np.expm1(-g)
    else:
        cdf = (np.array([math.erf(v) for v in np.sqrt(g)])
               - 2.0 * np.sqrt(g / math.pi) * np.exp(-g))
    k = np.arange(n)
    d_ks = float(np.max(np.maximum(cdf - k / n, (k + 1) / n - cdf)))
    assert d_ks * math.sqrt(n) <= 1.63  # the 1 % level


# 40-digit quantiles of the standard radius (lambda2 = 1/2, so r = rho and
# lambda1 = -z exactly), written by tests/data/make_pcf_reference.py
QUANTILES = json.loads((Path(__file__).parent / "data"
                        / "pcf_reference.json").read_text())["quantile_points"]
# relative bound per level.  At the decades (measured worst: 1.3e-9,
# 1.9e-14, 1.4e-10, 3.6e-16, 1.0e-10, 2.2e-12, 5.8e-13) the tail bounds
# leave room for a layout whose knots miss them (a uniform pilot grid
# measured 2.8e-5, 1.5e-7 and 3.5e-5 there).  Between the decades (3e-12,
# 3e-9, 3e-6, 3e-4 and their complements; measured worst 8.0e-8 at 3e-9,
# on the ring D 2, z -sqrt(30)) the tail ladders' cells are 10**(1/8)
# wide; decade-wide cells were up to 3.8e-3 off there, and a cubic of the
# CDF in r, inverted, up to 8.7e-7 (2.8e-6 at 1 - 3e-12)
QUANTILE_BOUND = {1e-12: 5e-5, 1e-6: 3e-7, 0.01: 2e-9, 0.5: 1e-14,
                  0.99: 1e-9, 1 - 1e-6: 5e-8, 1 - 1e-12: 5e-5,
                  3e-12: 1e-6, 3e-9: 1e-6, 3e-6: 1e-6, 3e-4: 1e-6,
                  1 - 3e-4: 1e-6, 1 - 3e-6: 1e-6, 1 - 3e-9: 1e-6,
                  1 - 3e-12: 2e-5}


@pytest.mark.parametrize("dim,z", sorted({(r[0], r[1]) for r in QUANTILES}))
def test_inverse_cdf_meets_the_quantile_corpus(dim, z):
    rows = [(p, q) for d, zz, p, q in QUANTILES if (d, zz) == (dim, z)]
    table = sampling.build_radial_table(core.RadialParams(dim, -z, 0.5))
    levels, want = (np.array(v) for v in zip(*rows))
    rel = np.abs(table.inverse_cdf(levels) - want) / want
    bound = np.array([QUANTILE_BOUND[p] for p in levels])
    assert np.all(rel <= bound), list(zip(levels, rel))


BETWEEN_DECADES = (3e-12, 3e-9, 3e-6, 3e-4, 1 - 3e-4, 1 - 3e-6, 1 - 3e-9,
                   1 - 3e-12)


@pytest.mark.parametrize("dim,z", sorted({(r[0], r[1]) for r in QUANTILES}))
def test_inverse_cdf_between_the_decades_holds_a_tenth_of_the_bound(dim, z):
    """The levels between the tail decades fall inside ladder cells: there
    the interpolant of the inverse, not the placing of knots, sets the
    error, and it keeps to a tenth of QUANTILE_BOUND."""
    rows = [(p, q) for d, zz, p, q in QUANTILES
            if (d, zz) == (dim, z) and p in BETWEEN_DECADES]
    table = sampling.build_radial_table(core.RadialParams(dim, -z, 0.5))
    levels, want = (np.array(v) for v in zip(*rows))
    rel = np.abs(table.inverse_cdf(levels) - want) / want
    bound = np.array([QUANTILE_BOUND[p] / 10.0 for p in levels])
    assert np.all(rel <= bound), list(zip(levels, rel))


@pytest.mark.parametrize("z", [0.0, 1e3, 1e4])
def test_closed_tail_quantiles_follow_the_power_law(z):
    """At D = 1 and z >= 0 the lower ladder lies in the closed-form tail,
    where F is proportional to r; the first knot sits near F = 3e-9, and
    the levels below it come from r_1 u / F_1 (a line in the log-odds
    instead, the odds' power law, is 3e-9 off)."""
    rows = [(p, q) for d, zz, p, q in QUANTILES
            if (d, zz) == (1, z) and p in (1e-12, 3e-12)]
    table = sampling.build_radial_table(core.RadialParams(1, -z, 0.5))
    assert table.cdf_values[1] > 1e-9
    levels, want = (np.array(v) for v in zip(*rows))
    np.testing.assert_allclose(table.inverse_cdf(levels), want, rtol=1e-12)
