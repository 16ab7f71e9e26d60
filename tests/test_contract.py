"""The contract of every radial route over shapes and scales.

A seeded sweep of laws with D 1-12, |z| <= 1e4 and lambda2 log-uniform in
1e+-300, under warnings as errors: each public route returns a finite value
(or -inf for a density) or raises DomainError or ConvergenceError, the
quadrature log Z agrees with the pcf one wherever that succeeds, and
sample succeeds wherever pcf log Z does; every quadrature log Z stops by
tanh-sinh level 5.  Beyond that domain, near the float limits, the first
and the last of these hold, and each CLI subcommand exits with its
documented code.
Nowhere does pcf log Z raise ConvergenceError: there is no other route for
"auto" to fall back to.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from eqe import cli, core, fit, quadrature, sampling
from eqe.errors import ConvergenceError, DomainError


def _laws(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 13, size=n)
    z = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3.0, 4.0, n)
    l2 = 10.0 ** rng.uniform(-300.0, 300.0, n)
    return [core.RadialParams(int(d), -zi * math.sqrt(2.0 * l2i), l2i)
            for d, zi, l2i in zip(dims, z, l2)] + [
        # quadrature log Z exhausted its budget at z = 0.71 in the (lambda1,
        # lambda2) form, and sample's table build raised a bare ValueError
        core.RadialParams(3, -1e-100, 1e-200),
        core.RadialParams(1, 5.77434737620324e-249, 1.4373865347733858e+33)]


def _outcome(call):
    """The call's value, or the typed error it raised."""
    try:
        return call()
    except (DomainError, ConvergenceError) as exc:
        return exc


def _outcomes(p: core.RadialParams) -> tuple:
    """log Z by pcf and by quadrature, ten draws, and the values of all
    routes; each value must be finite where it is no typed error."""
    pcf = _outcome(lambda: core.log_norm_const(p, "pcf"))
    assert not isinstance(pcf, ConvergenceError), (p, pcf)
    quad = _outcome(lambda: core.log_norm_const(p, "quadrature"))
    x = _outcome(lambda: sampling.sample(p, 10, 3))
    se = _outcome(lambda: fit.parameter_standard_errors(p, 100))
    values = [pcf, quad, _outcome(lambda: core.entropy(p)),
              *(se if isinstance(se, tuple) else [se])] + [
        _outcome(lambda: core.radial_moment(p, k)) for k in (2, 4, 6, 8)]
    for v in values:
        assert isinstance(v, Exception) or math.isfinite(v), (p, values)
    assert isinstance(x, Exception) or np.all(np.isfinite(x)), (p, x)
    return pcf, quad, x


@pytest.mark.filterwarnings("error")
def test_every_route_returns_a_finite_value_or_a_typed_error():
    for p in _laws(300, 17):
        pcf, quad, x = _outcomes(p)
        if isinstance(pcf, Exception):
            continue
        assert not isinstance(quad, Exception), (p, quad)
        assert not isinstance(x, Exception), (p, x)
        assert abs(quad - pcf) <= 1e-10 * max(1.0, abs(pcf)), (p, quad, pcf)
        density = core.log_density(p, np.vstack((x, np.zeros(p.dim),
                                                 np.full(p.dim, 1e300))))
        assert not np.any(np.isnan(density) | (density == np.inf)), p
        assert density[-1] == -np.inf


def test_every_quadrature_log_z_stops_by_level_5(monkeypatch):
    """Each quadrature log Z of the sweep takes at most 615 evaluations,
    levels 0-5 of tanh-sinh, far below the rule's cap of 78,643."""
    spent = []

    def counted(f):
        res = integrate(f)
        spent.append(res.evaluations)
        return res

    integrate = quadrature.integrate_semi_infinite
    monkeypatch.setattr(quadrature, "integrate_semi_infinite", counted)
    laws = _laws(300, 17)
    for p in laws:
        core._log_z_quadrature.__wrapped__(p.dim, core._z(p))
    assert len(spent) == len(laws) and max(spent) <= 615


NEAR_LIMITS = pytest.mark.parametrize("l1,l2", [
    (-2e158, 1e-300),  # z = 1.4e308, where z + sqrt(z**2 + 4 power) overflows
    (1e-300, 5e-324),  # the smallest lambda2
    (1.0, 8.9e307),  # the largest lambda2 that RadialParams accepts
])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2, 3, 12])
@NEAR_LIMITS
def test_every_route_is_finite_or_typed_near_the_float_limits(dim, l1, l2):
    """Every route is finite or typed, and sample succeeds wherever pcf
    log Z does."""
    pcf, _, x = _outcomes(core.RadialParams(dim, l1, l2))
    assert isinstance(pcf, Exception) or not isinstance(x, Exception), x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2, 3, 12])
@NEAR_LIMITS
def test_every_subcommand_exits_with_its_code_near_the_float_limits(
        dim, l1, l2, tmp_path):
    """0, 2 (usage: a marginal of a D = 1 law) or 3 (a numerical failure),
    never an uncaught exception."""
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"dim": dim, "param_form": "radial",
                               "lambda1": l1, "lambda2": l2}))
    inline = ["--dim", str(dim), "--lambda1", repr(l1), "--lambda2", repr(l2)]
    runner = CliRunner()
    for args in (["logz", *inline], ["logz", *inline, "--method", "quad"],
                 ["entropy", "--params", str(law)],
                 ["sample", "--params", str(law), "--n", "10", "--seed", "1"],
                 ["marginal", "--params", str(law), "--dim1", "1", "--npts",
                  "16", "--out", str(tmp_path / "marginal.csv")]):
        res = runner.invoke(cli.main, args)
        assert res.exit_code in (0, 2, 3), (args, res.output, res.exception)
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), args


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3, 12])
def test_marginal_takes_its_default_grid_where_r4_overflows(dim, tmp_path):
    """At lambda2 = 5e-324 r is near 1e80, so E[r**4] overflows; logz,
    entropy and sample succeed there, and so must marginal without
    --rmax."""
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"dim": dim, "param_form": "radial",
                               "lambda1": 1e-300, "lambda2": 5e-324}))
    res = CliRunner().invoke(cli.main, [
        "marginal", "--params", str(law), "--dim1", "1", "--npts", "16",
        "--out", str(tmp_path / "marginal.csv")])
    assert res.exit_code == 0, (res.output, res.exception)
    r1 = np.loadtxt(tmp_path / "marginal.csv", delimiter=",", skiprows=1)[:, 0]
    scale = math.sqrt(core.radial_moment(core.RadialParams(dim, 1e-300,
                                                           5e-324), 2))
    assert r1[-1] == pytest.approx(2.0 * scale, rel=1e-15)
