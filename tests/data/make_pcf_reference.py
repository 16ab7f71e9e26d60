"""Frozen references for specfun.pcf_d_scaled, log(e**(z**2/4) D_nu(z)),
and for the radial moments and entropies built on it.

Writes pcf_reference.json next to this script.  The values come from
mpmath's pcfd at 40 digits, each checked against a 50-digit evaluation,
and are rounded to double once.  Moments are E[q**j], j = 1..4, of the law
with D = -2 nu, lambda1 = -z and lambda2 = 1/2 (any other lambda2 follows
by scaling q): Gamma(D/2 + j) / Gamma(D/2) D_{nu-j}(z) / D_nu(z); each row
ends with that law's entropy, E[q**2] / 2 + z E[q] + log Z.  The other
entropies and parameter_standard_errors (at n = 1) are those of rings of
radius 1, lambda1 = alpha and lambda2 = alpha / 2.  Beside them: entropies
of elliptical Gamma laws (sigma the identity, q ~ Gamma(a, scale=b)), from
mpmath's loggamma and digamma, log(e**x K_{1/4}(x)) from its besselk, and
quantiles of the standard radius rho, whose density is proportional to
rho**(D-1) e**(-z rho**2 - rho**4/2) (lambda1 = -z, lambda2 = 1/2), by
root-finding on its quad-integrated lower or upper tail.
The file records this script's sha256, so a stale file is caught without
recomputing it.

    python tests/data/make_pcf_reference.py          # regenerate (mpmath)
    python tests/data/make_pcf_reference.py --check  # hash only, no mpmath
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from pathlib import Path

OUT = Path(__file__).with_name("pcf_reference.json")

# nu = -D/2 for D 1-12, then orders near 0 and large orders
NUS = [-0.5 * d for d in range(1, 13)] + [
    -1e-12, -1e-3, -0.1, -0.25, -0.6, -50.0, -100.0, -500.0]
# z = -sqrt(2 alpha) is the argument of a ring of contrast alpha
Z_GRID = [
    -1.5e4, -1e3, -100.0, -60.0, -35.0, -20.0, -10.0, -5.0, -3.0, -2.0,
    -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 35.0, 60.0,
    100.0, 1e3, 1e4, 1.4e5,
] + [-math.sqrt(2.0 * 10.0 ** k) for k in range(2, 9)]
# seeded draws where log Z is evaluated most: nu = -D/2, |z| <= 40
_rng = random.Random(20221010)
DRAWS = [(-0.5 * _rng.randint(1, 12), _rng.uniform(-40.0, 40.0))
         for _ in range(120)]
# moments on the rings of Z_GRID, the seeded box laws of DRAWS and
# near-Gaussian laws (lambda2 -> 0 at lambda1 < 0, so z -> +inf)
MOMENT_ARGS = [(-0.5 * d, z) for d in range(1, 13)
               for z in Z_GRID[-7:] + [10.0, 35.0, 100.0, 1e3, 1e4]] + DRAWS
RING_ALPHAS = [10.0 ** k for k in range(4, 9)]
SE_RINGS = [(d, 10.0 ** k) for d in (1, 2, 3, 5, 10) for k in (4, 6, 8)]
# (D, a, b) of elliptical Gamma laws: small shapes, and the moment matches
# of thin rings, where a is large and b small
EG_LAWS = [(2, 0.05, 1.0), (5, 1e-3, 1.0), (3, 1e4, 1e-4), (3, 1e10, 1e-10),
           (3, 1e12, 1e-12)]
BESSEL_XS = [10.0 ** k for k in range(-300, 21, 10)] + [
    0.05, 0.3, 1.9, 2.0, 2.1, 5.0, 50.0, 300.0, 3e3, 1e5]
# (D, z) of the radius quantiles: rings of radius 1 (z = -sqrt(alpha)),
# box laws and near-Gaussian laws; levels in both tails and the bulk
QUANTILE_LAWS = [(d, -math.sqrt(10.0 ** k)) for k in (4, 6, 8)
                 for d in (1, 2, 3)] + [
    (1, 0.0), (2, -2.0), (3, 1.0), (5, -0.5), (12, 4.0)] + [
    (d, z) for z in (1e3, 1e4) for d in (1, 2, 3)] + [
    (4, -4.166), (2, -math.sqrt(30.0))]  # moderate rings, alpha 17.4 and 30
# decades, and the levels between them (3e-12 ... 1 - 3e-4), where the
# sampler's tail cells are widest
QUANTILE_LEVELS = [1e-12, 3e-12, 3e-9, 1e-6, 3e-6, 3e-4, 0.01, 0.5, 0.99,
                   1 - 3e-4, 1 - 3e-6, 1 - 1e-6, 1 - 3e-9, 1 - 3e-12,
                   1 - 1e-12]


def script_sha256() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def _pcfd(nu, z):
    import mpmath
    try:
        return mpmath.pcfd(nu, z)
    except ValueError:  # hypercomb's default precision cap
        return mpmath.pcfd(nu, z, maxprec=8000)


def reference(nu: float, z: float, dps: int):
    import mpmath
    with mpmath.workdps(dps):
        y = mpmath.mpf(z)
        return y * y / 4 + mpmath.log(_pcfd(mpmath.mpf(nu), y))


def moments(nu: float, z: float, dps: int) -> list:
    """E[q**j], j = 1..4, and the entropy, of the law D = -2 nu, lambda1 =
    -z, lambda2 = 1/2, whose log Z is (D/2) ln pi + z**2/4 + ln D_nu(z)."""
    import mpmath
    with mpmath.workdps(dps):
        a, y = -mpmath.mpf(nu), mpmath.mpf(z)
        d0 = _pcfd(-a, y)
        m = [mpmath.gamma(a + j) / mpmath.gamma(a) * _pcfd(-a - j, y) / d0
             for j in range(1, 5)]
        log_z = a * mpmath.log(mpmath.pi) + y * y / 4 + mpmath.log(d0)
        return m + [m[1] / 2 + y * m[0] + log_z]


def ring_entropy(dim: int, alpha: float, dps: int):
    """lambda2 E[q**2] - lambda1 E[q] + log Z at lambda1 = alpha,
    lambda2 = alpha / 2, where z = -lambda1 / sqrt(2 lambda2)."""
    import mpmath
    with mpmath.workdps(dps):
        l1, l2 = mpmath.mpf(alpha), mpmath.mpf(alpha) / 2
        s = mpmath.sqrt(2 * l2)
        z = -l1 / s
        m1, m2 = (m / s ** j for j, m in enumerate(
            moments(-dim / 2, z, dps)[:2], 1))
        log_z = (dim * mpmath.log(mpmath.pi) / 2 - dim * mpmath.log(2 * l2) / 4
                 + z * z / 4 + mpmath.log(_pcfd(-mpmath.mpf(dim) / 2, z)))
        return l2 * m2 - l1 * m1 + log_z


def standard_errors(dim: int, alpha: float, dps: int) -> list:
    """sqrt of the diagonal of H**-1, H the covariance of (q, q**2); its
    determinant cancels ~2 log10(alpha) digits, so 40 more are carried."""
    import mpmath
    with mpmath.workdps(dps + 40):
        l1, l2 = mpmath.mpf(alpha), mpmath.mpf(alpha) / 2
        s = mpmath.sqrt(2 * l2)
        m = [m / s ** j for j, m in enumerate(
            moments(-dim / 2, -l1 / s, dps + 40)[:4], 1)]
        h11, h12, h22 = m[1] - m[0] ** 2, m[2] - m[0] * m[1], m[3] - m[1] ** 2
        det = h11 * h22 - h12 * h12
        return [mpmath.sqrt(h22 / det), mpmath.sqrt(h11 / det)]


def eg_entropy(dim: int, a: float, b: float, dps: int):
    """log S_{D-1} - ln 2 + a + lgamma(a) + (1 - a) psi(a) + (D/2 - 1)
    psi(a) + (D/2) ln b; its terms reach a ln a, so log10 a more digits
    are carried."""
    import mpmath
    with mpmath.workdps(dps + max(0, math.ceil(math.log10(a)))):
        a, b, half = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(dim) / 2
        psi = mpmath.digamma(a)
        log_s = mpmath.log(2) + half * mpmath.log(mpmath.pi) - mpmath.loggamma(
            half)
        return (log_s - mpmath.log(2) + a + mpmath.loggamma(a)
                + (1 - a) * psi + (half - 1) * psi + half * mpmath.log(b))


def bessel_k(x: float, dps: int):
    """x + log K_{1/4}(x); log K is near -x, so log10 x more digits are
    carried."""
    import mpmath
    with mpmath.workdps(dps + max(0, math.ceil(math.log10(x)))):
        y = mpmath.mpf(x)
        return y + mpmath.log(mpmath.besselk(mpmath.mpf(1) / 4, y))


def radius_quantile(dim: int, z: float, level: float, dps: int):
    """rho at which the standard radius law of shape (D, z) has CDF
    ``level`` (its upper tail 1 - level above 1/2), by Anderson's bracketed
    root of the log tail mass; quad splits its integrals at +-2..40 widths
    of the density's peak."""
    import mpmath
    with mpmath.workdps(dps):
        z, p, c = mpmath.mpf(z), mpmath.mpf(level), mpmath.mpf(dim - 1)
        # the peak y = rho**2, cancellation-free, and the width about it
        y = ((mpmath.sqrt(z * z + 2 * c) - z) / 2 if z <= 0
             else c / (z + mpmath.sqrt(z * z + 2 * c)))
        peak, width = mpmath.sqrt(y), 1 / mpmath.sqrt(abs(2 * z) + 6 * y + 1)
        shift = z * y + y * y / 2

        def f(s):
            return s ** (dim - 1) * mpmath.exp(shift - z * s * s - s ** 4 / 2)

        pts = [t for t in (peak + k * width for k in (
            -40, -20, -10, -5, -2, 0, 2, 5, 10, 20, 40)) if t > 0]
        total = mpmath.quad(f, [0] + pts + [mpmath.inf])
        upper = p > 0.5

        def g(x):  # increasing in x
            if upper:
                m = mpmath.quad(f, [x] + [t for t in pts if t > x]
                                + [mpmath.inf])
                return mpmath.log(1 - p) - mpmath.log(m / total)
            m = mpmath.quad(f, [0] + [t for t in pts if t < x] + [x])
            return mpmath.log(m / total) - mpmath.log(p)

        lo = hi = peak + width
        step = width
        while g(lo) > 0:
            lo, step = max(lo - step, lo / 8), 2 * step
        step = width
        while g(hi) < 0:
            hi, step = hi + step, 2 * step
        return mpmath.findroot(g, (lo, hi), solver="anderson")


def _checked(f, *args):
    v, w = f(*args, 40), f(*args, 50)
    for x, y in zip(v, w) if isinstance(v, list) else [(v, w)]:
        if abs(x - y) > 1e-30 * max(1, abs(y)):
            raise SystemExit(f"40 and 50 digits disagree at {args}")
    return [float(x) for x in v] if isinstance(v, list) else float(v)


def generate() -> dict:
    points = [[nu, z, _checked(reference, nu, z)]
              for nu, z in [(nu, z) for nu in NUS for z in Z_GRID] + DRAWS]
    moment_points = [[nu, z, *_checked(moments, nu, z)]
                     for nu, z in MOMENT_ARGS]
    entropy_points = [[d, al, al / 2, _checked(ring_entropy, d, al)]
                      for d in range(1, 13) for al in RING_ALPHAS]
    se_points = [[d, al, al / 2, *_checked(standard_errors, d, al)]
                 for d, al in SE_RINGS]
    eg_entropy_points = [[d, a, b, _checked(eg_entropy, d, a, b)]
                         for d, a, b in EG_LAWS]
    bessel_k_points = [[x, _checked(bessel_k, x)] for x in BESSEL_XS]
    quantile_points = [[d, z, p, _checked(radius_quantile, d, z, p)]
                       for d, z in QUANTILE_LAWS for p in QUANTILE_LEVELS]
    return {"script_sha256": script_sha256(), "digits": 40,
            "value": "log(exp(z**2/4) D_nu(z))",
            "columns": ["nu", "z", "log_value"],
            "moment_columns": ["nu", "z", "E[q]", "E[q^2]", "E[q^3]",
                               "E[q^4]", "entropy"],
            "entropy_columns": ["dim", "lambda1", "lambda2", "entropy"],
            "se_columns": ["dim", "lambda1", "lambda2", "se_lambda1",
                           "se_lambda2"],
            "eg_entropy_columns": ["dim", "a", "b", "entropy"],
            "bessel_k_columns": ["x", "log(exp(x) K_{1/4}(x))"],
            "quantile_columns": ["dim", "z", "level", "rho"],
            "points": points, "moment_points": moment_points,
            "entropy_points": entropy_points, "se_points": se_points,
            "eg_entropy_points": eg_entropy_points,
            "bessel_k_points": bessel_k_points,
            "quantile_points": quantile_points}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that the file matches this script")
    if parser.parse_args().check:
        recorded = json.loads(OUT.read_text())["script_sha256"]
        if recorded != script_sha256():
            print(f"{OUT.name} is stale: regenerate it", file=sys.stderr)
            return 1
        return 0
    doc = generate()
    tables = [(key, doc.pop(key)) for key in
              ("points", "moment_points", "entropy_points", "se_points",
               "eg_entropy_points", "bessel_k_points", "quantile_points")]
    OUT.write_text(json.dumps(doc)[:-1] + "".join(
        f', "{key}": [\n' + ",\n".join(json.dumps(r) for r in rows) + "\n]"
        for key, rows in tables) + "}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
