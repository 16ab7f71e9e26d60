"""Frozen references for specfun.pcf_d_scaled: log(e**(z**2/4) D_nu(z)).

Writes pcf_reference.json next to this script.  The values come from
mpmath's pcfd at 40 digits, each checked against a 50-digit evaluation,
and are rounded to double once.  The file records this script's sha256,
so a stale file is caught without recomputing it.

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


def script_sha256() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def reference(nu: float, z: float, dps: int):
    import mpmath
    with mpmath.workdps(dps):
        x, y = mpmath.mpf(nu), mpmath.mpf(z)
        try:
            d = mpmath.pcfd(x, y)
        except ValueError:  # hypercomb's default precision cap
            d = mpmath.pcfd(x, y, maxprec=8000)
        return y * y / 4 + mpmath.log(d)


def generate() -> dict:
    points = []
    for nu, z in [(nu, z) for nu in NUS for z in Z_GRID] + DRAWS:
        v, w = reference(nu, z, 40), reference(nu, z, 50)
        if abs(v - w) > 1e-30 * max(1, abs(w)):
            raise SystemExit(f"40 and 50 digits disagree at ({nu}, {z})")
        points.append([nu, z, float(v)])
    return {"script_sha256": script_sha256(), "digits": 40,
            "value": "log(exp(z**2/4) D_nu(z))",
            "columns": ["nu", "z", "log_value"], "points": points}


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
    rows = ",\n".join(json.dumps(row) for row in doc.pop("points"))
    OUT.write_text(json.dumps(doc)[:-1] + ', "points": [\n' + rows + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
