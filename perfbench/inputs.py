"""Workload inputs, generated from the workload seed with numpy only.

Nothing in this module imports ``eqe``: a change to the package cannot
change the inputs it is measured on.  Every generator is a pure function
of (seed, block), so the same seed always yields the same inputs and a
run that outlasts one block simply asks for the next.

Regime parameters that decide how much work an op costs (ring contrast
alpha, near-Gaussian lambda2, moment ratio, marginal split) are drawn
stratified: each block splits the unit interval into equal cells and
draws once per cell, then shuffles.  The share of slow inputs per
block is then fixed by the distribution rather than by luck, which keeps
run-to-run spread small.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOAD_IDS = {"sample": 1, "normalize": 2, "solve": 3, "cli": 4}

# block index of warm-up inputs, far past any block a run reaches
WARMUP_BLOCK = 999_999
PROBE_BLOCK = 999_998
NORMALIZE_BLOCK = 4000
NORMALIZE_TAIL_EVERY = 20
# thin rings of the timed loop stay below alpha ~1.2e5, where the
# quadrature route starts to fail; the probe covers the rest up to 1e8
NORMALIZE_RING_ALPHA = (1e4, 5e4)
PROBE_RING_ALPHA = (1e4, 1e8)
PROBE_RINGS = 24
SOLVE_BLOCK = 1000
SOLVE_PEAK_EVERY = 10
CLI_COMMANDS = ("logz", "logz-quad", "entropy", "sample", "fit", "marginal",
                "pdf-grid", "selfcheck")
CLI_SAMPLE_N = 100_000
CLI_SAMPLE_DIM = 3
CLI_FIT_ROWS = 2000
CLI_GRID_NPTS = 200
CLI_MARGINAL_NPTS = 256

# marginal_peaks inputs: every split of D = 2..6 into two blocks
PEAK_SPLITS = tuple((d, d1) for d in range(2, 7) for d1 in range(1, d))


def rng_for(workload: str, seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload],
                                  int(block)])


def strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in (0, 1), one per equal cell, in random order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def log_uniform(rng, lo: float, hi: float, size=None):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)


def ring_to_radial(alpha: float, radius: float) -> tuple[float, float]:
    """(lambda1, lambda2) of the ring form: mode radius R, contrast alpha."""
    r2 = radius * radius
    return alpha / r2, alpha / (2.0 * r2 * r2)


def gaussian_ratio(dim: int) -> float:
    """c4 / c2**2 of the Gaussian limit, (D + 2) / D."""
    return (dim + 2.0) / dim


def normalize_block(seed: int, block: int) -> list[dict]:
    """One block of dual-route evaluation inputs.

    Every 20th op comes from the regime tails, alternating thin rings
    (alpha log-uniform in [1e4, 5e4], mode radius R log-uniform in
    [0.5, 2]) and near-Gaussian laws (lambda1 < 0, lambda2 log-uniform in
    [1e-8, 1e-2]); the rest are drawn from the acceptance box dim 1..10,
    lambda1 in [-20, 20], lambda2 in [0.05, 50].
    """
    rng = rng_for("normalize", seed, block)
    n = NORMALIZE_BLOCK
    n_tail = n // NORMALIZE_TAIL_EVERY
    n_ring = (n_tail + 1) // 2
    n_gauss = n_tail - n_ring
    dims = rng.integers(1, 11, size=n)
    l1 = rng.uniform(-20.0, 20.0, size=n)
    l2 = log_uniform(rng, 0.05, 50.0, size=n)
    # rings fill a 10 x 10 grid of (log alpha, log R) cells once per
    # 100, since the quadrature route's cost depends on both
    cell = rng.permutation(n_ring) % 100
    jitter = rng.random((2, n_ring))
    lo, hi = (math.log10(a) for a in NORMALIZE_RING_ALPHA)
    ring_alpha = 10.0 ** (lo + (hi - lo) * (cell // 10 + jitter[0]) / 10.0)
    ring_radius = 0.5 * 4.0 ** ((cell % 10 + jitter[1]) / 10.0)
    gauss_l2 = 10.0 ** (-8.0 + 6.0 * strata(rng, n_gauss))
    gauss_l1 = -log_uniform(rng, 0.05, 20.0, size=n_gauss)
    out = []
    for i in range(n):
        d = int(dims[i])
        if i % NORMALIZE_TAIL_EVERY != NORMALIZE_TAIL_EVERY - 1:
            out.append({"kind": "box", "dim": d, "lambda1": float(l1[i]),
                        "lambda2": float(l2[i])})
            continue
        t = i // NORMALIZE_TAIL_EVERY
        if t % 2 == 0:
            alpha = float(ring_alpha[t // 2])
            a, b = ring_to_radial(alpha, float(ring_radius[t // 2]))
            out.append({"kind": "ring", "dim": d, "lambda1": a,
                        "lambda2": b, "alpha": alpha})
        else:
            out.append({"kind": "gauss", "dim": d,
                        "lambda1": float(gauss_l1[t // 2]),
                        "lambda2": float(gauss_l2[t // 2])})
    return out


def normalize_probe(seed: int) -> list[dict]:
    """Thin rings on which the quadrature route is known to fail from
    alpha ~1e5: alpha stratified log-uniformly over [1e4, 1e8], mode
    radius R log-uniform in [0.5, 2], dim 1..10.  Checked once per run,
    outside the timed loop, so that the failure stays on record while the
    timed ops all succeed."""
    rng = rng_for("normalize", seed, PROBE_BLOCK)
    lo, hi = (math.log10(a) for a in PROBE_RING_ALPHA)
    alphas = 10.0 ** (lo + (hi - lo) * np.sort(strata(rng, PROBE_RINGS)))
    radii = log_uniform(rng, 0.5, 2.0, size=PROBE_RINGS)
    dims = rng.integers(1, 11, size=PROBE_RINGS)
    out = []
    for alpha, radius, d in zip(alphas, radii, dims):
        a, b = ring_to_radial(float(alpha), float(radius))
        out.append({"kind": "ring", "dim": int(d), "lambda1": a,
                    "lambda2": b, "alpha": float(alpha)})
    return out


def solve_block(seed: int, block: int) -> list[dict]:
    """One block of solver inputs: nine moment fits to one peak search.

    Fit targets (c2, c4): c2 log-uniform in [0.1, 10].  Three fits in four
    draw c4/c2**2 - 1 log-uniformly from 1e-6 (thin rings) up to the
    Gaussian bound (D+2)/D; the fourth draws the relative distance to the
    bound log-uniformly in [1e-7, 0.02], the near-boundary band, whose
    innermost tenth lies past the 1e-6 feasibility margin and must raise
    InfeasibleMomentsError.  Peak searches cycle through every split of
    D = 2..6 with ring contrast alpha log-uniform in [1, 1e4].
    """
    rng = rng_for("solve", seed, block)
    n = SOLVE_BLOCK
    n_peak = n // SOLVE_PEAK_EVERY
    n_fit = n - n_peak
    fit_dims = rng.integers(1, 11, size=n_fit)
    fit_c2 = log_uniform(rng, 0.1, 10.0, size=n_fit)
    fit_u = strata(rng, n_fit)
    fit_kind_boundary = np.arange(n_fit) % 4 == 3
    split_order = np.concatenate(
        [rng.permutation(len(PEAK_SPLITS))
         for _ in range(n_peak // len(PEAK_SPLITS) + 1)])[:n_peak]
    peak_alpha = 10.0 ** (4.0 * strata(rng, n_peak))
    peak_radius = log_uniform(rng, 0.5, 2.0, size=n_peak)
    out = []
    j = k = 0
    for i in range(n):
        if i % SOLVE_PEAK_EVERY == SOLVE_PEAK_EVERY - 1:
            d, d1 = PEAK_SPLITS[int(split_order[k])]
            alpha = float(peak_alpha[k])
            a, b = ring_to_radial(alpha, float(peak_radius[k]))
            out.append({"kind": "peaks", "dim": d, "dim1": d1,
                        "lambda1": a, "lambda2": b, "alpha": alpha})
            k += 1
            continue
        d = int(fit_dims[j])
        bound = gaussian_ratio(d)
        u = float(fit_u[j])
        if fit_kind_boundary[j]:
            rel = 10.0 ** (-7.0 + (math.log10(0.02) + 7.0) * u)
            ratio = bound * (1.0 - rel)
        else:
            lo, hi = math.log10(1e-6), math.log10(bound - 1.0)
            ratio = 1.0 + 10.0 ** (lo + (hi - lo) * u)
        c2 = float(fit_c2[j])
        out.append({"kind": "fit", "dim": d, "c2": c2,
                    "c4": ratio * c2 * c2, "ratio": ratio})
        j += 1
    return out


def _elliptical(rng, dim: int) -> tuple[list, list]:
    """A centre and a well-conditioned SPD shape matrix."""
    a = rng.normal(size=(dim, dim))
    sigma = a @ a.T / dim + np.eye(dim)
    sigma = 0.5 * (sigma + sigma.T)
    return rng.normal(size=dim).tolist(), sigma.tolist()


def sample_params(seed: int) -> list[dict]:
    """Eight parameter sets over dims 1..10, spherical and elliptical,
    with one thin ring (alpha log-uniform in [1e4, 1e8])."""
    rng = rng_for("sample", seed, 0)
    layout = ((1, False), (2, False), (3, True), (4, False), (5, True),
              (7, False), (10, True))
    out = []
    for dim, elliptical in layout:
        doc = {"dim": dim, "lambda1": float(rng.uniform(-5.0, 10.0)),
               "lambda2": float(log_uniform(rng, 0.2, 5.0))}
        if elliptical:
            doc["mu"], doc["sigma"] = _elliptical(rng, dim)
        out.append(doc)
    alpha = float(log_uniform(rng, 1e4, 1e8))
    a, b = ring_to_radial(alpha, float(log_uniform(rng, 0.5, 2.0)))
    out.append({"dim": int(rng.integers(2, 4)), "lambda1": a, "lambda2": b,
                "alpha": alpha})
    return out


def sample_stream_seed(seed: int, op: int) -> int:
    """Seed of the sampler stream for op ``op``."""
    return int(seed) * 1_000_003 + int(op)


def cli_round(seed: int, round_no: int) -> dict:
    """Inputs of one round of CLI commands: parameter documents, the fit
    data set and the sampler seed."""
    rng = rng_for("cli", seed, round_no)
    docs = {}
    d = int(rng.integers(1, 11))
    docs["logz"] = {"dim": d, "param_form": "radial",
                    "lambda1": float(rng.uniform(-20.0, 20.0)),
                    "lambda2": float(log_uniform(rng, 0.05, 50.0))}
    d = int(rng.integers(1, 11))
    docs["logz-quad"] = {"dim": d, "param_form": "radial",
                         "lambda1": float(rng.uniform(-20.0, 20.0)),
                         "lambda2": float(log_uniform(rng, 0.05, 50.0))}
    d = int(rng.integers(2, 6))
    mu, sigma = _elliptical(rng, d)
    docs["entropy"] = {"dim": d, "param_form": "radial",
                       "lambda1": float(rng.uniform(-5.0, 10.0)),
                       "lambda2": float(log_uniform(rng, 0.2, 5.0)),
                       "mu": mu, "sigma": sigma}
    # fixed dimension: the sample command's memory grows with it
    docs["sample"] = {"dim": CLI_SAMPLE_DIM, "param_form": "radial",
                      "lambda1": float(rng.uniform(-3.0, 6.0)),
                      "lambda2": float(log_uniform(rng, 0.3, 3.0))}
    # the CLI workload measures start-up and I/O; marginal_peaks failures
    # (alpha >= ~100 with a two-dimensional trailing block) are measured by
    # the solve workload, so rings here stay at moderate contrast
    d = int(rng.integers(3, 7))
    docs["marginal"] = {"dim": d, "param_form": "ring",
                        "alpha": float(log_uniform(rng, 1.0, 30.0)),
                        "R": float(log_uniform(rng, 0.5, 2.0))}
    dim1 = int(rng.integers(1, d))
    docs["pdf-grid"] = {"dim": 2, "param_form": "radial",
                        "lambda1": float(rng.uniform(-2.0, 8.0)),
                        "lambda2": float(log_uniform(rng, 0.5, 4.0))}
    # fit data: a noisy shell mapped through a random affine transform,
    # lighter-tailed than a Gaussian so the moments are feasible
    n, fd = CLI_FIT_ROWS, 3
    v = rng.normal(size=(n, fd))
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    r = np.abs(rng.normal(2.0, 0.3, size=n))
    a = rng.normal(size=(fd, fd)) / math.sqrt(fd) + np.eye(fd)
    data = (r[:, None] * u) @ a.T + rng.normal(size=fd)
    return {"docs": docs, "dim1": dim1, "fit_data": data,
            "sample_seed": int(rng.integers(0, 2 ** 31))}
