"""The four workloads: what one op does and how its output is checked.

Each workload takes its inputs from ``inputs`` (numpy only) and calls eqe
through its modules (``core.log_norm_const``, not ``eqe.log_norm_const``)
so that traced runs see every call.  ``check`` runs after the timed
window and classifies an op as

* ``PASS``  - the output is right, or the error raised is the one the
  inputs call for;
* ``KNOWN`` - a failure already present when the benchmark was defined
  (see README.md); it counts as failed but leaves the run correct;
* ``FAIL``  - a wrong output or any other error; the run is not correct.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import spans

PASS, KNOWN, FAIL = "pass", "known", "fail"


class Workload:
    name = ""
    # the timed loop checks its deadline every ``round_size`` ops and
    # runs at least ``min_rounds`` rounds
    round_size = 1
    min_rounds = 1
    # latency_tail_ms reports this percentile, or the highest one below it
    # with at least ten passing ops beyond it.  p99 reaches the slow input
    # regimes while staying above the few-millisecond scheduling pauses of
    # a shared machine, which hit about one op in a thousand.
    tail_percentile = 99.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.caches = spans.CacheMeter()

    def setup(self) -> None:
        """Import eqe and warm up; the harness times this as set-up."""

    def input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def digest(self, inp, out):
        """Reduce an op's output to what ``check`` needs, right after the
        op (outside its latency); large outputs are not kept."""
        return out

    def check(self, inp, out) -> str:
        """Classify an op from its digested output or raised exception."""
        raise NotImplementedError

    def warm(self) -> None:
        """Fill the caches a long-running user would have filled."""

    def probe_inputs(self) -> list:
        """Inputs on which a failure recorded at definition shows; they
        are run and checked once, after the timed window."""
        return []

    def close(self) -> None:
        pass


def _rel_close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))


class Blocked(Workload):
    """Inputs come in blocks generated on demand from the seed."""

    block_size = 0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._blocks: dict[int, list] = {}

    def make_block(self, block: int) -> list:
        raise NotImplementedError

    def input(self, i: int):
        b = i // self.block_size
        if b not in self._blocks:
            self._blocks = {b: self.make_block(b)}
        return self._blocks[b][i % self.block_size]


class Normalize(Blocked):
    """log Z by both routes, then the entropy, on a fresh triple per op."""

    name = "normalize"
    block_size = inputs.NORMALIZE_BLOCK

    def make_block(self, block):
        return inputs.normalize_block(self.seed, block)

    def setup(self):
        from eqe import core, errors
        self.core, self.errors = core, errors
        warm = inputs.normalize_block(self.seed, inputs.WARMUP_BLOCK)
        for inp in warm[:40]:
            try:
                self.run(inp)
            except (errors.ConvergenceError, ValueError):
                pass
        self.input(0)

    def run(self, inp):
        core = self.core
        p = core.RadialParams(inp["dim"], inp["lambda1"], inp["lambda2"])
        a = core.log_norm_const(p, "pcf")
        b = core.log_norm_const(p, "quadrature")
        return a, b, core.entropy(p)

    def probe_inputs(self):
        return inputs.normalize_probe(self.seed)

    def check(self, inp, out):
        # The quadrature route fails on thin rings: it exhausts its budget,
        # or (mode radius away from 1) the integral vanishes and taking its
        # log raises, or it silently misses mass and comes out low.
        thin = inp["kind"] == "ring" and inp["alpha"] >= 3e4
        if isinstance(out, Exception):
            budget = (isinstance(out, self.errors.ConvergenceError)
                      and "budget exhausted" in str(out))
            vanished = (type(out) is ValueError
                        and "math domain error" in str(out))
            return KNOWN if thin and (budget or vanished) else FAIL
        a, b, h = out
        if not math.isfinite(h):
            return FAIL
        if _rel_close(b, a, 1e-8):
            return PASS
        return KNOWN if thin and b < a else FAIL


class Solve(Blocked):
    """Nine moment fits, then one marginal peak search."""

    name = "solve"
    block_size = inputs.SOLVE_BLOCK

    def make_block(self, block):
        return inputs.solve_block(self.seed, block)

    def setup(self):
        from eqe import condmarg, core, errors, fit
        self.core, self.fit, self.condmarg = core, fit, condmarg
        self.errors = errors
        for inp in inputs.solve_block(self.seed, inputs.WARMUP_BLOCK)[:20]:
            try:
                self.run(inp)
            except (errors.ConvergenceError, errors.InfeasibleMomentsError):
                pass
        self.input(0)

    def run(self, inp):
        core = self.core
        if inp["kind"] == "fit":
            return self.fit.fit_moments(
                inp["dim"], core.MomentPair(inp["c2"], inp["c4"]))
        p = core.RadialParams(inp["dim"], inp["lambda1"], inp["lambda2"])
        split = self.condmarg.BlockSplit(inp["dim1"],
                                         inp["dim"] - inp["dim1"])
        return self.condmarg.marginal_peaks(p, split)

    def digest(self, inp, out):
        # a fit report carries its whole Newton trace; keep what the check
        # reads, so memory does not grow with the number of ops
        if inp["kind"] == "fit":
            return out.params, out.converged
        return out

    def check(self, inp, out):
        if inp["kind"] == "fit":
            return self._check_fit(inp, out)
        return self._check_peaks(inp, out)

    def _check_fit(self, inp, out):
        errors, core = self.errors, self.core
        past = inp["ratio"] >= inputs.gaussian_ratio(inp["dim"]) * (1 - 1e-6)
        # ROADMAP item 4: on thin-ring targets fits lose positive
        # definiteness; there and, rarely, in the interior Newton also
        # stalls and the fit stops at its iteration cap, saying so
        thin = inp["ratio"] - 1.0 <= 1e-3 * 2.0 / inp["dim"]
        if isinstance(out, errors.InfeasibleMomentsError):
            return PASS if past else FAIL
        if isinstance(out, errors.ConvergenceError):
            return KNOWN if thin else FAIL
        if isinstance(out, Exception) or past:
            return FAIL
        p, converged = out
        m2 = core.radial_moment(p, 2, "pcf")
        m4 = core.radial_moment(p, 4, "pcf")
        if (_rel_close(m2, inp["c2"], 1e-8)
                and _rel_close(m4, inp["c4"], 1e-8)):
            return PASS
        return FAIL if converged else KNOWN

    def _check_peaks(self, inp, out):
        errors, core, condmarg = self.errors, self.core, self.condmarg
        if isinstance(out, errors.ConvergenceError):
            # spurious extra stationary points with a two-dimensional
            # trailing block from alpha ~ 100
            if (inp["dim"] - inp["dim1"] == 2 and inp["alpha"] >= 50.0
                    and "stationary points" in str(out)):
                return KNOWN
            return FAIL
        if isinstance(out, Exception) or not 1 <= len(out) <= 2:
            return FAIL
        p = core.RadialParams(inp["dim"], inp["lambda1"], inp["lambda2"])
        split = condmarg.BlockSplit(inp["dim1"], inp["dim"] - inp["dim1"])
        radius = math.sqrt(inp["lambda1"] / (2.0 * inp["lambda2"]))
        h = 1e-3 * radius / math.sqrt(max(inp["alpha"], 1.0))

        def f(r):
            x = np.zeros(inp["dim1"])
            x[0] = r
            return condmarg.marginal_log_density(p, split, x)

        for r in out:
            top = f(r)
            tol = 1e-12 * max(1.0, abs(top))
            if f(r + h) > top + tol or (r > h and f(r - h) > top + tol):
                return FAIL
        return PASS


class RadialReference:
    """Radial law of a parameter set, tabulated with numpy alone: the
    density of r on a fine grid covering all but e**-60 of its peak, its
    CDF by the trapezoid rule, and log Z."""

    def __init__(self, doc: dict, points: int = 200_001):
        d, l1, l2 = doc["dim"], doc["lambda1"], doc["lambda2"]

        def g(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore"):
                lead = (d - 1) * np.log(r) if d > 1 else 0.0 * r
            return lead + l1 * r * r - l2 * r ** 4

        peak = math.sqrt(max(
            (l1 + math.sqrt(l1 * l1 + 4.0 * l2 * (d - 1))) / (4.0 * l2), 0.0))
        top = float(g(peak)) if peak > 0 else 0.0
        scale = max(peak, (1.0 / l2) ** 0.25)
        hi = peak + scale
        while g(hi) - top > -60.0:
            hi = peak + 2.0 * (hi - peak)
        lo = 0.0
        if peak > 0 and not g(0.0) - top > -60.0:
            a, b = 0.0, peak
            for _ in range(200):
                m = 0.5 * (a + b)
                a, b = (a, m) if g(m) - top > -60.0 else (m, b)
            lo = a
        a, b = peak, hi
        for _ in range(200):
            m = 0.5 * (a + b)
            a, b = (m, b) if g(m) - top > -60.0 else (a, m)
        hi = b
        r = np.linspace(lo, hi, points)
        w = np.exp(g(r) - top)
        steps = 0.5 * (w[1:] + w[:-1]) * np.diff(r)
        cum = np.concatenate(([0.0], np.cumsum(steps)))
        total = cum[-1]
        q = r * r
        self.r = r
        self.cdf = cum / total
        self.mean_q = float(np.sum(0.5 * (w[1:] * q[1:] + w[:-1] * q[:-1])
                                   * np.diff(r)) / total)
        self.var_q = float(np.sum(0.5 * (w[1:] * q[1:] ** 2
                                         + w[:-1] * q[:-1] ** 2)
                                  * np.diff(r)) / total) - self.mean_q ** 2
        log_surface = (math.log(2.0) + 0.5 * d * math.log(math.pi)
                       - math.lgamma(0.5 * d))
        self.log_z = top + math.log(total) + log_surface
        if "sigma" in doc:
            sigma = np.asarray(doc["sigma"])
            self.chol = np.linalg.cholesky(sigma)
            self.mu = np.asarray(doc["mu"])
            self.log_z += float(np.sum(np.log(np.diag(self.chol))))
        else:
            self.chol = None


class Sample(Workload):
    """1e5 draws from one of eight laws, then their log densities."""

    name = "sample"
    tail_percentile = 90.0
    draws = 100_000
    # sqrt(n) D_n exceeds 2.7 with probability 2 exp(-2 * 2.7**2) < 1e-6;
    # a mean more than 6 standard errors off has probability < 1e-8
    ks_limit = 2.7
    mean_z_limit = 6.0

    def setup(self):
        from eqe import core, sampling
        self.core, self.sampling = core, sampling
        self.docs = inputs.sample_params(self.seed)
        self.refs = [RadialReference(doc) for doc in self.docs]
        self.params = []
        for doc in self.docs:
            p = core.RadialParams(doc["dim"], doc["lambda1"], doc["lambda2"])
            if "sigma" in doc:
                p = core.EllipticalParams(np.array(doc["mu"]),
                                          np.array(doc["sigma"]), p)
            self.params.append(p)
        self.warm()

    def warm(self):
        """Build and cache every table, as a simulation would on start."""
        for p in self.params:
            self.sampling.sample(p, 16, self.sampling.SeededGenerator(0))

    def input(self, i):
        return i % len(self.params), inputs.sample_stream_seed(self.seed, i)

    def run(self, inp):
        k, stream = inp
        p = self.params[k]
        x = self.sampling.sample(p, self.draws,
                                 self.sampling.SeededGenerator(stream))
        return x, self.core.log_density(p, x)

    def digest(self, inp, out):
        x, log_p = out
        ref = self.refs[inp[0]]
        if ref.chol is not None:
            v = np.linalg.solve(ref.chol, (x - ref.mu).T)
            q = np.sum(v * v, axis=0)
        else:
            q = np.sum(x * x, axis=1)
        n = q.size
        u = np.sort(np.interp(np.sqrt(q), ref.r, ref.cdf))
        k = np.arange(n)
        ks = float(np.max(np.maximum(u - k / n, (k + 1) / n - u)))
        doc = self.docs[inp[0]]
        implied = doc["lambda1"] * q - doc["lambda2"] * q * q - log_p
        return {"shape_ok": x.shape == (self.draws, doc["dim"]),
                "ks": ks * math.sqrt(n),
                "mean_z": abs(float(np.mean(q)) - ref.mean_q)
                / math.sqrt(ref.var_q / n),
                "log_z": (float(np.min(implied)), float(np.max(implied)))}

    def check(self, inp, out):
        if isinstance(out, Exception):
            return FAIL
        ref = self.refs[inp[0]]
        lo, hi = out["log_z"]
        ok = (out["shape_ok"] and out["ks"] <= self.ks_limit
              and out["mean_z"] <= self.mean_z_limit
              and _rel_close(lo, ref.log_z, 1e-6)
              and _rel_close(hi, ref.log_z, 1e-6))
        return PASS if ok else FAIL


class Cli(Workload):
    """Cold CLI invocations, one at a time, each a fresh interpreter."""

    name = "cli"
    round_size = len(inputs.CLI_COMMANDS)
    min_rounds = 3
    # traced runs invoke the commands in this process through click's
    # CliRunner, so that spans see the command callbacks
    in_process = False

    def setup(self):
        from click.testing import CliRunner

        from eqe import cli, condmarg, core, fit, sampling
        self.runner = CliRunner()
        self.cli, self.condmarg, self.core = cli, condmarg, core
        self.fit, self.sampling = fit, sampling
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._rounds: dict[int, dict] = {}
        for rnd in range(self.min_rounds):
            self.round_files(rnd)
        src = Path(__file__).resolve().parent.parent / "src"
        self.argv0 = [sys.executable, "-c",
                      "import sys; from eqe.cli import main; sys.exit(main())"]
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def round_files(self, rnd: int) -> dict:
        if rnd in self._rounds:
            return self._rounds[rnd]
        spec = inputs.cli_round(self.seed, rnd)
        base = self.workdir / f"r{rnd}"
        base.mkdir(parents=True, exist_ok=True)
        files = {}
        for key, doc in spec["docs"].items():
            files[key] = base / f"{key}.json"
            files[key].write_text(json.dumps(doc), encoding="utf-8")
        data = spec["fit_data"]
        files["fit_data"] = base / "fit.csv"
        with open(files["fit_data"], "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x{j + 1}" for j in range(data.shape[1]))
                     + "\n")
            for row in data:
                fh.write(",".join("%.17g" % v for v in row) + "\n")
        spec["files"] = files
        spec["base"] = base
        self._rounds[rnd] = spec
        return spec

    def input(self, i):
        rnd, k = divmod(i, self.round_size)
        spec = self.round_files(rnd)
        command = inputs.CLI_COMMANDS[k]
        files, base = spec["files"], spec["base"]
        f = {name: str(path) for name, path in files.items()}
        out = str(base / f"{command}.out.csv")
        args = {
            "logz": ["logz", "--params", f["logz"]],
            "logz-quad": ["logz", "--params", f["logz-quad"], "--method",
                          "quad"],
            "entropy": ["entropy", "--params", f["entropy"]],
            "sample": ["sample", "--params", f["sample"], "--n",
                       str(inputs.CLI_SAMPLE_N), "--seed",
                       str(spec["sample_seed"]), "--out", out],
            "fit": ["fit", "--input", f["fit_data"], "--model", "elliptical"],
            "marginal": ["marginal", "--params", f["marginal"], "--dim1",
                         str(spec["dim1"]), "--npts",
                         str(inputs.CLI_MARGINAL_NPTS), "--out", out],
            "pdf-grid": ["pdf-grid", "--params", f["pdf-grid"], "--xmin",
                         "-3", "--xmax", "3", "--npts",
                         str(inputs.CLI_GRID_NPTS), "--out", out],
            "selfcheck": ["selfcheck"],
        }[command]
        return {"command": command, "args": args, "spec": spec, "out": out}

    def run(self, inp):
        if self.in_process:
            # every real invocation starts with empty caches
            self.caches.clear()
            result = self.runner.invoke(self.cli.main, inp["args"])
            return result.exit_code, result.stdout
        proc = subprocess.run(self.argv0 + inp["args"], env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, inp, out):
        if isinstance(out, Exception):
            return FAIL
        code, stdout = out
        if code != 0:
            return FAIL
        return PASS if self._output_matches(inp, stdout) else FAIL

    def _output_matches(self, inp, stdout: str) -> bool:
        """Compare the command's output with the same computation made in
        this process; 17 significant digits round-trip exactly."""
        core, cli, spec = self.core, self.cli, inp["spec"]
        files = spec["files"]
        command = inp["command"]
        if command in ("logz", "logz-quad"):
            doc = json.loads(stdout)
            method = "quadrature" if command == "logz-quad" else "auto"
            info = core.log_norm_const_info(
                cli.load_params_file(str(files[command])), method)
            return (doc["log_z"] == info.value
                    and doc["method"] == info.method_used)
        if command == "entropy":
            doc = json.loads(stdout)
            params = cli.load_params_file(str(files["entropy"]))
            return doc["entropy_nats"] == core.entropy(params)
        if command == "sample":
            params = cli.load_params_file(str(files["sample"]))
            got = np.loadtxt(inp["out"], delimiter=",", skiprows=1, ndmin=2)
            want = self.sampling.sample(
                params, inputs.CLI_SAMPLE_N,
                self.sampling.SeededGenerator(spec["sample_seed"]))
            return got.shape == want.shape and np.array_equal(got, want)
        if command == "fit":
            doc = json.loads(stdout)
            data = np.loadtxt(files["fit_data"], delimiter=",", skiprows=1,
                              ndmin=2)
            report = self.fit.fit_data(data, "elliptical")
            want = cli.params_to_doc(report.params)
            return (all(doc[k] == want[k] for k in want)
                    and doc["fit_report"]["converged"] is True
                    and doc["fit_report"]["n"] == data.shape[0])
        if command == "marginal":
            doc = json.loads(stdout)
            params = cli.load_params_file(str(files["marginal"]))
            split = self.condmarg.BlockSplit(spec["dim1"],
                                             params.dim - spec["dim1"])
            got = np.loadtxt(inp["out"], delimiter=",", skiprows=1, ndmin=2)
            return (doc["peaks"] == self.condmarg.marginal_peaks(params, split)
                    and got.shape == (inputs.CLI_MARGINAL_NPTS, 2))
        if command == "pdf-grid":
            params = cli.load_params_file(str(files["pdf-grid"]))
            got = np.loadtxt(inp["out"], delimiter=",", skiprows=1, ndmin=2)
            n = inputs.CLI_GRID_NPTS
            return (got.shape == (n * n, 3)
                    and np.array_equal(got[:, 2],
                                       core.density(params, got[:, :2])))
        doc = json.loads(stdout)
        return doc["passed"] is True and len(doc["checks"]) > 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sample, Normalize, Solve, Cli)}
