"""Command line surface: fitting, sampling, density grids, entropy,
marginals and self-validation.

Exit codes: 0 success, 2 usage or validation error (a request too large
for memory among them), 3 numerical failure, 4 infeasible fit, 5
selfcheck failure.  JSON goes to stdout; CSV to --out when given, stdout
otherwise.  Floats carry 17 significant digits: files round-trip exactly.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import condmarg, core, fit, sampling
from .errors import ConvergenceError, DomainError, InfeasibleMomentsError

_FLT = "%.17g"
_CSV_CHUNK = 4096  # rows per write, which bounds the memory it takes


class NumericalFailure(click.ClickException):
    exit_code = 3


class InfeasibleFit(click.ClickException):
    exit_code = 4


class SelfCheckFailure(click.ClickException):
    exit_code = 5


class _Command(click.Command):
    """A subcommand whose library errors exit with their documented code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InfeasibleMomentsError as e:
            raise InfeasibleFit(str(e)) from e
        except DomainError as e:
            raise click.UsageError(str(e), ctx) from e
        except ConvergenceError as e:
            raise NumericalFailure(str(e)) from e
        except MemoryError as e:
            raise click.UsageError("the request does not fit in memory"
                                   + (f": {e}" if str(e) else ""), ctx) from e


def load_params_file(path: str) -> core.Params:
    """Parse a parameter JSON document into RadialParams or, when mu or
    sigma is present, EllipticalParams (missing one defaults to 0 / I)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DomainError(f"cannot read params file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DomainError(f"params file {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DomainError("params file must hold a JSON object")
    if "dim" not in doc:
        raise DomainError("params file is missing \"dim\"")
    form = doc.get("param_form")
    if form not in ("radial", "ring"):
        raise DomainError(
            f"param_form must be \"radial\" or \"ring\", got {form!r}")
    fields = {"radial": ("lambda1", "lambda2"), "ring": ("alpha", "R")}
    if {"lambda1", "lambda2", "alpha", "R"} & doc.keys() != set(fields[form]):
        raise DomainError(f"{form} form needs exactly the fields "
                          f"{fields[form][0]} and {fields[form][1]}")
    a, b = (doc[k] for k in fields[form])
    p = (core.RadialParams(doc["dim"], a, b) if form == "radial" else
         core.ring_to_radial(core.RingParams(doc["dim"], a, b)))
    if "mu" not in doc and "sigma" not in doc:
        return p
    mu = doc.get("mu", [0.0] * p.dim)
    sigma = doc.get("sigma", np.eye(p.dim).tolist())
    return core.EllipticalParams(mu, sigma, p)


def params_to_doc(params: core.Params) -> dict:
    rad = params.radial
    doc = {"dim": rad.dim, "param_form": "radial",
           "lambda1": rad.lambda1, "lambda2": rad.lambda2}
    if isinstance(params, core.EllipticalParams):
        doc.update(mu=params.mu.tolist(), sigma=params.sigma.tolist())
    return doc


def _emit_json(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2))


def _write_csv(stream, header: list[str], rows: np.ndarray) -> None:
    """Write a 2-d array as CSV, formatting one chunk of rows per ``%``
    (a Python-level format per value would dominate the command)."""
    stream.write(",".join(header) + "\n")
    line = ",".join([_FLT] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], _CSV_CHUNK):
        part = rows[start:start + _CSV_CHUNK]
        stream.write(line * part.shape[0] % tuple(part.ravel().tolist()))


def _csv_out(out_path, header, rows):
    if out_path is None:
        _write_csv(sys.stdout, header, rows)
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        _write_csv(fh, header, rows)


@click.group()
def main():
    """Quartic exponential distribution toolkit."""


main.command_class = _Command


@main.command("logz")
@click.option("--params", "params_path", type=str, default=None,
              help="Parameter JSON file.")
@click.option("--dim", type=int, default=None)
@click.option("--lambda1", type=float, default=None)
@click.option("--lambda2", type=float, default=None)
@click.option("--method", type=click.Choice(["pcf", "quad"]), default=None,
              help="Evaluation route (default: pcf; quad is the "
                   "independent tanh-sinh oracle).")
def cmd_logz(params_path, dim, lambda1, lambda2, method):
    """Log normalization constant."""
    inline = [dim, lambda1, lambda2]
    if params_path is not None:
        if any(v is not None for v in inline):
            raise click.UsageError(
                "--params and --dim/--lambda1/--lambda2 are mutually "
                "exclusive")
        params = load_params_file(params_path)
    else:
        if any(v is None for v in inline):
            raise click.UsageError(
                "either --params or all of --dim --lambda1 --lambda2 are "
                "required")
        params = core.RadialParams(dim, lambda1, lambda2)
    core_method = {"pcf": "pcf", "quad": "quadrature", None: "auto"}[method]
    info = core.log_norm_const_info(params, core_method)
    _emit_json({"log_z": info.value, "method": info.method_used})


@main.command("pdf-grid")
@click.option("--params", "params_path", type=str, required=True)
@click.option("--xmin", type=float, required=True)
@click.option("--xmax", type=float, required=True)
@click.option("--npts", type=int, required=True)
@click.option("--out", "out_path", type=str, default=None)
def cmd_pdf_grid(params_path, xmin, xmax, npts, out_path):
    """Density on an npts x npts grid (dim 2 only), CSV x1,x2,density."""
    params = load_params_file(params_path)
    if params.dim != 2:
        raise click.UsageError(f"pdf-grid requires dim 2, got {params.dim}")
    if npts < 2:
        raise click.UsageError(f"--npts must be at least 2, got {npts}")
    if not xmax > xmin:
        raise click.UsageError("--xmax must exceed --xmin")
    axis = np.linspace(xmin, xmax, npts)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([x1.ravel(), x2.ravel()])
    dens = core.density(params, pts)
    _csv_out(out_path, ["x1", "x2", "density"],
             np.column_stack([pts, dens]))


@main.command("sample")
@click.option("--params", "params_path", type=str, required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, required=True,
              help="Deterministic stream seed; there is no implicit "
                   "randomness.")
@click.option("--out", "out_path", type=str, default=None)
def cmd_sample(params_path, n, seed, out_path):
    """Draw n points, CSV with one point per row."""
    params = load_params_file(params_path)
    x = sampling.sample(params, n, sampling.SeededGenerator(seed))
    _csv_out(out_path, [f"x{i + 1}" for i in range(params.dim)], x)


@main.command("fit")
@click.option("--input", "input_path", type=str, required=True,
              help="CSV of points, one per row.")
@click.option("--model", type=click.Choice(["spherical", "elliptical"]),
              default="elliptical", show_default=True)
@click.option("--out", "out_path", type=str, default=None,
              help="Write the fitted parameter JSON here as well.")
def cmd_fit(input_path, model, out_path):
    """Fit parameters to data; output doubles as a params file."""
    try:
        with open(input_path, encoding="utf-8") as fh:
            first = fh.readline()
            try:
                [float(tok) for tok in first.strip().split(",")]
                skip = 0
            except ValueError:
                skip = 1
        data = np.loadtxt(input_path, delimiter=",", skiprows=skip, ndmin=2)
    except OSError as e:
        raise click.UsageError(f"cannot read {input_path}: {e}") from e
    except ValueError as e:
        raise click.UsageError(f"malformed CSV {input_path}: {e}") from e
    report = fit.fit_data(data, model)
    se = fit.parameter_standard_errors(report.params.radial, data.shape[0])
    doc = params_to_doc(report.params)
    doc["fit_report"] = {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": list(report.residual),
        "feasibility": report.feasibility,
        "standard_errors": {"lambda1": se[0], "lambda2": se[1]},
        "n": int(data.shape[0]),
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(params_to_doc(report.params), fh, indent=2)
            fh.write("\n")
    _emit_json(doc)


@main.command("entropy")
@click.option("--params", "params_path", type=str, required=True)
def cmd_entropy(params_path):
    """Differential entropy in nats."""
    params = load_params_file(params_path)
    _emit_json({"entropy_nats": core.entropy(params)})


@main.command("marginal")
@click.option("--params", "params_path", type=str, required=True)
@click.option("--dim1", type=int, required=True,
              help="Size of the kept leading block.")
@click.option("--rmax", type=float, default=None,
              help="Grid endpoint in r1 (default: covers the bulk).")
@click.option("--npts", type=int, default=256, show_default=True)
@click.option("--out", "out_path", type=str, default=None,
              help="CSV target; peaks JSON then goes to stdout.")
def cmd_marginal(params_path, dim1, rmax, npts, out_path):
    """Marginal density along r1 = |x1| plus the list of its peaks."""
    params = load_params_file(params_path)
    if isinstance(params, core.EllipticalParams):
        if (np.any(params.mu != 0.0)
                or np.any(params.sigma != np.eye(params.dim))):
            raise click.UsageError(
                "marginals are defined for the spherical form; whiten "
                "first (mu 0, sigma identity)")
        params = params.radial
    if not 1 <= dim1 < params.dim:
        raise click.UsageError(
            f"--dim1 must be in [1, {params.dim - 1}], got {dim1}")
    if npts < 2:
        raise click.UsageError(f"--npts must be at least 2, got {npts}")
    split = condmarg.BlockSplit(dim1, params.dim - dim1)
    if rmax is None:  # E[r^4] < 3 E[r^2]^2, so this is > 1.5 E[r^4]^(1/4)
        rmax = 2.0 * max(math.sqrt(core.radial_moment(params, 2)),
                         core.mode_radius(params))
    elif not (math.isfinite(rmax) and rmax > 0):
        raise click.UsageError(
            f"--rmax must be finite and positive, got {rmax}")
    rs = np.linspace(0.0, rmax, npts)
    x1 = np.zeros((npts, dim1))
    x1[:, 0] = rs  # rows (r, 0, ..., 0), whose q1 is r * r exactly
    dens = [math.exp(condmarg.marginal_log_density(params, split, x))
            for x in x1]
    peaks = condmarg.marginal_peaks(params, split)
    _csv_out(out_path, ["r1", "marginal_density"],
             np.column_stack([rs, dens]))
    if out_path is None:
        click.echo(json.dumps({"peaks": peaks}), err=True)
    else:
        _emit_json({"peaks": peaks})


def _selfcheck_checks():
    checks = []

    worst = 0.0
    for d in (1, 2, 3, 5, 10):
        for l1 in (-5.0, 0.0, 8.0):
            for l2 in (0.5, 4.0):
                p = core.RadialParams(d, l1, l2)
                a = core.log_norm_const(p, "pcf")
                b = core.log_norm_const(p, "quadrature")
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    checks.append(("normalization_dual_path", worst, 1e-8))

    # Z in closed form: through erfc at D = 2, through K_{1/4} at D = 1
    # (lambda1 < 0 only)
    for name, d, closed, l1s in (
            ("d2_closed_form", 2, core.log_norm_const_d2_closed,
             (-12.0, -1.0, 0.0, 3.0, 15.0)),
            ("d1_closed_form", 1, core.log_norm_const_d1_neg,
             (-12.0, -3.0, -1.0, -0.2))):
        worst = 0.0
        for l1 in l1s:
            for l2 in (0.1, 1.0, 20.0):
                a = closed(l1, l2)
                b = core.log_norm_const(core.RadialParams(d, l1, l2), "pcf")
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        checks.append((name, worst, 1e-12))

    worst = 0.0
    h = 1e-5
    for d, l1, l2 in ((2, 8.0, 4.0), (3, -2.0, 1.0), (5, 1.0, 0.3)):
        def log_z(a, b):
            return core.log_norm_const(core.RadialParams(d, a, b))
        fd1 = (log_z(l1 + h, l2) - log_z(l1 - h, l2)) / (2 * h)
        fd2 = (log_z(l1, l2 + h) - log_z(l1, l2 - h)) / (2 * h)
        p = core.RadialParams(d, l1, l2)
        m2, m4 = core.radial_moment(p, 2), core.radial_moment(p, 4)
        worst = max(worst, abs(fd1 - m2) / m2, abs(fd2 + m4) / m4)
    checks.append(("moment_gradient_identity", worst, 1e-5))

    worst = 0.0
    rng = np.random.default_rng(2024)
    for d, l1, l2 in ((2, 8.0, 4.0), (3, 2.0, 1.0), (5, -3.0, 0.7)):
        p = core.RadialParams(d, l1, l2)
        for d1 in (1, d - 1):
            split = condmarg.BlockSplit(d1, d - d1)
            for _ in range(5):
                x = rng.normal(size=d)
                joint = core.log_density(p, x)
                marg = condmarg.marginal_log_density(p, split, x[:d1])
                cond = core.log_density(
                    condmarg.conditional_params(
                        p, condmarg.BlockSplit(d - d1, d1),
                        float(x[:d1] @ x[:d1])),
                    x[d1:])
                worst = max(worst, abs(joint - (marg + cond)))
    checks.append(("conditional_marginal_chain_rule", worst, 1e-8))

    worst = 0.0
    n = 20000
    for seed, (d, l1, l2) in ((11, (3, 4.0, 1.5)), (12, (2, 8.0, 4.0))):
        p = core.RadialParams(d, l1, l2)
        table = sampling._cached_table(p)  # the table sample draws from
        x = sampling.sample(p, n, sampling.SeededGenerator(seed))
        u = np.sort(table.cdf(np.linalg.norm(x, axis=1)))
        k = np.arange(n)
        d_ks = float(np.max(np.maximum(u - k / n, (k + 1) / n - u)))
        worst = max(worst, d_ks * math.sqrt(n))
    checks.append(("sampler_ks", worst, 1.358))

    base = core.entropy(core.RadialParams(3, 4.0, 1.5))
    worst = max(abs(core.entropy(core.RadialParams(3, 4.0 / s, 1.5 / (s * s)))
                    - (base + 1.5 * math.log(s))) for s in (0.5, 2.0, 7.0))
    checks.append(("entropy_scale_identity", worst, 1e-9))

    return checks


@main.command("selfcheck")
def cmd_selfcheck():
    """Run the internal consistency suite; exit 5 if anything fails."""
    report = []
    all_ok = True
    for name, observed, bound in _selfcheck_checks():
        ok = observed <= bound
        all_ok = all_ok and ok
        report.append({"name": name, "observed": observed,
                       "tolerance": bound, "passed": ok})
        click.echo(f"{'ok  ' if ok else 'FAIL'} {name}: "
                   f"{observed:.3e} (tolerance {bound:.3e})", err=True)
    _emit_json({"passed": all_ok, "checks": report})
    if not all_ok:
        raise SelfCheckFailure("one or more selfcheck items failed")


if __name__ == "__main__":
    main()
