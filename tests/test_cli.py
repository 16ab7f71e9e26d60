import io
import json
import math
import os
import pathlib
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner

import eqe
from eqe import cli, core, fit, sampling
from eqe.errors import ConvergenceError, DomainError, InfeasibleMomentsError


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(
        {"dim": 2, "param_form": "ring", "alpha": 8.0, "R": 1.0}))
    return str(path)


@pytest.fixture
def radial_file(tmp_path):
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(
        {"dim": 3, "param_form": "radial", "lambda1": 4.0,
         "lambda2": 1.5}))
    return str(path)


def test_logz_inline(runner):
    res = runner.invoke(cli.main, ["logz", "--dim", "3", "--lambda1", "4",
                                   "--lambda2", "1.5"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    np.testing.assert_allclose(doc["log_z"], 4.9877501810197443, rtol=1e-12)
    assert doc["method"] == "pcf"


def test_logz_from_params_file(runner, radial_file):
    res = runner.invoke(cli.main, ["logz", "--params", radial_file])
    assert res.exit_code == 0
    np.testing.assert_allclose(json.loads(res.stdout)["log_z"],
                               4.9877501810197443, rtol=1e-12)


def test_logz_ring_file_is_converted(runner, ring_file):
    res = runner.invoke(cli.main, ["logz", "--params", ring_file])
    assert res.exit_code == 0
    expected = core.log_norm_const(
        core.ring_to_radial(core.RingParams(2, 8.0, 1.0)))
    np.testing.assert_allclose(json.loads(res.stdout)["log_z"], expected,
                               rtol=1e-12)


def test_logz_method_forcing(runner):
    base = ["logz", "--dim", "2", "--lambda1", "5", "--lambda2", "2"]
    a = json.loads(runner.invoke(cli.main, base + ["--method", "pcf"]).stdout)
    b = json.loads(runner.invoke(cli.main, base + ["--method", "quad"]).stdout)
    assert a["method"] == "pcf"
    assert b["method"] == "quadrature"
    np.testing.assert_allclose(a["log_z"], b["log_z"], rtol=1e-10)


def test_logz_quad_on_thin_ring(runner):
    """A ring of alpha 1.6e7 at R = 2: the quadrature route must find it."""
    base = ["logz", "--dim", "2", "--lambda1", "4e6", "--lambda2", "5e5"]
    res = runner.invoke(cli.main, base + ["--method", "quad"])
    assert res.exit_code == 0
    a = json.loads(runner.invoke(cli.main, base).stdout)
    np.testing.assert_allclose(json.loads(res.stdout)["log_z"], a["log_z"],
                               rtol=1e-13)


def test_logz_usage_errors(runner, radial_file):
    assert runner.invoke(cli.main, ["logz"]).exit_code == 2
    assert runner.invoke(cli.main, ["logz", "--dim", "2"]).exit_code == 2
    res = runner.invoke(cli.main, ["logz", "--params", radial_file,
                                   "--dim", "2", "--lambda1", "1",
                                   "--lambda2", "1"])
    assert res.exit_code == 2


def test_logz_invalid_parameters_exit_2(runner):
    res = runner.invoke(cli.main, ["logz", "--dim", "2", "--lambda1", "1",
                                   "--lambda2", "-3"])
    assert res.exit_code == 2


@pytest.mark.parametrize("doc", [
    {"param_form": "radial", "lambda1": 1.0, "lambda2": 1.0},
    {"dim": 2, "lambda1": 1.0, "lambda2": 1.0},
    {"dim": 2, "param_form": "radial", "lambda1": 1.0},
    {"dim": 2, "param_form": "radial", "lambda1": 1.0, "lambda2": 1.0,
     "alpha": 3.0},
    {"dim": 2, "param_form": "ring", "alpha": 3.0},
    {"dim": 2, "param_form": "polar", "alpha": 3.0, "R": 1.0},
    {"dim": 2, "param_form": ["radial"], "lambda1": 1.0, "lambda2": 1.0},
    # fields that are not real numbers
    {"dim": "3", "param_form": "radial", "lambda1": 1.0, "lambda2": 1.0},
    {"dim": 3, "param_form": "radial", "lambda1": "1", "lambda2": 1.0},
    {"dim": 3, "param_form": "radial", "lambda1": None, "lambda2": 1.0},
    {"dim": 3, "param_form": "ring", "alpha": 4.0, "R": [1]},
    {"dim": 3, "param_form": "radial", "lambda1": 1.0, "lambda2": 1.0,
     "mu": "ab"},
    {"dim": 3, "param_form": "radial", "lambda1": 1.0, "lambda2": 1.0,
     "sigma": [[1, 0, 0], [0, 1], [0, 0, 1]]},
])
def test_malformed_params_files_exit_2(runner, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("logz", "entropy"):
        res = runner.invoke(cli.main, [command, "--params", str(path)])
        assert res.exit_code == 2, res.output


def test_params_file_with_location_and_shape(runner, tmp_path):
    sigma = [[2.0, 0.3], [0.3, 0.7]]
    path = tmp_path / "full.json"
    path.write_text(json.dumps(
        {"dim": 2, "param_form": "radial", "lambda1": 3.0, "lambda2": 1.0,
         "mu": [0.5, -1.0], "sigma": sigma}))
    res = runner.invoke(cli.main, ["logz", "--params", str(path)])
    assert res.exit_code == 0
    rad = core.RadialParams(2, 3.0, 1.0)
    expected = (core.log_norm_const(rad)
                + 0.5 * math.log(np.linalg.det(np.array(sigma))))
    np.testing.assert_allclose(json.loads(res.stdout)["log_z"], expected,
                               rtol=1e-12)


def test_pdf_grid(runner, ring_file, tmp_path):
    out = tmp_path / "grid.csv"
    res = runner.invoke(cli.main, ["pdf-grid", "--params", ring_file,
                                   "--xmin", "-1.5", "--xmax", "1.5",
                                   "--npts", "61", "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,density"
    assert len(lines) == 61 * 61 + 1
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    # spot check: the stored density equals a direct evaluation
    p = core.ring_to_radial(core.RingParams(2, 8.0, 1.0))
    k = 1234
    np.testing.assert_allclose(data[k, 2],
                               core.density(p, data[k, :2]), rtol=1e-15)


def test_pdf_grid_requires_dim_2(runner, radial_file):
    res = runner.invoke(cli.main, ["pdf-grid", "--params", radial_file,
                                   "--xmin", "-1", "--xmax", "1",
                                   "--npts", "11"])
    assert res.exit_code == 2


def test_pdf_grid_checks_grid_arguments(runner, ring_file):
    res = runner.invoke(cli.main, ["pdf-grid", "--params", ring_file,
                                   "--xmin", "1", "--xmax", "-1",
                                   "--npts", "11"])
    assert res.exit_code == 2
    res = runner.invoke(cli.main, ["pdf-grid", "--params", ring_file,
                                   "--xmin", "-1", "--xmax", "1",
                                   "--npts", "1"])
    assert res.exit_code == 2


def test_sample_deterministic_and_shaped(runner, radial_file):
    args = ["sample", "--params", radial_file, "--n", "40", "--seed", "9"]
    a = runner.invoke(cli.main, args)
    b = runner.invoke(cli.main, args)
    assert a.exit_code == 0
    assert a.stdout == b.stdout
    lines = a.stdout.splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 41
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 3


def test_sample_seed_is_required(runner, radial_file):
    res = runner.invoke(cli.main, ["sample", "--params", radial_file,
                                   "--n", "10"])
    assert res.exit_code == 2


def test_sample_to_file(runner, radial_file, tmp_path):
    out = tmp_path / "draws.csv"
    res = runner.invoke(cli.main, ["sample", "--params", radial_file,
                                   "--n", "25", "--seed", "3",
                                   "--out", str(out)])
    assert res.exit_code == 0
    assert res.stdout == ""
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert data.shape == (25, 3)


@pytest.mark.parametrize("shape", [(1, 1), (4096, 2), (4097, 3), (9000, 5)])
def test_csv_writer_matches_per_value_format(shape):
    # the chunked writer gives the bytes of formatting value by value,
    # across chunk edges and for signed zeros, non-finite values,
    # subnormals and the extremes of the float range
    rng = np.random.default_rng(shape[0])
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300,
                                                            shape)
    rows.flat[:7] = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     1.7976931348623157e308][:rows.size]
    header = [f"c{i}" for i in range(shape[1])]
    want = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows)
    out = io.StringIO()
    cli._write_csv(out, header, rows)
    assert out.getvalue() == want


def test_fit_round_trip_through_files(runner, ring_file, tmp_path):
    draws = tmp_path / "draws.csv"
    fitted = tmp_path / "fitted.json"
    res = runner.invoke(cli.main, ["sample", "--params", ring_file,
                                   "--n", "20000", "--seed", "14",
                                   "--out", str(draws)])
    assert res.exit_code == 0
    res = runner.invoke(cli.main, ["fit", "--input", str(draws),
                                   "--model", "spherical",
                                   "--out", str(fitted)])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    rep = doc["fit_report"]
    assert rep["converged"]
    assert rep["feasibility"] in ("interior", "near_boundary")
    assert rep["n"] == 20000
    assert rep["standard_errors"]["lambda1"] > 0
    # recovered parameters within a few standard errors of the truth
    assert abs(doc["lambda1"] - 8.0) < 5.0 * rep["standard_errors"]["lambda1"]
    assert abs(doc["lambda2"] - 4.0) < 5.0 * rep["standard_errors"]["lambda2"]
    # the --out document is itself a valid params file
    res = runner.invoke(cli.main, ["logz", "--params", str(fitted)])
    assert res.exit_code == 0


def _ring_draws(runner, ring_file, tmp_path):
    draws = tmp_path / "draws.csv"
    res = runner.invoke(cli.main, ["sample", "--params", ring_file, "--n",
                                   "5000", "--seed", "3", "--out", str(draws)])
    assert res.exit_code == 0
    return str(draws)


def test_fit_with_undefined_standard_errors_exits_3(runner, ring_file,
                                                   tmp_path, monkeypatch):
    draws = _ring_draws(runner, ring_file, tmp_path)
    standard = core._standard.__wrapped__

    def singular(*args):  # E**2 has no variance: the covariance is singular
        log_i, log_p, t, (e1, e2, e3, _) = standard(*args)
        return log_i, log_p, t, (e1, e2, e3, e2 * e2)

    monkeypatch.setattr(core, "_standard", singular)
    res = runner.invoke(cli.main, ["fit", "--input", draws,
                                   "--model", "spherical"])
    assert res.exit_code == 3
    assert "standard errors are undefined" in res.output


def test_fit_stopped_at_its_iteration_cap_reports_json(runner, ring_file,
                                                      tmp_path, monkeypatch):
    draws = _ring_draws(runner, ring_file, tmp_path)
    monkeypatch.setattr(fit, "_MAX_ITERATIONS", 1)
    res = runner.invoke(cli.main, ["fit", "--input", draws,
                                   "--model", "spherical"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["fit_report"]["converged"] is False


def test_fit_accepts_headerless_csv(runner, tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "plain.csv"
    x = rng.normal(scale=0.7, size=(4000, 2)) * [1.0, 1.3]
    np.savetxt(str(path), x, delimiter=",")
    res = runner.invoke(cli.main, ["fit", "--input", str(path)])
    # whatever the verdict, the file must parse; Gaussian-ish input may
    # legitimately be infeasible (exit 4)
    assert res.exit_code in (0, 4)


def test_fit_gaussian_data_exits_4(runner, tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "gauss.csv"
    np.savetxt(str(path), rng.normal(size=(2000, 2)), delimiter=",")
    res = runner.invoke(cli.main, ["fit", "--input", str(path),
                                   "--model", "spherical"])
    assert res.exit_code == 4


def test_fit_missing_file_exits_2(runner, tmp_path):
    res = runner.invoke(cli.main, ["fit", "--input",
                                   str(tmp_path / "nope.csv")])
    assert res.exit_code == 2


def test_fit_malformed_csv_exits_2(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n1.0,2.0\n3.0\n")
    res = runner.invoke(cli.main, ["fit", "--input", str(path)])
    assert res.exit_code == 2


def test_entropy_command(runner, radial_file):
    res = runner.invoke(cli.main, ["entropy", "--params", radial_file])
    assert res.exit_code == 0
    np.testing.assert_allclose(json.loads(res.stdout)["entropy_nats"],
                               2.7862068403563821, rtol=1e-12)


def test_marginal_stdout_layout(runner, ring_file):
    res = runner.invoke(cli.main, ["marginal", "--params", ring_file,
                                   "--dim1", "1", "--npts", "101"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "r1,marginal_density"
    assert len(lines) == 102
    # peaks go to stderr so the CSV stream stays clean
    peaks = json.loads(res.stderr.strip().splitlines()[-1])["peaks"]
    np.testing.assert_allclose(peaks, [0.85413642188884837],
                               rtol=0, atol=1e-9)


def test_marginal_file_output(runner, ring_file, tmp_path):
    out = tmp_path / "marg.csv"
    res = runner.invoke(cli.main, ["marginal", "--params", ring_file,
                                   "--dim1", "1", "--rmax", "2.0",
                                   "--npts", "51", "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert "peaks" in doc
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert data.shape == (51, 2)
    assert data[0, 0] == 0.0
    np.testing.assert_allclose(data[-1, 0], 2.0, rtol=1e-15)
    assert np.all(data[:, 1] >= 0.0)


def test_marginal_trailing_block_of_two_on_a_thin_ring(runner, tmp_path):
    path = tmp_path / "ring4.json"
    path.write_text(json.dumps(
        {"dim": 4, "param_form": "ring", "alpha": 1e3, "R": 1}))
    res = runner.invoke(cli.main, ["marginal", "--params", str(path),
                                   "--dim1", "2", "--npts", "11"])
    assert res.exit_code == 0
    assert json.loads(res.stderr.strip().splitlines()[-1]) == {"peaks": [0.0]}


@pytest.mark.parametrize("rmax", ["nan", "inf", "-inf", "0", "-1"])
def test_marginal_rmax_must_be_finite_and_positive(runner, ring_file, rmax):
    res = runner.invoke(cli.main, ["marginal", "--params", ring_file,
                                   "--dim1", "1", "--rmax", rmax])
    assert res.exit_code == 2
    assert "--rmax" in res.output


def test_marginal_dim1_bounds(runner, ring_file):
    res = runner.invoke(cli.main, ["marginal", "--params", ring_file,
                                   "--dim1", "2"])
    assert res.exit_code == 2
    res = runner.invoke(cli.main, ["marginal", "--params", ring_file,
                                   "--dim1", "0"])
    assert res.exit_code == 2


def test_marginal_rejects_shifted_shape(runner, tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps(
        {"dim": 2, "param_form": "radial", "lambda1": 3.0, "lambda2": 1.0,
         "mu": [1.0, 0.0]}))
    res = runner.invoke(cli.main, ["marginal", "--params", str(path),
                                   "--dim1", "1"])
    assert res.exit_code == 2


def test_marginal_accepts_identity_shape(runner, tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(
        {"dim": 2, "param_form": "radial", "lambda1": 8.0, "lambda2": 4.0,
         "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}))
    res = runner.invoke(cli.main, ["marginal", "--params", str(path),
                                   "--dim1", "1", "--npts", "11"])
    assert res.exit_code == 0


def test_selfcheck_passes(runner):
    res = runner.invoke(cli.main, ["selfcheck"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "normalization_dual_path" in names
    assert {"d1_closed_form", "d2_closed_form"} <= names
    assert "sampler_ks" in names
    assert all(c["passed"] for c in doc["checks"])


def test_selfcheck_builds_each_sampler_table_once(monkeypatch):
    built = []
    build = sampling.build_radial_table
    monkeypatch.setattr(sampling, "build_radial_table",
                        lambda p: built.append(p) or build(p))
    sampling._cached_table.cache_clear()
    cli._selfcheck_checks()
    assert len(built) == len(set(built)) == 2


def test_selfcheck_failure_exits_5(runner, monkeypatch):
    checks = cli._selfcheck_checks
    monkeypatch.setattr(cli, "_selfcheck_checks",
                        lambda: checks() + [("failing_check", 1.0, 0.0)])
    res = runner.invoke(cli.main, ["selfcheck"])
    assert res.exit_code == 5
    doc = json.loads(res.stdout)
    assert doc["passed"] is False


@pytest.mark.parametrize("error,code", [(DomainError, 2),
                                        (ConvergenceError, 3),
                                        (InfeasibleMomentsError, 4)])
@pytest.mark.parametrize("name", sorted(cli.main.commands))
def test_every_command_maps_every_library_error(runner, monkeypatch, name,
                                                 error, code):
    """A library error raised anywhere inside a command exits with its
    documented code, whichever command it is."""
    command = cli.main.commands[name]
    args = [name]
    for param in command.params:
        if param.required:
            value = "x" if param.type is click.STRING else "1"
            args += [param.opts[0], value]

    def raise_error(**kwargs):
        raise error("raised inside the command")

    monkeypatch.setattr(command, "callback", raise_error)
    res = runner.invoke(cli.main, args)
    assert res.exit_code == code, res.output
    assert "raised inside the command" in res.output


def _fresh_interpreter(*args, check=True):
    # a fresh interpreter shows what the code loads (this process has
    # scipy and more from the test suite)
    src = str(pathlib.Path(eqe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=check,
                          env=dict(os.environ, PYTHONPATH=path))


def _fresh_interpreter_stdout(code):
    return _fresh_interpreter("-c", code).stdout.strip()


def test_module_runs_the_cli(runner):
    # `python -m eqe.cli` is the CLI where no console script is installed:
    # the same output and the same exit codes as the entry point
    args = ["logz", "--dim", "2", "--lambda1", "1", "--lambda2", "1"]
    done = _fresh_interpreter("-m", "eqe.cli", *args)
    assert done.stdout == runner.invoke(cli.main, args).stdout
    assert json.loads(done.stdout)["method"] == "pcf"
    bad = _fresh_interpreter("-m", "eqe.cli", *args, "--bogus", check=False)
    assert bad.returncode == 2


def test_start_up_imports_no_scipy():
    # the CLI start-up path needs numpy and click only
    code = ("import sys, eqe, eqe.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_interpreter_stdout(code) == "[]"


def test_start_up_imports_no_numpy_polynomial():
    # numpy.polynomial costs about 1.7 MB and 4 ms of every cold command;
    # the quadrature module's Gauss-Legendre rule is frozen instead
    code = ("import sys, eqe, eqe.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('numpy.polynomial')))")
    assert _fresh_interpreter_stdout(code) == "[]"


def test_first_table_build_imports_no_numpy_ma():
    # numpy.ma costs about 15 ms of every cold `eqe sample`; some numpy set
    # routines load it lazily
    code = ("import sys, eqe.cli\n"
            "from eqe import core, sampling\n"
            "sampling.build_radial_table(core.RadialParams(3, 2.0, 1.0))\n"
            "print('numpy.ma' in sys.modules)")
    assert _fresh_interpreter_stdout(code) == "False"
