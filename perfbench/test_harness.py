"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("make", [
    lambda s: inputs.normalize_block(s, 0),
    lambda s: inputs.normalize_block(s, 3),
    lambda s: inputs.solve_block(s, 0),
    lambda s: inputs.sample_params(s),
])
def test_same_seed_gives_identical_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_same_seed_gives_identical_cli_inputs():
    a, b = inputs.cli_round(7, 2), inputs.cli_round(7, 2)
    assert a["docs"] == b["docs"] and a["sample_seed"] == b["sample_seed"]
    assert np.array_equal(a["fit_data"], b["fit_data"])
    assert a["docs"] != inputs.cli_round(8, 2)["docs"]


def test_inputs_are_generated_without_eqe():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import inputs; "
            "inputs.normalize_block(1, 0); inputs.solve_block(1, 0); "
            "inputs.sample_params(1); inputs.cli_round(1, 0); "
            "print(any(m == 'eqe' or m.startswith('eqe.') "
            "for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_solve_inputs_cover_the_recorded_regimes():
    block = inputs.solve_block(3, 0)
    fits = [b for b in block if b["kind"] == "fit"]
    peaks = [b for b in block if b["kind"] == "peaks"]
    assert len(fits) == 9 * len(peaks)
    assert min(f["ratio"] - 1.0 for f in fits) < 1e-5
    assert any(f["ratio"] >= inputs.gaussian_ratio(f["dim"]) * (1 - 1e-6)
               for f in fits)
    assert {(p["dim"], p["dim1"]) for p in peaks} == set(inputs.PEAK_SPLITS)


def test_normalize_probe_holds_the_failing_rings():
    timed = [b for blk in (0, 1) for b in inputs.normalize_block(4, blk)
             if b["kind"] == "ring"]
    probe = inputs.normalize_probe(4)
    assert max(b["alpha"] for b in timed) <= inputs.NORMALIZE_RING_ALPHA[1]
    assert min(b["alpha"] for b in probe) < 1e5
    assert max(b["alpha"] for b in probe) > 1e7
    assert probe == inputs.normalize_probe(4)


def test_probe_counts_the_recorded_failure_apart(tmp_path):
    wl = workloads.Normalize(2, tmp_path)
    wl.setup()
    probed = worker.probe(wl)
    assert probed["ops"] == inputs.PROBE_RINGS
    assert probed["failed_known"] > 0
    assert probed["failed_unexpected"] == 0


def test_wrong_output_is_counted_as_failed_without_crashing(tmp_path,
                                                            monkeypatch):
    wl = workloads.Normalize(5, tmp_path)
    wl.setup()
    honest = wl.run
    corrupted = set()

    def run(inp):
        i = run.calls
        run.calls += 1
        a, b, h = honest(inp)
        if i % 3 == 2:
            corrupted.add(i)
            return a, b + 1e-6 * max(1.0, abs(b)), h  # routes disagree
        if i % 7 == 6:
            corrupted.add(i)
            return None  # not even the right shape
        return a, b, h

    run.calls = 0
    monkeypatch.setattr(wl, "run", run)
    latencies, outs, wall = worker.measure(wl, count=60)
    counts, metrics = worker.summarize(wl, latencies, outs, wall)
    marks = worker.verdicts(wl, outs)
    assert len(corrupted) >= 20
    assert all(marks[i] == workloads.FAIL for i in corrupted)
    assert counts["failed_unexpected"] == len(corrupted)
    assert counts["attempted"] == 60
    assert 0.0 < metrics["passed_frac"] < 1.0


def test_known_failures_stay_in_the_count(tmp_path):
    wl = workloads.Solve(1, tmp_path)
    wl.setup()
    counts, metrics = worker.summarize(wl, *worker.measure(wl, count=200))
    assert counts["failed_known"] > 0
    assert counts["failed_unexpected"] == 0
    assert metrics["passed_frac"] == pytest.approx(
        1.0 - counts["failed"] / counts["attempted"])


def test_tail_keeps_ten_ops_beyond():
    lat = [float(i) for i in range(1, 1001)]
    assert worker.tail(lat, 99.0) == (990.0, 99.0)
    value, pct = worker.tail(lat[:50], 99.0)
    assert value == 40.0 and pct == pytest.approx(80.0)


def test_scipy_import_time_is_not_double_counted():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |        400 |   scipy.linalg",
        "import time:         5 |        705 | eqe.core",
    ])
    assert worker.scipy_import_s(text) == pytest.approx(700e-6)


def test_metric_lists_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == worker.END_TO_END_UNITS
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in BENCHMARK["per_layer"]}
    assert per_layer == {n: (u, b) for n, u, b in spans.PER_LAYER}
    assert ({w["name"] for w in BENCHMARK["workloads"]}
            <= set(workloads.WORKLOADS))


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_printed_metric_names_appear_in_benchmark_json(trace, key):
    proc = _run("--workload", "normalize", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[key]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "normalize", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
