"""One workload in one fresh process: set up, measure, check, report.

Started by run.py, which passes the spawn time in PERFBENCH_T0 so that
set-up time counts from process start.  The last line of standard output
is one JSON object.

Untraced (``--trace 0``): a closed loop with one client runs ops for the
given seconds, then every output is checked and the end-to-end metrics
are computed.  Traced (``--trace 1``): the loop runs untraced for half
the time, then the same ops replay with spans recorded, each phase
starting from empty caches and a fresh warm-up; per-layer metrics come
from the replay and ``trace.overhead_frac`` from the ratio of the two.
Last, a workload's probe inputs (see ``Workload.probe_inputs``) are run
and checked once, untimed and outside ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import PASS, KNOWN  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
END_TO_END_UNITS = {"throughput_ops_s": "ops/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "passed_frac": "1",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def measure(wl, seconds: float | None = None, count: int | None = None):
    """Run ops closed-loop until ``seconds`` of measured time have passed
    (checked every ``wl.round_size`` ops) or ``count`` ops have run.

    Returns the latencies, the digested outputs or exceptions (op i at
    index i) and the wall time, which excludes the time spent digesting
    outputs.  Exceptions are kept without their tracebacks, whose frames
    would hold on to the op's arrays.
    """
    latencies, outs = [], []
    digest_s = 0.0
    clock = time.perf_counter
    start = clock()
    i = rounds = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % wl.round_size == 0:
            if (rounds >= wl.min_rounds
                    and clock() - start - digest_s >= seconds):
                break
            rounds += 1
        inp = wl.input(i)
        t0 = clock()
        try:
            out = wl.run(inp)
        except Exception as exc:
            out = exc.with_traceback(None)
        latency = clock() - t0
        if not isinstance(out, Exception):
            try:
                out = wl.digest(inp, out)
            except Exception as exc:
                out = exc.with_traceback(None)
            digest_s += clock() - t0 - latency
        latencies.append(latency)
        outs.append(out)
        i += 1
    return latencies, outs, clock() - start - digest_s


def verdicts(wl, outs) -> list[str]:
    out = []
    for i, result in enumerate(outs):
        try:
            out.append(wl.check(wl.input(i), result))
        except Exception:
            out.append(workloads.FAIL)
    return out


def probe(wl) -> dict:
    """Run and check the workload's probe inputs once, untimed."""
    probe_inputs = wl.probe_inputs()
    outs = []
    for inp in probe_inputs:
        try:
            outs.append(wl.digest(inp, wl.run(inp)))
        except Exception as exc:
            outs.append(exc.with_traceback(None))
    marks = []
    for inp, out in zip(probe_inputs, outs):
        try:
            marks.append(wl.check(inp, out))
        except Exception:
            marks.append(workloads.FAIL)
    return {"ops": len(marks), "failed_known": marks.count(KNOWN),
            "failed_unexpected": marks.count(workloads.FAIL)}


def tail(latencies: list[float], target: float) -> tuple[float, float]:
    """(value, percentile) of the nearest-rank ``target`` percentile of
    the sorted latencies, or of the highest percentile below it that
    keeps at least ten values beyond it."""
    n = len(latencies)
    rank = max(1, min(math.ceil(target / 100.0 * n), n - 10))
    return latencies[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child (the CLI
    commands of the cli workload)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def env_info() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(p.read_bytes().count(b"\n")
                    for p in sorted((ROOT / "src" / "eqe").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "src_eqe_lines": src_lines,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def summarize(wl, latencies, outs, wall: float) -> tuple[dict, dict]:
    """Counts and end-to-end metrics (without setup_s) of one run."""
    marks = verdicts(wl, outs)
    passed = sorted(lat for lat, v in zip(latencies, marks) if v == PASS)
    attempted = len(outs)
    known = marks.count(KNOWN)
    counts = {"attempted": attempted, "failed": attempted - len(passed),
              "failed_known": known,
              "failed_unexpected": attempted - len(passed) - known}
    tail_ms, tail_pct = (tail(passed, wl.tail_percentile) if passed
                         else (0.0, 0.0))
    metrics = {
        "throughput_ops_s": len(passed) / wall,
        "latency_p50_ms": 1e3 * statistics.median(passed) if passed else 0.0,
        "latency_tail_ms": 1e3 * tail_ms,
        "passed_frac": len(passed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    counts["tail_percentile"] = tail_pct
    counts["passing_ops"] = len(passed)
    counts["unexpected"] = [
        {"op": i, "input": repr(wl.input(i))[:500], "outcome": repr(out)[:500]}
        for i, (out, v) in enumerate(zip(outs, marks))
        if v == workloads.FAIL][:20]
    return counts, metrics


def cli_import_metrics() -> dict[str, float]:
    """Cold ``import eqe.cli`` in fresh interpreters, and the part of it
    spent importing scipy, from ``python -X importtime``."""
    code = ("import time; t = time.perf_counter(); import eqe.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import eqe.cli"], check=True,
                          capture_output=True, text=True, timeout=120)
    return {"cli.import_s": statistics.median(times),
            "cli.import.scipy_s": scipy_import_s(proc.stderr)}


def scipy_import_s(importtime: str) -> float:
    """Seconds of scipy imports, not double counting nested ones.
    ``-X importtime`` lists a module after the modules it imported."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # header
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1].startswith("scipy")
                                for a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e6


def traced_run(wl, seconds: float, tag: str):
    """Untraced phase, then the same ops replayed under the tracer.

    Each phase starts from empty caches and warms up again, so both do the
    same work; the overhead is the median over ops of the ratio of their
    traced to untraced latency, which drifts in machine speed hardly move.
    """
    if isinstance(wl, workloads.Cli):
        wl.in_process = True
    wl.caches.clear()
    wl.warm()
    untraced, _, _ = measure(wl, seconds=seconds / 2)

    tracer = spans.Tracer()
    wl.caches.clear()
    before = wl.caches.counts()
    tracer.install()
    try:
        wl.warm()
        latencies, outs, wall = measure(wl, count=len(untraced))
    finally:
        tracer.uninstall()
    after = wl.caches.counts()
    delta = {g: (after[g][0] - before[g][0], after[g][1] - before[g][1])
             for g in after}
    metrics = spans.layer_metrics(tracer, delta)
    if isinstance(wl, workloads.Cli):
        metrics.update(cli_import_metrics())
    metrics["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(latencies, untraced)) - 1.0
    tracer.write(OUT / "traces" / f"{tag}.spans.csv.gz")
    return (latencies, outs, wall), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "tmp" / f"{tag}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.setup()
        setup_s = time.monotonic() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            run, metrics = traced_run(wl, args.seconds, tag)
            counts, _ = summarize(wl, *run)
            units = spans.PER_LAYER_UNITS
        else:
            counts, metrics = summarize(wl, *measure(wl, seconds=args.seconds))
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
        probed = probe(wl)
    finally:
        wl.close()

    env = env_info()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "counts": counts, "probe": probed, "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"env: {json.dumps(env)}")
    print(f"{args.workload} seed {args.seed}: {counts['attempted']} ops, "
          f"{counts['failed']} failed ({counts['failed_known']} recorded "
          f"at definition, {counts['failed_unexpected']} unexpected), "
          f"failed_frac {counts['failed'] / counts['attempted']:.6g}")
    if probed["ops"]:
        print(f"probe (untimed): {probed['ops']} inputs, "
              f"{probed['failed_known']} failed as recorded at definition, "
              f"{probed['failed_unexpected']} unexpected")
    if not args.trace:
        print(f"latency_tail_ms is p{counts['tail_percentile']:.4g} of "
              f"{counts['passing_ops']} passing ops")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": (counts["failed_unexpected"] == 0
                    and probed["failed_unexpected"] == 0),
        "attempted": counts["attempted"], "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
