"""eqe benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload {sample,normalize,solve,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` the per-layer
metrics (see README.md).  Each process runs one workload with BLAS and
OpenMP held to one thread.  ``setup_s`` is the median over three fresh
processes: two that only set up and the one that then measures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 2
BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> list[str]:
    """Run worker.py to completion in its own process group; return its
    standard output lines.  Raises on failure or when out of time."""
    env = dict(env, PERFBENCH_T0=repr(time.monotonic()))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args} ran out of time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    lines = stdout.splitlines()
    if not lines:
        raise RuntimeError(f"worker {args} printed nothing")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eqe" / "__init__.py").is_file():
        print(f"no eqe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                last = spawn(common + ["--setup-only"], env, deadline)[-1]
                setups.append(json.loads(last)["setup_s"])
        lines = spawn(common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline)
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, "setup_s runs: " + ", ".join(
            f"{s:.4f}" for s in setups))
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
