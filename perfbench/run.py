"""Benchmark for the sada package: three workloads, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn and print
one table of every metric.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` measures the per-layer metrics from spans
recorded around the calls into each ``sada`` module, plus the tracing
overhead.  For one workload the last line of standard output is the JSON
result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when an output check fails or the workload cannot run, for example
when ``src/sada`` is missing from the checkout.

Workloads (inputs are generated from ``--seed``; the package is driven only
through ``sada.cli.main`` and the names exported by ``sada``):

* ``estimate_csv_ols``: ``sada estimate`` with ``--model ols --methods
  naive,sada`` on a 5e4-row CSV written by this benchmark.  CSV reading
  dominates, so this is where the reader shows.
* ``compare_mem_ols``: the 12 compare methods plus inference on an in-memory
  ``Dataset`` of 1e6 rows.  No I/O; the estimators, weighting, inference
  and models layers do all the work at a size where bytes moved dominate.
* ``simulate_sweep``: ``sada simulate`` over 11 gamma values with the
  default six methods and one worker per CPU; thousands of tiny problems,
  where per-call interpreter overhead dominates.

Every workload process gets one BLAS thread.  In ``simulate_sweep`` that keeps
workers x BLAS threads within the CPU count.  On the 1e6 x 3 products of
``compare_mem_ols`` a second BLAS thread spins and doubles the CPU time
without lowering the wall time.  Scratch files and traced spans go to
``.perfbench_runs/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate_csv_ols", "compare_mem_ols", "simulate_sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def timeout_s(seconds: float) -> float:
    """Seconds after which a workload process is killed with its children: its
    ops, set-up and checks, with room for a slow machine."""
    return 2 * seconds + 90


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> tuple[int, list[str]]:
    """Run one workload in a fresh process; returns (exit code, stdout lines)."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PERFBENCH_T0"] = repr(time.time())
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s(seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{name}: killed after {timeout_s(seconds)} s", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def print_table(results: dict) -> None:
    print(f"{'workload':<18} {'metric':<34} {'value':>14}  unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<34} {entry['value']:>14.6g}  {entry['unit']}")
        print(f"{name:<18} {'failed_frac':<34} {result['failed'] / result['attempted']:>14.6g}  ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: tiny inputs for smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sada" / "__init__.py").is_file():
        print(f"no sada package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, status = {}, 0
    for name in names:
        code, lines = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        status = status or code
        if args.workload != "all":
            print("\n".join(lines))
            return code
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit {code})")
            status = status or 1
            continue
        print(f"[{name}] correct={results[name]['correct']} exit={code}")
    print_table(results)
    return status


if __name__ == "__main__":
    sys.exit(main())
