"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  Each workload is one closed loop
in one worker process that sends one operation at a time and checks every
result; set-up is sampled in separate fresh processes as well.  A
workload's result is one JSON line, the last line it prints: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  ``all``
runs every workload of BENCHMARK.json in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench-out"
# fresh processes that only set up; with the measured run, five samples
SETUP_PROBES = 4
# every child has finished or been killed by then
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("PARAMODULAR_THREADS", None)
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    spawned_at = time.time()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)] + extra,
                          capture_output=True, text=True, env=child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode or 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(probes)]
        rep = spawn(args, [], deadline)
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded its deadline", file=sys.stderr)
        return 1
    setups.append(rep["setup_s"])
    for err in rep["errors"]:
        print(err, file=sys.stderr)

    ops = rep["op_times"]
    if args.trace:
        metrics = rep["layers"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.median(rep["round_times"]), "s"),
            "op_p50_s": (statistics.median(ops), "s"),
            "op_p90_s": (statistics.quantiles(ops, n=10)[8], "s"),
            "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(f"workload {args.workload}: {len(rep['round_times'])} rounds, median "
          f"{statistics.median(rep['round_times']):.4f} s; {rep['attempted']} operations, "
          f"{rep['failed']} failed ({rep['unexpected_failures']} unexpected); "
          f"per round {rep['ops_per_round']}")
    print(json.dumps({
        "correct": rep["unexpected_failures"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "paramodular" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for name in names:
        args.workload = name
        code = run_workload(args)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
