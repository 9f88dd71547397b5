"""Alternated parent/change runs of the benchmark, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed S \
        --workload lattice-theta:10 --workload hecke-local:5 --out BENCH_<n>.json

Each DIR is a source checkout with its own perfbench/.  For every workload
the two sides run `perfbench/run.py --trace 0` in turn, the first side
alternating from pair to pair, with the same seed and run length.  For each
end-to-end metric of BENCHMARK.json the output holds every run, the median
and quartiles of each side, and the number of pairs in which the change is
better (ties count for neither).  Runs are sequential: nothing else should
use the machine meanwhile.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workload", action="append", required=True,
                    help="NAME:PAIRS, repeatable")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {"seed": args.seed, "seconds": args.seconds,
              "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "workloads": {}}
    for item in args.workload:
        name, pairs = item.split(":")
        runs = {"parent": [], "change": []}
        for i in range(int(pairs)):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                checkout = args.parent if side == "parent" else args.change
                t0 = time.time()
                runs[side].append(run(checkout, name, args.seed, args.seconds))
                print(f"{name} pair {i + 1} {side}: {time.time() - t0:.0f} s", file=sys.stderr)
        metrics = {}
        for m, direction in better.items():
            p = [r["metrics"][m]["value"] for r in runs["parent"]]
            c = [r["metrics"][m]["value"] for r in runs["change"]]
            sign = 1 if direction == "lower" else -1
            metrics[m] = {"unit": runs["parent"][0]["metrics"][m]["unit"], "better": direction,
                          "parent": summary(p), "change": summary(c),
                          "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
                          "pairs": len(p)}
        report["workloads"][name] = {
            "metrics": metrics,
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "failed_of_attempted": {side: [sum(r["failed"] for r in rs),
                                           sum(r["attempted"] for r in rs)]
                                    for side, rs in runs.items()}}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
