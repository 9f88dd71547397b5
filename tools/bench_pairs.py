"""Alternated parent/change runs of the benchmark, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed S \
        --workload lattice-theta:10 --workload hecke-local:5 --out BENCH_<n>.json
    python3 tools/bench_pairs.py --trajectory BENCH_*.json

Each DIR is a source checkout with its own perfbench/.  For every workload
the two sides run `perfbench/run.py --trace 0` in turn, the first side
alternating from pair to pair, with the same seed and run length.  For each
end-to-end metric of BENCHMARK.json the output holds every run, the median
and quartiles of each side, the number of pairs in which the change is
better (ties count for neither), and a verdict:

* `ten_pairs`: at least ten pairs ran;
* `wins_nine_tenths`: the change is better in at least 9/10 of the pairs;
* `gain_beyond_parent_iqr`: the change's median is better than the parent's
  by more than the parent's Q3 - Q1;
* `within_bound`: the change's median is no worse than the parent's by more
  than the metric's `bound` in BENCHMARK.json, as a fraction of the parent's;
* `gain`: the first three together, the rule for claiming a gain.

Each run gets a fresh PYTHONPYCACHEPREFIX, with bytecode writing on, so
both sides compile their bytecode alike.  Runs are sequential: nothing else
should use the machine meanwhile.  When a run exits non-zero, its workload,
pair, side and seed and the last lines of its stderr go to stderr; --out
keeps the pairs that both sides finished, with the failure, and the exit
code is 1.

With --trajectory, nothing runs: for each workload and metric in the given
files, a table row holds each file's change-to-parent ratio of the medians,
in the order the files are given, or `-` where a file lacks the metric.
Ratios from different hosts compare; absolute medians do not.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    # every run compiles its bytecode into a fresh cache, written by its
    # first process and read by the rest, so that neither side imports
    # bytecode that an earlier run or script left behind
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             cwd=checkout, capture_output=True, text=True, check=True,
                             env={**env, "PYTHONPYCACHEPREFIX": cache})
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    # one run, as a failure may leave, is its own median and quartiles
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, wins: int, pairs: int, sign: int,
            bound: float) -> dict:
    """The rule for a gain and the bound for a regression, computed from
    the two summaries; sign is 1 when lower is better, -1 when higher is."""
    gain = sign * (parent["median"] - change["median"])
    out = {"ten_pairs": pairs >= 10, "wins_nine_tenths": 10 * wins >= 9 * pairs,
           "gain_beyond_parent_iqr": gain > parent["q3"] - parent["q1"],
           "within_bound": -gain <= bound * abs(parent["median"])}
    out["gain"] = out["ten_pairs"] and out["wins_nine_tenths"] and out["gain_beyond_parent_iqr"]
    return out


def workload_report(runs: dict, better: dict) -> dict:
    """The summaries and verdicts of one workload's runs {side: [result, ...]},
    which pair up in order, for the metrics {name: (better, bound)}."""
    metrics = {}
    for m, (direction, bound) in better.items():
        if not runs["parent"]:      # no pair finished
            break
        p = [r["metrics"][m]["value"] for r in runs["parent"]]
        c = [r["metrics"][m]["value"] for r in runs["change"]]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        metrics[m] = {"unit": runs["parent"][0]["metrics"][m]["unit"], "better": direction,
                      "bound": bound, "parent": summary(p), "change": summary(c),
                      "change_wins": wins, "pairs": len(p),
                      "verdict": verdict(summary(p), summary(c), wins, len(p), sign, bound)}
    return {
        "metrics": metrics,
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed_of_attempted": {side: [sum(r["failed"] for r in rs),
                                       sum(r["attempted"] for r in rs)]
                                for side, rs in runs.items()}}


def trajectory(reports: dict) -> list[str]:
    """The table of change-to-parent median ratios for the reports given as
    {label: BENCH report}, one column per report in the order given."""
    rows = {}
    for report in reports.values():
        for name, data in report["workloads"].items():
            for metric in data["metrics"]:
                rows.setdefault((name, metric), None)
    table = [["workload", "metric", *reports]]
    for name, metric in rows:
        cells = [name, metric]
        for report in reports.values():
            m = report["workloads"].get(name, {}).get("metrics", {}).get(metric)
            cells.append(f"{m['change']['median'] / m['parent']['median']:.3f}"
                         if m and m["parent"]["median"] else "-")
        table.append(cells)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trajectory", type=Path, nargs="+", metavar="BENCH_JSON")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workload", action="append", help="NAME:PAIRS, repeatable")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.trajectory:
        print("\n".join(trajectory({p.stem: json.loads(p.read_text())
                                    for p in args.trajectory})))
        return 0
    if None in (args.parent, args.change, args.seed, args.workload, args.out):
        ap.error("--parent, --change, --seed, --workload and --out are required")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
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
                try:
                    runs[side].append(run(checkout, name, args.seed, args.seconds))
                except subprocess.CalledProcessError as e:
                    # keep the pairs that both sides finished, and say which run failed
                    tail = e.stderr.rstrip().splitlines()[-20:]
                    print(f"{name} pair {i + 1} {side} seed {args.seed}: exit code "
                          f"{e.returncode}; the last lines of its stderr:", *tail,
                          sep="\n", file=sys.stderr)
                    report["workloads"][name] = workload_report(
                        {k: rs[:i] for k, rs in runs.items()}, better)
                    report["workloads"][name]["failure"] = {
                        "pair": i + 1, "side": side, "seed": args.seed,
                        "returncode": e.returncode, "stderr_tail": tail}
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
                    return 1
                print(f"{name} pair {i + 1} {side}: {time.time() - t0:.0f} s", file=sys.stderr)
        report["workloads"][name] = workload_report(runs, better)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
