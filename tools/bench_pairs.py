"""Alternated parent/change runs of the benchmark, summarized as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed S \
        --workload lattice-theta:10 --workload hecke-local:5 --out BENCH_<n>.json
    python3 tools/bench_pairs.py --parent DIR --change DIR --suite 5 --out BENCH_<n>.json
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

With --suite PAIRS, the two sides run the acceptance suite, `paramodular
check` with the checkout's src/ on PYTHONPATH, in turn in the same way, and
the output's `suite` holds the same summaries and verdicts for the `seconds`
of each criterion in its report (`criterion_04_s` for the fourth), held to
the bound of `solve_s`, and the criteria that failed in any run of each side.
The full suite exits 1 by design, as one criterion reports a known failure,
so exit code 1 counts as a finished run when its report parses; any other
exit code, or a report that does not parse, is a failed run.  In the same
turn, a second fresh process per side runs every `paramodular` line of the
change's README.md in process through `cli.main`, in a temporary directory
that holds its inputs (e8.json, and chain.json with the E8 (1, 2) chain),
and `suite` gets the wall time of each as `readme_<command>_s`
(`readme_theta_2_s` for the second theta line), with the same summaries and
verdicts, and the example argument lists under `readme_examples`.  An
example that exits with a code other than 0 or 1 fails the run.

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


def _fresh_run(cmd: list, checkout: Path, **env) -> subprocess.CompletedProcess:
    # every run compiles its bytecode into a fresh cache, written by its
    # first process and read by the rest, so that neither side imports
    # bytecode that an earlier run or script left behind
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              env={**base, **env, "PYTHONPYCACHEPREFIX": cache})


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = _fresh_run(cmd, checkout)
    out.check_returncode()
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_check(checkout: Path) -> dict:
    """The seconds of each criterion, and whether it passed, from one run of
    the acceptance suite in the checkout."""
    cmd = [sys.executable, "-m", "paramodular.cli", "check"]
    out = _fresh_run(cmd, checkout, PYTHONPATH=str(checkout.resolve() / "src"))
    results = None
    if out.returncode in (0, 1):
        try:
            results = json.loads(out.stdout)["result"]["results"]
        except (ValueError, KeyError, TypeError):
            pass
    if results is None:
        raise subprocess.CalledProcessError(out.returncode, cmd, out.stdout,
                                            out.stderr or out.stdout)
    return {"metrics": {f"criterion_{i:02d}_s": {"value": r["seconds"], "unit": "s"}
                        for i, r in enumerate(results, 1)},
            "failed_criteria": [f"criterion_{i:02d}" for i, r in enumerate(results, 1)
                                if not r["passed"]]}


# Runs README examples in process: argv[1] is a JSON list of argument
# lists; prints a JSON list of [seconds, exit code], one per example.
_README_SCRIPT = """
import contextlib, io, json, os, sys, tempfile, time
from paramodular.cli import main
bonds = {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
e8 = [[2 if i == j else -1 if (min(i, j), max(i, j)) in bonds else 0 for j in range(8)]
      for i in range(8)]
two_modular = [[1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0, 1, 0],
               [0, 0, 0, 2, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 1], [0, 0, 0, 0, 0, 2, 0, 0],
               [0, 0, 0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 0, 0, 2]]
out = []
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    with open("e8.json", "w") as fh:
        json.dump({"gram": e8}, fh)
    with open("chain.json", "w") as fh:
        json.dump({"gram1": e8, "coords": [two_modular], "T": [1, 2]}, fh)
    for argv in json.loads(sys.argv[1]):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        out.append([time.perf_counter() - t0, code])
print(json.dumps(out))
"""


def readme_examples(readme: str) -> dict:
    """{metric name: argument list} of every line of readme that starts with
    `paramodular `, without its comment; a command's second line gets _2."""
    examples, seen = {}, {}
    for line in readme.splitlines():
        if line.startswith("paramodular "):
            argv = line.split("#")[0].split()[1:]
            seen[argv[0]] = seen.get(argv[0], 0) + 1
            suffix = f"_{seen[argv[0]]}" if seen[argv[0]] > 1 else ""
            examples[f"readme_{argv[0].replace('-', '_')}{suffix}_s"] = argv
    return examples


def run_readme(checkout: Path, examples: dict) -> dict:
    """The wall time of each README example, {name: seconds}, from one fresh
    process in the checkout."""
    cmd = [sys.executable, "-c", _README_SCRIPT, json.dumps(list(examples.values()))]
    out = _fresh_run(cmd, checkout, PYTHONPATH=str(checkout.resolve() / "src"))
    results = None
    if out.returncode == 0:
        try:
            results = json.loads(out.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
    if results is None or len(results) != len(examples) or \
            any(code not in (0, 1) for _, code in results):
        raise subprocess.CalledProcessError(out.returncode, cmd[:2] + ["README examples"],
                                            out.stdout, out.stderr or out.stdout)
    return {name: {"value": t, "unit": "s"} for name, (t, _) in zip(examples, results)}


def run_suite(checkout: Path, examples: dict) -> dict:
    """run_check's result with the README examples' times among its metrics."""
    out = run_check(checkout)
    out["metrics"].update(run_readme(checkout, examples))
    return out


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


def metric_reports(runs: dict, better: dict) -> dict:
    """The summaries and verdicts of runs {side: [result, ...]}, which pair
    up in order, for the metrics {name: (better, bound)}."""
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
    return metrics


def workload_report(runs: dict, better: dict) -> dict:
    """The metric reports of one workload's runs, whether every run was
    correct, and its failed and attempted operations."""
    return {
        "metrics": metric_reports(runs, better),
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed_of_attempted": {side: [sum(r["failed"] for r in rs),
                                       sum(r["attempted"] for r in rs)]
                                for side, rs in runs.items()}}


def suite_report(runs: dict, bound: float) -> dict:
    """The metric reports of the acceptance suite's runs, each criterion's
    seconds lower-is-better within the bound, and the criteria that failed
    in any run of each side."""
    names = runs["parent"][0]["metrics"] if runs["parent"] else {}
    return {"metrics": metric_reports(runs, {m: ("lower", bound) for m in names}),
            "failed_criteria": {side: sorted({c for r in rs for c in r["failed_criteria"]})
                                for side, rs in runs.items()}}


def alternate(label: str, pairs: int, run_side, seed=None) -> tuple[dict, dict | None]:
    """Runs {side: [result, ...]} of run_side(side), the first side
    alternating from pair to pair, and the failure that stopped them, if
    any: then only the pairs that both sides finished are kept."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            t0 = time.time()
            try:
                runs[side].append(run_side(side))
            except subprocess.CalledProcessError as e:
                tail = (e.stderr or "").rstrip().splitlines()[-20:]
                where = f"{label} pair {i + 1} {side}" + ("" if seed is None else f" seed {seed}")
                print(f"{where}: exit code {e.returncode}; the last lines of its stderr:",
                      *tail, sep="\n", file=sys.stderr)
                failure = {"pair": i + 1, "side": side, "returncode": e.returncode,
                           "stderr_tail": tail}
                if seed is not None:
                    failure["seed"] = seed
                return {k: rs[:i] for k, rs in runs.items()}, failure
            print(f"{label} pair {i + 1} {side}: {time.time() - t0:.0f} s", file=sys.stderr)
    return runs, None


def trajectory(reports: dict) -> list[str]:
    """The table of change-to-parent median ratios for the reports given as
    {label: BENCH report}, one column per report in the order given."""
    def sections(report):
        # the acceptance suite's runs are one more row group, named suite
        return {**report.get("workloads", {}),
                **({"suite": report["suite"]} if "suite" in report else {})}

    rows = {}
    for report in reports.values():
        for name, data in sections(report).items():
            for metric in data["metrics"]:
                rows.setdefault((name, metric), None)
    table = [["workload", "metric", *reports]]
    for name, metric in rows:
        cells = [name, metric]
        for report in reports.values():
            m = sections(report).get(name, {}).get("metrics", {}).get(metric)
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
    ap.add_argument("--suite", type=int, metavar="PAIRS",
                    help="pairs of acceptance-suite runs")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.trajectory:
        print("\n".join(trajectory({p.stem: json.loads(p.read_text())
                                    for p in args.trajectory})))
        return 0
    if None in (args.parent, args.change, args.out) or not (args.workload or args.suite):
        ap.error("--parent, --change, --out and --workload or --suite are required")
    if args.workload and args.seed is None:
        ap.error("--workload needs --seed")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    report = {"seed": args.seed, "seconds": args.seconds,
              "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "workloads": {}}
    checkouts = {"parent": args.parent, "change": args.change}
    for item in args.workload or []:
        name, pairs = item.split(":")
        runs, failure = alternate(name, int(pairs), lambda side: run(
            checkouts[side], name, args.seed, args.seconds), args.seed)
        report["workloads"][name] = workload_report(runs, better)
        if failure:
            report["workloads"][name]["failure"] = failure
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        if failure:
            return 1
    if args.suite:
        examples = readme_examples((args.change / "README.md").read_text())
        runs, failure = alternate("suite", args.suite,
                                  lambda side: run_suite(checkouts[side], examples))
        report["suite"] = suite_report(runs, better["solve_s"][1])
        report["suite"]["readme_examples"] = examples
        if failure:
            report["suite"]["failure"] = failure
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        if failure:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
