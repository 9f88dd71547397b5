"""The verdict that tools/bench_pairs.py writes for each metric, and its
trajectory table of change-to-parent ratios."""

import importlib.util
import json
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _summary(values):
    return bench_pairs.summary(values)


def test_verdict_gain_needs_ten_pairs_nine_tenths_and_the_parent_iqr():
    parent = _summary([10.0, 11, 12, 13, 14, 10, 11, 12, 13, 14])
    # lower is better: 4 below the parent's median, IQR 2
    v = bench_pairs.verdict(parent, _summary([8.0] * 10), 10, 10, 1, 0.25)
    assert v == {"ten_pairs": True, "wins_nine_tenths": True, "gain_beyond_parent_iqr": True,
                 "within_bound": True, "gain": True}
    five = _summary([10.0, 11, 12, 13, 14])
    v = bench_pairs.verdict(five, _summary([8.0] * 5), 5, 5, 1, 0.25)
    assert v["wins_nine_tenths"] and v["gain_beyond_parent_iqr"] and not v["gain"]
    v = bench_pairs.verdict(parent, _summary([8.0] * 10), 8, 10, 1, 0.25)
    assert not v["wins_nine_tenths"] and not v["gain"]
    v = bench_pairs.verdict(parent, _summary([11.0] * 10), 9, 10, 1, 0.25)
    assert v["wins_nine_tenths"] and not v["gain_beyond_parent_iqr"] and not v["gain"]


def test_verdict_bound_is_a_fraction_of_the_parent_median():
    parent = _summary([10.0] * 10)
    assert bench_pairs.verdict(parent, _summary([12.5] * 10), 0, 10, 1, 0.25)["within_bound"]
    assert not bench_pairs.verdict(parent, _summary([12.6] * 10), 0, 10, 1, 0.25)["within_bound"]
    # higher is better: a fall of more than the bound is outside it
    assert bench_pairs.verdict(parent, _summary([7.5] * 10), 0, 10, -1, 0.25)["within_bound"]
    assert not bench_pairs.verdict(parent, _summary([7.4] * 10), 0, 10, -1, 0.25)["within_bound"]
    assert bench_pairs.verdict(parent, _summary([14.0] * 10), 10, 10, -1, 0.25)["gain"]


def _report(workloads):
    """A canned BENCH report: {workload: {metric: (parent median, change median)}}."""
    return {"workloads": {
        name: {"metrics": {m: {"parent": _summary([p] * 3), "change": _summary([c] * 3)}
                           for m, (p, c) in metrics.items()}}
        for name, metrics in workloads.items()}}


def test_trajectory_prints_ratios_per_workload_and_metric_in_file_order(tmp_path, capsys):
    files = []
    for name, report in [("BENCH_7", _report({"a": {"solve_s": (2.0, 1.0)}})),
                         ("BENCH_3", _report({"a": {"solve_s": (1.0, 1.25),
                                                    "setup_s": (0.5, 0.5)},
                                              "b": {"solve_s": (4.0, 3.0)}}))]:
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(report))
    assert bench_pairs.main(["--trajectory", *map(str, files)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "workload  metric   BENCH_7  BENCH_3",
        "a         solve_s  0.500    1.250",
        "a         setup_s  -        1.000",
        "b         solve_s  -        0.750",
    ]


def test_trajectory_shows_each_files_change_side_failures(tmp_path, capsys):
    # a failed row after each workload's metrics, once any file records
    # failed/attempted operations for it, and - where a file does not
    old = _report({"a": {"solve_s": (1.0, 1.0)}, "b": {"solve_s": (2.0, 1.0)}})
    new = _report({"a": {"solve_s": (1.0, 0.8)}, "b": {"solve_s": (1.0, 1.0)}})
    new["workloads"]["a"]["failed_of_attempted"] = {"parent": [40, 8080], "change": [0, 8080]}
    files = []
    for name, report in [("BENCH_1", old), ("BENCH_2", new)]:
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(report))
    assert bench_pairs.main(["--trajectory", *map(str, files)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "workload  metric   BENCH_1  BENCH_2",
        "a         solve_s  1.000    0.800",
        "a         failed   -        0/8080",
        "b         solve_s  0.500    1.000",
    ]


_RESULT = {"metrics": {"solve_s": {"value": 1.0, "unit": "s"}},
           "correct": True, "failed": 0, "attempted": 3}


def _checkout(path, body):
    """A canned checkout whose perfbench/run.py runs the given body."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(body)
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return path


def test_a_failed_run_is_reported_and_the_finished_pairs_kept(tmp_path, capsys):
    ok = f"import json\nprint(json.dumps({_RESULT!r}))\n"
    parent = _checkout(tmp_path / "parent", ok)
    # the change's second run exits 1: pair 1 finishes, pair 2 fails first
    change = _checkout(tmp_path / "change", (
        "import pathlib, sys\n"
        "calls = pathlib.Path('calls')\n"
        "calls.write_text(calls.read_text() + 'x' if calls.exists() else 'x')\n"
        "if calls.read_text() == 'xx':\n"
        "    print('worker died', file=sys.stderr)\n"
        "    sys.exit(1)\n" + ok))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seed", "7",
                             "--seconds", "1", "--workload", "w:3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "w pair 2 change seed 7: exit code 1" in err and "worker died" in err
    data = json.loads(out.read_text())["workloads"]["w"]
    assert data["failure"] == {"pair": 2, "side": "change", "seed": 7, "returncode": 1,
                               "stderr_tail": ["worker died"]}
    assert data["metrics"]["solve_s"]["pairs"] == 1
    assert data["metrics"]["solve_s"]["parent"]["runs"] == [1.0]
    assert data["failed_of_attempted"] == {"parent": [0, 3], "change": [0, 3]}


def test_each_run_compiles_into_a_fresh_bytecode_cache(tmp_path, monkeypatch):
    # both runs of a pair point PYTHONPYCACHEPREFIX at an empty directory of
    # their own, which is gone once the run has finished, and may write to it
    caches = []
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")

    def fake_run(cmd, cwd, env, **kw):
        assert "PYTHONDONTWRITEBYTECODE" not in env
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        caches.append(cache)
        return subprocess.CompletedProcess(cmd, 0, json.dumps(_RESULT) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent = _checkout(tmp_path / "parent", "")
    change = _checkout(tmp_path / "change", "")
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seed", "7",
                             "--seconds", "1", "--workload", "w:1",
                             "--out", str(tmp_path / "BENCH.json")]) == 0
    assert len(caches) == 2 and caches[0] != caches[1]
    assert not any(c.exists() for c in caches)


README = """```sh
paramodular cusps --T 1,2 --u 1
paramodular theta --chain chain.json --out coeffs.json
paramodular theta --chain chain.json --check-modularity   # a comment
```
"""


def _suite_checkout(path, seconds, exit_code=1, failing=(3,), example_code=0):
    """A canned checkout whose `paramodular check` reports the given seconds
    per criterion, with the criteria numbered in failing not passed, and
    whose cli.main returns example_code once it finds the README examples'
    inputs in the working directory, and 2 otherwise."""
    results = [{"name": f"c{i}", "passed": i not in failing, "details": {}, "seconds": s}
               for i, s in enumerate(seconds, 1)]
    pkg = path / "src" / "paramodular"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import json, os, sys\n"
        "def main(argv):\n"
        "    chain = json.load(open('chain.json')) if os.path.exists('chain.json') else {}\n"
        "    ok = os.path.exists('e8.json') and chain.get('T') == [1, 2]\n"
        f"    return {example_code} if ok else 2\n"
        "if __name__ == '__main__':\n"
        f"    print(json.dumps({{'config': {{}}, 'result': {{'results': {results!r}}}}}))\n"
        f"    sys.exit({exit_code})\n")
    (path / "README.md").write_text(README)
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return path


def test_readme_examples_are_the_paramodular_lines():
    assert bench_pairs.readme_examples(README) == {
        "readme_cusps_s": ["cusps", "--T", "1,2", "--u", "1"],
        "readme_theta_s": ["theta", "--chain", "chain.json", "--out", "coeffs.json"],
        "readme_theta_2_s": ["theta", "--chain", "chain.json", "--check-modularity"]}
    # the repository's own README: the chain examples and both suite runs
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    names = set(bench_pairs.readme_examples(readme))
    assert {"readme_chains_s", "readme_chains_2_s", "readme_genus_s", "readme_check_s",
            "readme_check_2_s"} <= names


def test_suite_pairs_summarize_each_criterion(tmp_path, capsys):
    # the full suite exits 1 by design: a report that parses is a finished run
    parent = _suite_checkout(tmp_path / "parent", [1.0, 0.0, 7.0])
    change = _suite_checkout(tmp_path / "change", [1.25, 0.0, 5.0])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--suite", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["workloads"] == {}
    suite = report["suite"]
    assert suite["failed_criteria"] == {"parent": ["criterion_03"], "change": ["criterion_03"]}
    assert list(suite["metrics"]) == ["criterion_01_s", "criterion_02_s", "criterion_03_s",
                                      "readme_cusps_s", "readme_theta_s", "readme_theta_2_s"]
    assert suite["readme_examples"] == bench_pairs.readme_examples(README)
    for name in suite["readme_examples"]:
        m = suite["metrics"][name]
        assert (m["unit"], m["better"], m["bound"], m["pairs"]) == ("s", "lower", 0.25, 3)
        assert all(0 < t < 5 for t in m["parent"]["runs"] + m["change"]["runs"])
    c3 = suite["metrics"]["criterion_03_s"]
    assert (c3["parent"]["runs"], c3["change"]["runs"]) == ([7.0] * 3, [5.0] * 3)
    assert (c3["unit"], c3["better"], c3["bound"]) == ("s", "lower", 0.25)
    assert (c3["change_wins"], c3["pairs"]) == (3, 3)
    assert c3["verdict"] == {"ten_pairs": False, "wins_nine_tenths": True,
                             "gain_beyond_parent_iqr": True, "within_bound": True,
                             "gain": False}
    c1 = suite["metrics"]["criterion_01_s"]
    assert c1["change_wins"] == 0 and c1["verdict"]["within_bound"]
    assert suite["metrics"]["criterion_02_s"]["change_wins"] == 0
    assert "suite pair 3 parent" in capsys.readouterr().err
    # the suite's rows join the trajectory table
    assert bench_pairs.main(["--trajectory", str(out)]) == 0
    table = [row.split() for row in capsys.readouterr().out.splitlines()]
    assert table[0] == ["workload", "metric", "BENCH"]
    assert table[1:4] == [["suite", "criterion_01_s", "1.250"], ["suite", "criterion_02_s", "-"],
                          ["suite", "criterion_03_s", "0.714"]]
    assert [row[:2] for row in table[4:]] == [["suite", "readme_cusps_s"],
                                              ["suite", "readme_theta_s"],
                                              ["suite", "readme_theta_2_s"]]


def test_suite_run_fails_on_other_exit_codes_and_bad_reports(tmp_path, capsys):
    parent = _suite_checkout(tmp_path / "parent", [1.0])
    for name, body in (("crash", None), ("garbled", "print('not json')\n"), ("example", None)):
        change = _suite_checkout(tmp_path / name, [1.0], exit_code=1 if name == "example" else 2,
                                 example_code=3 if name == "example" else 0)
        if body:
            (change / "src" / "paramodular" / "cli.py").write_text(
                "import sys\n" + body + "sys.exit(1)\n")
        out = tmp_path / f"{name}.json"
        assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                                 "--suite", "2", "--out", str(out)]) == 1
        suite = json.loads(out.read_text())["suite"]
        assert suite["failure"]["pair"] == 1 and suite["failure"]["side"] == "change"
        # a README example that exits 3 fails its run, whose process exits 0
        assert suite["failure"]["returncode"] == {"crash": 2, "garbled": 1, "example": 0}[name]
        assert suite["metrics"] == {}
        assert "suite pair 1 change: exit code" in capsys.readouterr().err
