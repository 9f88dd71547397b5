"""The verdict that tools/bench_pairs.py writes for each metric, and its
trajectory table of change-to-parent ratios."""

import importlib.util
import json
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
