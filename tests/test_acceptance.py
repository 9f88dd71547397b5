"""Acceptance suite: every criterion at its stated tolerance, one line each.

Runtime limits from the contract are asserted where stated.  The orbit count
of criterion 12 is frozen from the first verified run and acts as a
regression constant afterwards.
"""

import json
from pathlib import Path

from paramodular import acceptance as acc

# the details of every criterion, by name, written by the code these tests
# were pinned on; a float is checked against the bound its criterion states
GOLDEN = json.loads((Path(__file__).parent / "golden" / "acceptance.json").read_text())


def _match(got, want, bound):
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got) < bound, (got, bound)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            _match(got[k], want[k], bound.get(k) if isinstance(bound, dict) else bound)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _match(g, w, bound)
    else:
        assert got == want


def _report(result, limit=None, bounds=None):
    flag = "PASS" if result["passed"] else "FAIL"
    extra = f" ({result['seconds']}s)" if "seconds" in result else ""
    print(f"[{flag}] {result['name']}{extra}")
    details = json.loads(json.dumps(result["details"], sort_keys=True, default=str))
    _match(details, GOLDEN[result["name"]], bounds)
    assert result["passed"], result
    if limit is not None:
        assert result["seconds"] < limit, \
            f"{result['name']} took {result['seconds']}s, limit {limit}s"


def test_criterion_01_cusp_counting():
    _report(acc.criterion_cusp_counting(), limit=5.0)


def test_criterion_02_neighbor_formula():
    _report(acc.criterion_neighbor_formula(), limit=60.0)


def test_criterion_03_neighbor_bounds():
    _report(acc.criterion_neighbor_bounds())


def test_criterion_04_coset_partition():
    _report(acc.criterion_coset_partition())


def test_criterion_05_commutativity():
    _report(acc.criterion_commutativity(), limit=600.0)


def test_criterion_06_coset_growth():
    _report(acc.criterion_coset_growth())


def test_criterion_07_garrett_roundtrip():
    _report(acc.criterion_garrett_roundtrip(translations=100))


def test_criterion_08_kernel_identity():
    _report(acc.criterion_kernel_identity(samples=20, tol=1e-10), limit=30.0)


def test_criterion_09_e8_shells():
    _report(acc.criterion_e8_shells())


def test_criterion_10_eisenstein_deg1():
    _report(acc.criterion_eisenstein_deg1(terms=10))


def test_criterion_11_paramodularity():
    _report(acc.criterion_paramodularity(tol=1e-8, tail_tol=1e-10), limit=300.0,
            bounds={"flip_defects": 1e-8, "tails": 1e-10})


def test_criterion_12_orbit_stabilizer():
    _report(acc.criterion_orbit_stabilizer())
