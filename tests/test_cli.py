import io
import json
import re
import sys
from pathlib import Path

import pytest

from paramodular.cli import main

# reports of the runs below, written by the code these tests were pinned on;
# temporary paths appear as TMP
GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def assert_golden(name, text, tmp_path=None):
    if tmp_path is not None:
        text = text.replace(str(tmp_path), "TMP")
    assert text == (GOLDEN / name).read_text()


def test_cusps():
    code, out = run_cli(["cusps", "--T", "1,2", "--u", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["count"] == 2
    assert data["result"]["d_values"] == [1, 2]
    assert_golden("cusps.json", out)


def test_neighbors_count_only():
    code, out = run_cli(["neighbors", "--p", "2", "--shape", "1,1",
                         "--count-only"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res == {"formula": 66, "enumerated": 66}
    assert_golden("neighbors.json", out)


def test_hecke_reps():
    code, out = run_cli(["hecke-reps", "--p", "2", "--shape", "1,1", "--j", "1"])
    assert code == 0
    res = json.loads(out)["result"]
    assert len(res) == 3
    assert_golden("hecke-reps.json", out)


def test_cosets():
    code, out = run_cli(["cosets", "--p", "2", "--shape", "1,0", "--j", "1"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["total"] == 6
    assert_golden("cosets.json", out)


def test_garrett_kernel():
    code, out = run_cli(["garrett", "--T1", "1", "--T2", "2",
                         "--check-kernel", "--samples", "5", "--tol", "1e-10"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["kernel_ok"]
    assert_golden("garrett.json", out)


# the README examples below are pinned on reports written by the code
# before chain classes and joins became whole-array


def test_cosets_odd_prime():
    code, out = run_cli(["cosets", "--p", "3", "--shape", "1,1", "--j", "1"])
    assert code == 0
    assert_golden("cosets-p3.json", out)


def test_garrett_list_and_kernel():
    code, out = run_cli(["garrett", "--T1", "1,2", "--T2", "2", "--list", "--check-kernel",
                         "--samples", "20", "--tol", "1e-10"])
    assert code == 0
    assert json.loads(out)["result"]["kernel_ok"]
    assert_golden("garrett-list.json", out)


def test_genus_trace_bound_ten(tmp_path, e8):
    lat_file = tmp_path / "e8.json"
    lat_file.write_text(json.dumps({"gram": e8.gram.to_json()}))
    code, out = run_cli(["genus", "--lattice", str(lat_file), "--T", "1",
                         "--trace-bound", "10"])
    assert code == 0
    assert_golden("genus-10.json", out, tmp_path)


def test_reports_deterministic():
    _, out1 = run_cli(["cusps", "--T", "1,3", "--u", "1"])
    _, out2 = run_cli(["cusps", "--T", "1,3", "--u", "1"])
    assert out1 == out2


def test_reports_ignore_the_environment(monkeypatch):
    # every report's config carries --threads, so no variable may set it
    monkeypatch.setenv("PARAMODULAR_THREADS", "2")
    assert_golden("cusps.json", run_cli(["cusps", "--T", "1,2", "--u", "1"])[1])


@pytest.mark.parametrize("argv", [
    ["neighbors", "--p", "4", "--shape", "1,1", "--count-only"],
    ["cosets", "--p", "6", "--shape", "1,0", "--j", "1"],
])
def test_composite_p_is_an_invalid_level(argv):
    code, out = run_cli(argv)
    assert code == 2
    assert json.loads(out)["error"] == "InvalidLevel"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["cusps"])
    assert exc.value.code == 2


def test_theta_files(tmp_path, e8):
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps({
        "gram1": e8.gram.to_json(),
        "coords": [],
        "T": [1],
    }))
    out_file = tmp_path / "coeffs.json"
    code, out = run_cli(["theta", "--chain", str(chain_file),
                         "--trace-bound", "3", "--out", str(out_file)])
    assert code == 0
    coeffs = json.loads(out_file.read_text())
    by_q = {c["H"][0][0]: c["count"] for c in coeffs}
    assert by_q == {0: 1, 2: 240, 4: 2160, 6: 6720}
    assert_golden("theta.json", out, tmp_path)
    assert_golden("theta-out.json", out_file.read_text())


@pytest.mark.parametrize("bound", ["-1", "-2", "-5"])
def test_negative_trace_bounds_report_no_coefficients(tmp_path, e8, bound):
    # -2 and below ended in a numpy traceback instead of a report
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps({"gram1": e8.gram.to_json(), "coords": [], "T": [1]}))
    code, out = run_cli(["theta", "--chain", str(chain_file), "--trace-bound", bound])
    assert code == 0 and json.loads(out)["result"]["coefficients"] == []
    lat_file = tmp_path / "e8.json"
    lat_file.write_text(json.dumps({"gram": e8.gram.to_json()}))
    code, out = run_cli(["genus", "--lattice", str(lat_file), "--T", "1",
                         "--trace-bound", bound])
    assert code == 0 and json.loads(out)["result"]["coefficients"] == []


FLOAT = re.compile(r"-?\d+\.\d+(?:e-?\d+)?|-?\d+e-?\d+")


def test_theta_check_modularity(tmp_path, e8, e8_chain):
    # the README example: every field but the floats is byte-equal, the
    # defects are below --tol and the certified tails below 1e-10
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps({
        "gram1": e8.gram.to_json(),
        "coords": [e8_chain.coords[1].to_json()],
        "T": [1, 2],
    }))
    code, out = run_cli(["theta", "--chain", str(chain_file), "--check-modularity",
                         "--samples", "5", "--tol", "1e-8"])
    assert code == 0
    out = out.replace(str(tmp_path), "TMP")
    want = (GOLDEN / "theta-modularity.json").read_text()
    assert FLOAT.sub("F", out) == FLOAT.sub("F", want)
    flips = json.loads(out)["result"]["modularity"]["flip"]
    assert len(flips) == 5
    for f in flips:
        assert f["defect"] < 1e-8
        assert len(f["tails"]) == 2 and all(0 < t < 1e-10 for t in f["tails"])


def test_chains_command(tmp_path, e8):
    lat_file = tmp_path / "e8.json"
    lat_file.write_text(json.dumps({"gram": e8.gram.to_json()}))
    code, out = run_cli(["chains", "--lattice", str(lat_file), "--T", "1,2"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["count"] == 1
    assert res["classes"][0]["stabilizer_order"] == 2580480
    assert_golden("chains.json", out, tmp_path)


def test_chains_odd_prime(tmp_path, e8):
    lat_file = tmp_path / "e8.json"
    lat_file.write_text(json.dumps({"gram": e8.gram.to_json()}))
    code, out = run_cli(["chains", "--lattice", str(lat_file), "--T", "1,3"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["count"] == 1
    (cls,) = res["classes"]
    # one orbit of the 2240 = (1+1)(3+1)(9+1)(27+1) 3-modular sublattices,
    # and |O(E8)| = stabilizer * orbit
    assert cls["orbit_size"] == 2240
    assert cls["stabilizer_order"] * cls["orbit_size"] == 696729600
    assert_golden("chains-1-3.json", out, tmp_path)


def test_chains_level_six(tmp_path, e8):
    lat_file = tmp_path / "e8.json"
    lat_file.write_text(json.dumps({"gram": e8.gram.to_json()}))
    code, out = run_cli(["chains", "--lattice", str(lat_file), "--T", "1,6"])
    assert code == 0
    res = json.loads(out)["result"]
    # the first level with several classes
    assert res["count"] == 3
    assert [c["orbit_size"] for c in res["classes"]] == [241920, 302400, 60480]
    assert_golden("chains-1-6.json", out, tmp_path)


def test_chains_budget_limits_the_searches(tmp_path, e8):
    lat_file = tmp_path / "e8.json"
    lat_file.write_text(json.dumps({"gram": e8.gram.to_json()}))
    code, out = run_cli(["chains", "--lattice", str(lat_file), "--T", "1,2",
                         "--budget", "1"])
    assert code == 3
    assert json.loads(out)["error"] == "scale-limit"


def test_genus_command(tmp_path, e8):
    lat_file = tmp_path / "e8.json"
    lat_file.write_text(json.dumps({"gram": e8.gram.to_json()}))
    code, out = run_cli(["genus", "--lattice", str(lat_file), "--T", "1",
                         "--trace-bound", "3"])
    assert code == 0
    res = json.loads(out)["result"]
    vals = {c["H"][0][0]: c["value"] for c in res["coefficients"]}
    assert vals == {0: "1/1", 2: "240/1", 4: "2160/1", 6: "6720/1"}
    assert_golden("genus.json", out, tmp_path)


def test_check_quick():
    code, out = run_cli(["check", "--quick"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["passed"] and data["result"]["quick"]
    for r in data["result"]["results"]:
        del r["seconds"]
    assert_golden("check-quick.json", json.dumps(data, sort_keys=True) + "\n")
