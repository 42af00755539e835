"""Exit codes, table shapes, and JSON contracts of the command-line surface."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemaxwell import cli, solver
from liemaxwell import lie_algebra as la


@pytest.fixture()
def sol_2a2(tmp_path):
    path = tmp_path / "2a2_sol.json"
    path.write_text(json.dumps({
        "entry": "2A2",
        "algebra_params": {},
        "metric_params": {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 2.0},
        "f_coeffs": [1.0, 0, 0, 0, 0, float(np.sqrt(3))],
        "orientation": 1,
    }))
    return path


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_table(capsys):
    code, out, _ = run(["list"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert "26 entries" in lines[-1]
    assert sum("HasNonEinsteinEM" in ln for ln in lines) == 4


def test_list_filter_and_json(capsys):
    code, out, _ = run(["list", "--verdict", "NoSolution"], capsys)
    assert code == 0 and "NoSolution" in out and "HasNonEinsteinEM" not in out
    code, out, _ = run(["list", "--json"], capsys)
    blob = json.loads(out)
    assert blob["count"] == 26
    assert blob["catalog_sha256"] == la.catalog_checksum()
    assert blob["config"]["command"] == "list"


def test_show_entry(capsys):
    code, out, _ = run(["show", "A49half"], capsys)
    assert code == 0 and "A4,9^{-1/2}" in out
    code, _, err = run(["show", "nonsense"], capsys)
    assert code == 2 and "error" in err


def test_curvature_report(capsys):
    code, out, _ = run(["curvature", "2A2", "--metric-params",
                        '{"a1":0,"a2":0,"a3":0,"a4":0,"a5":2}', "--json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["scalar_curvature"] == pytest.approx(-3.0, abs=1e-12)
    ric0 = np.array(blob["traceless_ricci"])
    assert np.abs(ric0 - np.diag([-0.25, -0.25, 0.5, 0.25])).max() < 1e-12
    # inadmissible metric is an input error
    code, _, err = run(["curvature", "2A2", "--metric-params",
                        '{"a1":0,"a2":0,"a3":0,"a4":0,"a5":0}'], capsys)
    assert code == 2


def test_verify_solution(sol_2a2, capsys):
    code, out, _ = run(["verify", str(sol_2a2), "--json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["classification"] == "NonEinsteinEM"
    assert blob["r_em"] <= 1e-12
    assert blob["hermitian"]["type"] == "Kahler"


def test_verify_perturbed_fails(sol_2a2, tmp_path, capsys):
    raw = json.loads(sol_2a2.read_text())
    raw["metric_params"]["a5"] = 2.1
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(raw))
    code, out, _ = run(["verify", str(bad)], capsys)
    assert code == 1
    assert "NotASolution" in out


def test_verify_malformed_input(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{this is not json")
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 2 and "error" in err
    # constraint-violating candidate is also an input error
    raw = {"entry": "2A2", "algebra_params": {}, "f_coeffs": [0, 0, 0, 0, 0, 1],
           "metric_params": {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": -3.0}}
    bad2 = tmp_path / "violates.json"
    bad2.write_text(json.dumps(raw))
    code, _, err = run(["verify", str(bad2)], capsys)
    assert code == 2


@pytest.mark.parametrize("orientation", [1.5, -1.9, 1.0, "1", "-1", True])
def test_verify_refuses_non_integer_orientation(sol_2a2, capsys, orientation):
    # A family point, so only the orientation can make it an input error.
    raw = json.loads(sol_2a2.read_text())
    raw["orientation"] = orientation
    sol_2a2.write_text(json.dumps(raw))
    code, out, err = run(["verify", str(sol_2a2)], capsys)
    assert code == 2 and "orientation" in err and not out


@pytest.mark.parametrize("field,raw", [("f_coeffs", "[0.5, 0.5, Infinity, 0.5, 0.5, 0.5]"),
                                       ("algebra_params", '{"a": 1e400}')])
def test_verify_nonfinite_input(tmp_path, capsys, field, raw):
    doc = {"entry": "A4,6^{a,0}", "algebra_params": {"a": 0.5}, "orientation": 1,
           "metric_params": {"a1": 0.1, "a2": 0.0, "a3": 1.0}, "f_coeffs": [0.5] * 6}
    doc[field] = "RAW"
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc).replace('"RAW"', raw))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2 and "finite" in err and not out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("metric_params", [{"a1": 1e200, "a2": 0, "a3": 1e200},
                                           {"a1": 1e160, "a2": 0, "a3": 1.0}])
def test_verify_overflowing_input(tmp_path, capsys, metric_params):
    # Finite and admissible, but the residuals overflow to inf/NaN.
    doc = {"entry": "A4,4", "algebra_params": {}, "metric_params": metric_params,
           "f_coeffs": [0.5] * 6, "orientation": 1}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path), "--json"], capsys)
    assert code == 2 and "not finite" in err and not out


_SCALES = st.sampled_from([1.0, 1.0, 1.0, 1e-300, 1e-20, 1e20, 1e100, 1e160, 1e200, 1e300])


@st.composite
def candidate_documents(draw):
    """Candidate documents near and far from admissible, at extreme scales."""
    entry = draw(st.sampled_from(la.catalog()))
    positive = set(entry.positive_metric_params)
    any_float = st.floats(allow_nan=False, allow_infinity=False)
    scale = draw(_SCALES)
    metric = {}
    for n in entry.metric_param_names:
        # A diagonally dominant metric at one common scale, with the odd
        # parameter replaced by an arbitrary finite float.
        near = st.floats(0.5, 3.0) if n in positive else st.floats(-0.1, 0.1)
        metric[n] = draw(st.one_of(near.map(lambda v: scale * v), near.map(lambda v: scale * v),
                                   near.map(lambda v: scale * v), any_float))
    algebra = {p.name: draw(st.just(p.sample) | any_float) for p in entry.params}
    f_scale = draw(_SCALES)
    f_coeffs = [f_scale * draw(st.floats(-1.0, 1.0)) for _ in range(6)]
    return {"entry": entry.name, "algebra_params": algebra, "metric_params": metric,
            "f_coeffs": f_coeffs, "orientation": draw(st.sampled_from([1, -1]))}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=candidate_documents())
def test_verify_reports_finite_residuals_or_refuses(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "candidate.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path), "--json"])
    if code == 2:
        assert not out.getvalue() and err.getvalue().startswith("error:")
        return
    assert code in (0, 1)
    blob = json.loads(out.getvalue())
    assert all(math.isfinite(blob[k]) for k in ("r_em", "r_dF", "r_dstarF", "scalar_curvature"))


def test_classify_on_zero_evidence_is_inconclusive(capsys, monkeypatch):
    def no_start(entry, rng, max_tries=600):
        raise ValueError(f"{entry.name}: empty feasible box")

    monkeypatch.setattr(solver, "sample_metric_params", no_start)
    code, out, _ = run(["classify", "--entries", "A4,4", "--seeds", "4", "--json"], capsys)
    assert code == 3
    row, = json.loads(out)["rows"]
    assert row["inconclusive"] and not row["agree"]


def test_verify_require_flag(sol_2a2, capsys):
    code, _, _ = run(["verify", str(sol_2a2), "--require", "NonEinsteinEM"], capsys)
    assert code == 0
    code, _, _ = run(["verify", str(sol_2a2), "--require", "EinsteinWithNullStress"], capsys)
    assert code == 1


def test_family_command(capsys):
    code, out, _ = run(["family", "A49half", "--orientation", "1"], capsys)
    assert code == 0 and "PASS" in out
    code, _, err = run(["family", "who"], capsys)
    assert code == 2


def test_nonpositive_tolerance_is_input_error(capsys):
    code, _, err = run(["search", "2A2", "--seeds", "2", "--tol", "-1"], capsys)
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("argv", [["search", "2A2", "--seeds", "2", "--jobs", "0"],
                                  ["classify", "--entries", "2A2", "--seeds", "2", "--jobs", "0"]])
def test_zero_jobs_is_input_error(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and "n_jobs" in err


def test_search_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, _, _ = run(["search", "2A2", "--seeds", "12", "--seed", "7", "--out", str(out1)], capsys)
    assert code == 0
    code, _, _ = run(["search", "2A2", "--seeds", "12", "--seed", "7", "--out", str(out2)], capsys)
    assert code == 0
    assert out1.read_text() == out2.read_text()
    blob = json.loads(out1.read_text())
    assert blob["config"]["seeds"] == 12 and blob["config"]["seed"] == 7
    assert blob["n_solutions"] >= 1


def test_classify_subset(capsys):
    code, out, _ = run(["classify", "--entries", "2A2", "A4,4", "--seeds", "25", "--json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["agree"] == blob["total"] == 2
    rows = {r["entry"]: r for r in blob["rows"]}
    assert rows["2A2"]["computed"] == "HasNonEinsteinEM"
    assert rows["A4,4"]["computed"] == "NoNonEinsteinEMFound"
    # the historical alias keeps working
    code, out, _ = run(["theorem1", "--entries", "abelian", "--seeds", "5", "--json"], capsys)
    assert code == 0 and json.loads(out)["agree"] == 1
