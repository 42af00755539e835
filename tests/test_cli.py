"""Exit codes, table shapes, and JSON contracts of the command-line surface."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemaxwell import cli, solver
from liemaxwell import lie_algebra as la
from liemaxwell import metric_geometry as mg
from liemaxwell.families import FAMILIES


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


def test_list_and_show_do_not_import_the_solver():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, json, sys\n"
            "from liemaxwell import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['list']), cli.main(['show', 'A4,4'])]\n"
            "print(json.dumps([codes, 'liemaxwell.solver' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(proc.stdout) == [[0, 0], False]


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


def test_show_prints_an_entry_note(capsys):
    entry = la.entry_by_name("A4,5^{a,b}")
    assert entry.notes  # the one catalog entry with a note
    code, out, _ = run(["show", entry.name], capsys)
    assert code == 0 and out.splitlines()[-1] == "  note: " + entry.notes


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


@pytest.mark.parametrize("entry,metric,algebra", [
    ("A4,4", '{"a1": 1e400, "a2": 0, "a3": 1}', None),
    ("A4,4", '{"a1": 1e200, "a2": 0, "a3": 1e200}', None),
    ("A4,4", '{"a1": null, "a2": 0, "a3": 1}', None),
    ("A4,6^{a,0}", '{"a1": 0.1, "a2": 0, "a3": 1}', '{"a": null}'),
    ("A4,6^{a,0}", '{"a1": 0.1, "a2": 0, "a3": 1}', '{"a": "0.5"}'),
])
def test_curvature_refuses_nonfinite_or_nonnumeric(capsys, entry, metric, algebra):
    argv = ["curvature", entry, "--metric-params", metric, "--json"]
    code, out, err = run(argv + (["--algebra-params", algebra] if algebra else []), capsys)
    assert code == 2 and err.startswith("error:") and "finite" in err and not out


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
                                       ("algebra_params", '{"a": 1e400}'),
                                       pytest.param("algebra_params", '{"a": 1' + '0' * 400 + '}',
                                                    id="algebra_params-huge-integer")])
def test_verify_nonfinite_input(tmp_path, capsys, field, raw):
    doc = {"entry": "A4,6^{a,0}", "algebra_params": {"a": 0.5}, "orientation": 1,
           "metric_params": {"a1": 0.1, "a2": 0.0, "a3": 1.0}, "f_coeffs": [0.5] * 6}
    doc[field] = "RAW"
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc).replace('"RAW"', raw))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2 and "finite" in err and not out


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
    doc = {"entry": entry.name, "algebra_params": algebra, "metric_params": metric,
           "f_coeffs": f_coeffs, "orientation": draw(st.sampled_from([1, -1]))}
    # Now and then one value has the wrong JSON type: a bool or a numeric
    # string for a number, or an entry that is not a string.
    where = draw(st.sampled_from(["", "", "", "entry", "algebra_params", "metric_params",
                                  "f_coeffs"]))
    odd = draw(st.sampled_from([True, False, "0", "1.5"]))
    if where == "entry":
        doc["entry"] = draw(st.sampled_from([5, None, [entry.name]]))
    elif where == "f_coeffs":
        f_coeffs[draw(st.integers(0, 5))] = odd
    elif where and doc[where]:
        doc[where][draw(st.sampled_from(sorted(doc[where])))] = odd
    return doc


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


@st.composite
def curvature_arguments(draw):
    """Entry, metric and algebra parameters near and far from admissible, at
    extreme scales, with the odd non-finite, null or string value."""
    entry = draw(st.sampled_from(la.catalog()))
    positive = set(entry.positive_metric_params)
    odd = st.one_of(st.floats(), st.none(), st.just("0.5"))
    scale = draw(_SCALES)
    metric = {}
    for n in entry.metric_param_names:
        near = (st.floats(0.5, 3.0) if n in positive else st.floats(-0.1, 0.1)).map(
            lambda v: scale * v)
        metric[n] = draw(st.one_of(near, near, near, odd))
    algebra = {p.name: draw(st.just(p.sample) | odd) for p in entry.params}
    return entry.name, metric, algebra


@settings(max_examples=150, deadline=None, derandomize=True)
@given(args=curvature_arguments())
def test_curvature_reports_finite_values_or_refuses(args):
    name, metric, algebra = args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["curvature", name, "--metric-params", json.dumps(metric),
                         "--algebra-params", json.dumps(algebra), "--json"])
    if code == 2:
        assert not out.getvalue() and err.getvalue().startswith("error:")
        return
    assert code == 0
    blob = json.loads(out.getvalue())
    values = [blob["scalar_curvature"], *np.ravel(blob["ricci"]), *np.ravel(blob["traceless_ricci"])]
    assert all(map(math.isfinite, values))


def test_nonfinite_report_is_refused(capsys, monkeypatch, tmp_path):
    # No JSON report carries NaN or Infinity: main refuses it with exit 2.
    verify_family = solver.verify_solution_family

    def nan_residual(*args, **kwargs):
        return dataclasses.replace(verify_family(*args, **kwargs), max_residual=float("nan"))

    monkeypatch.setattr(solver, "verify_solution_family", nan_residual)
    out_path = tmp_path / "report.json"
    code, out, err = run(["family", "2A2", "--json", "--out", str(out_path)], capsys)
    assert code == 2 and err.startswith("error:") and not out and not out_path.exists()


def test_unwritable_out_path_is_input_error(capsys, tmp_path):
    # A --out path that cannot be written is refused like any other option:
    # one error line, no report on stdout, exit 2 (not 1, "verification failure").
    for argv in (["list", "--out", str(tmp_path / "missing" / "x.json")],
                 ["show", "2A2", "--out", str(tmp_path)]):
        code, out, err = run(argv, capsys)
        assert code == 2 and not out, argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_classify_unknown_entry_is_input_error(capsys):
    code, out, err = run(["classify", "--entries", "nonexistent", "--seeds", "2"], capsys)
    assert code == 2 and err.startswith("error:") and not out


def test_classify_on_zero_evidence_is_inconclusive(capsys, monkeypatch):
    def no_start(entry, rngs):  # the sampler: no admissible draw
        return [None] * len(rngs)

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
    for orientation in ("1", "-1"):  # A49half is stated for both orientations
        code, out, _ = run(["family", "A49half", "--orientation", orientation], capsys)
        assert code == 0 and "PASS" in out
    code, _, err = run(["family", "who"], capsys)
    assert code == 2


def test_family_battery_reads_the_hermitian_block_of_verify(capsys, monkeypatch, tmp_path):
    # Each grid point's Hermitian type and rho0 in the family battery are
    # those of the hermitian block that verify reports for the point's
    # candidate, bit for bit, in every stated orientation; the battery's
    # rho0 error is read from them.
    blocks = []
    diagnostics = solver.hermitian_diagnostics
    monkeypatch.setattr(solver, "hermitian_diagnostics",
                        lambda *args: blocks.append(diagnostics(*args)) or blocks[-1])
    doc = tmp_path / "candidate.json"
    for fam in FAMILIES.values():
        for orientation in fam.orientations:
            blocks.clear()
            report = solver.verify_solution_family(fam.id, orientation)
            assert report.all_pass and len(blocks) == report.n_points == len(fam.default_grid)
            worst = 0.0
            for point, kind, block in zip(fam.default_grid, report.hermitian_types, blocks):
                cand = solver.family_candidate(fam, point, orientation)
                doc.write_text(json.dumps(cand.to_dict()))
                code, out, _ = run(["verify", str(doc), "--json"], capsys)
                hermitian = json.loads(out)["hermitian"]
                assert code == 0 and kind == hermitian["type"] == fam.expected_type(orientation)
                assert json.dumps(block["rho0"]) == json.dumps(hermitian["rho0"])
                err = np.abs(np.array(hermitian["rho0"]) - fam.expected_rho0(point, orientation))
                worst = max(worst, float(err.max()))
            assert report.max_rho0_error == worst, (fam.id, orientation)


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


def test_classify_table_is_the_same_with_a_pool(capsys):
    # 3 rows x 12 seeds fill two programs, so --jobs 2 runs both at once.
    argv = ["classify", "--entries", "2A2", "A4,4", "A4,5^{a,b}", "--seeds", "12", "--seed", "3",
            "--json"]
    serial = run(argv, capsys)
    assert run(argv + ["--jobs", "2"], capsys) == serial
    assert len(json.loads(serial[1])["rows"]) == 3


_SOLUTION_2A2 = {"entry": "2A2", "algebra_params": {},
                 "metric_params": {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 2.0},
                 "f_coeffs": [1.0, 0, 0, 0, 0, float(np.sqrt(3))], "orientation": 1}
# Finite and admissible, but its curvature and residuals overflow.
_OVERFLOW_A44 = {"entry": "A4,4", "algebra_params": {},
                 "metric_params": {"a1": 1e200, "a2": 0, "a3": 1e200},
                 "f_coeffs": [0.5] * 6, "orientation": 1}


def refusal(capsys, tmp_path, argv, doc=None):
    """Run argv, with DOC standing for a candidate file holding doc, and
    return stderr, checked to be one error line with exit 2 and no stdout."""
    if doc is not None:
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "DOC" else a for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    return err


_A22A1_POINT = {"entry": "A2+2A1", "algebra_params": {}, "metric_params": {"a1": 0.0, "a2": 0.0},
                "f_coeffs": [0, 0, 0, 0, 0, 1], "orientation": 1}
_A46_POINT = {"entry": "A4,6^{a,0}", "algebra_params": {"a": 1.0},
              "metric_params": {"a1": 0.0, "a2": 0.0, "a3": 1.0},
              "f_coeffs": [0, 0, 0, 1, 0, 0], "orientation": 1}


def test_an_inadmissible_candidate_is_refused_alike_everywhere(capsys, tmp_path):
    # One admission behind verify, curvature, refine and residual_vector:
    # each names the same failed constraints, in the same words.
    doc = {**_SOLUTION_2A2, "metric_params": {**_SOLUTION_2A2["metric_params"], "a5": 0.0}}
    cand = solver.Candidate.from_dict(doc)
    failures = mg.validate_metric(la.entry_by_name("2A2"), doc["metric_params"]).failures
    assert len(failures) == 2 and all("violated" in f for f in failures)
    want = "2A2: inadmissible metric: " + "; ".join(failures)
    got = [refusal(capsys, tmp_path, ["verify", "DOC"], doc),
           refusal(capsys, tmp_path, ["curvature", "2A2", "--metric-params",
                                      json.dumps(doc["metric_params"])])]
    assert got == [f"error: {want}\n"] * 2
    for path in (solver.refine, solver.residual_vector):
        with pytest.raises(solver.CandidateError) as exc:
            path(cand)
        assert str(exc.value) == want, path.__name__


@pytest.mark.parametrize("doc", [
    {**_A22A1_POINT, "f_coeffs": [0, 0, 0, 0, 0, True]},
    {**_A22A1_POINT, "f_coeffs": ["0", "0", "0", "0", "0", "1"]},
    {**_A46_POINT, "algebra_params": {"a": True}},
    {**_SOLUTION_2A2, "metric_params": {**_SOLUTION_2A2["metric_params"], "a1": False}},
    {**_SOLUTION_2A2, "metric_params": list(map(list, _SOLUTION_2A2["metric_params"].items()))},
    {**_SOLUTION_2A2, "entry": 5},
    {**_SOLUTION_2A2, "entry": ["2A2"]},
], ids=["f-true", "f-strings", "algebra-true", "metric-false", "metric-pairs", "entry-int",
        "entry-list"])
def test_verify_refuses_values_of_the_wrong_json_type(capsys, tmp_path, doc):
    # Each of these was converted (exit 0 or 1) or crashed before the
    # document's JSON types were checked.
    refusal(capsys, tmp_path, ["verify", "DOC"], doc)


#: For each command that took --tol: a valid invocation, and the function
#: that does its work.
_TOL_COMMANDS = {
    "curvature": (["curvature", "2A2", "--metric-params",
                   json.dumps(_SOLUTION_2A2["metric_params"])], (cli, "curvature_summary")),
    "verify": (["verify", "DOC"], (solver, "verify_candidate")),
    "family": (["family", "2A2"], (solver, "verify_solution_family")),
    "search": (["search", "2A2", "--seeds", "2"], (solver, "multistart_search")),
}


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(_TOL_COMMANDS))
def test_bad_tolerance_is_refused_before_any_work(capsys, monkeypatch, tmp_path, command, tol):
    # The tolerances are constants of the method: the values --tol once
    # refused, like any other, now meet an unknown option.
    argv, (module, work) = _TOL_COMMANDS[command]

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(module, work, must_not_run)
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(_SOLUTION_2A2))
    argv = [str(path) if a == "DOC" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


_UNKNOWN_ENTRY = "error: no catalog entry named 'zz'\n"
#: A finite algebra parameter whose bracket coefficient 2a overflows.
_OVERFLOW_A411 = {"entry": "A4,11^a", "algebra_params": {"a": 1e308},
                  "metric_params": {"a1": 1.0, "a2": 1.0, "a3": 0.0, "a4": 0.0},
                  "f_coeffs": [0, 0, 0, 1, 0, 0], "orientation": 1}
_BRACKET_OVERFLOW = "error: A4,11^a: structure constants beyond the float range\n"


@pytest.mark.parametrize("argv,doc,message", [
    (["show", "zz"], None, _UNKNOWN_ENTRY),
    (["curvature", "zz", "--metric-params", "{}"], None, _UNKNOWN_ENTRY),
    (["search", "zz", "--seeds", "2"], None, _UNKNOWN_ENTRY),
    (["classify", "--entries", "2A2", "zz", "--seeds", "2"], None, _UNKNOWN_ENTRY),
    (["verify", "DOC"], {**_SOLUTION_2A2, "entry": "zz"}, _UNKNOWN_ENTRY),
    (["family", "zz"], None, "error: unknown family 'zz'; known: "),
    (["family", "2A2", "--orientation", "-1"], None,
     "error: family 2A2 is stated for orientation +1 only, not -1\n"),
    (["verify", "DOC", "--json"], _OVERFLOW_A44, "error: residuals are not finite"),
    (["curvature", "A4,4", "--metric-params", json.dumps(_OVERFLOW_A44["metric_params"]),
      "--json"], None, "error: curvature is not finite"),
    (["verify", "DOC", "--json"], _OVERFLOW_A411, _BRACKET_OVERFLOW),
    (["curvature", "A4,11^a", "--algebra-params", json.dumps(_OVERFLOW_A411["algebra_params"]),
      "--metric-params", json.dumps(_OVERFLOW_A411["metric_params"])], None, _BRACKET_OVERFLOW),
    (["search", "2A2", "--seeds", "-1"], None, "error: --seed and --seeds must be nonnegative"),
    (["classify", "--seed", "-1"], None, "error: --seed and --seeds must be nonnegative"),
    # solver.MODES is the one list of modes: the search refuses the others.
    (["search", "A4,4", "--mode", "bogus"], None, "error: unknown mode 'bogus'\n"),
], ids=["show", "curvature", "search", "classify", "verify", "family", "family-orientation",
        "verify-overflow", "curvature-overflow", "verify-bracket-overflow",
        "curvature-bracket-overflow", "search-negative-seeds",
        "classify-negative-seed", "search-unknown-mode"])
def test_refusal_is_one_error_line(capsys, tmp_path, argv, doc, message):
    assert refusal(capsys, tmp_path, argv, doc).startswith(message)


@pytest.mark.parametrize("argv", [
    ["list", "--tol", "1e-9"],
    ["show", "2A2", "--tol", "1e-9"],
    ["classify", "--entries", "2A2", "--tol", "1e-9"],
    ["search", "2A2", "--orientation", "-1"],  # the search takes no orientation
    # No command takes a tolerance: each is a constant of the method.
    ["curvature", "2A2", "--metric-params", json.dumps(_SOLUTION_2A2["metric_params"]),
     "--tol", "1e-9"],
    ["verify", "candidate.json", "--tol", "1e-9"],
    ["family", "2A2", "--tol", "1e-9"],
    ["search", "2A2", "--seeds", "2", "--tol", "1e-9"],
])
def test_tolerance_is_not_an_option_where_unused(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_report_config_records_the_tolerance_used(capsys, tmp_path):
    code, out, _ = run(["family", "2A2", "--json"], capsys)
    assert code == 0 and json.loads(out)["config"]["tol"] == 1e-10
    code, out, _ = run(["search", "2A2", "--seeds", "2", "--json"], capsys)
    config = json.loads(out)["config"]
    assert code == 0 and config["tol"] == 1e-9 and "output_format" not in config
    doc = tmp_path / "candidate.json"
    doc.write_text(json.dumps(_SOLUTION_2A2))
    code, out, _ = run(["verify", str(doc), "--json"], capsys)
    assert code == 0 and json.loads(out)["config"]["tol"] == 1e-9
    code, out, _ = run(["curvature", "2A2", "--metric-params",
                        json.dumps(_SOLUTION_2A2["metric_params"]), "--json"], capsys)
    assert code == 0 and json.loads(out)["config"]["tol"] == 1e-9
