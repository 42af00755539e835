"""Drift check: do two source trees give the same search results?

Writes, as JSON lines, the 468-run drift set (every catalog entry x
{unit_F, free_F} x seeds 1024*101..1024*103 x {2, 8, 32} seeds, one
``multistart_search`` report each), the ``classify --json`` table at
``--seeds 8`` for the same three seeds, the whole table at ``--seeds 200
--seed 0`` serial and with ``--jobs 2``, one ``refine`` record per family
grid point and orientation (refined from the point with F scaled by
``REFINE_SCALE``: candidate, iterations, stop reason, residual evaluations
and largest residual), and CLI records, each the parsed stdout (None when
empty) and the exit code of one ``main`` call: ``family <id> --json`` and
``verify --json`` at every family grid point, both in orientations +1 and
-1, ``curvature <entry> --json`` at every family grid point, and ``verify``
of one inadmissible document; then compares two such files::

    PYTHONPATH=src python3 tests/drift.py write before.jsonl
    PYTHONPATH=src python3 tests/drift.py write after.jsonl
    python3 tests/drift.py compare before.jsonl after.jsonl [KEY ...]

The comparison counts the reports that are byte-identical, those whose
ledgers (seed counts and stop reasons; a refinement's iterations, stop
reason and evaluations; a CLI record's exit code) are identical, those
whose verdicts (solution classes, a classify row's verdict, a refinement's
stop reason, a family's ``all_pass`` and classifications, a verify
classification, a curvature report's ``einstein``) are identical, and gives
the largest relative change of a closest miss.
It names every report that is not byte-identical, each with the first
field in which they differ.  Either file's 200-seed table must equal between
its serial and its ``--jobs 2`` run.  Without KEYs it exits 1 when that
fails or when any ledger or verdict differs, else 0.  Each KEY names a report
expected to differ, as a ``differs:`` line prints it (a JSON list such as
``'["family", "2A2", -1]'``); then it exits 0 exactly when the reports that
are not byte-identical are those named and the 200-seed tables agree.

``verify-write`` records the stdout, stderr and exit code of ``verify
--json`` on every document of the benchmark's ``verify`` workload at seed
``VERIFY_SEED`` (the documents come from this script's own tree, the
package from ``PYTHONPATH``, so one copy of the script serves two trees);
``verify-compare`` exits 1 naming the first document whose record differs::

    (cd BASE && PYTHONPATH=src python3 CHANGE/tests/drift.py verify-write before.jsonl)
    PYTHONPATH=src python3 tests/drift.py verify-write after.jsonl
    python3 tests/drift.py verify-compare before.jsonl after.jsonl

``against REF [DIR]`` does all of that in one command: it checks out the
commit REF in a temporary ``git worktree``, writes REF's drift set with
REF's own ``write`` and this tree's set, then both trees' verify records
with this script's ``verify-write``, each run with ``PYTHONPATH`` at its
tree's ``src``.  It removes the worktree, runs ``compare`` (no KEYs) and
``verify-compare``, and exits 1 when either fails.  The four files stay in
DIR (a new temporary directory when DIR is not given) as ``base.jsonl``,
``change.jsonl``, ``base-verify.jsonl`` and ``change-verify.jsonl``::

    python3 tests/drift.py against HEAD~1 records/

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = [1024 * k for k in (101, 102, 103)]
SIZES = [2, 8, 32]
MODES = ["unit_F", "free_F"]
CLASSIFY_SEEDS = 8
#: The whole verdict table, serial and with a pool: byte-identical by contract.
TABLE_SEEDS, TABLE_JOBS = 200, (1, 2)
REFINE_SCALE = 1.05
LEDGER = ("seeds_used", "seeds_sampled", "seeds_refined", "stop_reasons",
          "iterations", "reason", "n_evals", "exit")
MISSES = ("best_nonsolution_residual", "best_free_nonsolution_residual")
ORIENTATIONS = [1, -1]
#: 2A2 at a5 = 0, outside two of its constraint polynomials.
INADMISSIBLE = {"entry": "2A2", "metric_params": {"a1": 0.0, "a2": 0.0, "a3": 0.0, "a4": 0.0,
                                                   "a5": 0.0},
                "f_coeffs": [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]}
#: Seed of the benchmark's ``verify`` documents: 1,034 of them.
VERIFY_SEED = 3


def _run_cli(argv: list[str]) -> dict:
    """Parsed stdout (None when empty) and exit code of one ``cli.main`` call;
    stderr is dropped."""
    from liemaxwell import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"stdout": json.loads(out.getvalue()) if out.getvalue() else None, "exit": code}


def write(path: str) -> None:
    from liemaxwell import cli, lie_algebra, solver
    from liemaxwell.families import FAMILIES

    with open(path, "w") as fh:
        for entry in lie_algebra.catalog():
            for mode in MODES:
                for seed in SEEDS:
                    for n_seeds in SIZES:
                        out = solver.multistart_search(entry, n_seeds=n_seeds, seed=seed,
                                                       mode=mode)
                        key = ["search", entry.name, mode, seed, n_seeds]
                        fh.write(json.dumps({"key": key, "report": out.to_dict()}) + "\n")
        tables = [(seed, CLASSIFY_SEEDS, 1) for seed in SEEDS]
        tables += [(0, TABLE_SEEDS, jobs) for jobs in TABLE_JOBS]
        for seed, n_seeds, jobs in tables:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                cli.main(["classify", "--seeds", str(n_seeds), "--seed", str(seed),
                          "--jobs", str(jobs), "--json"])
            key = ["classify", seed, n_seeds, jobs]
            fh.write(json.dumps({"key": key, "report": json.loads(text.getvalue())}) + "\n")
        for fam in FAMILIES.values():
            for point_index, point in enumerate(fam.default_grid):
                for orientation in fam.orientations:
                    start = solver.family_candidate(fam, point, orientation)
                    start.f_coeffs = start.f_coeffs * REFINE_SCALE
                    res = solver.refine(start)
                    report = {"candidate": res.candidate.to_dict(), "iterations": res.iterations,
                              "reason": res.reason, "n_evals": res.n_evals,
                              "max_residual": res.max_residual}
                    key = ["refine", fam.id, point_index, orientation]
                    fh.write(json.dumps({"key": key, "report": report}) + "\n")
        with tempfile.TemporaryDirectory() as tmp:
            doc = Path(tmp) / "candidate.json"
            for fam in FAMILIES.values():
                for orientation in ORIENTATIONS:
                    report = _run_cli(["family", fam.id, "--orientation", str(orientation),
                                       "--json"])
                    fh.write(json.dumps({"key": ["family", fam.id, orientation],
                                         "report": report}) + "\n")
                    for point_index, point in enumerate(fam.default_grid):
                        cand = solver.family_candidate(fam, point, orientation)
                        doc.write_text(json.dumps(cand.to_dict()))
                        key = ["verify", fam.id, point_index, orientation]
                        fh.write(json.dumps({"key": key,
                                             "report": _run_cli(["verify", str(doc), "--json"])})
                                 + "\n")
                for point_index, point in enumerate(fam.default_grid):
                    cand = solver.family_candidate(fam, point)
                    argv = ["curvature", fam.entry_name, "--metric-params",
                            json.dumps(cand.metric_params), "--json"]
                    if cand.algebra_params:
                        argv += ["--algebra-params", json.dumps(cand.algebra_params)]
                    fh.write(json.dumps({"key": ["curvature", fam.id, point_index],
                                         "report": _run_cli(argv)}) + "\n")
            doc.write_text(json.dumps(INADMISSIBLE))
            fh.write(json.dumps({"key": ["verify", "inadmissible"],
                                 "report": _run_cli(["verify", str(doc), "--json"])}) + "\n")


def _load(path: str) -> dict:
    with open(path) as fh:
        return {json.dumps(rec["key"]): rec["report"] for rec in map(json.loads, fh)}


def _parts(report: dict) -> list[dict]:
    """The search report itself, or each row of a classify table."""
    return report["rows"] if "rows" in report else [report]


def _verdict(part: dict):
    if "exit" in part:  # a CLI record
        doc = part["stdout"] or {}
        return (doc.get("all_pass"), doc.get("classifications"), doc.get("classification"),
                doc.get("einstein"))
    if "computed" in part:
        return part["computed"], part["agree"], part["inconclusive"], part["n_non_einstein"]
    if "reason" in part:  # a refinement
        return part["reason"]
    return sorted(s["report"]["classification"] for s in part["solutions"])


def first_difference(a, b, path: str = "") -> str | None:
    """Where two parsed JSON values first differ, in sorted key order, as a
    path like ``rows[3].best_nonsolution_residual``; None if they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for name in sorted(a.keys() | b.keys()):
            inner = f"{path}.{name}" if path else name
            if name not in a or name not in b:
                return inner
            where = first_difference(a[name], b[name], inner)
            if where:
                return where
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            where = first_difference(x, y, f"{path}[{i}]")
            if where:
                return where
        return None if len(a) == len(b) else f"{path} (length {len(a)} vs {len(b)})"
    return None if json.dumps(a) == json.dumps(b) else path or "(whole report)"


def compare(path_a: str, path_b: str, expected: list[str] | None = None) -> bool:
    """Print the counts.  Without ``expected`` keys: whether every ledger and
    every verdict is identical; with them: whether exactly those reports
    differ.  Either way the 200-seed tables must agree serial and pooled."""
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        sys.exit(f"the files hold different runs: {len(a)} and {len(b)} keys")
    if expected is not None:
        try:
            expected = [json.dumps(json.loads(key)) for key in expected]
        except json.JSONDecodeError as exc:
            sys.exit(f"a KEY is not JSON: {exc}")
        unknown = [key for key in expected if key not in a]
        if unknown:
            sys.exit(f"no report has the key {unknown[0]}")
    same_bytes = same_ledger = same_verdict = 0
    worst, where = 0.0, None
    differing = []
    for key in a:
        ra, rb = a[key], b[key]
        if json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True):
            same_bytes += 1
        else:
            differing.append((key, first_difference(ra, rb)))
        pa, pb = _parts(ra), _parts(rb)
        same_ledger += all(all(x.get(f) == y.get(f) for f in LEDGER) for x, y in zip(pa, pb))
        same_verdict += all(_verdict(x) == _verdict(y) for x, y in zip(pa, pb))
        for x, y in zip(pa, pb):
            for name in MISSES:
                mx, my = x.get(name), y.get(name)
                if mx is None or my is None:
                    change = 0.0 if mx == my else float("inf")
                else:
                    change = abs(mx - my) / max(abs(mx), abs(my), 1e-300)
                if change > worst:
                    worst, where = change, (key, x.get("entry"), name)
    print(f"reports: {len(a)}")
    print(f"byte-identical: {same_bytes}")
    for key, field in differing:
        print(f"  differs: {key} at {field}")
    print(f"identical ledgers: {same_ledger}")
    print(f"identical verdicts: {same_verdict}")
    print(f"largest relative change of a closest miss: {worst:.3g}"
          + (f" at {where}" if where else ""))
    pooled_same = True
    for path, reports in ((path_a, a), (path_b, b)):
        serial, pooled = (reports[json.dumps(["classify", 0, TABLE_SEEDS, jobs])]
                          for jobs in TABLE_JOBS)
        if serial != pooled:
            pooled_same = False
            print(f"{path}: the {TABLE_SEEDS}-seed table differs between --jobs "
                  f"{TABLE_JOBS[0]} and --jobs {TABLE_JOBS[1]}")
    if expected is None:
        return same_ledger == same_verdict == len(a) and pooled_same
    unexpected = sorted({key for key, _ in differing} ^ set(expected))
    for key in unexpected:
        print(f"  {'differs' if key not in expected else 'identical'} unexpectedly: {key}")
    return not unexpected and pooled_same


def write_verify(path: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from workloads import Verify

    from liemaxwell import cli

    with tempfile.TemporaryDirectory() as tmp, open(path, "w") as fh:
        for doc, _, kind in Verify(VERIFY_SEED, Path(tmp)).docs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", str(doc), "--json"])
            fh.write(json.dumps({"doc": f"{doc.name} ({kind})", "stdout": out.getvalue(),
                                 "stderr": err.getvalue(), "exit": code}) + "\n")


def compare_verify(path_a: str, path_b: str) -> bool:
    """Whether two ``verify-write`` files hold the same records; else the
    first document that differs is printed."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = fa.readlines(), fb.readlines()
    for line_a, line_b in zip(a, b):
        if line_a != line_b:
            print(f"differs: {json.loads(line_a)['doc']}")
            return False
    if len(a) != len(b):
        print(f"the files hold {len(a)} and {len(b)} documents")
        return False
    print(f"verify documents: {len(a)}, all identical")
    return True


def _run_in(tree: Path, script: Path, command: str, path: Path) -> None:
    """``script command path`` with the package of ``tree``: cwd and the
    front of ``PYTHONPATH`` at that tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(script), command, str(path)], cwd=tree, env=env,
                   check=True)


def against(ref: str, out_dir: str | None = None) -> bool:
    """Write the drift set and the verify records of commit ``ref`` and of
    this tree into ``out_dir`` and compare them; whether both comparisons
    pass."""
    here = Path(__file__).resolve()
    root = here.parents[1]
    out = Path(out_dir or tempfile.mkdtemp(prefix="drift-")).resolve()
    out.mkdir(parents=True, exist_ok=True)
    files = {name: out / f"{name}.jsonl"
             for name in ("base", "change", "base-verify", "change-verify")}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(root), "worktree", "add", "--detach", str(base), ref],
                       check=True)
        try:
            _run_in(base, base / "tests" / "drift.py", "write", files["base"])
            _run_in(base, here, "verify-write", files["base-verify"])
        finally:
            subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(base)],
                           check=True)
    _run_in(root, here, "write", files["change"])
    _run_in(root, here, "verify-write", files["change-verify"])
    print(f"records: {out}")
    same = compare(str(files["base"]), str(files["change"]))
    return compare_verify(str(files["base-verify"]), str(files["change-verify"])) and same


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "verify-write":
        write_verify(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "verify-compare":
        sys.exit(0 if compare_verify(sys.argv[2], sys.argv[3]) else 1)
    elif len(sys.argv) >= 4 and sys.argv[1] == "compare":
        keys = sys.argv[4:] or None
        sys.exit(0 if compare(sys.argv[2], sys.argv[3], keys) else 1)
    elif len(sys.argv) in (3, 4) and sys.argv[1] == "against":
        sys.exit(0 if against(*sys.argv[2:]) else 1)
    else:
        sys.exit(__doc__)
