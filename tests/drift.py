"""Drift check: do two source trees give the same search results?

Writes, as JSON lines, the 468-run drift set (every catalog entry x
{unit_F, free_F} x seeds 1024*101..1024*103 x {2, 8, 32} seeds, one
``multistart_search`` report each) and the ``classify --json`` table at
``--seeds 8`` for the same three seeds; then compares two such files::

    PYTHONPATH=src python3 tests/drift.py write before.jsonl
    PYTHONPATH=src python3 tests/drift.py write after.jsonl
    python3 tests/drift.py compare before.jsonl after.jsonl

The comparison counts the reports that are byte-identical, those whose
ledgers (seed counts and stop reasons) are identical, those whose verdicts
are identical, and gives the largest relative change of a closest miss.
It exits 1 when any ledger or verdict differs, else 0.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

SEEDS = [1024 * k for k in (101, 102, 103)]
SIZES = [2, 8, 32]
MODES = ["unit_F", "free_F"]
CLASSIFY_SEEDS = 8
LEDGER = ("seeds_used", "seeds_sampled", "seeds_refined", "stop_reasons")
MISSES = ("best_nonsolution_residual", "best_free_nonsolution_residual")


def write(path: str) -> None:
    from liemaxwell import cli, lie_algebra, solver

    with open(path, "w") as fh:
        for entry in lie_algebra.catalog():
            for mode in MODES:
                for seed in SEEDS:
                    for n_seeds in SIZES:
                        out = solver.multistart_search(entry, n_seeds=n_seeds, seed=seed,
                                                       mode=mode)
                        key = ["search", entry.name, mode, seed, n_seeds]
                        fh.write(json.dumps({"key": key, "report": out.to_dict()}) + "\n")
        for seed in SEEDS:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                cli.main(["classify", "--seeds", str(CLASSIFY_SEEDS), "--seed", str(seed),
                          "--json"])
            key = ["classify", seed, CLASSIFY_SEEDS]
            fh.write(json.dumps({"key": key, "report": json.loads(text.getvalue())}) + "\n")


def _load(path: str) -> dict:
    with open(path) as fh:
        return {json.dumps(rec["key"]): rec["report"] for rec in map(json.loads, fh)}


def _parts(report: dict) -> list[dict]:
    """The search report itself, or each row of a classify table."""
    return report["rows"] if "rows" in report else [report]


def _verdict(part: dict):
    if "computed" in part:
        return part["computed"], part["agree"], part["inconclusive"], part["n_non_einstein"]
    return sorted(s["report"]["classification"] for s in part["solutions"])


def compare(path_a: str, path_b: str) -> bool:
    """Print the counts; whether every ledger and every verdict is identical."""
    a, b = _load(path_a), _load(path_b)
    if a.keys() != b.keys():
        sys.exit(f"the files hold different runs: {len(a)} and {len(b)} keys")
    same_bytes = same_ledger = same_verdict = 0
    worst, where = 0.0, None
    for key in a:
        ra, rb = a[key], b[key]
        same_bytes += json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
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
    print(f"identical ledgers: {same_ledger}")
    print(f"identical verdicts: {same_verdict}")
    print(f"largest relative change of a closest miss: {worst:.3g}"
          + (f" at {where}" if where else ""))
    return same_ledger == same_verdict == len(a)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(0 if compare(sys.argv[2], sys.argv[3]) else 1)
    else:
        sys.exit(__doc__)
