"""``drift.py compare``: which differences it accepts, with and without KEYs."""

import json

import pytest

import drift

SEARCH = ["search", "2A2", "unit_F", 1, 2]
FAMILY = ["family", "2A2", -1]
TABLES = [["classify", 0, drift.TABLE_SEEDS, jobs] for jobs in drift.TABLE_JOBS]


def _write(path, family_exit=2, miss=0.5, pooled_agree=True):
    records = [(SEARCH, {"seeds_used": 2, "solutions": [], "best_nonsolution_residual": miss}),
               (FAMILY, {"stdout": None, "exit": family_exit})]
    for key in TABLES:
        row = {"entry": "2A2", "computed": "HasNonEinsteinEM", "agree": True,
               "inconclusive": False, "n_non_einstein": 1}
        if key[-1] != 1 and not pooled_agree:
            row = dict(row, agree=False)
        records.append((key, {"rows": [row]}))
    path.write_text("".join(json.dumps({"key": k, "report": r}) + "\n" for k, r in records))
    return str(path)


@pytest.fixture
def parent(tmp_path):
    return _write(tmp_path / "parent.jsonl")


def test_no_keys_exits_on_ledgers_and_verdicts_only(tmp_path, parent):
    assert drift.compare(parent, _write(tmp_path / "same.jsonl"))
    assert drift.compare(parent, _write(tmp_path / "miss.jsonl", miss=0.6))
    assert not drift.compare(parent, _write(tmp_path / "exit.jsonl", family_exit=1))
    assert not drift.compare(parent, _write(tmp_path / "pool.jsonl", pooled_agree=False))


def test_keys_name_exactly_the_records_that_differ(tmp_path, parent, capsys):
    both = _write(tmp_path / "both.jsonl", family_exit=1, miss=0.6)
    assert drift.compare(parent, both, [json.dumps(FAMILY), json.dumps(SEARCH)])
    out = capsys.readouterr().out
    assert f"differs: {json.dumps(FAMILY)} at exit" in out
    assert f"differs: {json.dumps(SEARCH)} at best_nonsolution_residual" in out
    assert not drift.compare(parent, both, [json.dumps(FAMILY)])  # the search differs too
    assert "differs unexpectedly" in capsys.readouterr().out
    same = _write(tmp_path / "same.jsonl")
    assert not drift.compare(parent, same, ['["family","2A2",-1]'])  # it does not differ
    assert "identical unexpectedly" in capsys.readouterr().out
    pooled = _write(tmp_path / "pool.jsonl", pooled_agree=False)
    assert not drift.compare(parent, pooled, [json.dumps(TABLES[1])])
    with pytest.raises(SystemExit, match="no report has the key"):
        drift.compare(parent, same, ['["nope"]'])


def test_verify_compare_names_the_first_document_that_differs(tmp_path, capsys):
    def records(path, exits):
        path.write_text("".join(json.dumps({"doc": f"candidate{k:05d}.json (random draw)",
                                            "stdout": "", "stderr": "", "exit": code}) + "\n"
                                for k, code in enumerate(exits)))
        return str(path)

    parent = records(tmp_path / "parent.jsonl", [1, 1, 2])
    assert drift.compare_verify(parent, records(tmp_path / "same.jsonl", [1, 1, 2]))
    assert "verify documents: 3, all identical" in capsys.readouterr().out
    assert not drift.compare_verify(parent, records(tmp_path / "exit.jsonl", [1, 2, 1]))
    assert capsys.readouterr().out == "differs: candidate00001.json (random draw)\n"
    assert not drift.compare_verify(parent, records(tmp_path / "short.jsonl", [1, 1]))
    assert "the files hold 3 and 2 documents" in capsys.readouterr().out
