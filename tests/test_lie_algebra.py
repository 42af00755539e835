"""Brackets, Jacobi, the invariant differential, and the catalog document."""

import json
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from liemaxwell import lie_algebra as la
from liemaxwell._expr import eval_expr
from liemaxwell.families import FAMILIES, family_by_id

E = np.eye(4)


def test_bracket_2a2():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    assert np.allclose(la.bracket(L, E[0], E[1]), E[1])
    assert np.allclose(la.bracket(L, E[2], E[3]), E[3])


def test_bracket_antisymmetry_random():
    rng = np.random.default_rng(0)
    for entry in la.catalog():
        L = la.instantiate(entry, entry.sample_params(), check_range=False)
        x = rng.normal(size=4)
        assert np.abs(la.bracket(L, x, x)).max() < 1e-14
        y = rng.normal(size=4)
        assert np.allclose(la.bracket(L, x, y), -la.bracket(L, y, x))


def test_bracket_a49half():
    L = la.instantiate(la.entry_by_name("A49half"), {})
    assert np.allclose(la.bracket(L, E[2], E[3]), -0.5 * E[2])
    assert np.allclose(la.bracket(L, E[1], E[2]), E[0])


def test_jacobi_valid_algebras():
    for name in ("2A2", "A4,7"):
        L = la.instantiate(la.entry_by_name(name), {})
        assert la.jacobi_defect(L) == 0


def test_jacobi_corrupted_constants():
    # c^1_23 = c^2_13 = c^3_12 = c^1_24 = 1, the rest zero.
    brackets = {(2, 3): {1: 1.0}, (1, 3): {2: 1.0}, (1, 2): {3: 1.0}, (2, 4): {1: 1.0}}
    L = la.from_brackets("corrupted", brackets)
    defect = la.jacobi_defect(L)
    assert defect == pytest.approx(orc.jacobi_brute(np.asarray(L.c, dtype=float)), abs=1e-15)
    assert defect == pytest.approx(1.0, abs=1e-15)  # frozen from the brute-force oracle


def test_jacobi_exact_mode():
    L = la.instantiate(la.entry_by_name("A49half"), {}, exact=True)
    defect = la.jacobi_defect(L)
    assert isinstance(defect, Fraction) and defect == 0


def test_unimodularity():
    assert la.is_unimodular(la.instantiate(la.entry_by_name("2A2"), {})) is False
    assert la.is_unimodular(la.instantiate(la.entry_by_name("abelian"), {})) is True
    assert la.is_unimodular(la.instantiate(la.entry_by_name("A3,9+A1"), {})) is True


def test_d_one_form_2a2():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    d_e2 = la.d_one_form(L, E[1])
    assert np.allclose(d_e2, [-1, 0, 0, 0, 0, 0])  # -e^12
    assert np.abs(la.d_one_form(L, E[0])).max() == 0


def test_d_one_form_a49half():
    L = la.instantiate(la.entry_by_name("A49half"), {})
    d_e1 = la.d_one_form(L, E[0])
    # -e^23 - (1/2) e^14
    assert np.allclose(d_e1, [0, 0, -0.5, -1.0, 0, 0])


def test_d_two_form_fixtures():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    d_e14 = la.d_two_form(L, np.array([0, 0, 1.0, 0, 0, 0]))
    assert np.allclose(d_e14, [0, 0, 1.0, 0])  # e^134
    rng = np.random.default_rng(1)
    for _ in range(20):
        a12, a13, a34 = rng.normal(size=3)
        closed = np.array([a12, a13, 0, 0, 0, a34])
        assert np.abs(la.d_two_form(L, closed)).max() < 1e-15
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(la.d_two_form(ab, rng.normal(size=6))).max() == 0


def test_d_two_form_matches_leibniz_oracle():
    rng = np.random.default_rng(2)
    for entry in la.catalog():
        L = la.instantiate(entry, entry.sample_params(), check_range=False)
        a6 = rng.normal(size=6)
        got = la.d_two_form(L, a6)
        want = orc.d_two_form_leibniz(np.asarray(L.c, dtype=float), a6)
        assert np.abs(got - want).max() < 1e-12


def test_d_squared_zero_all_entries():
    for entry in la.catalog():
        L = la.instantiate(entry, entry.sample_params(), check_range=False)
        for i in range(4):
            dd = la.d_two_form(L, la.d_one_form(L, E[i]))
            assert np.abs(dd).max() < 1e-14, entry.name


# Kernel dimensions of dF = 0 as stated entry by entry in the source analysis.
CLOSED_DIMS = {
    "2A2": 3, "A2+2A1": 4, "A4,1": 4, "A4,2^p": 3, "A4,3": 4, "A4,4": 3,
    "A4,5^{a,b}": 3, "A4,6^{a,0}": 4, "A4,6^{a,b}": 3, "A4,7": 3, "A4,8": 3,
    "A4,9^b": 3, "A4,9^{-1/2}": 4, "A4,10": 3, "A4,11^a": 3, "A4,12": 3,
    "A3,1+A1": 5, "A3,2+A1": 3, "A3,3+A1": 3, "A3,4+A1": 4, "A3,5+A1": 3,
    "A3,6+A1": 4, "A3,7+A1": 3, "A3,8+A1": 3, "A3,9+A1": 3, "abelian": 6,
}


def test_closedness_kernel_dimensions():
    for entry in la.catalog():
        L = la.instantiate(entry, entry.sample_params(), check_range=False)
        system = la.closedness_constraints(L)
        assert system.dim == CLOSED_DIMS[entry.name], entry.name


def test_closedness_2a2_kernel():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    system = la.closedness_constraints(L)
    assert system.free_pairs == ("12", "13", "34")
    for v in system.kernel:
        assert np.abs(la.d_two_form(L, np.asarray(v, dtype=float))).max() < 1e-15


def test_closedness_a49b_relation():
    b = 0.3
    L = la.instantiate(la.entry_by_name("A4,9^b"), {"b": b})
    system = la.closedness_constraints(L)
    vec = next(np.asarray(v, dtype=float) for v, lbl in zip(system.kernel, system.free_pairs)
               if lbl == "23")
    # a14 = (1+b) a23 with a12 = a13 = 0
    assert vec[0] == 0 and vec[1] == 0
    assert vec[2] == pytest.approx(1 + b)
    assert vec[3] == 1.0


def test_closedness_abelian_full():
    L = la.instantiate(la.entry_by_name("abelian"), {})
    assert la.closedness_constraints(L).dim == 6


def test_closedness_exact_mode():
    L = la.instantiate(la.entry_by_name("A4,9^b"), {"b": Fraction(1, 4)}, exact=True)
    system = la.closedness_constraints(L)
    assert system.dim == 3
    vec = next(v for v, lbl in zip(system.kernel, system.free_pairs) if lbl == "23")
    assert vec[2] == Fraction(5, 4)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_catalog_count_and_verdicts(cat):
    assert len(cat) == 26
    has = [e.name for e in cat if e.verdict == "HasNonEinsteinEM"]
    assert sorted(has) == sorted(["2A2", "A2+2A1", "A4,6^{a,0}", "A4,9^{-1/2}"])
    assert la.entry_by_name("2A2").verdict == "HasNonEinsteinEM"
    assert la.entry_by_name("A4,4").verdict == "NoSolution"
    assert la.entry_by_name("abelian").verdict == "Flat"


def test_catalog_checksum_is_valid():
    doc = json.loads(la._catalog_text())
    assert doc["sha256"] == la.catalog_checksum(doc)


def test_packaged_checksum_is_cached(monkeypatch):
    doc = json.loads(la._catalog_text())
    la.catalog()
    monkeypatch.setattr(la, "_catalog_text", lambda: pytest.fail("catalog read again"))
    assert la.catalog_checksum() == la.catalog_checksum(doc) == doc["sha256"]


def test_catalog_rejects_tampering(tmp_path):
    doc = json.loads(la._catalog_text())
    doc["entries"][0]["verdict"] = "NoSolution"
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(la.CatalogError, match="checksum"):
        la.load_catalog(bad)


def test_catalog_rejects_bad_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(la.CatalogError, match="parse"):
        la.load_catalog(bad)


def test_entry_validation_rejects_unknown_references():
    base = {
        "name": "synthetic",
        "brackets": [{"i": 1, "j": 2, "coeffs": [[2, "1"]]}],
        "params": [],
        "metric_shape": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "a1", 0], [0, 0, 0, 1]],
        "constraints": ["a1"],
        "verdict": "NoSolution",
    }
    la._parse_entry(dict(base))  # sanity: the healthy document parses
    bad = dict(base)
    bad["constraints"] = ["a1 - zz^2"]
    with pytest.raises(la.CatalogError, match="unknown parameter"):
        la._parse_entry(bad)
    bad = dict(base)
    bad["brackets"] = [{"i": 1, "j": 2, "coeffs": [[2, "q"]]}]
    with pytest.raises(la.CatalogError, match="undeclared"):
        la._parse_entry(bad)
    bad = dict(base)
    bad["metric_shape"] = [[1, 0, 0, 0], [0.5, 1, 0, 0], [0, 0, "a1", 0], [0, 0, 0, 1]]
    with pytest.raises(la.CatalogError, match="symmetric"):
        la._parse_entry(bad)
    bad = dict(base)
    bad["verdict"] = "Maybe"
    with pytest.raises(la.CatalogError, match="verdict"):
        la._parse_entry(bad)
    for ordered in (["zz"], ["a", "a"]):
        bad = {**base, "params": [{"name": "a", "sample": 1.0}], "ordered_params": ordered}
        with pytest.raises(la.CatalogError, match="ordered_params"):
            la._parse_entry(bad)
    bad = dict(base)
    bad["brackets"] = [{"i": 1, "j": 2, "coeffs": [[2, "1"]]},
                       {"i": 2, "j": 3, "coeffs": [[3, "1"]]},
                       {"i": 1, "j": 3, "coeffs": [[1, "1"]]}]
    with pytest.raises(la.CatalogError, match="Jacobi"):
        la._parse_entry(bad)


def test_jacobi_over_random_admissible_draws(cat):
    rng = np.random.default_rng(3)
    for entry in cat:
        n = 100 if entry.params else 1
        for _ in range(n):
            params = {}
            for spec in entry.params:
                lo = -2.0 if spec.lo is None else max(spec.lo, -2.0)
                hi = 2.0 if spec.hi is None else min(spec.hi, 2.0)
                while True:
                    v = float(rng.uniform(lo, hi))
                    if spec.admits(v, margin=0.02):
                        params[spec.name] = v
                        break
            L = la.instantiate(entry, params)
            assert float(la.jacobi_defect(L)) <= 1e-13, entry.name


def test_instantiate_range_checks():
    entry = la.entry_by_name("A4,9^b")
    with pytest.raises(la.CatalogError, match="admissible"):
        la.instantiate(entry, {"b": -0.5})   # excluded point
    with pytest.raises(la.CatalogError, match="admissible"):
        la.instantiate(entry, {"b": -1.0})   # open lower bound
    with pytest.raises(la.CatalogError, match="missing"):
        la.instantiate(entry, {})
    with pytest.raises(la.CatalogError, match="unknown"):
        la.instantiate(entry, {"b": 0.3, "zz": 1.0})


def test_entry_lookup_aliases():
    assert la.entry_by_name("A46a0").name == "A4,6^{a,0}"
    assert la.entry_by_name("A49half").name == "A4,9^{-1/2}"
    assert la.entry_by_name("a4,4").name == "A4,4"
    with pytest.raises(la.CatalogError, match="no catalog entry"):
        la.entry_by_name("nope")


#: Both alias tables as they stood when each key was looked up verbatim.
_OLD_ENTRY_ALIASES = {"a46a0": "A4,6^{a,0}", "a46ab": "A4,6^{a,b}", "a49half": "A4,9^{-1/2}",
                      "a4912": "A4,9^{-1/2}", "a49b": "A4,9^b", "a22a1": "A2+2A1",
                      "4a1": "abelian"}
_OLD_FAMILY_ALIASES = {"2a2": "2A2", "a22a1": "A2+2A1", "a46a0": "A46a0", "a49half": "A49half",
                       "a4912": "A49half"}


def test_lookup_names_resolve_as_before():
    for key, name in _OLD_ENTRY_ALIASES.items():
        assert la.entry_by_name(key).name == name
    aliases = [alias for e in la.catalog() for alias in e.aliases]
    assert sorted(map(la.canonical_key, aliases)) == ["4a1", "a49half"]
    # family_by_id accepts exactly the old keys, among every catalog and family name.
    names = [e.name for e in la.catalog()] + aliases + list(FAMILIES)
    for name in names:
        key = la.canonical_key(name)
        if key in _OLD_FAMILY_ALIASES:
            assert family_by_id(name).id == _OLD_FAMILY_ALIASES[key]
        else:
            with pytest.raises(la.CatalogError, match="unknown family"):
                family_by_id(name)
    assert {la.canonical_key(n) for n in names} >= set(_OLD_FAMILY_ALIASES)


@pytest.mark.parametrize("field,value", [("name", "A4,4"), ("name", "a4-4"),
                                         ("aliases", ["A44"]), ("aliases", ["A49half"]),
                                         ("aliases", ["A4,12"])])
def test_colliding_lookup_names_are_refused_at_load(tmp_path, field, value):
    # A name or alias whose canonical key another name already has.
    doc = json.loads(la._catalog_text())
    next(e for e in doc["entries"] if e["name"] == "A4,12")[field] = value
    doc["sha256"] = la.catalog_checksum(doc)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(la.CatalogError, match="collides"):
        la.load_catalog(path)


def test_family_data_matches_the_catalog():
    ids = [e.family["id"] for e in la.catalog() if e.family]
    assert sorted(ids) == sorted(FAMILIES) and len(set(ids)) == len(ids)
    for entry in la.catalog():
        if entry.family is None:
            continue
        fam = FAMILIES[entry.family["id"]]
        assert fam.entry_name == entry.name and family_by_id(fam.id) is fam
        for point in fam.default_grid:
            env = {**point, **fam.metric_params(point), **fam.algebra_params(point)}
            assert abs(eval_expr(entry.family["relation"], env)) <= 1e-12, (fam.id, point)


def _catalog_expressions():
    """(expression, parameter names) for every bracket coefficient and constraint."""
    for entry in la.catalog():
        for _, _, coeffs in entry.brackets:
            for _, expr in coeffs:
                yield expr, entry.param_names
        for poly in entry.metric_constraints:
            yield poly, entry.metric_param_names


def test_compiled_expressions_match_interpreter():
    rng = np.random.default_rng(12)
    for expr, names in _catalog_expressions():
        for _ in range(5):
            floats = {k: float(rng.uniform(-3, 3)) for k in names}
            fracs = {k: Fraction(int(rng.integers(-40, 40)), int(rng.integers(1, 12)))
                     for k in names}
            for env in (floats, fracs):
                got, want = eval_expr(expr, env), orc.eval_expr_interpreted(expr, env)
                assert type(got) is type(want) and repr(got) == repr(want), (expr, env)
        # Float arrays: each element as the same values as Python floats give.
        arrays = {k: rng.uniform(-3, 3, 64) for k in names}
        got = np.broadcast_to(eval_expr(expr, arrays), 64)
        for i in range(64):
            want = orc.eval_expr_interpreted(expr, {k: float(v[i]) for k, v in arrays.items()})
            assert repr(float(got[i])) == repr(float(want)), (expr, i)
