"""Brackets, Jacobi, the invariant differential, and the catalog document."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from conftest import catalog_copy
from liemaxwell import _smallmat
from liemaxwell import lie_algebra as la
from liemaxwell._expr import ExpressionError, eval_expr
from liemaxwell.families import FAMILIES, family_by_id

E = np.eye(4)


def test_bracket_2a2():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    assert np.allclose(la.bracket(L, E[0], E[1]), E[1])
    assert np.allclose(la.bracket(L, E[2], E[3]), E[3])


def test_bracket_antisymmetry_random():
    rng = np.random.default_rng(0)
    for entry in la.catalog():
        L = la.instantiate(entry, entry.sample_params())
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
    # c^1_23 = c^2_13 = c^3_12 = c^1_24 = 1, the rest zero (0-based below).
    c = np.zeros((4, 4, 4))
    for i, j, k in ((1, 2, 0), (0, 2, 1), (0, 1, 2), (1, 3, 0)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    L = la.LieAlgebra("corrupted", c)
    defect = la.jacobi_defect(L)
    assert defect == pytest.approx(orc.jacobi_brute(np.asarray(L.c, dtype=float)), abs=1e-15)
    assert defect == pytest.approx(1.0, abs=1e-15)  # frozen from the brute-force oracle


def test_jacobi_exact_mode():
    L = la.instantiate(la.entry_by_name("A49half"), {}, exact=True)
    defect = la.jacobi_defect(L)
    assert isinstance(defect, Fraction) and defect == 0


def _pair_entry(c):
    """(i, j, k) of the first nonzero structure constant with i < j."""
    return next((i, j, k) for i, j, k in zip(*np.nonzero(c != 0)) if i < j)


def test_antisymmetry_gate_exact_refuses_any_defect():
    c = la.instantiate(la.entry_by_name("A49half"), {}, exact=True).c
    i, j, k = _pair_entry(c)
    off = c.copy()
    off[i, j, k] += Fraction(1, 10**6)  # one entry of a nonzero pair
    with pytest.raises(ValueError, match="not antisymmetric"):
        la.LieAlgebra("off", off)
    zero = c.copy()
    zero[j, i, (k + 1) % 4] = Fraction(1, 10**6)  # one entry of a zero pair
    assert c[i, j, (k + 1) % 4] == 0
    with pytest.raises(ValueError, match="not antisymmetric"):
        la.LieAlgebra("zero", zero)
    diagonal = c.copy()
    diagonal[2, 2, 1] = Fraction(1, 3)
    with pytest.raises(ValueError, match="not antisymmetric"):
        la.LieAlgebra("diagonal", diagonal)
    assert la.LieAlgebra("same", c.copy()).exact
    for pair in ((1.5, -1.5), (np.inf, -np.inf), ("1/2", "-1/2")):  # rationals only
        bad = c.copy()
        bad[i, j, k], bad[j, i, k] = pair
        with pytest.raises(ValueError, match="must be rational"):
            la.LieAlgebra("bad", bad)


def test_antisymmetry_gate_float_tolerance():
    c = la.instantiate(la.entry_by_name("A49half"), {}).c
    i, j, k = _pair_entry(c)
    off = c.copy()
    off[i, j, k] += 1e-13
    with pytest.raises(ValueError, match="not antisymmetric"):
        la.LieAlgebra("off", off)
    near = c.copy()
    near[i, j, k] += 1e-15
    assert not la.LieAlgebra("near", near).exact


def test_structure_constants_must_be_4x4x4():
    for shape in ((4, 4), (3, 3, 3), (4, 4, 4, 1)):
        with pytest.raises(ValueError, match=re.escape(f"must be 4x4x4, got {shape}")):
            la.LieAlgebra("shape", np.zeros(shape))


def test_antisymmetry_gate_refuses_non_finite_floats():
    # NaN beside its partner, and an inf/-inf pair, whose sum is NaN: both
    # refused, with no RuntimeWarning on the way.
    nan = np.zeros((4, 4, 4))
    nan[0, 1, 2], nan[1, 0, 2] = np.nan, 1.0
    pair = np.zeros((4, 4, 4))
    pair[0, 1, 2], pair[1, 0, 2] = np.inf, -np.inf
    for name, c in (("nan", nan), ("inf", pair)):
        with pytest.raises(ValueError, match="not antisymmetric"):
            la.LieAlgebra(name, c)


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
        L = la.instantiate(entry, entry.sample_params())
        a6 = rng.normal(size=6)
        got = la.d_two_form(L, a6)
        want = orc.d_two_form_leibniz(np.asarray(L.c, dtype=float), a6)
        assert np.abs(got - want).max() < 1e-12


def _fractions(rng, shape):
    """Small random rationals in an object array."""
    num, den = rng.integers(-9, 10, size=shape), rng.integers(1, 7, size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Fraction(int(num[idx]), int(den[idx]))
    return out


def test_stacked_two_form_code_matches_the_loops_exactly(cat):
    # Fraction input, one form at a time and as stacks (one algebra for
    # several forms, one algebra per form): exactly the values of the loops
    # the loop-free code replaced.
    rng = np.random.default_rng(21)
    algebras = [la.instantiate(e, e.sample_params(), exact=True) for e in cat]
    forms = _fractions(rng, (len(algebras), 6))
    per_algebra = la.d_two_form(np.stack([L.c for L in algebras]), forms)
    for k, L in enumerate(algebras):
        want = orc.d_two_form_loops(L.c, forms[k])
        assert list(la.d_two_form(L, forms[k])) == list(want) == list(per_algebra[k]), L.name
        shared = la.d_two_form(L, forms[k:k + 3])
        for a6, got in zip(forms[k:k + 3], shared):
            assert list(got) == list(orc.d_two_form_loops(L.c, a6)), L.name
    matrices = la.two_form_matrix(forms)
    for a6, got in zip(forms, matrices):
        want = orc.two_form_matrix_loops(a6)
        assert (la.two_form_matrix(a6) == want).all() and (got == want).all()
    assert (la.two_form_coeffs(matrices) == forms).all()


def test_a_sequence_of_algebras_is_refused():
    # One algebra or stacked constants (..., 4, 4, 4): a list of algebras is
    # neither, in each function that reads structure constants.
    from liemaxwell import maxwell
    from liemaxwell import metric_geometry as mg

    L = la.instantiate(la.entry_by_name("2A2"), {})
    g, f6 = np.stack([np.eye(4)] * 2), np.stack([np.eye(6)[0]] * 2)
    calls = [lambda ls: la.d_two_form(ls, f6), la.closedness_matrix,
             lambda ls: mg.curvature_summary(ls, g), lambda ls: maxwell.em_residual(ls, g, f6)]
    for call in calls:
        with pytest.raises(TypeError, match=re.escape(
                "expected one LieAlgebra or stacked structure constants (..., 4, 4, 4), got list")):
            call([L, L])
        call(np.stack([L.c] * 2))  # the stacked form of the same two algebras


def test_d_squared_zero_all_entries():
    for entry in la.catalog():
        L = la.instantiate(entry, entry.sample_params())
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


def _closed_forms(L):
    """The closedness matrix of L, the kernel basis of dF = 0 and the free
    and pivot pair labels, as every search reads them: ``closedness_matrix``,
    then ``_smallmat.nullspace``."""
    mat = la.closedness_matrix(L)
    basis, free = _smallmat.nullspace(mat)
    free_pairs = [la.PAIR_LABELS[p] for p in free]
    return mat, basis, free_pairs, [lbl for lbl in la.PAIR_LABELS if lbl not in free_pairs]


def test_closedness_kernel_dimensions():
    for entry in la.catalog():
        L = la.instantiate(entry, entry.sample_params())
        _, basis, _, _ = _closed_forms(L)
        assert len(basis) == CLOSED_DIMS[entry.name], entry.name


def test_closedness_2a2_kernel():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    _, basis, free_pairs, _ = _closed_forms(L)
    assert free_pairs == ["12", "13", "34"]
    for v in basis:
        assert np.abs(la.d_two_form(L, np.asarray(v, dtype=float))).max() < 1e-15


def test_closedness_labels_are_the_free_columns():
    # Kernel vector i has a 1 in its free column and a 0 in every other
    # free column; the labels split the six pairs into the free columns and
    # the rref pivots (on A4,12 the kernel vector e13 + e24 is labelled 24).
    for entry in la.catalog():
        for exact in (False, True):
            L = la.instantiate(entry, entry.sample_params(), exact=exact)
            mat, basis, free_pairs, pivot_pairs = _closed_forms(L)
            free = [la.PAIR_LABELS.index(lbl) for lbl in free_pairs]
            for v, col in zip(basis, free):
                assert [v[c] for c in free] == [int(c == col) for c in free], entry.name
            assert sorted(free_pairs + pivot_pairs) == sorted(la.PAIR_LABELS)
            pivots = _smallmat.rref(mat)[1]
            assert pivot_pairs == [la.PAIR_LABELS[p] for p in pivots], entry.name


def test_closedness_a49b_relation():
    b = 0.3
    L = la.instantiate(la.entry_by_name("A4,9^b"), {"b": b})
    _, basis, free_pairs, _ = _closed_forms(L)
    vec = next(np.asarray(v, dtype=float) for v, lbl in zip(basis, free_pairs) if lbl == "23")
    # a14 = (1+b) a23 with a12 = a13 = 0
    assert vec[0] == 0 and vec[1] == 0
    assert vec[2] == pytest.approx(1 + b)
    assert vec[3] == 1.0


def test_closedness_abelian_full():
    L = la.instantiate(la.entry_by_name("abelian"), {})
    assert len(_closed_forms(L)[1]) == 6


def test_closedness_exact_mode():
    L = la.instantiate(la.entry_by_name("A4,9^b"), {"b": Fraction(1, 4)}, exact=True)
    _, basis, free_pairs, _ = _closed_forms(L)
    assert len(basis) == 3
    vec = next(v for v, lbl in zip(basis, free_pairs) if lbl == "23")
    assert vec[2] == Fraction(5, 4)
    # Python ints are exact constants too: read as Fractions, so the kernel
    # never divides int by int in floats.
    L = la.instantiate(la.entry_by_name("A4,9^b"), {"b": Fraction(1, 2)}, exact=True)
    ints = np.empty((4, 4, 4), dtype=object)
    ints.reshape(-1)[:] = [int(2 * v) for v in L.c.reshape(-1)]
    got = _closed_forms(la.LieAlgebra("ints", ints))[1]
    want = _closed_forms(la.LieAlgebra("fractions", 2 * L.c))[1]
    assert all(isinstance(x, Fraction) for v in got for x in v)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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


def _first_entry(**change):
    """Edit of a catalog document: its first entry (2A2) with ``change``
    applied, None deleting a key, and the checksum recomputed."""
    def edit(doc):
        raw = doc["entries"][0]
        for key, value in change.items():
            if value is None:
                del raw[key]
            else:
                raw[key] = value
        doc["sha256"] = la.catalog_checksum(doc)
        return doc
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["entries"], "catalog document is not a JSON object"),
    (lambda doc: {}, "catalog document has no 'version'"),
    (_first_entry(verdict=None), "2A2: entry has no 'verdict'"),
    (_first_entry(brackets="x"), "2A2: malformed entry"),
    (lambda doc: {**doc, "entries": {raw["name"]: raw for raw in doc["entries"]}},
     "catalog entries are not a JSON list"),
], ids=["list", "empty", "no-verdict", "string-brackets", "entries-object"])
def test_catalog_refuses_malformed_documents(tmp_path, edit, message):
    # Each escaped as an AttributeError, KeyError or TypeError.
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(edit(json.loads(la._catalog_text()))))
    with pytest.raises(la.CatalogError, match=re.escape(message)):
        la.load_catalog(path)


@pytest.mark.parametrize("src", [
    # a bad character, unbalanced parentheses
    "a/b", "a,b", "(a+b",
    # an exponent is one nonnegative integer literal
    "a^-1", "a^0.5", "a^(2)", "a^b", "a^2^3",
    # trailing input, empty parentheses, a leading *, a trailing blank
    "a b", "2a", "()", "*a", "a ",
])
def test_expression_grammar_refusals(src):
    with pytest.raises(ExpressionError):
        eval_expr(src, {"a": 2, "b": 3})


def test_two_literals_fold_before_they_meet_an_array():
    # "2*3*a" folds 2*3 into one exact literal, which meets the array as a
    # float: a float64 result, each element with the bits of Python floats.
    # Unfolded, Fraction(2) * 3 would meet the array as a Fraction and give
    # an object array.
    a = np.array([1.0, 2.0, 0.1, -3.7, 1e-300])
    got = eval_expr("2*3*a", {"a": a})
    assert got.dtype == np.float64
    for x, y in zip(got.tolist(), a.tolist()):
        assert repr(x) == repr(float(orc.eval_expr_interpreted("2*3*a", {"a": y})))


# The sign corners -a^2, (-a)^2 and 1*-a^2 are cases of
# test_unary_minus_binds_looser_than_power_everywhere.
@pytest.mark.parametrize("src,value", [("007", 7), ("  a", 2), ("a^0", 1)])
def test_expression_grammar_corners(src, value):
    for env in ({"a": Fraction(2)}, {"a": 2.0}, {"a": np.full(3, 2.0)}):
        assert np.all(eval_expr(src, env) == value), env
    assert orc.eval_expr_interpreted(src, {"a": 2}) == value


@pytest.mark.parametrize("src,value", [("10^400*a", 3 * 10**400), ("a*10^400", 3 * 10**400),
                                       ("a - 10^400", 3 - 10**400), ("10^400 + a", 10**400 + 3)])
def test_a_literal_beyond_the_float_range_stays_exact(src, value):
    # A folded literal is converted to float only where it meets a float:
    # exact values give the exact result, floats and arrays a refusal that
    # names the expression, never an OverflowError.
    got = eval_expr(src, {"a": Fraction(3)})
    assert type(got) is Fraction and got == value
    assert eval_expr(src, {"a": 3}) == value
    for env in ({"a": 3.0}, {"a": np.float64(3.0)}, {"a": np.full(2, 3.0)}):
        with pytest.raises(ExpressionError, match=re.escape(repr(src))):
            eval_expr(src, env)


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
    # The stacked instantiate_many refuses each parameter set as instantiate does.
    for build in (la.instantiate,
                  lambda entry, p: la.instantiate_many(entry, [entry.sample_params(), p])):
        _refusals(build)


def _refusals(build):
    entry = la.entry_by_name("A4,9^b")
    with pytest.raises(la.CatalogError, match="admissible"):
        build(entry, {"b": -0.5})   # excluded point
    with pytest.raises(la.CatalogError, match="admissible"):
        build(entry, {"b": -1.0})   # open lower bound
    with pytest.raises(la.CatalogError, match="missing"):
        build(entry, {})
    with pytest.raises(la.CatalogError, match="unknown"):
        build(entry, {"b": 0.3, "zz": 1.0})
    with pytest.raises(la.CatalogError, match="parameter p is beyond the float range"):
        build(la.entry_by_name("A4,2^p"), {"p": 10**400})
    with pytest.raises(la.CatalogError, match="parameter p is beyond the float range"):
        la.instantiate(la.entry_by_name("A4,2^p"), {"p": 10**400}, exact=True)
    # Non-finite values are outside every range, bounded or not.
    with pytest.raises(la.CatalogError, match="parameter a=nan outside admissible range"):
        build(la.entry_by_name("A4,11^a"), {"a": float("nan")})
    with pytest.raises(la.CatalogError, match="parameter p=inf outside admissible range"):
        build(la.entry_by_name("A4,2^p"), {"p": float("inf")})
    # A finite parameter whose bracket 2a overflows.
    with pytest.raises(la.CatalogError, match="structure constants beyond the float range"):
        build(la.entry_by_name("A4,11^a"), {"a": 1e308})


def test_instantiate_refuses_booleans():
    entry = la.entry_by_name("A4,6^{a,0}")
    for flag in (True, np.True_):
        with pytest.raises(la.CatalogError, match="boolean"):
            la.instantiate(entry, {"a": flag})
    assert la.instantiate(entry, {"a": 1}).params == {"a": 1}


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


def _sample(name, value):
    """Edit of a catalog record: the sample of parameter ``name``."""
    return lambda raw: next(p for p in raw["params"] if p["name"] == name).update(sample=value)


@pytest.mark.parametrize("value", [2.0, 0.0])
def test_an_out_of_range_sample_is_refused_at_load(tmp_path, value):
    # The Jacobi gate instantiates each entry at its sample with the range
    # check: every packaged sample is in range, and a copy whose A4,5^{a,b}
    # sample leaves [-1, 1] or hits the excluded 0 is refused, although the
    # Jacobi identity holds there.
    for entry in la.catalog():
        sample = entry.sample_params()
        assert all(spec.admits(float(sample[spec.name])) for spec in entry.params), entry.name
    with pytest.raises(la.CatalogError, match=f"parameter a={value} outside admissible range"):
        la.load_catalog(catalog_copy(tmp_path, "A4,5^{a,b}", _sample("a", value)))


def test_a_float_sample_passes_the_exact_jacobi_gate(tmp_path):
    # The Jacobi expression is a polynomial in the parameters: it vanishes
    # exactly at a float's binary value, however many digits it has.
    entries = la.load_catalog(catalog_copy(tmp_path, "A4,5^{a,b}", _sample("a", 0.123456789)))
    entry = next(e for e in entries if e.name == "A4,5^{a,b}")
    assert entry.sample_params() == {"a": 0.123456789, "b": 1.0}


def _bracket_12(expr):
    """Edit of a catalog record: an added bracket [e1, e2] = expr e3."""
    return lambda raw: raw["brackets"].append({"i": 1, "j": 2, "coeffs": [[3, expr]]})


@pytest.mark.parametrize("name,edit,message", [
    # [e1, e2] = e3 breaks Jacobi at the sample; (a - 1/2) e3 holds it at the
    # sample a = 1/2 and at a = -b, and breaks it at a = -1, b = 1/2.
    ("A4,5^{a,b}", _bracket_12("1"), "A4,5^{a,b}: Jacobi identity fails at sample parameters"),
    ("A4,5^{a,b}", _bracket_12("a - 0.5"), "A4,5^{a,b}: Jacobi identity fails at variant 'a=-1'"),
    ("A4,2^p", lambda raw: raw["variants"][0].update(params={"q": 5.0}),
     "A4,2^p: variant 'p=-1' must name exactly the parameters ['p'], got ['q']"),
    ("A4,5^{a,b}", lambda raw: raw["variants"][0]["params"].update(a=2.0),
     "A4,5^{a,b}: parameter a=2.0 outside admissible range"),
    ("A4,4", lambda raw: raw["brackets"].append({"i": 2, "j": 1, "coeffs": [[3, "1"]]}),
     "A4,4: bracket indices must satisfy 1 <= i < j <= 4 and 1 <= k <= 4, got (2, 1)"),
    ("A4,4", lambda raw: raw["brackets"].append({"i": 1, "j": 2, "coeffs": [[5, "1"]]}),
     "A4,4: bracket indices must satisfy 1 <= i < j <= 4 and 1 <= k <= 4, got (1, 2)"),
    ("A4,5^{a,b}", _bracket_12("a +"), "A4,5^{a,b}: bad bracket expression: "),
    ("A4,4", lambda raw: raw["constraints"].append("a1 * (a3"), "A4,4: bad constraint: "),
    ("A4,4", lambda raw: raw["positive_metric_params"].append("a4"),
     "A4,4: positive_metric_params not in shape"),
], ids=["bracket-at-sample", "bracket-at-variant", "misnamed-variant", "out-of-range-variant",
        "bracket-order", "bracket-target", "bad-bracket-expression", "bad-constraint",
        "positive-not-in-shape"])
def test_catalog_gate_checks_every_sample_and_variant(tmp_path, name, edit, message):
    # The packaged catalog's samples and admissible variants all pass (it
    # loads); a copy with a corrupted bracket, constraint or shape, or a bad
    # variant, is refused, naming the entry.  A4,6^{a,0}'s inadmissible
    # variant a = 0 needs only its parameter names.
    with pytest.raises(la.CatalogError, match=re.escape(message)):
        la.load_catalog(catalog_copy(tmp_path, name, edit))


def test_a_metric_takes_its_own_entry_names(tmp_path):
    # A copy of A4,4 whose cell a2 is renamed b2 loads, and its metrics take
    # its own names: the packaged entry's names are a CatalogError naming
    # the entry, as are a missing and an extra name.
    def rename(raw):
        raw["metric_shape"] = [[{"a2": "b2"}.get(cell, cell) for cell in row]
                               for row in raw["metric_shape"]]
        raw["constraints"] = ["a1*a3 - b2^2", "a1"]

    copy = next(e for e in la.load_catalog(catalog_copy(tmp_path, "A4,4", rename))
                if e.name == "A4,4")
    g = la.metric_from_params(copy, {"a1": 2.0, "b2": 0.5, "a3": 1.0})
    assert g[1, 2] == g[2, 1] == 0.5
    for params in ({"a1": 2.0, "a2": 0.5, "a3": 1.0}, {"a1": 2.0, "a3": 1.0},
                   {"a1": 2.0, "b2": 0.5, "a3": 1.0, "a4": 0.0}):
        with pytest.raises(la.CatalogError, match=re.escape(
                "A4,4: metric parameters ['a1', 'a3', 'b2'] required, got "
                f"{sorted(params)}")):
            la.metric_from_params(copy, params)


def test_the_name_index_is_built_once(monkeypatch):
    # catalog() keeps the index that the load checked for collisions: one
    # canonical key per name and alias, and every lookup gives the entry
    # catalog() holds.
    names = sum(1 + len(e.aliases) for e in la.catalog())
    keys = []
    canonical = la.canonical_key
    monkeypatch.setattr(la, "canonical_key", lambda name: keys.append(name) or canonical(name))
    # teardown restores all three cached globals together
    for name in ("_INDEX", "_PACKAGED_SHA256"):
        monkeypatch.setattr(la, name, getattr(la, name))
    monkeypatch.setattr(la, "_CATALOG_CACHE", None)
    entries = la.catalog()
    assert len(keys) == names
    assert all(la.entry_by_name(e.name) is e for e in entries)


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


@pytest.mark.parametrize("src,value", [("-a^2", -4), ("0 - a^2", -4), ("0 + -a^2", -4),
                                       ("1*-a^2", -4), ("(-a)^2", 4)])
def test_unary_minus_binds_looser_than_power_everywhere(src, value):
    # A minus after an operator used to negate the base before ^ was applied.
    for env in ({"a": 2}, {"a": 2.0}, {"a": np.full(3, 2.0)}):
        assert np.all(eval_expr(src, env) == value), env
    assert orc.eval_expr_interpreted(src, {"a": 2}) == value
