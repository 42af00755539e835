"""Metric validation, Koszul connection, and curvature against brute-force oracles."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from conftest import admissible_draws
from liemaxwell import lie_algebra as la
from liemaxwell import metric_geometry as mg
from liemaxwell import _smallmat, solver

E = np.eye(4)


def params_2a2(a5, a1=0.0, a2=0.0, a3=0.0, a4=0.0):
    return {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5}


def metric_2a2(a5, a1=0.0, a2=0.0, a3=0.0, a4=0.0):
    return la.metric_from_params(la.entry_by_name("2A2"), params_2a2(a5, a1, a2, a3, a4))


def test_validate_metric_fixtures():
    entry = la.entry_by_name("2A2")
    assert mg.validate_metric(entry, params_2a2(2.0)).ok
    bad = mg.validate_metric(entry, params_2a2(0.0))
    assert not bad.ok

    entry10 = la.entry_by_name("A4,10")
    check = mg.validate_metric(entry10, {"a1": 1.0, "a2": 1.0, "a3": 0.0, "a4": 1.0})
    assert not check.ok
    assert any("a2 - a2*a4^2 - a3^2" in f for f in check.failures)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_admissible_refuses_nonfinite_rows():
    # Cholesky factors a metric with an infinite diagonal, so finiteness is
    # a step of its own: every row with inf, -inf or nan anywhere is refused.
    rng = np.random.default_rng(5)
    for entry in la.catalog():
        names = entry.metric_param_names
        base = np.array([float(v) for v in solver.sample_metric_params(entry, [rng])[0].values()])
        rows = [base]
        for k in range(len(names)):
            for bad in (np.inf, -np.inf, np.nan):
                rows.append(base.copy())
                rows[-1][k] = bad
        got = mg.admissible(entry, np.array(rows).reshape(len(rows), len(names)))
        assert got.tolist() == [True] + [False] * (len(rows) - 1), entry.name
        for row in rows[1:]:
            assert mg.admissible(entry, row) is False, (entry.name, row)
            check = mg.validate_metric(entry, dict(zip(names, row)))
            assert not check.ok and check.failures, (entry.name, row)
    abelian = la.entry_by_name("abelian")
    assert mg.admissible(abelian, np.zeros(0)) is True
    assert mg.admissible(abelian, np.zeros((2, 3, 0))).tolist() == [[True] * 3] * 2


def test_admissible_refuses_indefinite_metrics_in_a_stack():
    # Without its constraint polynomials A4,4 admits any finite (a1, a2, a3);
    # positive definiteness alone then decides, metric by metric, even when
    # LAPACK refuses the stack as a whole.
    bare = dataclasses.replace(la.entry_by_name("A4,4"), metric_constraints=())
    x = np.array([[1.0, 0.0, 1.0], [1.0, 2.0, 1.0], [1.0, 0.5, 1.0], [-1.0, 0.0, 1.0]])
    assert mg.admissible(bare, x).tolist() == [True, False, True, False]
    assert [mg.admissible(bare, row) for row in x] == [True, False, True, False]
    check = mg.validate_metric(bare, dict(zip(bare.metric_param_names, x[1])))
    assert check.failures == ("metric not positive definite",)


def test_levi_civita_fixtures():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    gamma = mg.curvature_summary(L, metric_2a2(1.0)).gamma
    assert np.allclose(gamma[1, 1], E[0])       # nabla_{e2} e2 = e1
    gamma2 = mg.curvature_summary(L, metric_2a2(2.0)).gamma
    assert np.allclose(gamma2[3, 3], 0.5 * E[2])  # nabla_{e4} e4 = e3/2
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(mg.curvature_summary(ab, np.eye(4)).gamma).max() == 0


def test_connection_invariants_random_draws():
    for entry, L, g in admissible_draws(200, seed=10):
        gamma = mg.curvature_summary(L, g).gamma
        torsion = gamma - np.transpose(gamma, (1, 0, 2)) - np.asarray(L.c, dtype=float)
        assert np.abs(torsion).max() <= 1e-12, entry.name
        dg = np.einsum("ijm,mk->ijk", gamma, g)
        metricity = dg + np.transpose(dg, (0, 2, 1))
        assert np.abs(metricity).max() <= 1e-12, entry.name


def test_riemann_fixtures():
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(mg.curvature_summary(ab, np.eye(4)).riemann).max() == 0

    L = la.instantiate(la.entry_by_name("2A2"), {})
    r4 = mg.curvature_summary(L, metric_2a2(1.0)).riemann
    assert r4[0, 1, 0, 1] == pytest.approx(-1.0, abs=1e-14)  # hyperbolic plane
    r4b = mg.curvature_summary(L, metric_2a2(2.0)).riemann
    assert r4b[0, 2, 0, 2] == pytest.approx(0.0, abs=1e-14)  # mixed plane of a product
    assert r4b[2, 3, 2, 3] / 2.0 == pytest.approx(-0.5, abs=1e-14)  # K = -1/a5


def test_riemann_matches_direct_oracle():
    for entry, L, g in admissible_draws(12, seed=11):
        got = mg.curvature_summary(L, g).riemann
        want = orc.riemann_direct(np.asarray(L.c, dtype=float), g)
        assert np.abs(got - want).max() < 1e-10, entry.name


def test_riemann_symmetries_random_draws():
    # Tolerance is relative to the tensor magnitude: near-degenerate draws
    # carry large curvature components where absolute 1e-12 is below eps*|R|.
    for entry, L, g in admissible_draws(200, seed=12):
        r4 = mg.curvature_summary(L, g).riemann
        scale = max(1.0, np.abs(r4).max())
        assert np.abs(r4 + np.transpose(r4, (1, 0, 2, 3))).max() <= 1e-12 * scale
        assert np.abs(r4 + np.transpose(r4, (0, 1, 3, 2))).max() <= 1e-12 * scale
        assert np.abs(r4 - np.transpose(r4, (2, 3, 0, 1))).max() <= 1e-12 * scale
        bianchi = r4 + np.transpose(r4, (1, 2, 0, 3)) + np.transpose(r4, (2, 0, 1, 3))
        assert np.abs(bianchi).max() <= 1e-12 * scale, entry.name


def test_ricci_2a2_formula():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    for a5 in (0.5, 1.0, 2.0, 3.7):
        ric0 = mg.curvature_summary(L, metric_2a2(a5)).ric0
        want = np.diag([(1 - a5) / (2 * a5), (1 - a5) / (2 * a5),
                        (a5 - 1) / 2, (a5 - 1) / (2 * a5)])
        assert np.abs(ric0 - want).max() < 1e-13
    # scalar curvature from the orthonormal-frame oracle
    s = mg.curvature_summary(L, metric_2a2(2.0)).scalar
    assert s == pytest.approx(-3.0, abs=1e-13)
    c2 = np.asarray(L.c, dtype=float)
    ric_oracle = orc.ricci_orthonormal(c2, metric_2a2(2.0))
    s_oracle = np.einsum("ik,ik->", np.linalg.inv(metric_2a2(2.0)), ric_oracle)
    assert s == pytest.approx(s_oracle, abs=1e-12)


def test_ricci_abelian_flat():
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(mg.curvature_summary(ab, np.eye(4)).ric0).max() == 0
    assert mg.curvature_summary(ab, np.eye(4)).scalar == 0


def test_traceless_ricci_is_trace_free():
    for entry, L, g in admissible_draws(200, seed=13):
        ric0 = mg.curvature_summary(L, g).ric0
        scale = max(1.0, np.abs(ric0).max())
        tr = np.einsum("ij,ij->", np.linalg.inv(g), ric0)
        assert abs(tr) <= 1e-12 * scale, entry.name
        assert np.abs(ric0 - ric0.T).max() <= 1e-12 * scale


def test_frame_independence():
    # Ricci by g-inverse contraction against the oracle's orthonormal-frame
    # sum, which derives its connection, curvature and frame on its own.
    for entry, L, g in admissible_draws(60, seed=14):
        a = mg.curvature_summary(L, g).ricci
        b = orc.ricci_orthonormal(np.asarray(L.c, dtype=float), g)
        assert np.abs(a - b).max() <= 1e-10, entry.name


def test_exact_mode_through_traceless_ricci():
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {}, exact=True)
    g = la.metric_from_params(
        entry, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": Fraction(2)}, exact=True)
    ric0 = mg.curvature_summary(L, g).ric0
    want = [Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(1, 4)]
    for i in range(4):
        assert ric0[i, i] == want[i]
        for j in range(i + 1, 4):
            assert ric0[i, j] == 0
    assert mg.curvature_summary(L, g).scalar == Fraction(-3)


def test_exact_mode_keeps_numpy_integers_exact():
    # An int64 metric or parameter is the same exact number as a Python int:
    # the products of the chain would wrap in int64 arithmetic.
    entry = la.entry_by_name("A4,4")
    L = la.instantiate(entry, {}, exact=True)
    rows = [[10**6, 1, 0, 0], [1, 10**6, 1, 0], [0, 1, 10**6 + 7, 3], [0, 0, 3, 3 * 10**6]]
    want = mg.curvature_summary(L, np.array([[Fraction(v) for v in row] for row in rows])).ric0
    assert (mg.curvature_summary(L, np.array(rows, dtype=np.int64)).ric0 == want).all()
    # An object array of Python ints is exact input too, not float division.
    assert (mg.curvature_summary(L, np.array(rows, dtype=object)).ric0 == want).all()

    entry = la.entry_by_name("A4,2^p")
    g = la.metric_from_params(entry, {"a1": Fraction(1, 2), "a2": Fraction(1, 3), "a3": 2},
                              exact=True)
    assert mg.validate_metric(entry, {"a1": 0.5, "a2": 1 / 3, "a3": 2.0}).ok
    want = mg.curvature_summary(la.instantiate(entry, {"p": 10**9}, exact=True), g).ric0
    got = mg.curvature_summary(la.instantiate(entry, {"p": np.int64(10**9)}, exact=True), g).ric0
    assert (got == want).all()
    g64 = la.metric_from_params(entry, dict.fromkeys(entry.metric_param_names, np.int64(3)),
                                exact=True)
    assert all(type(v.numerator) is int for v in g64.flat)


def test_exact_inverse_and_determinant_against_oracles():
    # Fraction matrices of size 2-6: the inverse against the oracle's
    # Gauss-Jordan, the determinant against the Leibniz sum; a singular
    # matrix is refused by inverse and has determinant 0; a stack agrees
    # with lone calls.
    rng = np.random.default_rng(20)

    def leibniz(a):
        n = len(a)
        return sum(orc.perm_sign(p) * math.prod(a[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))

    for n in range(2, 7):
        mats = []
        for _ in range(6):
            a = np.array([[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                           for _ in range(n)] for _ in range(n)])
            if rng.random() < 0.3:
                a[-1] = a[0] * Fraction(-2, 3)   # singular by construction
            mats.append(a)
            det = _smallmat.determinant(a)
            assert isinstance(det, Fraction) and det == leibniz(a)
            if det == 0:
                with pytest.raises(np.linalg.LinAlgError, match="singular"):
                    _smallmat.inverse(a)
            else:
                assert (_smallmat.inverse(a) == orc._inverse_exact(a)).all()
        stack = np.stack(mats)
        assert list(_smallmat.determinant(stack)) == [_smallmat.determinant(a) for a in mats]
        regular = np.stack([a for a in mats if _smallmat.determinant(a) != 0])
        for a, inv in zip(regular, _smallmat.inverse(regular)):
            assert (inv == _smallmat.inverse(a)).all()


def test_stacked_curvature_on_fractions_matches_the_exact_oracle(cat):
    # Every catalog entry at a rational admissible metric: one call per
    # metric and one stacked call give exactly the oracle's values.
    rng = np.random.default_rng(22)
    algebras, metrics = [], []
    for entry in cat:
        while True:
            float_params = solver.sample_metric_params(entry, [rng])[0]
            params = {n: Fraction(v).limit_denominator(8) for n, v in float_params.items()}
            if mg.admissible(entry, np.array([float(params[n]) for n in entry.metric_param_names])):
                break
        algebras.append(la.instantiate(entry, entry.sample_params(), exact=True))
        metrics.append(la.metric_from_params(entry, params, exact=True))
    stacked = mg.curvature_summary(np.stack([L.c for L in algebras]), np.array(metrics))
    for k, (L, g) in enumerate(zip(algebras, metrics)):
        want = orc.curvature_summary_exact(L.c, g)
        for got_one, got_stacked, value in zip(mg.curvature_summary(L, g), stacked, want):
            assert np.all(got_one == value) and np.all(got_stacked[k] == value), L.name


def test_is_einstein():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    assert np.abs(mg.curvature_summary(L, metric_2a2(1.0)).ric0).max() <= 1e-12
    assert not np.abs(mg.curvature_summary(L, metric_2a2(2.0)).ric0).max() <= 1e-9
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(mg.curvature_summary(ab, np.eye(4)).ric0).max() <= 1e-12
