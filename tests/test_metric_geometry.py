"""Metric validation, Koszul connection, and curvature against brute-force oracles."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from conftest import admissible_draws
from liemaxwell import lie_algebra as la
from liemaxwell import metric_geometry as mg
from liemaxwell import solver

E = np.eye(4)


def metric_2a2(a5, a1=0.0, a2=0.0, a3=0.0, a4=0.0):
    return la.metric_from_params(la.entry_by_name("2A2"),
                                 {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5})


def test_validate_metric_fixtures():
    entry = la.entry_by_name("2A2")
    assert mg.validate_metric(entry, metric_2a2(2.0)).ok
    bad = mg.validate_metric(entry, metric_2a2(0.0))
    assert not bad.ok

    entry10 = la.entry_by_name("A4,10")
    g = la.metric_from_params(entry10, {"a1": 1.0, "a2": 1.0, "a3": 0.0, "a4": 1.0})
    check = mg.validate_metric(entry10, g)
    assert not check.ok
    assert any("a2 - a2*a4^2 - a3^2" in f for f in check.failures)


def test_validate_metric_shape_mismatch():
    entry = la.entry_by_name("2A2")
    g = metric_2a2(2.0)
    g[0, 0] = 3.0  # catalog requires the literal 1 here
    with pytest.raises(mg.ShapeMismatchError):
        mg.validate_metric(entry, g)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_admissible_refuses_nonfinite_rows():
    # Cholesky factors a metric with an infinite diagonal, so finiteness is
    # a step of its own: every row with inf, -inf or nan anywhere is refused.
    rng = np.random.default_rng(5)
    for entry in la.catalog():
        names = entry.metric_param_names
        base = np.array([float(v) for v in solver.sample_metric_params(entry, rng).values()])
        rows = [base]
        for k in range(len(names)):
            for bad in (np.inf, -np.inf, np.nan):
                rows.append(base.copy())
                rows[-1][k] = bad
        got = mg.admissible(entry, np.array(rows).reshape(len(rows), len(names)))
        assert got.tolist() == [True] + [False] * (len(rows) - 1), entry.name
        for row in rows[1:]:
            assert mg.admissible(entry, row) is False, (entry.name, row)
            check = mg.validate_metric(entry, la.metric_from_params(entry, dict(zip(names, row))))
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
    check = mg.validate_metric(bare, la.metric_from_params(bare, dict(zip(bare.metric_param_names, x[1]))))
    assert check.failures == ("metric not positive definite",)


def test_levi_civita_fixtures():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    gamma = mg.levi_civita(L, metric_2a2(1.0))
    assert np.allclose(gamma[1, 1], E[0])       # nabla_{e2} e2 = e1
    gamma2 = mg.levi_civita(L, metric_2a2(2.0))
    assert np.allclose(gamma2[3, 3], 0.5 * E[2])  # nabla_{e4} e4 = e3/2
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(mg.levi_civita(ab, np.eye(4))).max() == 0


def test_connection_invariants_random_draws():
    for entry, L, g in admissible_draws(200, seed=10):
        gamma = mg.levi_civita(L, g)
        torsion = gamma - np.transpose(gamma, (1, 0, 2)) - np.asarray(L.c, dtype=float)
        assert np.abs(torsion).max() <= 1e-12, entry.name
        dg = np.einsum("ijm,mk->ijk", gamma, g)
        metricity = dg + np.transpose(dg, (0, 2, 1))
        assert np.abs(metricity).max() <= 1e-12, entry.name


def test_riemann_fixtures():
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(mg.riemann(ab, np.eye(4))).max() == 0

    L = la.instantiate(la.entry_by_name("2A2"), {})
    r4 = mg.riemann(L, metric_2a2(1.0))
    assert r4[0, 1, 0, 1] == pytest.approx(-1.0, abs=1e-14)  # hyperbolic plane
    r4b = mg.riemann(L, metric_2a2(2.0))
    assert r4b[0, 2, 0, 2] == pytest.approx(0.0, abs=1e-14)  # mixed plane of a product
    assert r4b[2, 3, 2, 3] / 2.0 == pytest.approx(-0.5, abs=1e-14)  # K = -1/a5


def test_riemann_matches_direct_oracle():
    for entry, L, g in admissible_draws(12, seed=11):
        got = mg.riemann(L, g)
        want = orc.riemann_direct(np.asarray(L.c, dtype=float), g)
        assert np.abs(got - want).max() < 1e-10, entry.name


def test_riemann_symmetries_random_draws():
    # Tolerance is relative to the tensor magnitude: near-degenerate draws
    # carry large curvature components where absolute 1e-12 is below eps*|R|.
    for entry, L, g in admissible_draws(200, seed=12):
        r4 = mg.riemann(L, g)
        scale = max(1.0, np.abs(r4).max())
        assert np.abs(r4 + np.transpose(r4, (1, 0, 2, 3))).max() <= 1e-12 * scale
        assert np.abs(r4 + np.transpose(r4, (0, 1, 3, 2))).max() <= 1e-12 * scale
        assert np.abs(r4 - np.transpose(r4, (2, 3, 0, 1))).max() <= 1e-12 * scale
        bianchi = r4 + np.transpose(r4, (1, 2, 0, 3)) + np.transpose(r4, (2, 0, 1, 3))
        assert np.abs(bianchi).max() <= 1e-12 * scale, entry.name


def test_ricci_2a2_formula():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    for a5 in (0.5, 1.0, 2.0, 3.7):
        ric0 = mg.traceless_ricci(L, metric_2a2(a5))
        want = np.diag([(1 - a5) / (2 * a5), (1 - a5) / (2 * a5),
                        (a5 - 1) / 2, (a5 - 1) / (2 * a5)])
        assert np.abs(ric0 - want).max() < 1e-13
    # scalar curvature from the orthonormal-frame oracle
    s = mg.scalar_curvature(L, metric_2a2(2.0))
    assert s == pytest.approx(-3.0, abs=1e-13)
    c2 = np.asarray(L.c, dtype=float)
    ric_oracle = orc.ricci_orthonormal(c2, metric_2a2(2.0))
    s_oracle = np.einsum("ik,ik->", np.linalg.inv(metric_2a2(2.0)), ric_oracle)
    assert s == pytest.approx(s_oracle, abs=1e-12)


def test_ricci_abelian_flat():
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert np.abs(mg.traceless_ricci(ab, np.eye(4))).max() == 0
    assert mg.scalar_curvature(ab, np.eye(4)) == 0


def test_traceless_ricci_is_trace_free():
    for entry, L, g in admissible_draws(200, seed=13):
        ric0 = mg.traceless_ricci(L, g)
        scale = max(1.0, np.abs(ric0).max())
        tr = np.einsum("ij,ij->", np.linalg.inv(g), ric0)
        assert abs(tr) <= 1e-12 * scale, entry.name
        assert np.abs(ric0 - ric0.T).max() <= 1e-12 * scale


def test_frame_independence():
    for entry, L, g in admissible_draws(60, seed=14):
        a = mg.ricci(L, g)
        b = mg.ricci_via_frame(L, g)
        assert np.abs(a - b).max() <= 1e-10, entry.name


def test_exact_mode_through_traceless_ricci():
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {}, exact=True)
    g = la.metric_from_params(
        entry, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": Fraction(2)}, exact=True)
    ric0 = mg.traceless_ricci(L, g)
    want = [Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(1, 4)]
    for i in range(4):
        assert ric0[i, i] == want[i]
        for j in range(i + 1, 4):
            assert ric0[i, j] == 0
    assert mg.scalar_curvature(L, g) == Fraction(-3)


def test_is_einstein():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    assert mg.is_einstein(L, metric_2a2(1.0), tol=1e-12)
    assert not mg.is_einstein(L, metric_2a2(2.0), tol=1e-9)
    ab = la.instantiate(la.entry_by_name("abelian"), {})
    assert mg.is_einstein(ab, np.eye(4), tol=1e-12)
