"""Stress-energy tensor, the EM residual report, and the scale decomposition."""

import numpy as np
import pytest

import oracles as orc
from conftest import admissible_draws, instantiated
from liemaxwell import forms, maxwell, solver
from liemaxwell import lie_algebra as la
from liemaxwell.families import FAMILIES
from liemaxwell.forms import two_form


def test_stress_fixtures():
    g = np.diag([1.0, 1.0, 2.0, 1.0])
    got = maxwell.stress_energy(g, two_form(e34=1))
    assert np.abs(got - np.diag([0.25, 0.25, -0.5, -0.25])).max() < 1e-15
    assert np.abs(maxwell.stress_energy(g, np.zeros(6))).max() == 0
    # self-dual F has vanishing stress
    assert np.abs(maxwell.stress_energy(np.eye(4), two_form(e12=1, e34=1))).max() < 1e-15


def test_stress_matches_direct_oracle():
    rng = np.random.default_rng(0)
    for _, L, g in admissible_draws(40, seed=30):
        f6 = rng.normal(size=6)
        got = maxwell.stress_energy(g, f6)
        want = orc.stress_direct(g, f6)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def test_stress_trace_free_and_symmetric():
    rng = np.random.default_rng(1)
    for entry, L, g in admissible_draws(200, seed=31):
        f6 = rng.normal(size=6)
        t = maxwell.stress_energy(g, f6)
        scale = max(1.0, np.abs(t).max())
        assert np.abs(t - t.T).max() <= 1e-12 * scale, entry.name
        tr = np.einsum("ij,ij->", np.linalg.inv(g), t)
        assert abs(tr) <= 1e-12 * scale, entry.name


def test_stress_conformal_weight():
    # Under g -> t g both terms scale as 1/t; the tensor is not invariant but
    # carries that single conformal weight.
    rng = np.random.default_rng(2)
    for _, L, g in admissible_draws(30, seed=32):
        f6 = rng.normal(size=6)
        base = maxwell.stress_energy(g, f6)
        for lam in (0.5, 2.0, 7.3):
            scaled = maxwell.stress_energy(lam * g, f6)
            assert np.abs(lam * scaled - base).max() <= 1e-10 * max(1.0, np.abs(base).max())


def test_stress_vanishes_iff_self_or_anti_self_dual():
    rng = np.random.default_rng(3)
    for _, L, g in admissible_draws(100, seed=33):
        f6 = rng.normal(size=6)
        fp, fm = forms.sd_asd_split(g, f6)
        for part in (fp, fm):
            if np.abs(part).max() < 1e-12:
                continue
            t = maxwell.stress_energy(g, part)
            assert np.abs(t).max() <= 1e-9 * max(1.0, forms.norm_sq(g, part))
        # converse: vanishing stress forces |F+| |F-| ~ 0
        t_full = maxwell.stress_energy(g, f6)
        if np.abs(t_full).max() <= 1e-12:
            assert np.sqrt(forms.norm_sq(g, fp) * forms.norm_sq(g, fm)) <= 1e-6


def test_em_residual_2a2_solution():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    g = np.diag([1.0, 1.0, 2.0, 1.0])
    rep = maxwell.em_residual(L, g, two_form(e12=1, e34=np.sqrt(3)))
    assert rep.classification == maxwell.NON_EINSTEIN_EM
    assert max(rep.r_em, rep.r_dF, rep.r_dstarF) <= 1e-12
    assert not rep.einstein and not rep.trivial_F
    assert rep.scalar_curvature == pytest.approx(-3.0, abs=1e-12)


def test_em_residual_a46_solution():
    L = la.instantiate(la.entry_by_name("A46a0"), {"a": 1.0})
    rep = maxwell.em_residual(L, np.eye(4), two_form(e23=1))  # a23^2 - a14^2 = 1 = a^2
    assert rep.classification == maxwell.NON_EINSTEIN_EM
    assert rep.r_em <= 1e-12


def test_em_residual_abelian_vacuum():
    L = la.instantiate(la.entry_by_name("abelian"), {})
    rep = maxwell.em_residual(L, np.eye(4), np.zeros(6))
    assert rep.classification == maxwell.EINSTEIN_NULL_STRESS
    assert rep.einstein and rep.trivial_F


def test_em_residual_not_a_solution():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    g = np.diag([1.0, 1.0, 3.0, 1.0])
    rep = maxwell.em_residual(L, g, two_form(e34=1))
    assert rep.classification == maxwell.NOT_A_SOLUTION
    # frozen from the direct-evaluation oracle
    assert rep.r_em == pytest.approx(0.5, abs=1e-12)


def test_em_report_classification_invariant():
    # classification NonEinsteinEM implies residuals pass and F is nontrivial
    L = la.instantiate(la.entry_by_name("2A2"), {})
    g = np.diag([1.0, 1.0, 2.0, 1.0])
    rep = maxwell.em_residual(L, g, two_form(e12=1, e34=np.sqrt(3)))
    assert rep.is_solution and not rep.einstein and not rep.trivial_F
    blob = rep.to_dict()
    assert blob["classification"] == "NonEinsteinEM"
    assert set(blob) >= {"r_em", "r_dF", "r_dstarF", "einstein", "trivial_F",
                         "scalar_curvature", "classification"}


def test_a_nan_residual_is_never_a_solution(monkeypatch):
    # Python's max drops a NaN that does not come first, so each residual
    # must pass on its own: at a 2A2 solution with d*F turned to NaN, and
    # with NaN in each place of a report.
    L = la.instantiate(la.entry_by_name("2A2"), {})
    monkeypatch.setattr(maxwell, "hodge_star", lambda g, a, orientation=1: np.full(6, np.nan))
    rep = maxwell.em_residual(L, np.diag([1.0, 1.0, 2.0, 1.0]), two_form(e12=1, e34=np.sqrt(3)))
    assert np.isnan(rep.r_dstarF) and max(rep.r_em, rep.r_dF) <= 1e-12
    assert rep.classification == maxwell.NOT_A_SOLUTION and not rep.is_solution
    for at in range(3):
        residuals = [0.0, 0.0, 0.0]
        residuals[at] = float("nan")
        rep = maxwell.EMReport(*residuals, einstein=False, trivial_F=False,
                               scalar_curvature=0.0, classification=maxwell.NOT_A_SOLUTION)
        assert not rep.is_solution, at


def test_stacked_em_residual_matches_single_calls():
    # Sampled admissible points of every catalog entry with random F, and
    # the family grid points (solutions): one stacked call against one call
    # per candidate.
    rng = np.random.default_rng(40)
    algebras, metrics, fs = [], [], []
    for _, L, g in admissible_draws(3 * len(la.catalog()), seed=41):
        algebras.append(L)
        metrics.append(g)
        fs.append(rng.normal(size=6))
    for fam in FAMILIES.values():
        for point in fam.default_grid:
            cand = solver.family_candidate(fam, point)
            _, L, g = instantiated(cand)
            algebras.append(L)
            metrics.append(g)
            fs.append(cand.f_coeffs)
    seen = set()
    stacked = maxwell.em_residual(np.stack([L.c for L in algebras]), np.array(metrics),
                                  np.array(fs))
    assert len(stacked) == len(algebras)
    for L, g, f6, got in zip(algebras, metrics, fs, stacked):
        want = maxwell.em_residual(L, g, f6)
        assert got.classification == want.classification, L.name
        for name in ("r_em", "r_dF", "r_dstarF", "scalar_curvature"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (L.name, name)
        assert got.to_dict()["inputs"] == want.to_dict()["inputs"]
        seen.add(got.classification)
    assert {maxwell.NON_EINSTEIN_EM, maxwell.NOT_A_SOLUTION} <= seen


def test_co_closedness_does_not_depend_on_the_orientation():
    # Why em_residual takes no orientation: reversing it negates *F, and d is
    # linear, so d*F is negated bit for bit and |d*F| keeps its bits.
    rng = np.random.default_rng(42)
    for _, L, g in admissible_draws(3 * len(la.catalog()), seed=43):
        f6 = rng.normal(size=6)
        plus = la.d_two_form(L, forms.hodge_star(g, f6, 1))
        assert np.array_equal(la.d_two_form(L, forms.hodge_star(g, f6, -1)), -plus), L.name


def test_stack_with_a_nonpositive_determinant_is_refused_like_one_call():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    good, bad = np.diag([1.0, 1.0, 2.0, 1.0]), np.diag([1.0, 1.0, 2.0, -1.0])
    f6 = two_form(e12=1, e34=1)
    with pytest.raises(ValueError) as single:
        maxwell.em_residual(L, bad, f6)
    with pytest.raises(ValueError) as stacked:
        maxwell.em_residual(np.stack([L.c] * 3), np.array([good, bad, good]), np.array([f6] * 3))
    assert "determinant must be positive" in str(single.value)
    assert str(stacked.value) == str(single.value)


def test_kappa_decomposition_fixtures():
    # 2A2 family point a12 = 1, a34 = sqrt(3), a5 = 2
    g = np.diag([1.0, 1.0, 2.0, 1.0])
    f6 = two_form(e12=1, e34=np.sqrt(3))
    omega = two_form(e12=1, e34=np.sqrt(2))
    rho0 = two_form(e12=-0.25, e34=1 / (2 * np.sqrt(2)))
    kappa, defect = maxwell.verify_kahler_decomposition(g, f6, omega, rho0)
    assert kappa == pytest.approx(np.sqrt(3) / np.sqrt(2) + 1, abs=1e-12)
    assert defect <= 1e-20

    # A2+2A1 family point a12 = 0, a34 = 1: kappa = a12 + a34 = 1
    g = np.eye(4)
    f6 = two_form(e34=1)
    omega = two_form(e12=1, e34=1)
    rho0 = two_form(e12=-0.5, e34=0.5)
    kappa, defect = maxwell.verify_kahler_decomposition(g, f6, omega, rho0)
    assert kappa == pytest.approx(1.0, abs=1e-12)
    assert defect <= 1e-20


def test_kappa_decomposition_synthetic():
    # omega = 2 F+, rho0 = F-: kappa = 1 by construction, defect 0
    rng = np.random.default_rng(4)
    g = np.eye(4)
    f6 = rng.normal(size=6)
    fp, fm = forms.sd_asd_split(g, f6)
    kappa, defect = maxwell.verify_kahler_decomposition(g, f6, 2 * fp, fm)
    assert kappa == pytest.approx(1.0, abs=1e-9)
    assert defect <= 1e-18


def test_kappa_decomposition_errors():
    g = np.eye(4)
    fm_only = two_form(e12=1, e34=-1)  # anti-self-dual: F+ = 0
    with pytest.raises(ValueError, match="F\\+"):
        maxwell.verify_kahler_decomposition(g, fm_only, two_form(e12=1, e34=1),
                                            np.zeros(6))


def test_kappa_decomposition_degenerate_inputs():
    # F = 0 and omega = 0: every coefficient of the stationarity quartic
    # vanishes, and the scale is 1 with the defect |rho0|^2.  A self-dual F
    # with omega orthogonal to F+ leaves the quartic the constant -|F+|^2,
    # which has no root: no stationary scale.
    g = np.diag([1.0, 2.0, 1.0, 0.5])
    rho0 = two_form(e12=1, e34=-1)
    kappa, defect = maxwell.verify_kahler_decomposition(g, np.zeros(6), np.zeros(6), rho0)
    assert kappa == 1.0 and defect == forms.norm_sq(g, rho0)
    g = np.eye(4)
    with pytest.raises(ValueError, match="no stationary scale found"):
        maxwell.verify_kahler_decomposition(g, two_form(e12=1, e34=1), two_form(e13=1),
                                            np.zeros(6))
