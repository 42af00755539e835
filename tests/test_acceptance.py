"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  The whole verdict table, all 26 rows at 200 seeds, runs once;
its unit_F pass holds the non-existence sweep (criterion 7): 200 seeds on
each of the 22 entries outside the positive classification.  The table and
that pass each stay inside a 10-minute budget.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import admissible_draws, instantiated
from liemaxwell import forms, kahler, maxwell, solver
from liemaxwell import lie_algebra as la
from liemaxwell import metric_geometry as mg
from liemaxwell.families import FAMILIES, family_by_id
from liemaxwell.forms import two_form

N_JOBS = min(2, os.cpu_count() or 1)


def note(num: int, detail: str) -> None:
    print(f"[criterion {num:2d}] PASS  {detail}")


def family_grid_candidates(fid, orientation=1):
    fam = family_by_id(fid)
    for point in fam.default_grid:
        yield fam, point, solver.family_candidate(fam, point, orientation)


def test_criterion_1_relation1_grid():
    t0 = time.perf_counter()
    fam = family_by_id("2A2")
    n = 0
    worst = 0.0
    for point in fam.default_grid:
        cand = solver.family_candidate(fam, point)
        vec = solver.residual_vector(cand)
        assert len(vec) == 18
        worst = max(worst, float(np.abs(vec).max()))
        assert np.abs(vec).max() <= 1e-10
        entry, L, g = instantiated(cand)
        rep = maxwell.em_residual(L, g, cand.f_coeffs)
        assert rep.classification == maxwell.NON_EINSTEIN_EM
        n += 1
    elapsed = time.perf_counter() - t0
    assert n == 14  # 16 grid points minus the two excluded a5 = 1 points
    assert elapsed < 1.0
    note(1, f"relation1 grid: {n} points, max residual {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_relations_2_3_4():
    worst = 0.0
    counts = {}
    for fid in ("A2+2A1", "A46a0", "A49half"):
        fam = family_by_id(fid)
        for point in fam.default_grid:
            cand = solver.family_candidate(fam, point)
            vec = solver.residual_vector(cand)
            worst = max(worst, float(np.abs(vec).max()))
            assert np.abs(vec).max() <= 1e-10, (fid, point)
            entry, L, g = instantiated(cand)
            rep = maxwell.em_residual(L, g, cand.f_coeffs)
            assert rep.classification == maxwell.NON_EINSTEIN_EM
            counts[fid] = counts.get(fid, 0) + 1
    note(2, f"relations 2-4: {counts}, max residual {worst:.2e}")


def test_criterion_3_ric0_fixture():
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {})
    g = la.metric_from_params(entry, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 2.0})
    ric0 = mg.curvature_summary(L, g).ric0
    want = np.diag([-0.25, -0.25, 0.5, 0.25])
    err = float(np.abs(ric0 - want).max())
    assert err <= 1e-12
    note(3, f"Ric0 fixture at a5=2: max error {err:.2e}")


def test_criterion_4_einstein_degenerations():
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {})
    g1 = la.metric_from_params(entry, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 1.0})
    assert np.abs(mg.curvature_summary(L, g1).ric0).max() <= 1e-12

    # a -> 0 leaves the A4,6 family; the catalog ships the degenerate bracket
    # limit as an inadmissible named variant checked here explicitly.
    entry46 = la.entry_by_name("A46a0")
    variant = next(v for v in entry46.variants if not v.admissible)
    L0 = la.LieAlgebra(entry46.name, la._bracket_constants(entry46, variant.params))
    g0 = la.metric_from_params(entry46, {"a1": 0.0, "a2": 0.0, "a3": 1.0})
    assert np.abs(mg.curvature_summary(L0, g0).ric0).max() <= 1e-12
    note(4, "Einstein degenerations: 2A2 at a5=1 and the A4,6 bracket limit a=0")


def test_criterion_5_hermitian_classification():
    worst_rho = 0.0
    for fid, orientation, want in (
        ("2A2", 1, kahler.KAHLER),
        ("A2+2A1", 1, kahler.KAHLER),
        ("A46a0", 1, kahler.KAHLER),
        ("A49half", 1, kahler.ALMOST_KAHLER),
        ("A49half", -1, kahler.KAHLER),
    ):
        fam = family_by_id(fid)
        for point in fam.default_grid:
            cand = solver.family_candidate(fam, point, orientation)
            entry, L, g = instantiated(cand)
            omega = fam.omega_from_metric(cand.metric_params, orientation)
            block = kahler.hermitian_diagnostics(L, g, omega)
            assert block["type"] == want, (fid, orientation)
            err = float(np.abs(np.array(block["rho0"])
                               - fam.expected_rho0(point, orientation)).max())
            worst_rho = max(worst_rho, err)
            assert err <= 1e-10, (fid, point, orientation)
            assert block["ricci_j_invariance_defect"] <= 1e-10
    note(5, f"hermitian types + rho0 fixtures, max rho0 error {worst_rho:.2e} "
            "(values pinned by the identity rho0 = kappa F^-)")


def test_criterion_6_kappa_decomposition():
    worst_defect = 0.0
    worst_kappa = 0.0
    for fid in FAMILIES:
        fam = family_by_id(fid)
        for orientation in fam.orientations:
            for point in fam.default_grid:
                cand = solver.family_candidate(fam, point, orientation)
                entry, L, g = instantiated(cand)
                omega = fam.omega_from_metric(cand.metric_params, orientation)
                rho0, _, _ = kahler.ricci_form(L, g, omega)
                kappa, defect = maxwell.verify_kahler_decomposition(
                    g, cand.f_coeffs, omega, rho0, orientation)
                kerr = abs(kappa - fam.expected_kappa(point, orientation))
                worst_defect = max(worst_defect, defect)
                worst_kappa = max(worst_kappa, kerr)
                assert defect <= 1e-10, (fid, point, orientation)
                assert kerr <= 1e-10, (fid, point, orientation)
    note(6, f"kappa decomposition: max defect {worst_defect:.2e}, "
            f"max kappa error {worst_kappa:.2e}")


@pytest.fixture(scope="module")
def verdict_table():
    """The whole 26-row table at 200 seeds, seed 0, run once, with the
    outcomes of its passes: a spy on ``solver.multistart_many`` keeps each
    call's outcomes, and the first call is the unit_F pass of every row.
    Each outcome equals its request's own ``multistart_search``
    (``test_solver.py::test_programs_span_requests_and_widths``)."""
    real, passes = solver.multistart_many, []

    def spy(requests, n_jobs=1):
        outcomes = real(requests, n_jobs)
        passes.append(outcomes)
        return outcomes

    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "multistart_many", spy)
        rows = solver.classify_table(la.catalog(), n_seeds=200, seed=0, n_jobs=N_JOBS)
    return rows, passes, time.perf_counter() - t0


def test_criterion_7_nonexistence_sweeps(verdict_table):
    _, passes, _ = verdict_table
    units = {out.entry_name: out for out in passes[0]}
    non_t1 = [e for e in la.catalog() if e.verdict != "HasNonEinsteinEM"]
    assert len(non_t1) == 22
    rows = []
    for entry in non_t1:
        out = units[entry.name]
        assert (out.mode, out.seed) == ("unit_F", 0), entry.name
        n_non_einstein = sum(1 for _, r in out.solutions
                             if r.classification == maxwell.NON_EINSTEIN_EM)
        assert n_non_einstein == 0, entry.name
        # every candidate that passed the residual thresholds must carry
        # (numerically) null stress: without it the metric could not stay
        # Einstein while solving the coupled system
        for cand, rep in out.solutions:
            _, _, g = instantiated(cand)
            stress = float(np.abs(maxwell.stress_energy(g, cand.f_coeffs)).max())
            assert stress <= 1e-8, entry.name
        miss = out.best_nonsolution_residual
        inconclusive = np.isfinite(miss) and miss <= 100 * maxwell.TOL_SOLUTION
        assert not inconclusive, f"{entry.name}: inconclusive (best miss {miss:.3e})"
        rows.append((entry.name, len(out.solutions), miss))
    elapsed = passes[0][0].wall_time  # the whole unit_F pass, all 26 rows
    assert elapsed < 600.0
    closest = min(m for _, _, m in rows if np.isfinite(m))
    note(7, f"non-existence sweeps: 22 entries x 200 seeds, 0 NonEinsteinEM, "
            f"closest miss {closest:.2e}, {elapsed:.0f} s")


def test_whole_verdict_table_agrees(verdict_table):
    # The paper's 26-row table at its stated budget: every computed verdict
    # agrees with the catalog's, and no negative one is inconclusive.
    rows, _, elapsed = verdict_table
    assert len(rows) == 26
    assert [r.entry_name for r in rows if not r.agree or r.inconclusive] == []
    assert elapsed < 600.0
    positive = sum(r.computed == "HasNonEinsteinEM" for r in rows)
    print(f"[verdict table] PASS  26 rows x 200 seeds agree ({positive} with "
          f"NonEinsteinEM solutions, {26 - positive} without), {elapsed:.0f} s")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(80)
    draws = admissible_draws(200, seed=81)
    basis = np.eye(4)
    for entry, L, g in draws:
        c = np.asarray(L.c, dtype=float)
        f6 = rng.normal(size=6)
        # d^2 = 0 (exactly representable, keep absolute tolerance)
        for i in range(4):
            assert np.abs(la.d_two_form(L, la.d_one_form(L, basis[i]))).max() <= 1e-12
        # star-star and isometry: 1e-10 (a sqrt(det g) enters twice)
        starred = forms.hodge_star(g, f6)
        scale = max(1.0, np.abs(f6).max(), np.abs(starred).max())
        assert np.abs(forms.hodge_star(g, starred) - f6).max() <= 1e-10 * scale
        n1, n2 = forms.norm_sq(g, f6), forms.norm_sq(g, starred)
        assert abs(n1 - n2) <= 1e-10 * max(1.0, abs(n1))
        # Koszul metricity and torsion-freeness: 1e-12 relative to magnitude
        curv = mg.curvature_summary(L, g)
        gamma = curv.gamma
        gscale = max(1.0, np.abs(gamma).max())
        torsion = gamma - np.transpose(gamma, (1, 0, 2)) - c
        assert np.abs(torsion).max() <= 1e-12 * gscale
        dg = np.einsum("ijm,mk->ijk", gamma, g)
        assert np.abs(dg + np.transpose(dg, (0, 2, 1))).max() <= 1e-12 * gscale
        # Riemann symmetries and first Bianchi
        r4 = curv.riemann
        rscale = max(1.0, np.abs(r4).max())
        assert np.abs(r4 + np.transpose(r4, (1, 0, 2, 3))).max() <= 1e-12 * rscale
        assert np.abs(r4 + np.transpose(r4, (0, 1, 3, 2))).max() <= 1e-12 * rscale
        assert np.abs(r4 - np.transpose(r4, (2, 3, 0, 1))).max() <= 1e-12 * rscale
        bianchi = r4 + np.transpose(r4, (1, 2, 0, 3)) + np.transpose(r4, (2, 0, 1, 3))
        assert np.abs(bianchi).max() <= 1e-12 * rscale
        # trace-freeness of Ric0 and the stress tensor
        g_inv = np.linalg.inv(g)
        ric0 = curv.ric0
        assert abs(np.einsum("ij,ij->", g_inv, ric0)) <= 1e-12 * max(1.0, np.abs(ric0).max())
        stress = maxwell.stress_energy(g, f6)
        assert abs(np.einsum("ij,ij->", g_inv, stress)) <= 1e-12 * max(1.0, np.abs(stress).max())
    note(8, f"property suites over {len(draws)} admissible draws "
            "(tolerances relative to tensor magnitude)")


def test_criterion_9_gradient_check():
    rng = np.random.default_rng(90)
    entries = la.catalog()
    checked = 0
    worst = 0.0
    k = 0
    while checked < 50:
        entry = entries[k % len(entries)]
        k += 1
        ap = solver.sample_algebra_params(entry, rng)
        ctx = solver.ResidualContext([(entry, ap)], mode="unit_F")
        width = len(ctx._facts[0].kernel_t)
        if width == 0:
            continue
        mp = solver.sample_metric_params(entry, [rng])[0]
        x = solver._point(entry, mp, rng.uniform(-1.5, 1.5, width))
        jac = solver.residual_jacobian(ctx, x[None])[0]
        r0 = ctx.residual(x[None, None])[0, 0]
        fwd = np.zeros_like(jac)
        for col in range(len(x)):
            h = 1e-7 * max(1.0, abs(x[col]))
            xp = x.copy()
            xp[col] += h
            fwd[:, col] = (ctx.residual(xp[None, None])[0, 0] - r0) / h
        rel = np.abs(jac - fwd).max() / max(1.0, np.abs(jac).max())
        worst = max(worst, rel)
        assert rel <= 1e-4, entry.name
        checked += 1
    note(9, f"gradient check at {checked} random candidates, worst rel err {worst:.2e}")


def test_criterion_10_determinism():
    a = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=50, seed=7, n_jobs=1)
    b = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=50, seed=7, n_jobs=1)
    assert json.dumps(a.to_dict(), indent=2) == json.dumps(b.to_dict(), indent=2)
    c = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=50, seed=7, n_jobs=N_JOBS)
    assert json.dumps(a.to_dict()) == json.dumps(c.to_dict())
    blob = json.loads(json.dumps(a.to_dict()))
    assert blob["n_solutions"] >= 1
    note(10, f"determinism: identical JSON over repeat and parallel runs "
             f"({blob['n_solutions']} solutions)")
