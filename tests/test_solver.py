"""Residual stacking, LM refinement, multistart search, and classification."""

import contextlib
import dataclasses
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest

import oracles as orc
from conftest import catalog_copy, instantiated
from liemaxwell import lie_algebra as la
from liemaxwell import cli, kahler, maxwell, solver
from liemaxwell import metric_geometry as mg
from liemaxwell.families import FAMILIES
from liemaxwell.forms import norm_sq, two_form


def cand_2a2(a5=2.0, a12=1.0, a34=np.sqrt(3)):
    return solver.Candidate(la.entry_by_name("2A2"), {},
                            {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": a5},
                            two_form(e12=a12, e34=a34))


def test_residual_vector_zero_at_family_points():
    assert np.abs(solver.residual_vector(cand_2a2())).max() <= 1e-12
    c49 = solver.Candidate(la.entry_by_name("A49half"), {}, {"a1": 1.0, "a2": 0, "a3": 0, "a4": 0},
                           two_form(e13=np.sqrt(2.5), e24=1.0))
    assert np.abs(solver.residual_vector(c49)).max() <= 1e-12


def test_residual_vector_nonzero_matches_oracle():
    c = solver.Candidate(la.entry_by_name("2A2"), {},
                         {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 3.0}, two_form(e34=1.0))
    vec = solver.residual_vector(c)
    assert len(vec) == 18
    # independent assembly: orthonormal-frame Ricci + direct stress + Leibniz d
    L = la.instantiate(la.entry_by_name("2A2"), {})
    cmat = np.asarray(L.c, dtype=float)
    g = np.diag([1.0, 1.0, 3.0, 1.0])
    ric = orc.ricci_orthonormal(cmat, g)
    gi = np.linalg.inv(g)
    s = np.einsum("ik,ik->", gi, ric)
    em = ric - s / 4 * g + orc.stress_direct(g, c.f_coeffs)
    want = np.concatenate([
        [em[i, j] for i in range(4) for j in range(i, 4)],
        orc.d_two_form_leibniz(cmat, c.f_coeffs),
        orc.d_two_form_leibniz(cmat, orc.hodge_star_solve(g, c.f_coeffs)),
    ])
    assert np.abs(vec - want).max() < 1e-10
    assert np.abs(vec).max() == pytest.approx(0.5, abs=1e-12)  # frozen from the oracle


def test_residual_vector_rejects_constraint_violation():
    bad = solver.Candidate(la.entry_by_name("2A2"), {},
                           {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": -1.0}, two_form(e34=1.0))
    with pytest.raises(solver.CandidateError):
        solver.residual_vector(bad)


def test_context_agrees_with_residual_vector():
    # The fast kernel (Ricci from the structure constants) against the
    # reference chain (Koszul, Riemann, Ricci, Hodge star), on the generic
    # branch and on every admissible named variant (odd variant indices),
    # where the closedness kernel can change dimension.
    rng = np.random.default_rng(40)
    for entry in la.catalog():
        n_variants = sum(v.admissible for v in entry.variants)
        for variant_index in [0, *range(1, 2 * n_variants, 2)]:
            ap = solver.sample_algebra_params(entry, rng, variant_index=variant_index)
            for mode in ("free_F", "unit_F"):
                ctx = solver.ResidualContext([(entry, ap)], mode=mode)
                mp = solver.sample_metric_params(entry, [rng])[0]
                x = solver._point(entry, mp, rng.uniform(-1, 1, len(ctx._facts[0].kernel_t)))
                got = ctx.residual(x[None, None])[0, 0]
                [cand] = ctx.candidates(x[None])
                assert cand.orientation == 1
                want = solver.residual_vector(cand)
                if mode == "unit_F":
                    g = la.metric_from_params(entry, mp)
                    want = np.append(want, norm_sq(g, cand.f_coeffs) - 1.0)
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() < 1e-12 * scale, (entry.name, variant_index, mode)


def _batch(entry, mode, rng, size=4):
    """A one-seed context and ``size`` of its points (1, size, n)."""
    ctx = solver.ResidualContext([(entry, solver.sample_algebra_params(entry, rng))], mode=mode)
    xs = np.array([solver._point(entry, solver.sample_metric_params(entry, [rng])[0],
                         rng.uniform(-1, 1, len(ctx._facts[0].kernel_t))) for _ in range(size)])
    return ctx, xs[None]


def test_batched_residual_matches_single_calls():
    # Every point of a batch has the bits of a lone call.
    rng = np.random.default_rng(41)
    for entry in la.catalog():
        for mode in ("unit_F", "free_F"):
            ctx, xs = _batch(entry, mode, rng)
            got = ctx.residual(xs)
            want = np.stack([ctx.residual(x[None, None])[0, 0] for x in xs[0]])[None]
            assert got.shape == (1, xs.shape[1], ctx.n_rows) and want.dtype == float
            assert np.array_equal(got, want), (entry.name, mode)


def test_residual_of_real_complex_input_is_real():
    ctx, xs = _batch(la.entry_by_name("A4,12"), "unit_F", np.random.default_rng(42))
    got = ctx.residual(xs.astype(complex))
    want = ctx.residual(xs)
    assert np.all(got.imag == 0)
    assert np.abs(got.real - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_jacobian_at_the_cone_boundary_matches_the_oracle():
    # a1 = 1e-8 sits where a central step of 1e-6 leaves the positive cone;
    # the forward-mode Jacobian evaluates x alone.
    entry = la.entry_by_name("A4,4")
    ctx = solver.ResidualContext([(entry, {})], mode="unit_F")
    x = solver._point(entry, {"a1": 1e-8, "a2": 0.0, "a3": 1.0}, np.array([0.3, -0.2, 0.5]))[None]
    below = x.copy()
    below[0, 0] -= 1e-6
    with pytest.raises(ValueError, match="determinant"):
        ctx.residual(below[:, None])
    jac = solver.residual_jacobian(ctx, x)
    want = orc.complex_step_jacobian(ctx, x)
    assert jac.shape == (1, ctx.n_rows, x.shape[1]) and np.isfinite(jac).all()
    assert np.abs(jac - want).max() <= 1e-12 * np.abs(want).max()


def _assert_matches_oracle(ctx, xs, label=None):
    got = solver.residual_jacobian(ctx, xs)
    want = orc.complex_step_jacobian(ctx, xs)
    assert got.shape == want.shape, label
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0), label


def test_jacobian_matches_complex_step_oracle():
    # Forward mode against the complex step on every entry and mode: a
    # stacked block of 8 generic seeds whole and 5 of them gathered by
    # take, and each admissible named variant alone.
    rng = np.random.default_rng(43)
    for entry in la.catalog():
        n_variants = sum(v.admissible for v in entry.variants)
        for mode in ("unit_F", "free_F"):
            ctxs, xs = [], []
            for index in [*range(0, 16, 2), *range(1, 2 * n_variants, 2)]:
                ap = solver.sample_algebra_params(entry, rng, variant_index=index)
                ctxs.append(solver.ResidualContext([(entry, ap)], mode=mode))
                xs.append(solver._point(entry, solver.sample_metric_params(entry, [rng])[0],
                                rng.uniform(-1.5, 1.5, len(ctxs[-1]._facts[0].kernel_t))))
            block, x = _program(ctxs[:8]), np.array(xs[:8])
            _assert_matches_oracle(block, x, label=(entry.name, mode))
            seeds = rng.permutation(8)[:5]
            _assert_matches_oracle(block.take(seeds), x[seeds], label=(entry.name, mode))
            for ctx, x in zip(ctxs[8:], xs[8:]):
                _assert_matches_oracle(ctx, x[None], label=(entry.name, mode, ctx._facts[0].params))


def test_kernel_refuses_a_nonpositive_determinant():
    # The guard on det g in ResidualContext._kernel: an empty batch passes,
    # a negative or NaN determinant raises, also beside admissible points.
    entry = la.entry_by_name("A4,4")
    ctx = solver.ResidualContext([(entry, {})], mode="unit_F")
    assert ctx.residual(np.zeros((1, 0, ctx._facts[0].width))).shape == (1, 0, ctx.n_rows)
    f = np.zeros(len(ctx._facts[0].kernel_t))
    good = solver._point(entry, {"a1": 1.0, "a2": 0.0, "a3": 1.0}, f)
    for a1 in (-1.0, np.nan):
        bad = solver._point(entry, {"a1": a1, "a2": 0.0, "a3": 1.0}, f)
        for x in (bad[None, None], np.array([[good, bad]])):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="^metric determinant must be positive$"):
                ctx.residual(x)


def test_points_of_the_wrong_rank_are_refused():
    # Every context is a stack of seeds: residual takes points (S, m, n),
    # f_of and residual_jacobian one point per seed (S, n), and feasible
    # points (S, ..., n).  A lone point (n,), any other rank, or a first
    # axis that is not the context's S seeds is refused with the expected
    # shape, never reshaped or broadcast; one (entry, params) pair is one
    # seed too few axes.
    entry, wide = la.entry_by_name("A4,4"), la.entry_by_name("2A2")
    ctx = solver.ResidualContext([(entry, {})], mode="unit_F")
    x = solver._point(entry, {"a1": 1.0, "a2": 0.0, "a3": 1.0}, np.array([0.3, -0.2, 0.5]))
    calls = [(ctx.residual, "(S, m, n)"), (ctx.f_of, "(S, n)"),
             (lambda xs: solver.residual_jacobian(ctx, xs), "(S, n)")]
    for call, shape in calls:
        rank = shape.count(",") + 1
        assert np.isfinite(call(x.reshape((1,) * (rank - 1) + x.shape))).all()
        for wrong in {1, 2, 3, 4} - {rank}:
            xs = x.reshape((1,) * (wrong - 1) + x.shape)
            with pytest.raises(ValueError, match=re.escape(f"x must have shape {shape}, got ")):
                call(xs)
        rows = np.repeat(x.reshape((1,) * (rank - 1) + x.shape), 3, axis=0)
        with pytest.raises(ValueError, match=re.escape(f"x must have shape {shape}, got ")):
            call(rows)  # 3 rows for 1 seed
    feasible = "(S, ..., n)"
    for rank in (2, 3, 4):
        assert ctx.feasible(x.reshape((1,) * (rank - 1) + x.shape)).all()
    with pytest.raises(ValueError, match=re.escape(f"x must have shape {feasible}, got (6,)")):
        ctx.feasible(x)
    with pytest.raises(ValueError, match=re.escape(f"x must have shape {feasible}, got (3, 6)")):
        ctx.feasible(np.stack([x] * 3))
    mixed = solver.ResidualContext([(entry, {}), (wide, {})], mode="unit_F")
    points = np.zeros((2, 8))
    points[0, :6] = x
    points[1] = solver._point(wide, cand_2a2().metric_params, np.zeros(3))
    assert mixed.feasible(points).tolist() == [True, True]
    assert mixed.feasible(points[:, None]).shape == (2, 1)
    for wrong in (points[0], points[:1], np.zeros((3, 8))):
        with pytest.raises(ValueError, match=re.escape(f"x must have shape {feasible}, got ")):
            mixed.feasible(wrong)
    with pytest.raises(TypeError, match=r"a list of \(entry, algebra_params\) pairs, one per seed"):
        solver.ResidualContext((entry, {}), mode="unit_F")


def test_take_gives_the_residuals_of_gathered_seeds():
    rng = np.random.default_rng(44)
    entry = la.entry_by_name("A4,11^a")
    ctxs, xs = zip(*(_batch(entry, "unit_F", rng, size=1) for _ in range(6)))
    block = _program(ctxs)
    xs = np.array([x[0, 0] for x in xs])
    for idx in (np.array([4, 1, 1, 0]), np.arange(6), np.array([5])):
        want = _program([ctxs[i] for i in idx]).residual(xs[idx, None])  # a fresh build
        assert np.array_equal(block.take(idx).residual(xs[idx, None]), want)
    kernel = ("_lin", "_lin0", "_ct")
    assert set(kernel) <= set(solver.ResidualContext._SEED_AXIS)
    picked = block.take(np.array([3, 0]))
    for name in kernel:
        parts = [getattr(c, name) for c in ctxs]
        assert np.array_equal(getattr(block, name), np.concatenate(parts)), name
        assert np.array_equal(getattr(picked, name), np.concatenate([parts[3], parts[0]]))


def test_refine_to_family_point():
    # Off the 2A2 family (a34 = 1.8 where a5 = 2 needs sqrt(3)), every
    # parameter free: the end point is a NonEinsteinEM solution on the
    # family's relation a5 = (1 + a34^2)/(1 + a12^2).
    res = solver.refine(cand_2a2(a34=1.8))
    assert res.converged
    _, L, g = instantiated(res.candidate)
    f = res.candidate.f_coeffs
    assert maxwell.em_residual(L, g, f).classification == maxwell.NON_EINSTEIN_EM
    a5, a12, a34 = res.candidate.metric_params["a5"], f[0], f[5]
    assert a5 == pytest.approx((1 + a34 ** 2) / (1 + a12 ** 2), abs=1e-9)


def test_search_refuses_bad_mode(monkeypatch):
    # Refused before any seed is sampled or refined, also when a later request holds it.
    def no_program(*segments):
        raise AssertionError("a program ran")

    monkeypatch.setattr(solver, "_run_block", no_program)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        solver.multistart_search(la.entry_by_name("2A2"), 2, mode="bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        solver.multistart_many([solver.SearchRequest(la.entry_by_name("2A2"), 2),
                                solver.SearchRequest(la.entry_by_name("A4,4"), 2, mode="bogus")],
                               n_jobs=2)


def test_refine_fixed_point():
    res = solver.refine(cand_2a2())
    assert res.converged and res.iterations == 0
    assert np.abs(res.candidate.f_coeffs - cand_2a2().f_coeffs).max() == 0


def test_refine_keeps_the_orientation_label():
    # The refinement does not depend on the orientation (d*F = 0 is the same
    # condition in both), and its candidate keeps the start's label.
    fam = FAMILIES["A49half"]
    done = {}
    for orientation in (1, -1):
        start = solver.family_candidate(fam, fam.default_grid[0], orientation)
        start.f_coeffs = start.f_coeffs * 1.05
        done[orientation] = solver.refine(start)
    plus, minus = done[1], done[-1]
    assert plus.iterations > 0 and minus.candidate.orientation == -1
    assert minus.candidate.to_dict() == {**plus.candidate.to_dict(), "orientation": -1}
    assert np.array_equal(minus.candidate.f_coeffs, plus.candidate.f_coeffs)
    assert ((minus.converged, minus.iterations, minus.reason, minus.n_evals, minus.max_residual)
            == (plus.converged, plus.iterations, plus.reason, plus.n_evals, plus.max_residual))


def test_refine_a44_unit_norm_fails():
    entry = la.entry_by_name("A4,4")
    rng = np.random.default_rng(5)
    mp = solver.sample_metric_params(entry, [rng])[0]
    ctx = solver.ResidualContext([(entry, {})], mode="unit_F")
    f6 = ctx._facts[0].kernel_t.T @ np.array([1.0, 0.5, -0.3])
    c = solver.Candidate(la.entry_by_name("A4,4"), {}, mp, f6)
    res = solver.refine(c, mode="unit_F")
    assert not res.converged
    assert res.reason in ("stalled", "constraint-trapped", "iteration cap", "slow progress")
    with pytest.raises(ValueError, match="unknown mode 'unit_norm'"):
        solver.refine(c, mode="unit_norm")


def test_refine_rejects_nonclosed_f():
    c = solver.Candidate(la.entry_by_name("2A2"), {},
                         {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 2.0}, two_form(e14=1.0))
    with pytest.raises(solver.CandidateError, match="closed"):
        solver.refine(c)


def test_refine_refuses_an_inadmissible_start():
    # As residual_vector does: a CandidateError naming the failed
    # constraint, whether det g <= 0 (2A2 with a5 = -1) or det g > 0 with a
    # constraint failing (A4,4 with a1 = 1e-9, inside the EPS_PD margin).
    a44 = solver.ResidualContext([(la.entry_by_name("A4,4"), {})])
    bad = [cand_2a2(a5=-1.0),
           solver.Candidate(la.entry_by_name("A4,4"), {}, {"a1": 1e-9, "a2": 0.0, "a3": 1.0},
                            a44._facts[0].kernel_t.T @ np.array([1.0, 0.5, -0.3]))]
    for c in bad:
        with pytest.raises(solver.CandidateError, match="> 0 violated") as refused:
            solver.residual_vector(c)
        with pytest.raises(solver.CandidateError) as caught:
            solver.refine(c)
        assert str(caught.value) == str(refused.value)


def test_jacobian_matches_forward_differences():
    rng = np.random.default_rng(6)
    entry = la.entry_by_name("2A2")
    ctx = solver.ResidualContext([(entry, {})], mode="unit_F")
    mp = solver.sample_metric_params(entry, [rng])[0]
    x = solver._point(entry, mp, rng.uniform(-1, 1, len(ctx._facts[0].kernel_t)))
    jac = solver.residual_jacobian(ctx, x[None])[0]
    r0 = ctx.residual(x[None, None])[0, 0]
    for k in range(len(x)):
        h = 1e-7 * max(1.0, abs(x[k]))
        xp = x.copy()
        xp[k] += h
        col = (ctx.residual(xp[None, None])[0, 0] - r0) / h
        denom = max(1.0, np.abs(jac[:, k]).max())
        assert np.abs(jac[:, k] - col).max() / denom < 1e-4


def test_multistart_2a2_finds_family():
    out = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=25, seed=7)
    non_einstein = [(c, r) for c, r in out.solutions
                    if r.classification == maxwell.NON_EINSTEIN_EM]
    assert non_einstein
    for c, r in out.solutions:
        a12, a34, a5 = c.f_coeffs[0], c.f_coeffs[5], c.metric_params["a5"]
        assert abs(a5 * (1 + a12 ** 2) - (1 + a34 ** 2)) <= 1e-6
        if r.classification == maxwell.NON_EINSTEIN_EM:
            assert abs(a5 - 1) > 1e-6  # a5 = 1 is the Einstein degeneration


def test_multistart_a44_no_solutions():
    out = solver.multistart_search(la.entry_by_name("A4,4"), n_seeds=40, seed=3)
    assert not out.solutions
    assert out.best_nonsolution_residual > 1e-3


def test_multistart_abelian_free_f():
    out = solver.multistart_search(la.entry_by_name("abelian"), n_seeds=10, seed=1, mode="free_F")
    assert out.solutions
    assert {r.classification for _, r in out.solutions} == {maxwell.EINSTEIN_NULL_STRESS}


def test_multistart_rejects_bad_seeds():
    with pytest.raises(ValueError):
        solver.multistart_search(la.entry_by_name("2A2"), n_seeds=0, seed=0)
    for n_jobs in (0, -1):
        with pytest.raises(ValueError, match="n_jobs"):
            solver.multistart_search(la.entry_by_name("2A2"), n_seeds=2, seed=0, n_jobs=n_jobs)


def test_search_determinism_and_parallel_merge():
    a = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=16, seed=7, n_jobs=1)
    b = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=16, seed=7, n_jobs=1)
    c = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=16, seed=7, n_jobs=2)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict()) == json.dumps(c.to_dict())
    assert "wall_time" not in a.to_dict()
    assert "wall_time" in a.to_dict(include_timing=True)
    assert a.to_dict()["catalog_sha256"] == la.catalog_checksum()


def test_sign_flip_orbit():
    out = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=10, seed=2)
    cand, rep = out.solutions[0]
    flipped = solver.Candidate(cand.entry, cand.algebra_params, cand.metric_params,
                               -cand.f_coeffs, cand.orientation)
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {})
    g = la.metric_from_params(entry, flipped.metric_params)
    rep2 = maxwell.em_residual(L, g, flipped.f_coeffs)
    assert rep2.classification == rep.classification
    # canonicalization folds the orbit onto one representative: the search's
    # candidate, which its flip maps back to
    assert not solver._sign_flips(cand.f_coeffs) and solver._sign_flips(flipped.f_coeffs)


def test_independent_reverification_of_solutions():
    out = solver.multistart_search(la.entry_by_name("A46a0"), n_seeds=20, seed=9)
    assert out.solutions
    for cand, rep in out.solutions:
        vec = solver.residual_vector(cand)
        assert np.abs(vec).max() <= maxwell.TOL_SOLUTION


def test_classify_agreements():
    res = solver.classify_algebra(la.entry_by_name("2A2"), n_seeds=30, seed=0)
    assert res.agree and res.computed == "HasNonEinsteinEM"
    res = solver.classify_algebra(la.entry_by_name("A4,12"), n_seeds=30, seed=0)
    assert res.agree and not res.inconclusive
    assert res.max_null_stress <= 1e-8
    res = solver.classify_algebra(la.entry_by_name("A3,9+A1"), n_seeds=30, seed=0)
    assert res.agree


def test_classify_all_positive_entries():
    # the four positive entries all classify as HasNonEinsteinEM at a small
    # budget (the negatives run at full budget in the acceptance sweep)
    for name in ("2A2", "A2+2A1", "A46a0", "A49half"):
        res = solver.classify_algebra(la.entry_by_name(name), n_seeds=40, seed=5)
        assert res.agree and res.computed == "HasNonEinsteinEM", name


def test_verify_solution_family_reports():
    for fid in ("2A2", "A2+2A1", "A46a0", "A49half"):
        rep = solver.verify_solution_family(fid)
        assert rep.all_pass, fid
        assert set(rep.classifications) == {maxwell.NON_EINSTEIN_EM}
    rev = solver.verify_solution_family("A49half", orientation=-1)
    assert rev.all_pass and set(rev.hermitian_types) == {"Kahler"}


@pytest.mark.parametrize("change", [
    # a5 = 1 at a12 = a34 = 1: the metric is Einstein there
    {"default_grid": ({"a12": 1.0, "a34": 1.0},)},
    # not Kahler where a5 != 4, so no rho0 at those points
    {"omega_from_metric": lambda mp, o: two_form(e12=1.0, e34=2.0)},
    {"expected_kappa": lambda p, o: 1.0},
], ids=["einstein-point", "wrong-omega", "wrong-kappa"])
def test_the_family_battery_can_fail(monkeypatch, capsys, change):
    # A 2A2 family with one wrong fact fails its battery, and
    # `liemaxwell family 2A2` exits 1 on it.
    monkeypatch.setitem(FAMILIES, "2A2", dataclasses.replace(FAMILIES["2A2"], **change))
    rep = solver.verify_solution_family("2A2")
    assert not rep.all_pass
    if "default_grid" in change:
        assert rep.classifications == [maxwell.EINSTEIN_NULL_STRESS]
    elif "omega_from_metric" in change:
        assert kahler.NOT_COMPATIBLE in rep.hermitian_types
    else:
        assert rep.max_kappa_error == pytest.approx(3.12, abs=0.01)
        assert rep.max_residual <= solver.TOL_FAMILY
    assert cli.main(["family", "2A2", "--json"]) == cli.EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["all_pass"] is False


@pytest.mark.parametrize("fid", ["2A2", "A2+2A1", "A46a0"])
def test_family_refuses_an_orientation_it_does_not_state(fid):
    # Stated for +1 only: at -1 their Kahler expectations would read as a FAIL.
    assert FAMILIES[fid].orientations == (1,)
    with pytest.raises(ValueError, match=r"is stated for orientation \+1 only, not -1"):
        solver.verify_solution_family(fid, orientation=-1)


def test_candidate_refuses_boolean_parameters():
    a46, a44 = la.entry_by_name("A4,6^{a,0}"), la.entry_by_name("A4,4")
    metric = {"a1": 0.0, "a2": 0.0, "a3": 1.0}
    f6 = [0, 0, 0, 1, 0, 0]
    with pytest.raises(solver.CandidateError, match="boolean"):
        solver.Candidate(a46, {"a": True}, metric, f6)
    with pytest.raises(solver.CandidateError, match="boolean"):
        solver.Candidate(a46, {"a": 1.0}, {**metric, "a3": np.True_}, f6)
    assert solver.Candidate(a46, {"a": 1}, metric, f6).algebra_params == {"a": 1}
    # Booleans among the coefficients are refused as among the parameters,
    # in a list and as a bool array.
    a44_metric = {"a1": 1.0, "a2": 0.0, "a3": 1.0}
    for coeffs in ([True, 0, 0, 0, 0, 0], [np.True_, 0, 0, 0, 0, 0],
                   np.array([1, 0, 0, 0, 0, 0], dtype=bool)):
        with pytest.raises(solver.CandidateError, match="boolean"):
            solver.Candidate(a44, {}, a44_metric, coeffs)
    # Values that are not real numbers at all are refused the same way, never
    # with a TypeError or a bare ValueError from the conversion.
    for value in ("1", None, [1.0], 1j):
        with pytest.raises(solver.CandidateError, match="real numbers"):
            solver.Candidate(la.entry_by_name("A4,1"), {}, {"a1": value}, [0.0] * 6)
    for coeffs in ([1j] * 6, ["x"] * 6, [[1.0, 2.0], 3.0, 0.0, 0.0, 0.0, 0.0]):
        with pytest.raises(solver.CandidateError, match="real numbers"):
            solver.Candidate(a46, {"a": 1.0}, metric, coeffs)
    # Refusals that a JSON document meets earlier, in from_dict: the wrong
    # number of coefficients, non-finite values and integers beyond the
    # float range, in a list, an array or the parameters.
    for coeffs in ([1.0] * 5, [1.0] * 7, np.zeros(5), np.zeros((2, 6)), 1.0):
        with pytest.raises(solver.CandidateError, match="six components"):
            solver.Candidate(a44, {}, a44_metric, coeffs)
    for coeffs in ([math.inf, 0, 0, 0, 0, 0], np.array([0, 0, math.nan, 0, 0, 0]),
                   [10 ** 400, 0, 0, 0, 0, 0]):
        with pytest.raises(solver.CandidateError, match="must be finite"):
            solver.Candidate(a44, {}, a44_metric, coeffs)
    for value in (math.inf, -math.inf, math.nan, 10 ** 400):
        with pytest.raises(solver.CandidateError, match="must be finite"):
            solver.Candidate(a44, {}, {**a44_metric, "a2": value}, [1.0] + [0.0] * 5)
        with pytest.raises(solver.CandidateError, match="must be finite"):
            solver.Candidate(a46, {"a": value}, metric, [0.0] * 6)
    # A numpy integer orientation is kept as a Python int, so the candidate
    # serializes to JSON.
    c = solver.Candidate(a44, {}, a44_metric, [1.0, 0, 0, 0, 0, 0], orientation=np.int64(-1))
    assert type(c.orientation) is int and c.orientation == -1
    assert json.loads(json.dumps(c.to_dict()))["orientation"] == -1


def test_a_name_where_an_entry_belongs_is_a_type_error(monkeypatch):
    # Names are resolved where they are typed; inside the library a string
    # in place of a CatalogEntry is refused before any program runs.
    def no_program(*segments):
        raise AssertionError("a program ran")

    monkeypatch.setattr(solver, "_run_block", no_program)
    with pytest.raises(TypeError, match="CatalogEntry"):
        solver.Candidate("A4,4", {}, {"a1": 1.0, "a2": 0.0, "a3": 1.0}, [1.0] + [0.0] * 5)
    with pytest.raises(TypeError, match="CatalogEntry"):
        solver.multistart_search("A4,4", n_seeds=2)
    with pytest.raises(TypeError, match="CatalogEntry"):
        solver.multistart_many([solver.SearchRequest(la.entry_by_name("2A2"), 2),
                                solver.SearchRequest("A4,4", 2)])
    with pytest.raises(TypeError, match="CatalogEntry"):
        solver.classify_table([la.entry_by_name("2A2"), "A4,4"], n_seeds=2)
    with pytest.raises(TypeError, match="CatalogEntry"):
        solver.classify_algebra("2A2", n_seeds=2)


def test_family_points_samples_and_starts_still_build():
    # The package's own numbers pass the boolean refusal: every family grid
    # point in both orientations, every catalog sample and search starts on
    # the generic branch and on named variants.
    for fam in FAMILIES.values():
        for point in fam.default_grid:
            for orientation in (1, -1):
                cand = solver.family_candidate(fam, point, orientation)
                la.instantiate(cand.entry, cand.algebra_params)
    for entry in la.catalog():
        la.instantiate(entry, entry.sample_params())
        _, ctx, x0 = solver._starts([(entry, 3, range(4))], "unit_F")
        for cand in ctx.candidates(x0) if ctx is not None else []:
            solver.residual_vector(cand)


def test_candidate_serialization_roundtrip(tmp_path):
    c = cand_2a2()
    path = tmp_path / "c.json"
    path.write_text(__import__("json").dumps(c.to_dict()))
    c2 = solver.Candidate.from_json(path)
    assert c2.entry is la.entry_by_name("2A2")
    assert np.allclose(c2.f_coeffs, c.f_coeffs)
    with pytest.raises(solver.CandidateError):
        solver.Candidate.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(solver.CandidateError):
        solver.Candidate.from_json(bad)


def test_variant_cycling_hits_named_branches():
    entry = la.entry_by_name("A4,5^{a,b}")
    rng = np.random.default_rng(0)
    seen = set()
    for idx in range(10):
        ap = solver.sample_algebra_params(entry, rng, variant_index=idx)
        seen.add(tuple(sorted(ap.items())))
        assert ap["a"] <= ap["b"]
    assert (("a", -0.5), ("b", 0.5)) in seen  # the a = -b branch


def test_admissible_short_circuit_matches_failure_list():
    # One predicate decides: a stack's decisions are those of each vector
    # alone, and those of validate_metric, whose failure list is empty
    # exactly when it admits.
    rng = np.random.default_rng(43)
    for entry in la.catalog():
        names = entry.metric_param_names
        positive = set(entry.positive_metric_params)
        draws = []
        for k in range(60):
            # Alternate a wide and a narrow box for the off-diagonal
            # parameters, so every entry sees both verdicts.
            spread = 3.0 if k % 2 else 0.3
            draws.append([float(rng.uniform(-0.5, 3) if n in positive
                                else rng.uniform(-spread, spread)) for n in names])
        stack = np.array(draws).reshape(60, len(names))
        got = mg.admissible(entry, stack)
        assert got.shape == (60,) and got.dtype == bool
        assert (mg.admissible(entry, stack.reshape(3, 20, -1)) == got.reshape(3, 20)).all()
        for vec, ok in zip(stack, got.tolist()):
            assert mg.admissible(entry, vec) is ok, (entry.name, vec)
            check = mg.validate_metric(entry, dict(zip(names, vec)))
            assert check.ok is ok and bool(check.failures) is not ok, (entry.name, vec)
        assert set(got.tolist()) == ({True, False} if names else {True}), entry.name


def _sample_one_draw_at_a_time(entry, rng):
    """The sampler's reference: draw one parameter vector, check it alone
    with ``admissible``, repeat."""
    names = entry.metric_param_names
    if not names:
        return {}
    positive = set(entry.positive_metric_params)
    for attempt in range(solver.SAMPLE_TRIES):
        shrink = 0.7 ** max(0, (attempt - 150) // 50)
        params = {n: float(rng.uniform(10 * solver.EPS_PD if n in positive else -3.0 * shrink,
                                       1.0 + 2.0 * shrink if n in positive else 3.0 * shrink))
                  for n in names}
        if mg.admissible(entry, np.array(list(params.values()))):
            return params
    raise ValueError(f"{entry.name}: empty feasible box")


def _draws_consumed(seed, state, width):
    rng = np.random.default_rng(seed)
    for count in range(601):
        if rng.bit_generator.state == state:
            return count
        rng.uniform(size=width)
    raise AssertionError("more than 600 draws")


def test_block_sampler_matches_one_draw_at_a_time():
    # A tight extra constraint (|a2| < 0.001) drives the sampler through the
    # shrinking boxes and, for some seeds, to an empty box.
    a44 = la.entry_by_name("A4,4")
    tight = dataclasses.replace(a44, metric_constraints=(*a44.metric_constraints,
                                                         "0.000001 - a2^2"))
    # One sampler call for 20 seeds gives every seed the draw and the
    # following generator state of a call with its generator alone.
    seen = set()
    for entry in [*la.catalog(), tight]:
        rngs = [np.random.default_rng(seed) for seed in range(20)]
        together = solver.sample_metric_params(entry, rngs)
        assert len(together) == 20
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = _sample_one_draw_at_a_time(entry, ref)
            except ValueError:
                want = None
            got = solver.sample_metric_params(entry, [rng])[0]
            assert got == want == together[seed], (entry.name, seed)
            assert (rng.bit_generator.state == ref.bit_generator.state
                    == rngs[seed].bit_generator.state), (entry.name, seed)
            if entry is tight:
                count = _draws_consumed(seed, ref.bit_generator.state, 3)
                seen.add("empty" if want is None else "first box" if count <= 200 else "shrunk")
    assert seen == {"empty", "first box", "shrunk"}


def test_sampler_checks_each_run_of_draws_with_one_admissible_call(monkeypatch):
    # Each run of draws (200, then 50 at a time) is checked by one
    # admissible call on the draws of every generator still searching at
    # its start: those whose one-at-a-time reference (which calls
    # admissible itself, past the spy) draws past it.  The tight copy of
    # A4,4 runs into the shrinking boxes and, for some seeds, to the end.
    calls = []

    def spy(entry, params):
        calls.append(np.shape(params))
        return mg.admissible(entry, params)

    monkeypatch.setattr(solver, "admissible", spy)
    a44 = la.entry_by_name("A4,4")
    tight = dataclasses.replace(a44, metric_constraints=(*a44.metric_constraints,
                                                         "0.000001 - a2^2"))
    runs = set()
    for entry in (a44, la.entry_by_name("2A2"), tight):
        m = len(entry.metric_param_names)
        drawn = []
        for seed in range(20):
            ref = np.random.default_rng(seed)
            with contextlib.suppress(ValueError):
                _sample_one_draw_at_a_time(entry, ref)
            drawn.append(_draws_consumed(seed, ref.bit_generator.state, m))
        want, attempt = [], 0
        while attempt < solver.SAMPLE_TRIES and max(drawn) > attempt:
            stop = 200 if attempt == 0 else attempt + 50
            want.append((sum(d > attempt for d in drawn), stop - attempt, m))
            attempt = stop
        calls.clear()
        solver.sample_metric_params(entry, [np.random.default_rng(seed) for seed in range(20)])
        assert calls == want, entry.name
        runs.add(len(want))
    assert 1 in runs and max(runs) == 9  # 200 + 8 * 50 = SAMPLE_TRIES draws


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _starts_seed_by_seed(segments, mode):
    """Check the starts ``_starts`` draws for a program against
    ``orc.start_alone`` seed by seed; return the kernel sizes met."""
    seen = set()
    status, ctx, x0 = solver._starts(segments, mode)
    lone = [(entry, *orc.start_alone(entry, seed, index, mode))
            for entry, seed, indices in segments for index in indices]
    assert status == [a if b is None else "refined" for _, a, b in lone], segments
    started = [(entry, one, start) for entry, one, start in lone if start is not None]
    assert (ctx is None) == (x0 is None) == (not started)
    if not started:
        return seen
    assert len(x0) == len(ctx._facts) == len(started)
    for s, (entry, one, start) in enumerate(started):
        w = len(start)
        label = (entry.name, len(lone), s)
        assert _same_bits(x0[s, :w], start) and not x0[s, w:].any(), label
        facts, [alone] = ctx.take([s])._facts, one._facts
        assert _same_bits(facts[0].kernel_t, alone.kernel_t), label
        assert ctx._facts[s].params == alone.params, label
        assert ctx._facts[s].entry is entry and ctx._facts[s].width == w, label
        for name in solver.ResidualContext._SEED_AXIS:
            got, want = getattr(ctx, name)[s], getattr(one, name)[0]
            if name == "_lin":
                assert not got[w:].any(), label
                got = got[:w]
            assert _same_bits(got, want), (label, name)
        seen.add(len(alone.kernel_t))
    return seen


@pytest.mark.parametrize("mode", solver.MODES)
def test_stacked_starts_have_the_bits_of_one_seed_at_a_time(mode):
    # _starts draws the seeds of a program together: one sampler call per
    # segment, one stacked context build for the program's distinct
    # (entry, algebra parameters) pairs and one stacked |F|^2_g.  Each
    # seed's status, start, entry, width, kernel basis and per-seed
    # constants have the bits of one seed at a time (orc.start_alone,
    # whose context is a one-seed build); a start and the folded map are
    # zero past the seed's own width.  Programs of one segment per entry,
    # and one program of a segment of every entry, each at its own seed
    # and index range.
    seen = set()
    for entry in la.catalog():
        for n_seeds in (1, 2, 8, 32):
            seen |= _starts_seed_by_seed([(entry, 1024 * 9, range(n_seeds))], mode)
    assert len(seen) > 2
    program = [(entry, 1024 * (9 + k % 3), range(k % 5, k % 5 + 3))
               for k, entry in enumerate([*la.catalog(), _tight_a46()])]
    assert len(_starts_seed_by_seed(program, mode)) > 2


def test_a_program_builds_its_contexts_and_algebras_per_program(monkeypatch):
    # One _run_block builds one stacked context for the whole program and
    # instantiates its end points' algebras once per entry, however many
    # seeds and entries it holds: one entry at 8 and 32 seeds, and the four
    # positive rows at 8 seeds each, as the classify workload runs them.
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("instantiate", "instantiate_many", "em_residual", "sample_metric_params"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    monkeypatch.setattr(solver.ResidualContext, "__init__",
                        counted("ResidualContext", solver.ResidualContext.__init__))
    by_size = {}
    for n_seeds in (8, 32):
        counts.clear()
        records = solver._run_block((la.entry_by_name("A4,6^{a,0}"), 1024 * 9, 0, n_seeds,
                                     "unit_F"))
        assert sum(r["status"] == "refined" for r in records) == n_seeds
        by_size[n_seeds] = dict(counts)
    assert by_size[8] == by_size[32]
    assert by_size[8]["ResidualContext"] == by_size[8]["em_residual"] == 1
    assert by_size[8].get("instantiate", 0) == 0
    counts.clear()
    records = solver._run_block(*[(la.entry_by_name(name), 1024 * 9, 0, 8, "unit_F")
                                  for name in _POSITIVE])
    assert sum(r["status"] == "refined" for r in records) == 8 * len(_POSITIVE)
    assert counts["ResidualContext"] == counts["em_residual"] == 1
    assert counts["sample_metric_params"] == len(_POSITIVE)
    assert counts["instantiate_many"] == 2 * len(_POSITIVE)  # the build, the re-verification
    assert counts.get("instantiate", 0) == 0


@pytest.mark.parametrize("name,n_seeds", [("2A2", 16), ("A4,4", 16), ("A4,6^{a,0}", 16),
                                          ("A4,5^{a,b}", 16), ("A4,11^a", 32)])
def test_lockstep_block_matches_seeds_run_alone(monkeypatch, name, n_seeds):
    # Seeds refined in one block, and each seed in a block of its own.  A
    # seed's arithmetic does not depend on its neighbours, so end points agree
    # bit for bit whether or not the seed converged, and the re-verification
    # reports, made by one stacked call per group, agree to round-off.
    # A4,11^a fills a whole block with seeds that stop at different ticks.
    # Every rung of a tick is evaluated, a refused one at its seed's point;
    # a feasible spy checks that every block but A4,6^{a,0}'s refused rungs,
    # so those passes are held to lone runs too.
    refused = []
    feasible = solver.ResidualContext.feasible

    def spy(self, x):
        ok = feasible(self, x)
        refused.append(np.size(ok) - np.count_nonzero(ok))
        return ok

    monkeypatch.setattr(solver.ResidualContext, "feasible", spy)
    entry = la.entry_by_name(name)
    block = solver._run_block((entry, 7, 0, n_seeds, "unit_F"))
    monkeypatch.undo()
    assert (sum(refused) > 0) == (name != "A4,6^{a,0}"), sum(refused)
    alone = [solver._run_block((entry, 7, i, i + 1, "unit_F"))[0]
             for i in range(n_seeds)]
    for b, a in zip(block, alone):
        assert b["status"] == a["status"] == "refined", (name, b["index"])
        assert (b["reason"], b["iterations"]) == (a["reason"], a["iterations"]), (name, b["index"])
        cb, ca = b["candidate"], a["candidate"]
        assert cb.algebra_params == ca.algebra_params
        assert np.array_equal(cb.f_coeffs, ca.f_coeffs), (name, b["index"])
        assert cb.metric_params == ca.metric_params, (name, b["index"])
        rb, ra = b["report"], a["report"]
        assert rb.classification == ra.classification, (name, b["index"])
        for field in ("r_em", "r_dF", "r_dstarF", "scalar_curvature"):
            x, y = getattr(rb, field), getattr(ra, field)
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (name, b["index"], field)
    if name == "A4,5^{a,b}":
        # Generic draws and named variants: several algebras and kernel sizes
        # share the block.
        algebras = {tuple(sorted(b["candidate"].algebra_params.items())) for b in block}
        sizes = {len(solver.ResidualContext([(entry, dict(ap))])._facts[0].kernel_t)
                 for ap in algebras}
        assert len(algebras) > 2 and len(sizes) > 1


def test_seed_ledger_is_complete_and_parallel_safe():
    a = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=40, seed=3, n_jobs=1)
    b = solver.multistart_search(la.entry_by_name("2A2"), n_seeds=40, seed=3, n_jobs=2)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    ledger = a.to_dict()
    assert list(ledger["stop_reasons"]) == list(solver.STOP_REASONS)
    assert sum(ledger["stop_reasons"].values()) == ledger["seeds_used"]
    assert ledger["seeds_refined"] == ledger["seeds_used"] - ledger["stop_reasons"]["infeasible start"]
    assert ledger["seeds_used"] <= ledger["seeds_sampled"] <= 40
    assert ledger["stop_reasons"]["converged"] >= 1


def _derived(tmp_path, name, edit):
    """Entry ``name`` of a ``load_catalog`` copy edited by ``edit``."""
    entries = la.load_catalog(catalog_copy(tmp_path, name, edit))
    return next(entry for entry in entries if entry.name == name)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_a_search_runs_the_entry_it_is_given(tmp_path, n_jobs):
    # A copy of A4,4 whose extra constraint a1 > 100 leaves no admissible
    # metric in the sampler's box: no seed samples, although the packaged
    # A4,4 of the same name samples them all.  40 seeds make two programs,
    # so n_jobs=2 sends the copy to the pool.  The report still records the
    # packaged catalog's checksum.
    copy = _derived(tmp_path, "A4,4", lambda raw: raw["constraints"].append("a1 - 100"))
    out = solver.multistart_search(copy, n_seeds=40, seed=1024, n_jobs=n_jobs)
    assert out.entry_name == "A4,4"
    assert out.seeds_sampled == out.seeds_used == 0 and not out.solutions
    assert out.to_dict()["catalog_sha256"] == la.catalog_checksum()
    packaged = la.entry_by_name("A4,4")
    assert solver.multistart_search(packaged, n_seeds=4, seed=1024).seeds_sampled == 4


def _double_e1_e4(raw):
    """Edit A4,4's record to [e1, e4] = 2 e1."""
    next(b for b in raw["brackets"] if (b["i"], b["j"]) == (1, 4))["coeffs"] = [[1, "2"]]


def _refined_records(monkeypatch, entry, n_seeds, seed):
    """The records of the refined seeds of one search, as ``_outcome`` sees them."""
    records = []
    outcome = solver._outcome

    def spy(request, results):
        records.extend(results)
        return outcome(request, results)

    monkeypatch.setattr(solver, "_outcome", spy)
    solver.multistart_search(entry, n_seeds=n_seeds, seed=seed)
    monkeypatch.undo()
    return [r for r in records if r["status"] == "refined"]


def test_a_derived_entry_is_reverified_on_its_own_algebra(tmp_path, monkeypatch):
    # A copy of A4,4 whose bracket is [e1, e4] = 2 e1: every refined seed's
    # report is the reference chain's on the copy's algebra, metric and F.
    copy = _derived(tmp_path, "A4,4", _double_e1_e4)
    refined = _refined_records(monkeypatch, copy, 8, 5)
    assert len(refined) == 8
    for r in refined:
        cand, report = r["candidate"], r["report"]
        want = maxwell.em_residual(la.instantiate(copy, cand.algebra_params),
                                   la.metric_from_params(copy, cand.metric_params), cand.f_coeffs)
        assert report.classification == want.classification, r["index"]
        for field in ("r_em", "r_dF", "r_dstarF", "scalar_curvature"):
            x, y = getattr(report, field), getattr(want, field)
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (r["index"], field)


def test_a_derived_entry_candidate_is_checked_and_refined_on_its_entry(tmp_path, monkeypatch):
    # Each refined candidate of a search on the [e1, e4] = 2 e1 copy of A4,4
    # holds the copy, so residual_vector and refine run on the copy's
    # algebra, never on the packaged A4,4 of the same name (whose EM rows
    # at seed 5's first candidate read 1.856 against the copy's 2.575).
    copy = _derived(tmp_path, "A4,4", _double_e1_e4)
    refined = _refined_records(monkeypatch, copy, 8, 5)
    assert len(refined) == 8
    for r in refined:
        cand = r["candidate"]
        assert cand.entry is copy, r["index"]
        want = maxwell.em_residual(la.instantiate(copy, cand.algebra_params),
                                   la.metric_from_params(copy, cand.metric_params),
                                   cand.f_coeffs).r_em
        got = float(np.abs(solver.residual_vector(cand)[:10]).max())
        assert abs(got - want) <= 1e-12 * max(got, want), r["index"]
        res = solver.refine(cand)
        assert res.candidate.entry is copy, r["index"]
        check = np.abs(solver.residual_vector(res.candidate)).max()
        assert check == pytest.approx(res.max_residual, rel=1e-9, abs=1e-13), r["index"]


def test_zero_evidence_is_inconclusive(monkeypatch):
    def no_start(entry, rngs):  # the sampler: no admissible draw
        return [None] * len(rngs)

    monkeypatch.setattr(solver, "sample_metric_params", no_start)
    out = solver.multistart_search(la.entry_by_name("A4,4"), n_seeds=4, seed=0)
    assert out.seeds_used == 0 and not out.solutions
    assert out.seeds_sampled == out.seeds_refined == sum(out.stop_reasons.values()) == 0
    res = solver.classify_algebra(la.entry_by_name("A4,4"), n_seeds=4)
    assert res.computed == "NoNonEinsteinEMFound"
    assert res.inconclusive and not res.agree
    assert res.to_dict()["best_free_nonsolution_residual"] is None  # no seed refined


def test_an_algebra_range_outside_the_sampling_window_fails_every_seed():
    # sample_algebra_params draws from each range clipped to [-2, 2]: a copy
    # of A4,9^b (no variants) whose b lies in [3, 4] leaves it no value, so
    # every seed is "sampling-failed" and the row has no evidence.  numpy
    # refuses the empty window itself; b in (2, 4] leaves the window the
    # one value 2, which the open bound refuses draw after draw.  The
    # unbounded parameters of the catalog are drawn inside the window.
    a49 = la.entry_by_name("A4,9^b")
    [spec] = a49.params
    far, edge = (dataclasses.replace(a49, variants=(), params=(dataclasses.replace(
        spec, lo=lo, hi=4.0, open_lo=open_lo, open_hi=False, exclude=()),))
        for lo, open_lo in ((3.0, False), (2.0, True)))
    with pytest.raises(ValueError):
        solver.sample_algebra_params(far, np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape("A4,9^b: cannot sample parameter b")):
        solver.sample_algebra_params(edge, np.random.default_rng(0))
    assert solver._starts([(edge, 0, range(2))], "unit_F") == (["sampling-failed"] * 2, None, None)
    status, ctx, x0 = solver._starts([(far, 0, range(4))], "unit_F")
    assert status == ["sampling-failed"] * 4 and ctx is None and x0 is None
    out = solver.multistart_search(far, n_seeds=4)
    assert out.seeds_used == out.seeds_sampled == out.seeds_refined == 0
    assert not out.solutions and sum(out.stop_reasons.values()) == 0
    [row] = solver.classify_table([far], n_seeds=4)
    assert row.inconclusive and not row.agree
    unbounded = [(entry, spec.name) for entry in la.catalog() for spec in entry.params
                 if spec.lo is None or spec.hi is None]
    assert len(unbounded) == 6
    for entry, name in unbounded:
        top = max(abs(solver.sample_algebra_params(entry, np.random.default_rng(seed))[name])
                  for seed in range(200))
        assert 1.9 < top <= 2.0, (entry.name, name)


def test_seeds_that_ran_no_iteration_are_no_evidence(monkeypatch):
    # Every start refused by the feasibility check: the seeds reach
    # refinement, so they count as used, but run no iteration.  Their
    # unrefined starts are no closest miss and the row is inconclusive.
    monkeypatch.setattr(solver.ResidualContext, "feasible",
                        lambda self, x: np.zeros(x.shape[:-1], dtype=bool))
    out = solver.multistart_search(la.entry_by_name("A4,4"), n_seeds=4, seed=0)
    assert out.seeds_used == out.stop_reasons["infeasible start"] == 4
    assert out.seeds_refined == 0 and out.best_nonsolution_residual == float("inf")
    res = solver.classify_algebra(la.entry_by_name("A4,4"), n_seeds=4)
    assert res.inconclusive and not res.agree
    assert res.to_dict()["best_nonsolution_residual"] is None


def test_programs_span_requests_and_widths(monkeypatch):
    # Search widths 6 and 7 (A4,5^{a,b}, by variant), 8 (2A2) and 6 (A4,4,
    # free_F).  Seeds are packed in request order into programs of at most
    # 32 seeds, so programs span requests and mix widths, and every
    # request's outcome is that of its own search.
    requests = [solver.SearchRequest(la.entry_by_name("A4,5^{a,b}"), 14, 5),
                solver.SearchRequest(la.entry_by_name("2A2"), 24, 9),
                solver.SearchRequest(la.entry_by_name("A4,4"), 6, 9, mode="free_F")]
    programs = []
    levmar = solver._levmar

    def recording(ctx, x0, tol, max_iter):
        programs.append({facts.width for facts in ctx._facts})
        return levmar(ctx, x0, tol, max_iter)

    monkeypatch.setattr(solver, "_levmar", recording)
    many = solver.multistart_many(requests)
    monkeypatch.undo()
    assert set().union(*programs) == {6, 7, 8}
    assert any(len(widths) > 1 for widths in programs)
    for request, outcome in zip(requests, many):
        alone = solver.multistart_search(request.entry, request.n_seeds, request.seed,
                                         mode=request.mode)
        assert json.dumps(outcome.to_dict()) == json.dumps(alone.to_dict()), request


def test_classify_table_rows_are_one_row_calls():
    # 2A2 stops after its unit_F pass; the other rows run a free_F pass too.
    entries = [la.entry_by_name(name) for name in ["2A2", "A4,4", "A4,5^{a,b}", "A3,1+A1"]]
    table = solver.classify_table(entries, n_seeds=6, seed=11)
    assert [r.to_dict() for r in table] == [
        solver.classify_algebra(entry, n_seeds=6, seed=11).to_dict() for entry in entries]
    assert table[0].best_free_nonsolution_residual == float("inf")
    assert all(r.best_free_nonsolution_residual < float("inf") for r in table[1:])


def _miss_record(**residuals):
    """A refined seed's record whose end point is no solution."""
    values = {"r_em": 0.2, "r_dF": 0.3, "r_dstarF": 0.1, **residuals}
    report = maxwell.EMReport(**values, einstein=False, trivial_F=False, scalar_curvature=0.0,
                              classification=maxwell.NOT_A_SOLUTION)
    return {"index": 0, "status": "refined", "reason": "stalled", "candidate": None,
            "report": report}


@pytest.mark.parametrize("place", ["r_em", "r_dF", "r_dstarF"])
def test_a_nan_residual_makes_the_closest_miss_nan(place):
    # Python's max(0.2, nan, 0.1) is 0.2 and min(inf, nan) is inf, so a NaN
    # was kept or dropped by its position.  In every place and seed order it
    # gives a NaN closest miss, reported as null, and an inconclusive row.
    entry = la.entry_by_name("A4,4")
    request = solver.SearchRequest(entry, 3)
    finite = [_miss_record(), _miss_record(r_em=0.05, r_dF=0.01, r_dstarF=0.02)]
    for records in itertools.permutations([*finite, _miss_record(**{place: math.nan})]):
        out = solver._outcome(request, list(records))
        assert math.isnan(out.best_nonsolution_residual), records
        assert out.to_dict()["best_nonsolution_residual"] is None
        row = solver._classify_row(entry, out, None)
        assert row.inconclusive and not row.agree
        assert row.to_dict()["best_nonsolution_residual"] is None
    for records in itertools.permutations(finite):
        out = solver._outcome(request, list(records))
        assert out.best_nonsolution_residual == 0.05
        row = solver._classify_row(entry, out, None)
        assert not row.inconclusive and row.agree


def test_classify_reports_the_free_pass_closest_miss():
    # The A3,1+A1 free_F pass at seed 1024*103 with 2 seeds ends 3.9e-9 from
    # a solution, inside the evidence band.  The row reports that miss; the
    # verdict and the agreement still rest on the unit_F pass alone.
    band = solver.EVIDENCE_FACTOR * maxwell.TOL_SOLUTION
    row = solver.classify_algebra(la.entry_by_name("A3,1+A1"), n_seeds=2, seed=1024 * 103)
    assert 0 < row.best_free_nonsolution_residual <= band
    assert row.best_nonsolution_residual > band
    assert row.computed == "NoNonEinsteinEMFound" and row.agree and not row.inconclusive
    assert row.to_dict()["best_free_nonsolution_residual"] == row.best_free_nonsolution_residual
    # The free_F pass does not run once the unit_F pass finds a solution.
    positive = solver.classify_algebra(la.entry_by_name("2A2"), n_seeds=4, seed=0)
    assert positive.n_non_einstein >= 1
    assert positive.to_dict()["best_free_nonsolution_residual"] is None


_LM_TOL = min(maxwell.TOL_SOLUTION * 1e-2, 1e-11)  # the tolerance _run_block refines to


def _lone_starts(entry, seed, indices, mode):
    """(one-seed context, unpadded start) of each seed that ``_starts`` starts."""
    _, ctx, x0 = solver._starts([(entry, seed, indices)], mode)
    return [(solver.ResidualContext([(entry, facts.params)], mode), x0[s, :facts.width])
            for s, facts in enumerate(ctx._facts)]


def _program(ctxs):
    """One context built for the seeds of the one-seed contexts ``ctxs``."""
    return solver.ResidualContext([(c._facts[0].entry, c._facts[0].params) for c in ctxs],
                                  ctxs[0].mode)


def _blocks(entry, seed, n_seeds, mode):
    """(contexts, starts) of each group of equal search dimension, as
    ``_run_block`` forms them."""
    groups = {}
    for ctx, x0 in _lone_starts(entry, seed, range(n_seeds), mode):
        groups.setdefault(len(x0), []).append((ctx, x0))
    return [tuple(zip(*members)) for members in groups.values()]


def _tight_a46():
    """A4,6^{a,0} with |a2| < 0.001, whose ladders reject many rungs as infeasible."""
    a46 = la.entry_by_name("A4,6^{a,0}")
    return dataclasses.replace(a46, metric_constraints=(*a46.metric_constraints,
                                                        "0.000001 - a2^2"))


def _assert_same_run(got, want, label):
    x, iters, reason, n_evals = got
    wx, witers, wreason, wevals, _ = want
    assert (reason, iters, n_evals) == (wreason, witers, wevals), label
    assert np.abs(x - wx).max() <= 1e-12 * max(1.0, np.abs(wx).max()), label


def test_ladder_matches_lone_runs():
    # Stacked blocks against the one-trial-at-a-time reference, seed by seed.
    # A3,9+A1 reaches slow progress, the iteration cap and stalled runs,
    # A4,11^a fills a block of 32 with converged and slow-progress seeds,
    # and a tightened A4,6^{a,0} (|a2| < 0.001) rejects many trials.
    seen = set()
    for entry, n_seeds, mode in [(la.entry_by_name("A3,9+A1"), 16, "unit_F"),
                                 (la.entry_by_name("A4,11^a"), 32, "unit_F"),
                                 (_tight_a46(), 16, "free_F")]:
        for ctxs, starts in _blocks(entry, 5, n_seeds, mode):
            x, iters, reasons, n_evals = solver._levmar(
                _program(ctxs), np.array(starts), _LM_TOL, 45)
            for s, (ctx, x0) in enumerate(zip(ctxs, starts)):
                want = orc.levmar_alone(ctx, x0, _LM_TOL, 45)
                _assert_same_run((x[s], iters[s], reasons[s], n_evals[s]), want, (entry.name, s))
                seen.add(reasons[s])
    assert {"converged", "slow progress", "iteration cap"} <= seen
    assert seen & {"stalled", "constraint-trapped"}


def test_narrow_seeds_keep_their_bits_after_the_wide_seed_stops():
    # A 2A2 family point (width 8, free_F) converges at its start, so after
    # the first compaction the width-8 program holds only the four A2+2A1
    # starts (width 6).  Its one width is then not the program's: solved at
    # width 8, their steps would round differently from a lone run's.
    wide = solver.ResidualContext([(la.entry_by_name("2A2"), {})], mode="free_F")
    family = cand_2a2()
    narrow = _lone_starts(la.entry_by_name("A2+2A1"), 5, range(4), "free_F")
    x0 = np.zeros((5, 8))
    y = np.linalg.lstsq(wide._facts[0].kernel_t.T, family.f_coeffs, rcond=None)[0]
    x0[0] = solver._point(la.entry_by_name("2A2"), family.metric_params, y)
    for s, (_, start) in enumerate(narrow, 1):
        x0[s, :6] = start
    program = _program([wide, *(ctx for ctx, _ in narrow)])
    x, iters, reasons, n_evals = solver._levmar(program, x0, _LM_TOL, 45)
    assert (iters[0], reasons[0]) == (0, "converged")
    for s, (ctx, start) in enumerate(narrow, 1):
        alone_x, alone_iters, alone_reasons, alone_evals = solver._levmar(
            ctx, start[None], _LM_TOL, 45)
        assert iters[s] > 0
        assert (iters[s], reasons[s], n_evals[s]) == (alone_iters[0], alone_reasons[0],
                                                      alone_evals[0]), s
        assert np.array_equal(x[s], np.append(alone_x[0], [0.0, 0.0])), s


def test_ladder_takes_fewer_ticks_than_trials(monkeypatch):
    # Each tick is one stacked solve.  One trial per tick would need as many
    # ticks as the slower seed makes trials.
    ticks = []
    solve = solver._solve_stack
    monkeypatch.setattr(solver, "_solve_stack", lambda m, rhs: ticks.append(1) or solve(m, rhs))
    [(ctxs, starts)] = _blocks(la.entry_by_name("A4,4"), 5, 2, "unit_F")
    solver._levmar(_program(ctxs), np.array(starts), _LM_TOL, 45)
    trials = [orc.levmar_alone(ctx, x0, _LM_TOL, 45)[4] for ctx, x0 in zip(ctxs, starts)]
    assert len(ticks) < max(trials)


def test_solve_stack_refuses_only_the_singular_systems():
    # A singular rung among rungs that share their seed's right-hand side:
    # the others keep the bits of the stacked solve.
    rng = np.random.default_rng(45)
    m = rng.uniform(-1, 1, (2, solver._RUNGS, 4, 4)) + 4 * np.eye(4)
    rhs = rng.uniform(-1, 1, (2, 1, 4, 1))
    want, _ = solver._solve_stack(m, rhs)
    m[1, 1] = 0.0
    delta, solved = solver._solve_stack(m, rhs)
    assert solved.tolist() == [[True, True, True], [True, False, True]]
    assert np.array_equal(delta[solved], want[solved]) and not delta[1, 1].any()


@pytest.mark.parametrize("trial", [0, 1])
def test_singular_rung_ends_the_ladder(monkeypatch, trial):
    # Trial 0 of iteration 2 is rejected on this start, so refusing trial 0
    # or 1 there both change the run.  A singular rung gives lam x10, and
    # the rungs after it must be dropped.
    [(ctxs, starts)] = _blocks(la.entry_by_name("A4,4"), 5, 1, "unit_F")
    ctx, x0 = ctxs[0], starts[0]
    refused = (2, trial)
    jacobian, solve = solver._tangent_step, solver._solve_stack
    seen = {"jacobians": 0, "ticks": 0}

    def counted_jacobian(*args, **kwargs):
        seen["jacobians"] += 1
        seen["ticks"] = 0
        return jacobian(*args, **kwargs)

    def refusing_solve(m, rhs):
        delta, solved = solve(m, rhs)
        tick, rung = divmod(refused[1], solver._RUNGS)
        if seen["jacobians"] == refused[0] + 1 and seen["ticks"] == tick:
            solved[0, rung] = False  # the one seed's rung
        seen["ticks"] += 1
        return delta, solved

    monkeypatch.setattr(solver, "_tangent_step", counted_jacobian)
    monkeypatch.setattr(solver, "_solve_stack", refusing_solve)
    x, iters, reasons, n_evals = solver._levmar(ctx, x0[None], _LM_TOL, 45)
    monkeypatch.undo()
    used = []
    want = orc.levmar_alone(ctx, x0, _LM_TOL, 45,
                            singular=lambda *at: at == refused and not used.append(at))
    assert used == [refused]
    _assert_same_run((x[0], iters[0], reasons[0], n_evals[0]), want, trial)
    plain = orc.levmar_alone(ctx, x0, _LM_TOL, 45)
    assert want[4] != plain[4] or np.abs(want[0] - plain[0]).max() > 0


_POSITIVE = ["2A2", "A2+2A1", "A4,6^{a,0}", "A4,9^{-1/2}"]


def test_one_kernel_pass_per_tick(monkeypatch):
    # The start, then one pass per tick over the rungs, whose accepted rows
    # also give the next Jacobians.  A tick is a run of stacked solves, one
    # per width present: on a 2-seed block and on the padded mixed-width
    # unit_F program of the four positive classify rows.
    runs = []
    levmar, kernel, solve = solver._levmar, solver.ResidualContext._kernel, solver._solve_stack

    def run(ctx, *args, **kwargs):
        runs.append(({facts.width for facts in ctx._facts}, []))
        return levmar(ctx, *args, **kwargs)

    monkeypatch.setattr(solver, "_levmar", run)
    monkeypatch.setattr(solver.ResidualContext, "_kernel",
                        lambda self, *args: runs[-1][1].append("k") or kernel(self, *args))
    monkeypatch.setattr(solver, "_solve_stack",
                        lambda *args: runs[-1][1].append("s") or solve(*args))
    [(ctxs, starts)] = _blocks(la.entry_by_name("A4,4"), 5, 2, "unit_F")
    solver._levmar(_program(ctxs), np.array(starts), _LM_TOL, 45)
    solver.multistart_many([solver.SearchRequest(la.entry_by_name(name), 2, 5)
                            for name in _POSITIVE])
    monkeypatch.undo()
    assert len(runs) == 2 and len(runs[1][0]) > 1
    for _, log in runs:
        text = "".join(log)
        ticks = len(re.findall("s+", text))
        assert re.fullmatch("k(s+k)*", text) and text.count("k") == ticks + 1 and ticks > 1, text


def test_reused_jacobians_match_fresh_ones(monkeypatch):
    # Every Jacobian _levmar forms from a kernel pass it already made, held
    # to residual_jacobian at the LM's own points and seeds: at the first
    # tick, after seeds stop, after a pass in which the solve or feasible
    # refused a rung (evaluated at its seed's point), in a padded
    # mixed-width program and in free_F mode.  Each tick's pass covers
    # (n, _RUNGS) points against a context of exactly the n running seeds.
    seen, state = set(), {}
    levmar, kernel, step = solver._levmar, solver.ResidualContext._kernel, solver._tangent_step

    def run(ctx, *args, **kwargs):
        state.update(first=True, live=len(ctx._lin), refused=False)
        if len({facts.width for facts in ctx._facts}) > 1:
            seen.add("mixed widths")
        return levmar(ctx, *args, **kwargs)

    def traced_kernel(self, xs):
        caller = sys._getframe(1)
        if caller.f_code is levmar.__code__:  # not residual_jacobian, the reference below
            # A tick's pass (the start pass has no rungs yet) holds every
            # rung, refused or not, as points of its seed.
            n, ok = caller.f_locals["n"], caller.f_locals.get("ok")
            assert len(self._lin) == len(self._facts) == n
            if ok is not None:
                assert xs.shape[:2] == ok.shape == (n, solver._RUNGS)
            state["refused"] = ok is not None and not ok.all()
        return kernel(self, xs)

    def checked_step(ctx, inter):
        jac = step(ctx, inter)
        caller = sys._getframe(1)
        if caller.f_code is not levmar.__code__:  # residual_jacobian, the reference below
            return jac
        go = caller.f_locals["go"]  # _levmar's starting seeds, at its running points x
        want = solver.residual_jacobian(ctx, caller.f_locals["x"][go])
        assert np.abs(jac - want).max() <= 1e-12 * np.abs(want).max()
        live = len(caller.f_locals["live"]._lin)
        flags = {"first tick": state["first"], "after seeds stop": live < state["live"],
                 "a refused rung": state["refused"], "free_F": ctx.mode == "free_F"}
        seen.update(name for name, hit in flags.items() if hit)
        state.update(first=False, live=live)
        return jac

    monkeypatch.setattr(solver, "_levmar", run)
    monkeypatch.setattr(solver.ResidualContext, "_kernel", traced_kernel)
    monkeypatch.setattr(solver, "_tangent_step", checked_step)
    for entry, n_seeds, mode in [(la.entry_by_name("A4,4"), 2, "unit_F"),
                                 (la.entry_by_name("A4,11^a"), 32, "unit_F"),
                                 (_tight_a46(), 16, "free_F")]:
        for ctxs, starts in _blocks(entry, 5, n_seeds, mode):
            solver._levmar(_program(ctxs), np.array(starts), _LM_TOL, 45)
    solver.multistart_many([solver.SearchRequest(la.entry_by_name(name), 2, 5)
                            for name in _POSITIVE])
    assert seen == {"first tick", "after seeds stop", "a refused rung", "free_F",
                    "mixed widths"}
