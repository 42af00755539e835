"""Residual stacking, LM refinement, multistart search, and classification."""

import dataclasses

import numpy as np
import pytest

import oracles as orc
from liemaxwell import lie_algebra as la
from liemaxwell import maxwell, solver
from liemaxwell import metric_geometry as mg
from liemaxwell.forms import norm_sq, two_form


def cand_2a2(a5=2.0, a12=1.0, a34=np.sqrt(3)):
    return solver.Candidate("2A2", {}, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": a5},
                            two_form(e12=a12, e34=a34))


def test_residual_vector_zero_at_family_points():
    assert np.abs(solver.residual_vector(cand_2a2())).max() <= 1e-12
    c49 = solver.Candidate("A49half", {}, {"a1": 1.0, "a2": 0, "a3": 0, "a4": 0},
                           two_form(e13=np.sqrt(2.5), e24=1.0))
    assert np.abs(solver.residual_vector(c49)).max() <= 1e-12


def test_residual_vector_nonzero_matches_oracle():
    c = solver.Candidate("2A2", {}, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 3.0},
                         two_form(e34=1.0))
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
    bad = solver.Candidate("2A2", {}, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": -1.0},
                           two_form(e34=1.0))
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
            for orientation in (1, -1):
                for mode in ("free_F", "unit_F"):
                    ctx = solver.ResidualContext(entry, ap, orientation, mode=mode)
                    mp = solver.sample_metric_params(entry, rng)
                    x = ctx.pack(mp, rng.uniform(-1, 1, ctx.kernel.shape[1]))
                    got = ctx.residual(x)
                    cand = ctx.candidate(x)
                    want = solver.residual_vector(cand)
                    if mode == "unit_F":
                        g = la.metric_from_params(entry, mp)
                        want = np.append(want, norm_sq(g, cand.f_coeffs) - 1.0)
                    scale = max(1.0, np.abs(want).max())
                    assert np.abs(got - want).max() < 1e-12 * scale, \
                        (entry.name, variant_index, orientation, mode)


def _batch(entry, mode, rng, size=4):
    ctx = solver.ResidualContext(entry, solver.sample_algebra_params(entry, rng), mode=mode)
    xs = np.array([ctx.pack(solver.sample_metric_params(entry, rng),
                            rng.uniform(-1, 1, ctx.kernel.shape[1])) for _ in range(size)])
    return ctx, xs


def test_batched_residual_matches_single_calls():
    rng = np.random.default_rng(41)
    for entry in la.catalog():
        for mode in ("unit_F", "free_F"):
            ctx, xs = _batch(entry, mode, rng)
            got = ctx.residual(xs)
            want = np.stack([ctx.residual(x) for x in xs])
            assert got.shape == (len(xs), ctx.n_rows) and want.dtype == float
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-14 * scale, (entry.name, mode)


def test_residual_of_real_complex_input_is_real():
    ctx, xs = _batch(la.entry_by_name("A4,12"), "unit_F", np.random.default_rng(42))
    got = ctx.residual(xs.astype(complex))
    want = ctx.residual(xs)
    assert np.all(got.imag == 0)
    assert np.abs(got.real - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_jacobian_probes_keep_the_real_part():
    # a1 = 1e-8 sits where a central step of 1e-6 leaves the positive cone.
    entry = la.entry_by_name("A4,4")
    ctx = solver.ResidualContext(entry, {}, mode="unit_F")
    x = ctx.pack({"a1": 1e-8, "a2": 0.0, "a3": 1.0}, np.array([0.3, -0.2, 0.5]))
    below = x.copy()
    below[0] -= 1e-6
    with pytest.raises(ValueError, match="determinant"):
        ctx.residual(below)
    seen = []

    def fun(z):
        assert np.array_equal(z.real, np.broadcast_to(x, z.shape))
        seen.append(len(z))
        return ctx.residual(z)

    jac = solver.residual_jacobian(fun, x, free_idx=ctx.free_idx)
    assert seen == [len(x)]
    assert jac.shape == (ctx.n_rows, len(x)) and np.isfinite(jac).all()


def test_jacobian_of_empty_free_set():
    ctx = solver.ResidualContext(la.entry_by_name("2A2"), {}, mode="unit_F")
    x = ctx.pack({"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 2.0}, np.ones(ctx.kernel.shape[1]))
    assert solver.residual_jacobian(ctx.residual, x, free_idx=[]).shape == (ctx.n_rows, 0)


def test_refine_to_family_point():
    # With everything frozen except f34 the unique root is a34 = sqrt(3),
    # cross-checked by bisecting (1 + a34^2)/(1 + a12^2) - a5.
    start = cand_2a2(a34=1.8)
    res = solver.refine(start, frozen=("a1", "a2", "a3", "a4", "a5", "f12", "f13"))
    assert res.converged
    root = orc.bisect(lambda t: (1 + t * t) / 2 - 2, 0.1, 5.0)
    assert res.candidate.f_coeffs[5] == pytest.approx(root, abs=1e-9)
    assert res.candidate.f_coeffs[5] == pytest.approx(np.sqrt(3), abs=1e-9)


def test_refine_fixed_point():
    res = solver.refine(cand_2a2())
    assert res.converged and res.iterations == 0
    assert np.abs(res.candidate.f_coeffs - cand_2a2().f_coeffs).max() == 0


def test_refine_a44_unit_norm_fails():
    entry = la.entry_by_name("A4,4")
    rng = np.random.default_rng(5)
    mp = solver.sample_metric_params(entry, rng)
    ctx = solver.ResidualContext(entry, {}, mode="unit_F")
    f6 = ctx.kernel @ np.array([1.0, 0.5, -0.3])
    c = solver.Candidate("A4,4", {}, mp, f6)
    res = solver.refine(c, unit_norm=True, max_iter=40)
    assert not res.converged
    assert res.reason in ("stalled", "constraint-trapped", "iteration cap", "slow progress")


def test_refine_rejects_nonclosed_f():
    c = solver.Candidate("2A2", {}, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": 2.0},
                         two_form(e14=1.0))
    with pytest.raises(solver.CandidateError, match="closed"):
        solver.refine(c)


def test_refine_unknown_frozen_name():
    with pytest.raises(ValueError, match="frozen"):
        solver.refine(cand_2a2(), frozen=("zz",))


def test_jacobian_matches_forward_differences():
    rng = np.random.default_rng(6)
    entry = la.entry_by_name("2A2")
    ctx = solver.ResidualContext(entry, {}, mode="unit_F")
    mp = solver.sample_metric_params(entry, rng)
    x = ctx.pack(mp, rng.uniform(-1, 1, ctx.kernel.shape[1]))
    jac = solver.residual_jacobian(ctx.residual, x)
    r0 = ctx.residual(x)
    for k in range(len(x)):
        h = 1e-7 * max(1.0, abs(x[k]))
        xp = x.copy()
        xp[k] += h
        col = (ctx.residual(xp) - r0) / h
        denom = max(1.0, np.abs(jac[:, k]).max())
        assert np.abs(jac[:, k] - col).max() / denom < 1e-4


def test_multistart_2a2_finds_family():
    out = solver.multistart_search("2A2", n_seeds=25, seed=7)
    non_einstein = [(c, r) for c, r in out.solutions
                    if r.classification == maxwell.NON_EINSTEIN_EM]
    assert non_einstein
    for c, r in out.solutions:
        a12, a34, a5 = c.f_coeffs[0], c.f_coeffs[5], c.metric_params["a5"]
        assert abs(a5 * (1 + a12 ** 2) - (1 + a34 ** 2)) <= 1e-6
        if r.classification == maxwell.NON_EINSTEIN_EM:
            assert abs(a5 - 1) > 1e-6  # a5 = 1 is the Einstein degeneration


def test_multistart_a44_no_solutions():
    out = solver.multistart_search("A4,4", n_seeds=40, seed=3)
    assert not out.solutions
    assert out.best_nonsolution_residual > 1e-3


def test_multistart_abelian_free_f():
    out = solver.multistart_search("abelian", n_seeds=10, seed=1, mode="free_F")
    assert out.solutions
    assert {r.classification for _, r in out.solutions} == {maxwell.EINSTEIN_NULL_STRESS}


def test_multistart_rejects_bad_seeds():
    with pytest.raises(ValueError):
        solver.multistart_search("2A2", n_seeds=0, seed=0)
    for n_jobs in (0, -1):
        with pytest.raises(ValueError, match="n_jobs"):
            solver.multistart_search("2A2", n_seeds=2, seed=0, n_jobs=n_jobs)


def test_search_determinism_and_parallel_merge():
    a = solver.multistart_search("2A2", n_seeds=16, seed=7, n_jobs=1)
    b = solver.multistart_search("2A2", n_seeds=16, seed=7, n_jobs=1)
    c = solver.multistart_search("2A2", n_seeds=16, seed=7, n_jobs=2)
    assert a.to_json() == b.to_json()
    assert a.to_json() == c.to_json()
    assert "wall_time" not in a.to_dict()
    assert "wall_time" in a.to_dict(include_timing=True)
    assert a.to_dict()["catalog_sha256"] == la.catalog_checksum()


def test_sign_flip_orbit():
    out = solver.multistart_search("2A2", n_seeds=10, seed=2)
    cand, rep = out.solutions[0]
    flipped = solver.Candidate(cand.entry_name, cand.algebra_params, cand.metric_params,
                               -cand.f_coeffs, cand.orientation)
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {})
    g = la.metric_from_params(entry, flipped.metric_params)
    rep2 = maxwell.em_residual(L, g, flipped.f_coeffs)
    assert rep2.classification == rep.classification
    # canonicalization folds the orbit onto one representative
    assert np.allclose(solver.canonical_sign(flipped).f_coeffs, cand.f_coeffs)


def test_independent_reverification_of_solutions():
    out = solver.multistart_search("A46a0", n_seeds=20, seed=9)
    assert out.solutions
    for cand, rep in out.solutions:
        vec = solver.residual_vector(cand)
        assert np.abs(vec).max() <= rep.tol


def test_classify_agreements():
    res = solver.classify_algebra("2A2", n_seeds=30, seed=0)
    assert res.agree and res.computed == "HasNonEinsteinEM"
    res = solver.classify_algebra("A4,12", n_seeds=30, seed=0)
    assert res.agree and not res.inconclusive
    assert res.max_null_stress <= 1e-8
    res = solver.classify_algebra("A3,9+A1", n_seeds=30, seed=0)
    assert res.agree


def test_classify_all_positive_entries():
    # the four positive entries all classify as HasNonEinsteinEM at a small
    # budget (the negatives run at full budget in the acceptance sweep)
    for name in ("2A2", "A2+2A1", "A46a0", "A49half"):
        res = solver.classify_algebra(name, n_seeds=40, seed=5)
        assert res.agree and res.computed == "HasNonEinsteinEM", name


def test_verify_solution_family_reports():
    for fid in ("2A2", "A2+2A1", "A46a0", "A49half"):
        rep = solver.verify_solution_family(fid)
        assert rep.all_pass, fid
        assert set(rep.classifications) == {maxwell.NON_EINSTEIN_EM}
    rev = solver.verify_solution_family("A49half", orientation=-1)
    assert rev.all_pass and set(rev.hermitian_types) == {"Kahler"}


def test_candidate_serialization_roundtrip(tmp_path):
    c = cand_2a2()
    path = tmp_path / "c.json"
    path.write_text(__import__("json").dumps(c.to_dict()))
    c2 = solver.Candidate.from_json(path)
    assert c2.entry_name == "2A2"
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
            check = mg.validate_metric(entry, la.metric_from_params(entry, dict(zip(names, vec))))
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
    seen = set()
    for entry in [*la.catalog(), tight]:
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = _sample_one_draw_at_a_time(entry, ref)
            except ValueError:
                want = None
            try:
                got = solver.sample_metric_params(entry, rng)
            except ValueError:
                got = None
            assert got == want, (entry.name, seed)
            assert rng.bit_generator.state == ref.bit_generator.state, (entry.name, seed)
            if entry is tight:
                count = _draws_consumed(seed, ref.bit_generator.state, 3)
                seen.add("empty" if want is None else "first box" if count <= 200 else "shrunk")
    assert seen == {"empty", "first box", "shrunk"}


@pytest.mark.parametrize("name,n_seeds", [("2A2", 16), ("A4,4", 16), ("A4,6^{a,0}", 16),
                                          ("A4,5^{a,b}", 16), ("A4,11^a", 32)])
def test_lockstep_block_matches_seeds_run_alone(name, n_seeds):
    # Seeds refined in one block, and each seed in a block of its own.  A
    # seed's arithmetic does not depend on its neighbours, so end points agree
    # whether or not the seed converged.  A4,11^a fills a whole block with
    # seeds that stop at different ticks and hit infeasible trials.
    block = solver._run_block((name, 7, 0, n_seeds, "unit_F", 1, maxwell.TOL_SOLUTION))
    alone = [solver._run_block((name, 7, i, i + 1, "unit_F", 1, maxwell.TOL_SOLUTION))[0]
             for i in range(n_seeds)]
    for b, a in zip(block, alone):
        assert b["status"] == a["status"] == "refined", (name, b["index"])
        assert (b["reason"], b["iterations"]) == (a["reason"], a["iterations"]), (name, b["index"])
        cb, ca = b["candidate"], a["candidate"]
        assert cb.algebra_params == ca.algebra_params
        assert np.abs(cb.f_coeffs - ca.f_coeffs).max() <= 1e-8, (name, b["index"])
        assert max(abs(cb.metric_params[k] - ca.metric_params[k])
                   for k in cb.metric_params) <= 1e-8, (name, b["index"])
    if name == "A4,5^{a,b}":
        # Generic draws and named variants: several algebras and kernel sizes
        # share the block.
        entry = la.entry_by_name(name)
        algebras = {tuple(sorted(b["candidate"].algebra_params.items())) for b in block}
        sizes = {solver.ResidualContext(entry, dict(ap)).kernel.shape[1] for ap in algebras}
        assert len(algebras) > 2 and len(sizes) > 1


def test_seed_ledger_is_complete_and_parallel_safe():
    a = solver.multistart_search("2A2", n_seeds=40, seed=3, n_jobs=1)
    b = solver.multistart_search("2A2", n_seeds=40, seed=3, n_jobs=2)
    assert a.to_json() == b.to_json()
    ledger = a.to_dict()
    assert list(ledger["stop_reasons"]) == list(solver.STOP_REASONS)
    assert sum(ledger["stop_reasons"].values()) == ledger["seeds_used"]
    assert ledger["seeds_refined"] == ledger["seeds_used"] - ledger["stop_reasons"]["infeasible start"]
    assert ledger["seeds_used"] <= ledger["seeds_sampled"] <= 40
    assert ledger["stop_reasons"]["converged"] >= 1


def test_zero_evidence_is_inconclusive(monkeypatch):
    def no_start(entry, rng):
        raise ValueError(f"{entry.name}: empty feasible box")

    monkeypatch.setattr(solver, "sample_metric_params", no_start)
    out = solver.multistart_search("A4,4", n_seeds=4, seed=0)
    assert out.seeds_used == 0 and not out.solutions
    assert out.seeds_sampled == out.seeds_refined == sum(out.stop_reasons.values()) == 0
    res = solver.classify_algebra("A4,4", n_seeds=4)
    assert res.computed == "NoNonEinsteinEMFound"
    assert res.inconclusive and not res.agree


_LM_TOL = min(maxwell.TOL_SOLUTION * 1e-2, 1e-11)  # the tolerance _run_block refines to


def _blocks(entry, seed, n_seeds, mode):
    """(contexts, starts) of each group of equal search dimension, as
    ``_run_block`` forms them."""
    contexts, groups = {}, {}
    for index in range(n_seeds):
        ctx, x0 = solver._start(entry, seed, index, mode, 1, contexts)
        if x0 is not None:
            groups.setdefault(len(x0), []).append((ctx, x0))
    return [tuple(zip(*members)) for members in groups.values()]


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
    a46 = la.entry_by_name("A4,6^{a,0}")
    tight = dataclasses.replace(a46, metric_constraints=(*a46.metric_constraints,
                                                         "0.000001 - a2^2"))
    seen = set()
    for entry, n_seeds, mode in [(la.entry_by_name("A3,9+A1"), 16, "unit_F"),
                                 (la.entry_by_name("A4,11^a"), 32, "unit_F"),
                                 (tight, 16, "free_F")]:
        for ctxs, starts in _blocks(entry, 5, n_seeds, mode):
            x, iters, reasons, n_evals = solver._levmar(
                solver.ResidualContext.stack(ctxs), np.array(starts), _LM_TOL, 45)
            for s, (ctx, x0) in enumerate(zip(ctxs, starts)):
                want = orc.levmar_alone(ctx, x0, _LM_TOL, 45)
                _assert_same_run((x[s], iters[s], reasons[s], n_evals[s]), want, (entry.name, s))
                seen.add(reasons[s])
    assert {"converged", "slow progress", "iteration cap"} <= seen
    assert seen & {"stalled", "constraint-trapped"}


def test_ladder_takes_fewer_ticks_than_trials(monkeypatch):
    # Each tick is one stacked solve.  One trial per tick would need as many
    # ticks as the slower seed makes trials.
    ticks = []
    solve = solver._solve_stack
    monkeypatch.setattr(solver, "_solve_stack", lambda m, rhs: ticks.append(1) or solve(m, rhs))
    [(ctxs, starts)] = _blocks(la.entry_by_name("A4,4"), 5, 2, "unit_F")
    solver._levmar(solver.ResidualContext.stack(ctxs), np.array(starts), _LM_TOL, 45)
    trials = [orc.levmar_alone(ctx, x0, _LM_TOL, 45)[4] for ctx, x0 in zip(ctxs, starts)]
    assert len(ticks) < max(trials)


@pytest.mark.parametrize("trial", [0, 1])
def test_singular_rung_ends_the_ladder(monkeypatch, trial):
    # Trial 0 of iteration 2 is rejected on this start, so refusing trial 0
    # or 1 there both change the run.  A singular rung gives lam x10, and
    # the rungs after it must be dropped.
    [(ctxs, starts)] = _blocks(la.entry_by_name("A4,4"), 5, 1, "unit_F")
    ctx, x0 = ctxs[0], starts[0]
    refused = (2, trial)
    jacobian, solve = solver.residual_jacobian, solver._solve_stack
    seen = {"jacobians": 0, "ticks": 0}

    def counted_jacobian(*args, **kwargs):
        seen["jacobians"] += 1
        seen["ticks"] = 0
        return jacobian(*args, **kwargs)

    def refusing_solve(m, rhs):
        delta, solved = solve(m, rhs)
        tick, rung = divmod(refused[1], solver._RUNGS)
        if seen["jacobians"] == refused[0] + 1 and seen["ticks"] == tick:
            solved[rung] = False
        seen["ticks"] += 1
        return delta, solved

    monkeypatch.setattr(solver, "residual_jacobian", counted_jacobian)
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
