"""Independent brute-force oracles for the test suite.

Everything here is written from the definitions with plain loops and full
antisymmetric tensors, deliberately not sharing code paths with the package:
exterior derivatives go through the graded Leibniz rule on monomials, the
Hodge star is obtained by solving the linear system of its defining identity,
and curvature is assembled from a hand-rolled Koszul solve.  The one-form-at-
a-time versions of ``two_form_matrix``, ``d_two_form`` and the exact
curvature chain, which the package's stacked code replaced, are kept as the
exact oracle for Fraction input.  Two oracles
evaluate through the package's residual kernel: the complex-step Jacobian,
which differentiates the kernel by its own rule, and the Levenberg-Marquardt
reference, which re-implements the solver's control flow.  The start
reference draws through the package's samplers and one-seed contexts, one
seed at a time.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from math import factorial

import numpy as np

DIM = 4
PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TRIPLES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# -- full antisymmetric tensors for p-forms ---------------------------------


def one_form_tensor(alpha):
    return np.asarray(alpha, dtype=float)


def two_form_tensor(a6):
    t = np.zeros((DIM, DIM))
    for p, (i, j) in enumerate(PAIRS):
        t[i, j] = a6[p]
        t[j, i] = -a6[p]
    return t


def three_form_tensor(c4):
    t = np.zeros((DIM, DIM, DIM))
    for idx, (i, j, k) in enumerate(TRIPLES):
        for perm in itertools.permutations((i, j, k)):
            t[perm] = perm_sign([(i, j, k).index(p) for p in perm]) * c4[idx]
    return t


def three_form_coeffs(t):
    return np.array([t[i, j, k] for i, j, k in TRIPLES])


def wedge(t1, p, t2, q):
    """Wedge of a p-form and a q-form given as full antisymmetric tensors."""
    r = p + q
    out = np.zeros((DIM,) * r)
    for idx in itertools.product(range(DIM), repeat=r):
        acc = 0.0
        for perm in itertools.permutations(range(r)):
            sigma = [idx[k] for k in perm]
            acc += perm_sign(perm) * t1[tuple(sigma[:p])] * t2[tuple(sigma[p:])]
        out[idx] = acc / (factorial(p) * factorial(q))
    return out


# -- Chevalley-Eilenberg differential via the Leibniz rule -------------------


def d_one_form_direct(c, alpha):
    """(d a)(e_j, e_k) = -a([e_j, e_k]) evaluated with loops."""
    out = np.zeros(6)
    for p, (j, k) in enumerate(PAIRS):
        out[p] = -sum(c[j, k, m] * alpha[m] for m in range(DIM))
    return out


def d_two_form_leibniz(c, a6):
    """d of a 2-form via d(e^i ^ e^j) = de^i ^ e^j - e^i ^ de^j."""
    total = np.zeros((DIM, DIM, DIM))
    for p, (i, j) in enumerate(PAIRS):
        if a6[p] == 0:
            continue
        ei = np.zeros(DIM); ei[i] = 1.0
        ej = np.zeros(DIM); ej[j] = 1.0
        dei = two_form_tensor(d_one_form_direct(c, ei))
        dej = two_form_tensor(d_one_form_direct(c, ej))
        total += a6[p] * (wedge(dei, 2, np.asarray(ej), 1) - wedge(ei, 1, dej, 2))
    return three_form_coeffs(total)


# -- the one-at-a-time reference chain, exact for Fraction input ---------------


def two_form_matrix_loops(a6, dtype=None):
    """Antisymmetric 4x4 matrix of one 2-form, entry by entry."""
    a6 = np.asarray(a6)
    f = np.zeros((DIM, DIM), dtype=dtype if dtype is not None else a6.dtype)
    for p, (i, j) in enumerate(PAIRS):
        f[i, j] = a6[p]
        f[j, i] = -a6[p]
    return f


def d_two_form_loops(c, a6):
    """dF(e_i, e_j, e_k) = -F([e_i,e_j], e_k) + F([e_i,e_k], e_j) - F([e_j,e_k], e_i),
    accumulated over the bracket index."""
    f = two_form_matrix_loops(a6)
    out = np.zeros(4, dtype=np.result_type(c.dtype, f.dtype))
    for t, (i, j, k) in enumerate(TRIPLES):
        acc = 0
        for m in range(DIM):
            acc = acc - c[i, j, m] * f[m, k] + c[i, k, m] * f[m, j] - c[j, k, m] * f[m, i]
        out[t] = acc
    return out


def _inverse_exact(g):
    """Gauss-Jordan inverse of a nonsingular matrix of Fractions."""
    n = len(g)
    rows = [[Fraction(x) for x in g[r]] + [Fraction(int(r == c)) for c in range(n)]
            for r in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    out = np.empty((n, n), dtype=object)
    for r in range(n):
        out[r] = rows[r][n:]
    return out


def curvature_summary_exact(c, g):
    """(gamma, R, Ric, s, Ric0) of one algebra and metric of Fractions:
    Koszul formula, Riemann tensor and Ricci contraction, index by index."""
    g_inv = _inverse_exact(g)
    cg = np.einsum("ijm,mk->ijk", c, g)
    rhs = (cg + np.transpose(cg, (1, 2, 0)) - np.transpose(cg, (2, 0, 1))) / 2
    gamma = np.einsum("kl,ijl->ijk", g_inv, rhs)
    nabla2 = np.einsum("jkm,iml->ijkl", gamma, gamma)
    nabla_br = np.einsum("ijm,mkl->ijkl", c, gamma)
    rc = -(nabla2 - np.transpose(nabla2, (1, 0, 2, 3)) - nabla_br)
    r4 = np.einsum("ijkm,ml->ijkl", rc, g)
    ric = np.einsum("jl,ijkl->ik", g_inv, r4)
    s = np.einsum("ik,ik->", g_inv, ric)
    return gamma, r4, ric, s, ric - (s / 4) * g


def jacobi_brute(c):
    worst = 0.0
    for i, j, k, l in itertools.product(range(DIM), repeat=4):
        acc = 0.0
        for m in range(DIM):
            acc += (c[i, j, m] * c[m, k, l] + c[j, k, m] * c[m, i, l]
                    + c[k, i, m] * c[m, j, l])
        worst = max(worst, abs(acc))
    return worst


# -- curvature by hand -------------------------------------------------------


def koszul_direct(c, g):
    """Connection coefficients by solving g nabla = rhs pair by pair."""
    gamma = np.zeros((DIM, DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            rhs = np.zeros(DIM)
            for k in range(DIM):
                t1 = sum(c[i, j, m] * g[m, k] for m in range(DIM))
                t2 = sum(c[k, i, m] * g[m, j] for m in range(DIM))
                t3 = sum(c[j, k, m] * g[m, i] for m in range(DIM))
                rhs[k] = 0.5 * (t1 + t2 - t3)
            gamma[i, j] = np.linalg.solve(g, rhs)
    return gamma


def riemann_direct(c, g):
    """R(x,y,z,w) = -g(nab_x nab_y z - nab_y nab_x z - nab_[x,y] z, w)."""
    gamma = koszul_direct(c, g)

    def nabla(ivec, jvec):
        out = np.zeros(DIM)
        for a in range(DIM):
            for b in range(DIM):
                out += ivec[a] * jvec[b] * gamma[a, b]
        return out

    r4 = np.zeros((DIM,) * 4)
    basis = np.eye(DIM)
    for i, j, k in itertools.product(range(DIM), repeat=3):
        br = np.array([sum(c[i, j, m] * basis[m, t] for m in range(DIM)) for t in range(DIM)])
        vec = -(nabla(basis[i], nabla(basis[j], basis[k]))
                - nabla(basis[j], nabla(basis[i], basis[k]))
                - nabla(br, basis[k]))
        for l in range(DIM):
            r4[i, j, k, l] = vec @ g @ basis[l]
    return r4


def ricci_orthonormal(c, g):
    """Ricci via an explicit orthonormal frame (Gram-Schmidt by hand)."""
    r4 = riemann_direct(c, g)
    frame = []
    for m in range(DIM):
        v = np.eye(DIM)[m].astype(float)
        for f in frame:
            v = v - (f @ g @ v) * f
        frame.append(v / np.sqrt(v @ g @ v))
    frame = np.array(frame)
    ric = np.zeros((DIM, DIM))
    for i in range(DIM):
        for k in range(DIM):
            ric[i, k] = sum(np.einsum("j,l,jl->", frame[m], frame[m], r4[i, :, k, :])
                            for m in range(DIM))
    return ric


def stress_direct(g, a6):
    """[F o F]0 by index loops."""
    f = two_form_tensor(a6)
    gi = np.linalg.inv(g)
    comp = np.zeros((DIM, DIM))
    for i, j in itertools.product(range(DIM), repeat=2):
        comp[i, j] = sum(f[i, s] * gi[s, t] * f[t, j]
                         for s in range(DIM) for t in range(DIM))
    tr = sum(gi[i, j] * comp[i, j] for i in range(DIM) for j in range(DIM))
    return comp - tr / 4 * g


@functools.cache
def _wedge_pairing():
    """mat[row, col]: e_row ^ e_col as a multiple of e1234, over the basis
    2-forms.  It does not depend on the metric, so it is built once."""
    basis = np.eye(6)
    mat = np.zeros((6, 6))
    for row in range(6):
        for col in range(6):
            mat[row, col] = wedge(two_form_tensor(basis[row]), 2,
                                  two_form_tensor(basis[col]), 2)[0, 1, 2, 3]
    mat.flags.writeable = False
    return mat


def hodge_star_solve(g, a6, orientation=1):
    """Star from its defining identity: solve B ^ X = <B, F> vol over the basis."""
    gi = np.linalg.inv(g)
    vol = orientation * np.sqrt(np.linalg.det(g))

    def inner(b6, f6):
        bm, fm = two_form_tensor(b6), two_form_tensor(f6)
        return 0.5 * np.einsum("ij,ik,jl,kl->", bm, gi, gi, fm)

    rhs = np.array([inner(basis, a6) * vol for basis in np.eye(6)])
    return np.linalg.solve(_wedge_pairing(), rhs)


#: Complex step: far below round-off of any real part, so the real part of a
#: probe equals x exactly and the derivative carries no truncation error.
COMPLEX_STEP = 1e-30


def complex_step_jacobian(ctx, x):
    """J[..., :, k] = Im r(x + i h e_k) / h for every parameter k, with
    r = ``ctx.residual`` (Squire & Trapp, SIAM Rev. 40(1), 1998).

    x is one point per seed (S, n), giving J (S, rows, n); all probes go in
    one call of the kernel, which is complex-analytic.  It shares only the kernel with the package's
    forward-mode Jacobian, none of the tangent rules.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    probes = np.repeat(x[:, None].astype(complex), n, axis=1)
    probes[:, np.arange(n), np.arange(n)] += 1j * COMPLEX_STEP
    return np.swapaxes(ctx.residual(probes).imag, 1, 2) / COMPLEX_STEP


def levmar_alone(ctx, x0, tol, max_iter, singular=lambda iteration, trial: False):
    """Levenberg-Marquardt from one start, one trial at a time: the rules of
    ``solver._levmar`` written out for a lone run of a one-seed context.  It
    takes the residual, the feasibility check and the Jacobian from the
    package; only the control flow is its own.

    The damped system of trial ``trial`` of iteration ``iteration`` (both
    counted from 0) is treated as singular when ``singular(iteration,
    trial)`` is true.  Returns (x, iterations, stop reason, residual
    evaluations, trials).
    """
    from liemaxwell.solver import residual_jacobian as jacobian

    x = np.array(x0, dtype=float)
    if not ctx.feasible(x[None])[0]:
        return x, 0, "infeasible start", 0, 0
    r = ctx.residual(x[None, None])[0, 0]
    n_evals, n_trials, lam, iters = 1, 0, 1e-3, 0
    while True:
        peak = np.abs(r).max()
        if peak <= tol:
            return x, iters, "converged", n_evals, n_trials
        if iters >= max_iter:
            return x, iters, "iteration cap", n_evals, n_trials
        if iters >= 25 and peak > 5e-2:
            return x, iters, "slow progress", n_evals, n_trials
        jac = jacobian(ctx, x[None])[0]
        n_evals += len(x)
        normal = jac.T @ jac
        grad = jac.T @ r
        damping = np.diag(np.maximum(np.diag(normal), 1e-12))
        rejects = 0
        accepted = False
        for trial in range(30):
            n_trials += 1
            try:
                if singular(iters, trial):
                    raise np.linalg.LinAlgError("refused")
                delta = np.linalg.solve(normal + lam * damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + delta
            if ctx.feasible(x_new[None])[0]:
                r_new = ctx.residual(x_new[None, None])[0, 0]
                n_evals += 1
                if r_new @ r_new < r @ r:
                    x, r, lam, iters = x_new, r_new, max(lam / 3, 1e-12), iters + 1
                    accepted = True
                    break
            else:
                rejects += 1
            lam *= 4.0
            if lam > 1e14:
                break
        if not accepted:
            reason = "constraint-trapped" if rejects >= 25 else "stalled"
            return x, iters + 1, reason, n_evals, n_trials


def start_alone(entry, seed, index, mode):
    """The start of one seed of a search, drawn and normalized on its own:
    the one-seed-at-a-time reference for ``solver._starts``.  Returns
    (one-seed context, x0), or (why there is none, None).  The generator is
    ``default_rng(seed ^ index)``; algebra parameters, one metric from the
    sampler given this generator alone, then kernel coordinates, scaled to
    |F|_g = 1 in unit_F mode."""
    from liemaxwell import forms, solver
    from liemaxwell.lie_algebra import metric_from_params

    rng = np.random.default_rng(seed ^ index)
    try:
        algebra_params = solver.sample_algebra_params(entry, rng, variant_index=index)
    except ValueError:
        return "sampling-failed", None
    metric_params = solver.sample_metric_params(entry, [rng])[0]
    if metric_params is None:
        return "sampling-failed", None
    ctx = solver.ResidualContext([(entry, algebra_params)], mode=mode)
    kernel_t = ctx._facts[0].kernel_t
    m = len(entry.metric_param_names)
    x0 = solver._point(entry, metric_params, rng.uniform(-2.0, 2.0, size=len(kernel_t)))
    if mode == "unit_F":
        g = metric_from_params(entry, metric_params)
        nrm = float(forms.norm_sq(g, x0[m:] @ kernel_t))
        if nrm > 0:
            x0[m:] /= np.sqrt(nrm)
    return ctx, x0


def nijenhuis_direct(c, jmat):
    """N(x, y) on all basis pairs with explicit bracket loops."""
    def brk(x, y):
        return np.array([sum(c[a, b, k] * x[a] * y[b]
                             for a in range(DIM) for b in range(DIM))
                         for k in range(DIM)])

    basis = np.eye(DIM)
    worst = 0.0
    for i, j in PAIRS:
        jx = jmat @ basis[i]
        jy = jmat @ basis[j]
        n = brk(jx, jy) - jmat @ brk(jx, basis[j]) - jmat @ brk(basis[i], jy) - brk(basis[i], basis[j])
        worst = max(worst, np.abs(n).max())
    return worst


# -- catalog expressions, interpreted ----------------------------------------


def eval_expr_interpreted(src, env):
    """Evaluate a catalog expression directly from its tokens, left to right.

    Same grammar as the package (+, -, *, ^ with integer exponents, literals
    read as Fractions), but values are computed while parsing instead of
    through compiled closures.
    """
    tokens = re.findall(r"\d+\.\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*^]", src) + [""]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        val = term()
        while tokens[pos] in ("+", "-"):
            op = take()
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term():
        val = signed()
        while tokens[pos] == "*":
            take()
            val = val * signed()
        return val

    def signed():
        if tokens[pos] in ("+", "-"):
            return -signed() if take() == "-" else signed()
        return power()

    def power():
        base = atom()
        if tokens[pos] == "^":
            take()
            return base ** int(take())
        return base

    def atom():
        tok = take()
        if tok[0].isdigit():
            return Fraction(tok)
        if tok == "(":
            val = expr()
            assert take() == ")"
            return val
        return env[tok]

    val = expr()
    assert tokens[pos] == "", src
    return val
