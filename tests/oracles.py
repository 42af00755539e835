"""Independent brute-force oracles for the test suite.

Everything here is written from the definitions with plain loops and full
antisymmetric tensors, deliberately not sharing code paths with the package:
exterior derivatives go through the graded Leibniz rule on monomials, the
Hodge star is obtained by solving the linear system of its defining identity,
and curvature is assembled from a hand-rolled Koszul solve.
"""

from __future__ import annotations

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


def hodge_star_solve(g, a6, orientation=1):
    """Star from its defining identity: solve B ^ X = <B, F> vol over the basis."""
    gi = np.linalg.inv(g)
    vol = orientation * np.sqrt(np.linalg.det(g))

    def pairing(b6, x6):
        return wedge(two_form_tensor(b6), 2, two_form_tensor(x6), 2)[0, 1, 2, 3]

    def inner(b6, f6):
        bm, fm = two_form_tensor(b6), two_form_tensor(f6)
        return 0.5 * np.einsum("ij,ik,jl,kl->", bm, gi, gi, fm)

    mat = np.zeros((6, 6))
    rhs = np.zeros(6)
    for row in range(6):
        basis = np.zeros(6); basis[row] = 1.0
        for col in range(6):
            unit = np.zeros(6); unit[col] = 1.0
            mat[row, col] = pairing(basis, unit)
        rhs[row] = inner(basis, a6) * vol
    return np.linalg.solve(mat, rhs)


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


def bisect(fun, lo, hi, tol=1e-14, max_iter=200):
    flo = fun(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if abs(hi - lo) < tol:
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


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
        negate = tokens[pos] in ("+", "-") and take() == "-"
        val = term()
        if negate:
            val = -val
        while tokens[pos] in ("+", "-"):
            op = take()
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term():
        val = power()
        while tokens[pos] == "*":
            take()
            val = val * power()
        return val

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
        if tok == "-":
            return -atom()
        return env[tok]

    val = expr()
    assert tokens[pos] == "", src
    return val
