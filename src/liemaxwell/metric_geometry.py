"""Left-invariant metrics: admissibility, Koszul connection, curvature chain.

One predicate, ``admissible``, decides whether metric parameters give an
admissible metric: finite, inside every constraint polynomial of the entry
with margin ``EPS_PD``, and positive definite by a Cholesky factorization.
The sampler, the Levenberg-Marquardt feasibility test and ``validate_metric``
(hence ``verify``, ``curvature`` and ``residual_vector``) all take their
decision from it.

Sign convention for the curvature tensor (fixed once, here): with
``Rc(x, y)z = -(nabla_x nabla_y z - nabla_y nabla_x z - nabla_{[x,y]} z)``
and ``R(x, y, z, w) = g(Rc(x, y)z, w)``, hyperbolic planes get negative
sectional curvature ``K(x, y) = R(x, y, x, y) / (|x|^2 |y|^2 - <x,y>^2)``.

All functions accept float64 or Fraction (object dtype) inputs; the exact
path goes through rational Gaussian elimination instead of an orthonormal
frame, so the whole chain down to the trace-free Ricci tensor is exact for
rational data.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from . import _smallmat
from ._expr import eval_expr
from .lie_algebra import DIM, CatalogEntry, LieAlgebra

#: Margin required on every catalog constraint polynomial; the strict
#: inequalities leave boundary behavior undefined and the solver must not
#: converge onto degenerate metrics.
EPS_PD = 1e-8

MetricCheck = namedtuple("MetricCheck", ["ok", "failures"])


class ShapeMismatchError(ValueError):
    """Metric matrix does not fit the catalog entry's reduced shape."""


def _as_exact(arr: np.ndarray) -> np.ndarray:
    out = np.empty(arr.shape, dtype=object)
    flat = out.reshape(-1)
    for idx, v in enumerate(np.asarray(arr).reshape(-1)):
        flat[idx] = v if isinstance(v, Fraction) else Fraction(v)
    return out


def _match_dtypes(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    if any(a.dtype == object for a in arrays):
        return tuple(a if a.dtype == object else _as_exact(a) for a in arrays)
    return arrays


def metric_params_of(entry: CatalogEntry, g: np.ndarray) -> dict:
    """Read the parameter values a metric matrix assigns to the entry's shape."""
    g = np.asarray(g)
    values: dict = {}
    for i in range(DIM):
        for j in range(DIM):
            cell = entry.metric_shape[i][j]
            if isinstance(cell, str):
                if cell in values:
                    prev = values[cell]
                    if abs(g[i, j] - prev) > (0 if g.dtype == object else 1e-12):
                        raise ShapeMismatchError(
                            f"{entry.name}: entries tied to {cell} disagree")
                values[cell] = g[i, j]
            else:
                if abs(g[i, j] - cell) > (0 if g.dtype == object else 1e-12):
                    raise ShapeMismatchError(
                        f"{entry.name}: cell ({i + 1},{j + 1}) must equal {cell}, got {g[i, j]}")
    return values


def _factors(g: np.ndarray) -> bool:
    """Whether LAPACK gives a Cholesky factorization of g (one metric or a stack)."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def admissible(entry: CatalogEntry, params: np.ndarray):
    """Whether metric parameters (..., m), in ``entry.metric_param_names``
    order, give admissible metrics: a bool for one vector, else a bool array
    over the leading axes.

    A vector is refused if a value is not finite (Cholesky factors metrics
    holding inf or NaN without complaint), then if a constraint
    polynomial does not exceed EPS_PD, then if the metric has no Cholesky
    factorization.  The metrics that reach the last step are factored in one
    stacked call, one at a time only when LAPACK refuses one of them.
    """
    params = np.asarray(params, dtype=float)
    rows = params.reshape(math.prod(params.shape[:-1]), params.shape[-1])
    ok = np.isfinite(rows).all(axis=1)
    # One row is evaluated on scalars, at a fraction of the cost of
    # 1-element arrays; the decisions are the same bit for bit.
    cols = rows[0] if len(rows) == 1 else rows.T
    values = dict(zip(entry.metric_param_names, cols))
    for poly in entry.metric_constraints:
        ok &= eval_expr(poly, values) > EPS_PD
    place, g0 = entry.metric_placement
    g = (rows[ok] @ place + g0).reshape(-1, DIM, DIM)
    if not _factors(g):
        ok[ok] = [_factors(one) for one in g]
    return ok.reshape(params.shape[:-1]) if params.ndim > 1 else bool(ok[0])


def validate_metric(entry: CatalogEntry, g: np.ndarray) -> MetricCheck:
    """Check that g is a symmetric 4x4 matrix of the entry's shape (else
    ShapeMismatchError), then whether it is ``admissible``; a refusal names
    the failed constraints."""
    g = np.asarray(g)
    if g.shape != (DIM, DIM):
        raise ShapeMismatchError("metric must be a 4x4 matrix")
    sym = np.abs(g - g.T).max()
    if sym > (0 if g.dtype == object else 0.0):
        raise ShapeMismatchError("metric must be exactly symmetric")
    values = metric_params_of(entry, g)
    params = np.array([float(values[n]) for n in entry.metric_param_names])
    if admissible(entry, params):
        return MetricCheck(ok=True, failures=())
    if not np.isfinite(params).all():
        return MetricCheck(ok=False, failures=("metric parameters must be finite",))
    failures = []
    for poly in entry.metric_constraints:
        val = eval_expr(poly, values)
        if not val > EPS_PD:
            failures.append(f"{poly} > 0 violated (value {float(val):.3e})")
    return MetricCheck(ok=False, failures=tuple(failures) or ("metric not positive definite",))


# ---------------------------------------------------------------------------
# Koszul connection and the curvature chain
# ---------------------------------------------------------------------------


def levi_civita(L: LieAlgebra, g: np.ndarray) -> np.ndarray:
    """Connection coefficients Gamma[i, j, k] with nabla_{e_i} e_j = Gamma[i,j,k] e_k.

    Koszul formula for left-invariant fields:
    2 g(nabla_x y, z) = g([x,y], z) + g([z,x], y) - g([y,z], x).
    """
    c, g = _match_dtypes(L.c, np.asarray(g))
    g_inv = _smallmat.inverse(g)
    cg = np.einsum("ijm,mk->ijk", c, g)
    rhs = (cg + np.transpose(cg, (1, 2, 0)) - np.transpose(cg, (2, 0, 1))) / 2
    return np.einsum("kl,ijl->ijk", g_inv, rhs)


def riemann(L: LieAlgebra, g: np.ndarray, gamma: np.ndarray | None = None) -> np.ndarray:
    """Covariant curvature R[i, j, k, l] = g(Rc(e_i, e_j) e_k, e_l)."""
    c, g = _match_dtypes(L.c, np.asarray(g))
    if gamma is None:
        gamma = levi_civita(L, g)
    nabla2 = np.einsum("jkm,iml->ijkl", gamma, gamma)
    nabla_br = np.einsum("ijm,mkl->ijkl", c, gamma)
    rc = -(nabla2 - np.transpose(nabla2, (1, 0, 2, 3)) - nabla_br)
    return np.einsum("ijkm,ml->ijkl", rc, g)


def curvature_summary(L: LieAlgebra, g: np.ndarray):
    """(gamma, R, Ric, s, Ric0) in one pass; Ricci by g-inverse contraction."""
    c, g = _match_dtypes(L.c, np.asarray(g))
    gamma = levi_civita(L, g)
    r4 = riemann(L, g, gamma)
    g_inv = _smallmat.inverse(g)
    ric = np.einsum("jl,ijkl->ik", g_inv, r4)
    s = np.einsum("ik,ik->", g_inv, ric)
    ric0 = ric - (s / 4) * g
    return gamma, r4, ric, s, ric0


def ricci(L: LieAlgebra, g: np.ndarray) -> np.ndarray:
    """Ric(x, y) = sum_m R(x, f_m, y, f_m) over any g-orthonormal frame."""
    return curvature_summary(L, g)[2]


def scalar_curvature(L: LieAlgebra, g: np.ndarray):
    return curvature_summary(L, g)[3]


def traceless_ricci(L: LieAlgebra, g: np.ndarray) -> np.ndarray:
    """Ric0 = Ric - (s/4) g; g-trace-free by construction."""
    return curvature_summary(L, g)[4]


def is_einstein(L: LieAlgebra, g: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(np.abs(traceless_ricci(L, g)).max() <= tol)


# ---------------------------------------------------------------------------
# Orthonormal-frame cross-check (float only)
# ---------------------------------------------------------------------------


def gram_schmidt_frame(g: np.ndarray) -> np.ndarray:
    """Rows are a g-orthonormal frame built from (e_1..e_4) in index order."""
    g = np.asarray(g, dtype=float)
    frame = np.zeros((DIM, DIM))
    for m in range(DIM):
        v = np.zeros(DIM)
        v[m] = 1.0
        for prev in range(m):
            v = v - (frame[prev] @ g @ v) * frame[prev]
        frame[m] = v / np.sqrt(v @ g @ v)
    return frame


def ricci_via_frame(L: LieAlgebra, g: np.ndarray) -> np.ndarray:
    """Ricci by explicit orthonormal-frame summation (cross-check path)."""
    r4 = riemann(L, np.asarray(g, dtype=float))
    frame = gram_schmidt_frame(g)
    return np.einsum("mj,ml,ijkl->ik", frame, frame, r4)
