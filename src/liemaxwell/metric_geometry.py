"""Left-invariant metrics: admissibility, Koszul connection, curvature chain.

One predicate, ``admissible``, decides whether metric parameters give an
admissible metric: finite, inside every constraint polynomial of the entry
with margin ``EPS_PD``, and positive definite by a Cholesky factorization.
The sampler and the Levenberg-Marquardt feasibility test call it on stacks
of parameter vectors; ``validate_metric`` calls it on one parameter dict and
names the constraints a refusal fails.  Admission reads parameters, never a
matrix: every metric, the ones ``admissible`` factors included, is built
from its parameters by ``metric_from_params``, and ``solver._admitted`` is
the one place that builds and admits one (behind ``verify``, ``curvature``,
``family``, ``refine`` and ``residual_vector``).

Sign convention for the curvature tensor (fixed once, here): with
``Rc(x, y)z = -(nabla_x nabla_y z - nabla_y nabla_x z - nabla_{[x,y]} z)``
and ``R(x, y, z, w) = g(Rc(x, y)z, w)``, hyperbolic planes get negative
sectional curvature ``K(x, y) = R(x, y, x, y) / (|x|^2 |y|^2 - <x,y>^2)``.

``curvature_summary`` is the one entry point to the curvature chain.  It
accepts float64 or Fraction (object dtype) inputs; when one input is an
object array, every input goes through ``_smallmat.as_fractions``, and an
exact g is inverted by rational Gauss-Jordan elimination, so the whole chain
down to the trace-free Ricci tensor is exact for rational data.
Ricci is the g-inverse contraction of the Riemann tensor; the tests check it
against an orthonormal-frame sum that ``tests/oracles.py`` derives on its
own.  The chain is loop-free einsum code that takes leading axes: one
algebra or stacked constants (S, 4, 4, 4) with metrics (S, 4, 4) is one
call, which is how the solver re-verifies each
lockstep group's end points.  Exact input goes through the same code.
Each einsum contracts every metric on its own, so a stacked call agrees
with lone calls to round-off: results may differ in the last bits, and the
solver's Levenberg-Marquardt end points, which never read this chain, not
at all.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import _smallmat
from ._expr import eval_expr
from .lie_algebra import CatalogEntry, metric_from_params, structure_constants

#: Margin required on every catalog constraint polynomial; the strict
#: inequalities leave boundary behavior undefined and the solver must not
#: converge onto degenerate metrics.
EPS_PD = 1e-8

MetricCheck = namedtuple("MetricCheck", ["ok", "failures"])


def _match_dtypes(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    if any(a.dtype == object for a in arrays):
        return tuple(_smallmat.as_fractions(a) for a in arrays)
    return arrays


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
    polynomial does not exceed EPS_PD, then if the metric, built by
    ``metric_from_params``, has no Cholesky factorization.  The metrics that
    reach the last step are factored in one stacked call, one at a time only
    when LAPACK refuses one of them.
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
    g = metric_from_params(entry, rows if np.count_nonzero(ok) == len(ok) else rows[ok])
    if not _factors(g):
        ok[ok] = [_factors(one) for one in g]
    return ok.reshape(params.shape[:-1]) if params.ndim > 1 else bool(ok[0])


def validate_metric(entry: CatalogEntry, metric_params: dict) -> MetricCheck:
    """Whether the metric parameters (a dict over ``entry.metric_param_names``)
    are ``admissible``; a refusal names the failed constraints."""
    params = np.array([float(metric_params[n]) for n in entry.metric_param_names])
    if admissible(entry, params):
        return MetricCheck(ok=True, failures=())
    if not np.isfinite(params).all():
        return MetricCheck(ok=False, failures=("metric parameters must be finite",))
    values = dict(zip(entry.metric_param_names, params))
    failures = []
    for poly in entry.metric_constraints:
        val = eval_expr(poly, values)
        if not val > EPS_PD:
            failures.append(f"{poly} > 0 violated (value {float(val):.3e})")
    return MetricCheck(ok=False, failures=tuple(failures) or ("metric not positive definite",))


# ---------------------------------------------------------------------------
# Koszul connection and the curvature chain
# ---------------------------------------------------------------------------


CurvatureSummary = namedtuple("CurvatureSummary", ["gamma", "riemann", "ricci", "scalar", "ric0"])


def curvature_summary(L, g: np.ndarray) -> CurvatureSummary:
    """The whole curvature chain of a left-invariant metric in one pass.

    ``gamma[..., i, j, k]`` are the connection coefficients,
    nabla_{e_i} e_j = gamma[i, j, k] e_k, from the Koszul formula for
    left-invariant fields, 2 g(nabla_x y, z) = g([x,y], z) + g([z,x], y) -
    g([y,z], x); ``riemann[..., i, j, k, l]`` = g(Rc(e_i, e_j) e_k, e_l);
    ``ricci`` is its g-inverse contraction, ``scalar`` its trace and
    ``ric0`` = Ric - (s/4) g, g-trace-free by construction.

    ``L`` is one algebra or stacked constants: one algebra with g (4, 4),
    or constants (S, 4, 4, 4) with g (S, 4, 4), every output then carrying
    the leading axis.
    """
    c, g = _match_dtypes(structure_constants(L), np.asarray(g))
    g_inv = _smallmat.inverse(g)
    cg = np.einsum("...ijm,...mk->...ijk", c, g)
    rhs = (cg + np.moveaxis(cg, -3, -1) - np.moveaxis(cg, -1, -3)) / 2
    gamma = np.einsum("...kl,...ijl->...ijk", g_inv, rhs)
    nabla2 = np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
    nabla_br = np.einsum("...ijm,...mkl->...ijkl", c, gamma)
    rc = -(nabla2 - nabla2.swapaxes(-4, -3) - nabla_br)
    r4 = np.einsum("...ijkm,...ml->...ijkl", rc, g)
    ric = np.einsum("...jl,...ijkl->...ik", g_inv, r4)
    s = np.einsum("...ik,...ik->...", g_inv, ric)
    ric0 = ric - np.asarray(s / 4)[..., None, None] * g
    return CurvatureSummary(gamma, r4, ric, s, ric0)
