"""Numerical search and verification over (metric, 2-form) candidates.

The closedness condition dF = 0 is handled by restriction, not penalty: the
kernel of the closedness system reparameterizes F before optimization, so the
search runs over metric parameters plus kernel coordinates.  Refinement is
damped Gauss-Newton (Levenberg-Marquardt) with complex-step Jacobians, taken
in one batched call of the complex-analytic residual kernel; steps that
violate the catalog's positivity constraints are rejected by backtracking,
never projected back.

The kernel (``ResidualContext.residual``) takes Ricci straight from the
structure constants, g and g^-1 (Besse, Einstein Manifolds, Cor. 7.38) and
never forms the curvature tensor.  Every reported verdict is re-verified by
the geometry modules, which derive curvature independently (Koszul
connection, Riemann tensor, Ricci contraction).

Determinism contract: the per-seed RNG is ``default_rng(seed ^ index)`` and
results are merged in index order, so serial and parallel runs produce the
same outcome for identical (entry, seed, n_seeds).
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._expr import eval_expr
from ._smallmat import determinant
from .families import Family, family_by_id
from .forms import LEVI4, hodge_star, norm_sq
from .kahler import classify_hermitian_type, ricci_form
from .lie_algebra import (PAIRS, CatalogEntry, LieAlgebra, catalog_checksum,
                          closedness_constraints, d_two_form, entry_by_name, instantiate,
                          metric_from_params)
from .maxwell import (NON_EINSTEIN_EM, TOL_SOLUTION, EMReport, em_residual, stress_energy,
                      verify_kahler_decomposition)
from .metric_geometry import EPS_PD, curvature_summary

#: Solutions closer than this (max-norm over the canonicalized parameter
#: vector) are considered the same point.
DEDUP_DISTANCE = 1e-4

#: A "no solution found" verdict requires every near-miss to sit above this
#: multiple of the solution tolerance; anything in between is inconclusive.
EVIDENCE_FACTOR = 100.0

_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


class CandidateError(ValueError):
    """Candidate violates its entry's invariants (not a residual)."""


@dataclass
class Candidate:
    """One point in the per-entry search space."""

    entry_name: str
    algebra_params: dict
    metric_params: dict
    f_coeffs: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        self.f_coeffs = np.asarray(self.f_coeffs, dtype=float)
        if self.f_coeffs.shape != (6,):
            raise CandidateError("f_coeffs must have six components")
        if self.orientation not in (1, -1):
            raise CandidateError("orientation must be +1 or -1")
        params = [*self.algebra_params.values(), *self.metric_params.values()]
        if not (np.isfinite(self.f_coeffs).all() and all(map(math.isfinite, params))):
            raise CandidateError("f_coeffs, algebra_params and metric_params must be finite")

    def to_dict(self) -> dict:
        return {
            "entry": self.entry_name,
            "algebra_params": {k: float(v) for k, v in self.algebra_params.items()},
            "metric_params": {k: float(v) for k, v in self.metric_params.items()},
            "f_coeffs": [float(x) for x in self.f_coeffs],
            "orientation": self.orientation,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Candidate":
        try:
            return cls(
                entry_name=raw["entry"],
                algebra_params=dict(raw.get("algebra_params", {})),
                metric_params=dict(raw.get("metric_params", {})),
                f_coeffs=np.asarray(raw["f_coeffs"], dtype=float),
                orientation=int(raw.get("orientation", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CandidateError(f"bad candidate document: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "Candidate":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CandidateError(f"cannot read candidate file: {exc}") from exc
        return cls.from_dict(raw)


def _instantiated(c: Candidate) -> tuple[CatalogEntry, LieAlgebra, np.ndarray]:
    entry = entry_by_name(c.entry_name)
    L = instantiate(entry, c.algebra_params)
    g = metric_from_params(entry, c.metric_params)
    return entry, L, g


def _check_invariants(entry: CatalogEntry, g: np.ndarray) -> None:
    failures = _constraint_failures(entry, g)
    if failures:
        raise CandidateError(f"{entry.name}: metric constraints violated: {failures}")


def _failures(entry: CatalogEntry, g: np.ndarray):
    """Failed admissibility checks of a metric, yielded lazily in a fixed order:
    the entry's constraint polynomials (with margin EPS_PD), then the leading
    principal minors."""
    values = {}
    for i in range(4):
        for j in range(4):
            cell = entry.metric_shape[i][j]
            if isinstance(cell, str):
                values[cell] = float(g[i, j])
    for poly in entry.metric_constraints:
        if not eval_expr(poly, values) > EPS_PD:
            yield poly
    for k in range(1, 5):
        if not determinant(g[:k, :k]) > 0:
            yield f"minor{k}"


def _constraint_failures(entry: CatalogEntry, g: np.ndarray) -> list[str]:
    return list(_failures(entry, g))


def _admissible(entry: CatalogEntry, g: np.ndarray) -> bool:
    """``not _constraint_failures(entry, g)``, stopping at the first failure."""
    return next(_failures(entry, g), None) is None


def _stacked_residual(L: LieAlgebra, g: np.ndarray, f6: np.ndarray,
                      orientation: int) -> np.ndarray:
    _, _, _, _, ric0 = curvature_summary(L, g)
    em = ric0 + stress_energy(g, f6)
    out = np.empty(18)
    for idx, (i, j) in enumerate(_UPPER):
        out[idx] = em[i, j]
    out[10:14] = d_two_form(L, f6)
    out[14:18] = d_two_form(L, hodge_star(g, f6, orientation))
    return out


def residual_vector(c: Candidate) -> np.ndarray:
    """18 components: EM equation upper triangle (10), dF (4), d*F (4)."""
    entry, L, g = _instantiated(c)
    _check_invariants(entry, g)
    return _stacked_residual(L, g, c.f_coeffs, c.orientation)


# ---------------------------------------------------------------------------
# Parameterization of the per-entry search space
# ---------------------------------------------------------------------------


_TRIU_ROWS = np.array([i for i, _ in _UPPER])
_TRIU_COLS = np.array([j for _, j in _UPPER])


class ResidualContext:
    """Residual as a function of the free parameter vector for one entry.

    Parameters are the entry's metric parameters followed by kernel
    coordinates of F (named f<pair> after the free coefficient each kernel
    vector carries), so dF = 0 holds by construction.  In unit_F mode a final
    row |F|^2_g - 1 excludes the trivial solution.

    The evaluation here is the fast path: a batched, complex-analytic kernel
    that takes Ricci straight from the structure constants, g and g^-1
    (Besse, Einstein Manifolds, Cor. 7.38), with every x-independent map
    precomputed as a matrix.  ``residual_jacobian`` differentiates it by the
    complex step.  The module-level ``residual_vector`` derives the same rows
    independently (Koszul connection, Riemann tensor, Ricci contraction,
    Hodge star) through the geometry modules; the two agree to round-off and
    are property-tested against each other.
    """

    def __init__(self, entry: CatalogEntry, algebra_params: dict, orientation: int = 1,
                 mode: str = "unit_F", frozen: tuple[str, ...] = ()):
        if mode not in ("unit_F", "free_F"):
            raise ValueError(f"unknown mode {mode!r}")
        self.entry = entry
        self.algebra_params = dict(algebra_params)
        self.orientation = orientation
        self.mode = mode
        self.L = instantiate(entry, algebra_params)
        c = np.asarray(self.L.c, dtype=float)
        self._c = c
        self.metric_names = list(entry.metric_param_names)
        system = closedness_constraints(self.L)
        self._d_t = np.asarray(system.matrix, dtype=float).T
        self.kernel = np.array([np.asarray(v, dtype=float) for v in system.kernel]).T \
            if system.kernel else np.zeros((6, 0))
        self.f_names = [f"f{lbl}" for lbl in system.free_pairs]
        self.names = self.metric_names + self.f_names
        frozen_set = set(frozen)
        unknown = frozen_set - set(self.names)
        if unknown:
            raise ValueError(f"unknown frozen parameters {sorted(unknown)}; have {self.names}")
        self.free_idx = [k for k, n in enumerate(self.names) if n not in frozen_set]
        # Metric = literal part + metric parameters placed by one matmul.
        self._g0 = np.zeros(16)
        self._place = np.zeros((len(self.metric_names), 16))
        for i in range(4):
            for j in range(4):
                cell = entry.metric_shape[i][j]
                if isinstance(cell, str):
                    self._place[self.metric_names.index(cell), 4 * i + j] = 1.0
                else:
                    self._g0[4 * i + j] = cell
        # Six 2-form coefficients -> antisymmetric 4x4 matrix, flattened.
        self._f_place = np.zeros((6, 16))
        for p, (i, j) in enumerate(PAIRS):
            self._f_place[p, 4 * i + j] = 1.0
            self._f_place[p, 4 * j + i] = -1.0
        # Hodge star then d: F^{kl} (raised, flattened) -> d*F / (sign sqrt det g).
        eps_pairs = np.array([LEVI4[i, j] for i, j in PAIRS], dtype=float).reshape(6, 16)
        self._star_d = 0.5 * orientation * eps_pairs.T @ self._d_t
        # Ricci ingredients that do not depend on the metric, each with its
        # factor -1/2: the structure constants, the Killing form
        # B_ab = c_ai^k c_bk^i and the trace form t_a = c_ak^k.
        self._c_half = -0.5 * c
        self._killing_half = -0.5 * np.einsum("aik,bki->ab", c, c)
        self._trace_half = -0.5 * np.einsum("akk->a", c)

    @property
    def n_rows(self) -> int:
        return 19 if self.mode == "unit_F" else 18

    def pack(self, metric_params: dict, y: np.ndarray) -> np.ndarray:
        x = np.empty(len(self.names))
        for k, n in enumerate(self.metric_names):
            x[k] = metric_params[n]
        x[len(self.metric_names):] = y
        return x

    def metric_of(self, x: np.ndarray) -> np.ndarray:
        """Metric (..., 4, 4) of x (..., n), in the dtype of x."""
        g = x[..., :len(self.metric_names)] @ self._place + self._g0
        return g.reshape(x.shape[:-1] + (4, 4))

    def f_of(self, x: np.ndarray) -> np.ndarray:
        return x[..., len(self.metric_names):] @ self.kernel.T

    def feasible(self, x: np.ndarray) -> bool:
        env = {n: x[k] for k, n in enumerate(self.metric_names)}
        for poly in self.entry.metric_constraints:
            if not eval_expr(poly, env) > EPS_PD:
                return False
        try:
            np.linalg.cholesky(self.metric_of(x))
        except np.linalg.LinAlgError:
            return False
        return True

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Residual rows (B, n_rows) of a batch x (B, n); a 1-D x gives one row vector.

        Every step is complex-analytic (no abs, no casts to float, scratch in
        the dtype of x), so a complex x carries derivatives in its imaginary
        part; ``residual_jacobian`` relies on this.
        """
        single = x.ndim == 1
        if single:
            x = x[None]
        n = len(x)
        g = self.metric_of(x)
        f6 = self.f_of(x)
        g_inv = np.linalg.inv(g)
        det = np.linalg.det(g)
        if not (det.real > 0).all():
            raise ValueError("metric determinant must be positive")
        # Ricci of a left-invariant metric (Besse 7.38), with H = g^-1 t:
        #   Ric_ab = -1/2 g^ij g([e_a,e_i],[e_b,e_j])
        #            + 1/4 g^im g^jn g([e_i,e_j],e_a) g([e_m,e_n],e_b)
        #            - 1/2 B_ab - 1/2 (g([H,e_a],e_b) + g([H,e_b],e_a)).
        # cg[z, i, j, l] = g([e_i,e_j], e_l) carries all three metric terms.
        cg = self._c @ g[:, None]
        rows = cg.reshape(n, 4, 16)
        ric = rows @ (g_inv[:, None] @ self._c_half).reshape(n, 4, 16).transpose(0, 2, 1)
        raised = g_inv @ (g_inv[:, None] @ cg).reshape(n, 4, 16)
        ric += 0.25 * (cg.reshape(n, 16, 4).transpose(0, 2, 1) @ raised.reshape(n, 16, 4))
        mean = ((g_inv @ self._trace_half)[:, None] @ rows).reshape(n, 4, 4)
        ric += mean
        ric += mean.transpose(0, 2, 1)
        ric += self._killing_half
        # Stress term; the trace of Ric + F g^-1 F is s + tr_g(F g^-1 F).
        fm = (f6 @ self._f_place).reshape(n, 4, 4)
        fg = fm @ g_inv
        em = ric + fg @ fm
        em -= 0.25 * (g_inv.reshape(n, 1, 16) @ em.reshape(n, 16, 1)) * g
        out = np.empty((n, self.n_rows), dtype=g.dtype)
        out[:, :10] = em[:, _TRIU_ROWS, _TRIU_COLS]
        out[:, 10:14] = f6 @ self._d_t
        # Co-closedness rows: F with both indices raised, starred and differentiated.
        fu = (g_inv @ fg).reshape(n, 16)
        out[:, 14:18] = np.sqrt(det)[:, None] * (fu @ self._star_d)
        if self.mode == "unit_F":
            out[:, 18:] = 0.5 * (fm.reshape(n, 1, 16) @ fu[:, :, None])[:, 0] - 1.0
        return out[0] if single else out

    def candidate(self, x: np.ndarray) -> Candidate:
        return Candidate(
            entry_name=self.entry.name,
            algebra_params=dict(self.algebra_params),
            metric_params={n: float(x[k]) for k, n in enumerate(self.metric_names)},
            f_coeffs=self.f_of(x),
            orientation=self.orientation,
        )

    def project_f(self, f6: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares kernel coordinates of F and the projection defect."""
        if self.kernel.shape[1] == 0:
            return np.zeros(0), float(np.abs(f6).max(initial=0.0))
        y, *_ = np.linalg.lstsq(self.kernel, f6, rcond=None)
        defect = float(np.abs(self.kernel @ y - f6).max())
        return y, defect


#: Complex step: far below round-off of any real part, so the real part of a
#: probe equals x exactly and the derivative carries no truncation error.
COMPLEX_STEP = 1e-30


def residual_jacobian(fun, x: np.ndarray, free_idx: list[int] | None = None) -> np.ndarray:
    """Complex-step Jacobian J[:, col] = Im fun(x + i h e_k) / h, k = free_idx[col].

    ``fun`` must be complex-analytic and take a batch (B, n) to (B, rows);
    all probes go in one call.  The real part never moves, so no probe can
    leave the feasible region (Squire & Trapp, SIAM Rev. 40(1), 1998).
    """
    x = np.asarray(x, dtype=float)
    cols = np.arange(len(x)) if free_idx is None else np.asarray(free_idx, dtype=int)
    probes = np.tile(x.astype(complex), (len(cols), 1))
    probes[np.arange(len(cols)), cols] += 1j * COMPLEX_STEP
    return fun(probes).imag.T / COMPLEX_STEP


# ---------------------------------------------------------------------------
# Levenberg-Marquardt refinement
# ---------------------------------------------------------------------------


@dataclass
class RefineResult:
    candidate: Candidate
    converged: bool
    iterations: int
    max_residual: float
    reason: str
    n_evals: int = 0


def _levmar(ctx: ResidualContext, x0: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, bool, int, str, int]:
    x = np.asarray(x0, dtype=float).copy()
    if not ctx.feasible(x):
        return x, False, 0, "infeasible start", 0
    r = ctx.residual(x)
    n_evals = 1
    lam = 1e-3
    free = ctx.free_idx
    for it in range(max_iter):
        if np.abs(r).max() <= tol:
            return x, True, it, "converged", n_evals
        if it >= 25 and np.abs(r).max() > 5e-2:
            return x, False, it, "slow progress", n_evals
        jac = residual_jacobian(ctx.residual, x, free_idx=free)
        n_evals += len(free)  # one batched call of len(free) rows
        a = jac.T @ jac
        grad = jac.T @ r
        diag = np.maximum(np.diag(a), 1e-12)
        accepted = False
        constraint_rejects = 0
        for _ in range(30):
            try:
                delta = np.linalg.solve(a + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            x_new = x.copy()
            x_new[free] += delta
            if not ctx.feasible(x_new):
                constraint_rejects += 1
                lam *= 4
                if lam > 1e14:
                    break
                continue
            r_new = ctx.residual(x_new)
            n_evals += 1
            if r_new @ r_new < r @ r:
                x, r = x_new, r_new
                lam = max(lam / 3, 1e-12)
                accepted = True
                break
            lam *= 4
            if lam > 1e14:
                break
        if not accepted:
            if np.abs(r).max() <= tol:
                return x, True, it + 1, "converged", n_evals
            reason = "constraint-trapped" if constraint_rejects >= 25 else "stalled"
            return x, False, it + 1, reason, n_evals
    converged = bool(np.abs(r).max() <= tol)
    return x, converged, max_iter, "converged" if converged else "iteration cap", n_evals


def refine(c: Candidate, tol: float = 1e-11, max_iter: int = 60,
           frozen: tuple[str, ...] = (), unit_norm: bool = False) -> RefineResult:
    """Polish a candidate on the dF = 0 subspace; backtracks at constraints.

    The candidate's F must lie in the closed subspace (all fixture and search
    candidates do); its kernel coordinates become the optimization variables
    together with the metric parameters.  With unit_norm the row
    |F|^2_g - 1 is appended, forcing F away from the trivial solution.
    """
    entry = entry_by_name(c.entry_name)
    ctx = ResidualContext(entry, c.algebra_params, c.orientation,
                          mode="unit_F" if unit_norm else "free_F", frozen=frozen)
    y, defect = ctx.project_f(c.f_coeffs)
    if defect > 1e-8:
        raise CandidateError(
            f"candidate F is not closed (distance {defect:.2e} from the dF=0 subspace)")
    x0 = ctx.pack(c.metric_params, y)
    x, converged, iters, reason, n_evals = _levmar(ctx, x0, tol, max_iter)
    return RefineResult(candidate=ctx.candidate(x), converged=converged,
                        iterations=iters, max_residual=float(np.abs(ctx.residual(x)).max()),
                        reason=reason, n_evals=n_evals)


# ---------------------------------------------------------------------------
# Multistart search
# ---------------------------------------------------------------------------


@dataclass
class SearchOutcome:
    entry_name: str
    mode: str
    seed: int
    seeds_used: int  # seeds that reached refinement, not seeds attempted
    solutions: list[tuple[Candidate, EMReport]] = field(default_factory=list)
    best_nonsolution_residual: float = float("inf")
    wall_time: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "entry": self.entry_name,
            "mode": self.mode,
            "seed": self.seed,
            "seeds_used": self.seeds_used,
            "n_solutions": len(self.solutions),
            "best_nonsolution_residual": (None if not np.isfinite(self.best_nonsolution_residual)
                                          else self.best_nonsolution_residual),
            "solutions": [{"candidate": c.to_dict(), "report": r.to_dict()}
                          for c, r in self.solutions],
            "catalog_sha256": catalog_checksum(),
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_timing: bool = False, **kwargs) -> str:
        return json.dumps(self.to_dict(include_timing), **kwargs)


def sample_metric_params(entry: CatalogEntry, rng: np.random.Generator,
                         max_tries: int = 600) -> dict:
    """Uniform draw from the feasible box: [-3, 3] per parameter, positives in
    (0, 3]; rejection on the entry's constraint polynomials.

    Constraint regions can occupy a small fraction of the box, so after 150
    rejected draws the box shrinks geometrically (off-diagonal parameters
    toward 0, positive ones toward 1) where every catalog shape is feasible.
    """
    names = entry.metric_param_names
    if not names:
        return {}
    positive = set(entry.positive_metric_params)
    for attempt in range(max_tries):
        shrink = 0.7 ** max(0, (attempt - 150) // 50)
        params = {}
        for n in names:
            if n in positive:
                hi = 1.0 + 2.0 * shrink
                params[n] = float(rng.uniform(10 * EPS_PD, hi))
            else:
                params[n] = float(rng.uniform(-3.0 * shrink, 3.0 * shrink))
        g = metric_from_params(entry, params)
        if _admissible(entry, g):
            return params
    raise ValueError(f"{entry.name}: empty feasible box (no admissible metric in {max_tries} draws)")


def sample_algebra_params(entry: CatalogEntry, rng: np.random.Generator,
                          variant_index: int = 0) -> dict:
    """Draw admissible algebra parameters, cycling named variants in.

    Even variant indices sample the generic branch; odd ones walk through the
    entry's admissible named variants so every analysis branch gets seeds.
    """
    variants = [v for v in entry.variants if v.admissible]
    if variants and variant_index % 2 == 1:
        v = variants[(variant_index // 2) % len(variants)]
        return dict(v.params)
    params = {}
    for spec in entry.params:
        lo = -2.0 if spec.lo is None else max(spec.lo, -2.0)
        hi = 2.0 if spec.hi is None else min(spec.hi, 2.0)
        for _ in range(100):
            val = float(rng.uniform(lo, hi))
            if spec.admits(val, margin=0.05):
                params[spec.name] = val
                break
        else:
            raise ValueError(f"{entry.name}: cannot sample parameter {spec.name}")
    if entry.name.startswith("A4,5") and params:
        a, b = sorted((params["a"], params["b"]))  # classification orders a <= b
        params = {"a": a, "b": b}
    return params


def _canonical_vector(c: Candidate) -> np.ndarray:
    f = c.f_coeffs.copy()
    for v in f:
        if abs(v) > 1e-9:
            if v < 0:
                f = -f
            break
    parts = [np.array([c.algebra_params[k] for k in sorted(c.algebra_params)]),
             np.array([c.metric_params[k] for k in sorted(c.metric_params)]),
             f]
    return np.concatenate(parts)


def canonical_sign(c: Candidate) -> Candidate:
    """Flip F so its first nonzero coefficient is positive ((g, -F) orbit)."""
    f = c.f_coeffs
    for v in f:
        if abs(v) > 1e-9:
            if v < 0:
                return Candidate(c.entry_name, dict(c.algebra_params),
                                 dict(c.metric_params), -f, c.orientation)
            break
    return c


def _run_seed(args) -> dict:
    entry_name, seed, index, mode, orientation, tol, max_iter = args
    entry = entry_by_name(entry_name)
    rng = np.random.default_rng(seed ^ index)
    try:
        algebra_params = sample_algebra_params(entry, rng, variant_index=index)
        metric_params = sample_metric_params(entry, rng)
    except ValueError as exc:
        return {"index": index, "status": "sampling-failed", "detail": str(exc)}
    ctx = ResidualContext(entry, algebra_params, orientation, mode=mode)
    k = ctx.kernel.shape[1]
    if k == 0:
        return {"index": index, "status": "no-closed-forms"}
    y0 = rng.uniform(-2.0, 2.0, size=k)
    x0 = ctx.pack(metric_params, y0)
    if mode == "unit_F":
        nrm = float(norm_sq(ctx.metric_of(x0), ctx.f_of(x0)))
        if nrm < 1e-6:
            y0 = rng.uniform(0.5, 2.0, size=k)
            x0 = ctx.pack(metric_params, y0)
            nrm = float(norm_sq(ctx.metric_of(x0), ctx.f_of(x0)))
        if nrm > 0:
            x0[len(ctx.metric_names):] /= np.sqrt(nrm)
    x, converged, iters, reason, _ = _levmar(ctx, x0, tol=min(tol * 1e-2, 1e-11),
                                             max_iter=max_iter)
    cand = canonical_sign(ctx.candidate(x))
    # Independent re-verification through the geometry modules only.
    _, L, g = _instantiated(cand)
    report = em_residual(L, g, cand.f_coeffs, cand.orientation, tol=tol)
    return {"index": index, "status": "refined", "converged": converged,
            "reason": reason, "iterations": iters,
            "candidate": cand, "report": report}


def multistart_search(entry, n_seeds: int, seed: int = 0, mode: str = "unit_F",
                      orientation: int = 1, tol: float = TOL_SOLUTION,
                      max_iter: int = 45, n_jobs: int = 1) -> SearchOutcome:
    """Refine from n_seeds deterministic random starts and collect solutions."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    entry = entry if isinstance(entry, CatalogEntry) else entry_by_name(entry)
    t0 = time.perf_counter()
    tasks = [(entry.name, seed, i, mode, orientation, tol, max_iter)
             for i in range(n_seeds)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_run_seed, tasks, chunksize=max(1, n_seeds // (4 * n_jobs))))
    else:
        results = [_run_seed(t) for t in tasks]
    results.sort(key=lambda r: r["index"])
    refined = [res for res in results if res["status"] == "refined"]
    outcome = SearchOutcome(entry_name=entry.name, mode=mode, seed=seed,
                            seeds_used=len(refined))
    kept_vectors: list[np.ndarray] = []
    best_miss = float("inf")
    for res in refined:
        cand, report = res["candidate"], res["report"]
        if report.is_solution:
            vec = _canonical_vector(cand)
            if any(v.shape == vec.shape and np.abs(v - vec).max() < DEDUP_DISTANCE
                   for v in kept_vectors):
                continue
            kept_vectors.append(vec)
            outcome.solutions.append((cand, report))
        else:
            best_miss = min(best_miss, max(report.r_em, report.r_dF, report.r_dstarF))
    outcome.best_nonsolution_residual = best_miss
    outcome.wall_time = time.perf_counter() - t0
    return outcome


# ---------------------------------------------------------------------------
# Family verification and catalog classification
# ---------------------------------------------------------------------------


@dataclass
class FamilyReport:
    family_id: str
    orientation: int
    n_points: int
    max_residual: float
    max_kappa_error: float
    max_rho0_error: float
    max_decomposition_defect: float
    classifications: list[str]
    hermitian_types: list[str]
    all_pass: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family_id,
            "orientation": self.orientation,
            "n_points": self.n_points,
            "max_residual": self.max_residual,
            "max_kappa_error": self.max_kappa_error,
            "max_rho0_error": self.max_rho0_error,
            "max_decomposition_defect": self.max_decomposition_defect,
            "classifications": self.classifications,
            "hermitian_types": self.hermitian_types,
            "all_pass": self.all_pass,
            "catalog_sha256": catalog_checksum(),
        }


def family_candidate(fam: Family, point: dict, orientation: int = 1) -> Candidate:
    return Candidate(
        entry_name=fam.entry_name,
        algebra_params=fam.algebra_params(point),
        metric_params=fam.metric_params(point),
        f_coeffs=fam.f_coeffs(point),
        orientation=orientation,
    )


def verify_solution_family(family_id: str, grid: tuple[dict, ...] | None = None,
                           orientation: int = 1, tol: float = 1e-10) -> FamilyReport:
    """Run the full verification battery on a family grid."""
    fam = family_by_id(family_id)
    points = tuple(grid) if grid is not None else fam.default_grid
    max_res = 0.0
    max_kerr = 0.0
    max_rho_err = 0.0
    max_defect = 0.0
    classifications = []
    types = []
    ok = True
    for point in points:
        cand = family_candidate(fam, point, orientation)
        entry, L, g = _instantiated(cand)
        res = np.abs(residual_vector(cand)).max()
        max_res = max(max_res, float(res))
        report = em_residual(L, g, cand.f_coeffs, orientation)
        classifications.append(report.classification)
        if report.classification != NON_EINSTEIN_EM:
            ok = False
        omega = fam.kahler_form(point, orientation)
        kind = classify_hermitian_type(L, g, omega)
        types.append(kind)
        if kind != fam.expected_type(orientation):
            ok = False
        rho0, _, _ = ricci_form(L, g, omega)
        rho_err = float(np.abs(rho0 - fam.expected_rho0(point, orientation)).max())
        max_rho_err = max(max_rho_err, rho_err)
        kappa, defect = verify_kahler_decomposition(g, cand.f_coeffs, omega, rho0, orientation)
        max_kerr = max(max_kerr, abs(kappa - fam.expected_kappa(point, orientation)))
        max_defect = max(max_defect, defect)
    ok = ok and max_res <= tol and max_kerr <= tol and max_rho_err <= tol and max_defect <= tol
    return FamilyReport(
        family_id=fam.id, orientation=orientation, n_points=len(points),
        max_residual=max_res, max_kappa_error=max_kerr, max_rho0_error=max_rho_err,
        max_decomposition_defect=max_defect, classifications=classifications,
        hermitian_types=types, all_pass=ok,
    )


@dataclass
class ClassifyOutcome:
    entry_name: str
    computed: str
    expected: str
    agree: bool
    inconclusive: bool
    n_solutions: int
    n_non_einstein: int
    best_nonsolution_residual: float
    max_null_stress: float

    def to_dict(self) -> dict:
        return {
            "entry": self.entry_name,
            "computed": self.computed,
            "expected": self.expected,
            "agree": self.agree,
            "inconclusive": self.inconclusive,
            "n_solutions": self.n_solutions,
            "n_non_einstein": self.n_non_einstein,
            "best_nonsolution_residual": (None if not np.isfinite(self.best_nonsolution_residual)
                                          else self.best_nonsolution_residual),
            "max_null_stress": self.max_null_stress,
        }


def classify_algebra(entry, budget: tuple[int, int] = (200, 45), seed: int = 0,
                     n_jobs: int = 1, tol: float = TOL_SOLUTION) -> ClassifyOutcome:
    """Compare the search verdict with the catalog verdict.

    Runs the unit-norm sweep first (it also supplies the non-existence
    evidence), then a free-norm pass if nothing was found: the EM equation
    pins the scale of F, and some solution families live entirely at
    |F|_g > 1 where the unit-norm slice is empty.

    A negative verdict is numerical evidence only, never a proof: it is
    reported as "no solution found at budget" and demands that the unit-norm
    pass refined at least one seed and that the closest non-solution stays a
    factor of 100 above the solution tolerance; otherwise it is inconclusive.
    """
    entry = entry if isinstance(entry, CatalogEntry) else entry_by_name(entry)
    n_seeds, max_iter = budget
    outcome = multistart_search(entry, n_seeds=n_seeds, seed=seed, mode="unit_F",
                                max_iter=max_iter, n_jobs=n_jobs, tol=tol)
    non_einstein = [s for s in outcome.solutions
                    if s[1].classification == NON_EINSTEIN_EM]
    solutions = list(outcome.solutions)
    if not non_einstein:
        free_pass = multistart_search(entry, n_seeds=n_seeds, seed=seed, mode="free_F",
                                      max_iter=max_iter, n_jobs=n_jobs, tol=tol)
        non_einstein = [s for s in free_pass.solutions
                        if s[1].classification == NON_EINSTEIN_EM]
        solutions += free_pass.solutions
    max_stress = 0.0
    for cand, report in solutions:
        if report.classification != NON_EINSTEIN_EM:
            _, _, g = _instantiated(cand)
            max_stress = max(max_stress, float(np.abs(stress_energy(g, cand.f_coeffs)).max()))
    if non_einstein:
        computed = "HasNonEinsteinEM"
        inconclusive = False
    else:
        computed = "NoNonEinsteinEMFound"
        # No refined seed is no evidence; a near miss is evidence against.
        inconclusive = bool(outcome.seeds_used == 0
                            or (np.isfinite(outcome.best_nonsolution_residual)
                                and outcome.best_nonsolution_residual <= EVIDENCE_FACTOR * tol))
    if entry.verdict == "HasNonEinsteinEM":
        agree = computed == "HasNonEinsteinEM"
    else:
        agree = computed == "NoNonEinsteinEMFound" and not inconclusive
    return ClassifyOutcome(
        entry_name=entry.name, computed=computed, expected=entry.verdict,
        agree=agree, inconclusive=inconclusive,
        n_solutions=len(solutions), n_non_einstein=len(non_einstein),
        best_nonsolution_residual=outcome.best_nonsolution_residual,
        max_null_stress=max_stress,
    )
