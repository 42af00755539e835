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

Multistart searches run seeds in lockstep: the seeds of a search are split
into fixed blocks of 32 consecutive indices, and the seeds of a block with
the same search dimension are refined by one Levenberg-Marquardt program
whose state carries a leading seed axis (``ResidualContext.stack``).  Each
seed keeps its own damping and counters, and its arithmetic does not depend
on the seeds beside it, so a seed gives the same result alone and in a
block.  A process pool, when asked for, takes whole blocks.

Each tick of that program tries a damping ladder per seed: the next three
dampings a lone run would try (lam, 4 lam, 16 lam), solved, checked and
evaluated together, then consumed in order under the lone-run rules.  The
rungs are extra rows on the seed axis (``ResidualContext.repeat``), not
extra points of one seed, because only the seed axis evaluates every row
as a lone point is evaluated.  Iteration counts, stop reasons and residual
evaluation counts are those of a lone run.

Determinism contract: the per-seed RNG is ``default_rng(seed ^ index)``,
blocks are fixed by index, every seed runs at most ``SEARCH_MAX_ITER``
iterations and results are merged in index order, so an outcome depends on
entry, seed, n_seeds, mode, orientation and tol, and never on n_jobs: serial
and parallel reports are byte-identical.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .families import Family, family_by_id
from .forms import LEVI4, hodge_star, norm_sq
from .kahler import classify_hermitian_type, ricci_form
from .lie_algebra import (PAIRS, CatalogEntry, LieAlgebra, catalog_checksum,
                          closedness_constraints, d_two_form, entry_by_name, instantiate,
                          metric_from_params)
from .maxwell import (NON_EINSTEIN_EM, TOL_SOLUTION, EMReport, em_residual, stress_energy,
                      verify_kahler_decomposition)
from .metric_geometry import EPS_PD, admissible, curvature_summary, validate_metric

#: Solutions closer than this (max-norm over the canonicalized parameter
#: vector) are considered the same point.
DEDUP_DISTANCE = 1e-4

#: A "no solution found" verdict requires every near-miss to sit above this
#: multiple of the solution tolerance; anything in between is inconclusive.
EVIDENCE_FACTOR = 100.0

#: Levenberg-Marquardt iterations per seed of a multistart search, and
#: metric draws before ``sample_metric_params`` gives up on an entry.
SEARCH_MAX_ITER = 45
SAMPLE_TRIES = 600

#: Upper triangle (i <= j) of a 4x4 matrix, row by row.
_TRIU_ROWS, _TRIU_COLS = np.triu_indices(4)


class CandidateError(ValueError):
    """Candidate violates its entry's invariants (not a residual)."""


def finite_number(value) -> bool:
    """Whether a parsed JSON value is a number: an int or float that is
    finite and not a bool (so true, "1" and 1e400 are not)."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def number_object(value, what: str) -> dict:
    """``value`` if it is a JSON object of finite numbers; else a ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    for name, v in value.items():
        if not finite_number(v):
            raise ValueError(f"{what}: {name} must be a finite number, got {v!r}")
    return value


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
        # Integers only: 1.5, "1" and true must not pass as an orientation.
        o = self.orientation
        if isinstance(o, bool) or not isinstance(o, (int, np.integer)) or o not in (1, -1):
            raise CandidateError("orientation must be the integer 1 or -1")
        params = [*self.algebra_params.values(), *self.metric_params.values()]
        try:
            finite = np.isfinite(self.f_coeffs).all() and all(map(math.isfinite, params))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
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
        """A candidate from a parsed JSON document whose values have their
        JSON types: ``entry`` a string, the parameter sets objects of finite
        numbers and ``f_coeffs`` a list of them.  True, "1" or a list of
        pairs is refused, never converted."""
        try:
            if not isinstance(raw, dict) or not isinstance(raw.get("entry"), str):
                raise ValueError("expected a JSON object whose entry is a string")
            f_coeffs = raw["f_coeffs"]
            if not (isinstance(f_coeffs, list) and all(map(finite_number, f_coeffs))):
                raise ValueError(f"f_coeffs must be a list of finite numbers, got {f_coeffs!r}")
            return cls(
                entry_name=raw["entry"],
                algebra_params=number_object(raw.get("algebra_params", {}), "algebra_params"),
                metric_params=number_object(raw.get("metric_params", {}), "metric_params"),
                f_coeffs=np.asarray(f_coeffs, dtype=float),
                orientation=raw.get("orientation", 1),
            )
        except (KeyError, ValueError) as exc:
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


def _stacked_residual(L: LieAlgebra, g: np.ndarray, f6: np.ndarray,
                      orientation: int) -> np.ndarray:
    _, _, _, _, ric0 = curvature_summary(L, g)
    em = ric0 + stress_energy(g, f6)
    out = np.empty(18)
    out[:10] = em[_TRIU_ROWS, _TRIU_COLS]
    out[10:14] = d_two_form(L, f6)
    out[14:18] = d_two_form(L, hodge_star(g, f6, orientation))
    return out


def residual_vector(c: Candidate) -> np.ndarray:
    """18 components: EM equation upper triangle (10), dF (4), d*F (4)."""
    entry, L, g = _instantiated(c)
    check = validate_metric(entry, g)
    if not check.ok:
        raise CandidateError(f"{entry.name}: inadmissible metric: " + "; ".join(check.failures))
    return _stacked_residual(L, g, c.f_coeffs, c.orientation)


# ---------------------------------------------------------------------------
# Parameterization of the per-entry search space
# ---------------------------------------------------------------------------


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

    The constants that depend on the algebra parameters carry a leading seed
    axis: length 1 here, and one entry per seed in a context made by
    ``stack``, which lets one call evaluate many seeds of a search at once.
    """

    #: Per-seed constants, stacked on axis 0.
    _SEED_AXIS = ("_c16", "_c_half_m", "_killing_half", "_trace_half", "_kernel_t", "_d_t",
                  "_star_d")

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
        self.metric_names = list(entry.metric_param_names)
        system = closedness_constraints(self.L)
        d_t = np.asarray(system.matrix, dtype=float).T
        self.kernel = np.array([np.asarray(v, dtype=float) for v in system.kernel]).T \
            if system.kernel else np.zeros((6, 0))
        self.f_names = [f"f{lbl}" for lbl in system.free_pairs]
        self.names = self.metric_names + self.f_names
        frozen_set = set(frozen)
        unknown = frozen_set - set(self.names)
        if unknown:
            raise ValueError(f"unknown frozen parameters {sorted(unknown)}; have {self.names}")
        self.free_idx = [k for k, n in enumerate(self.names) if n not in frozen_set]
        self._place, self._g0 = entry.metric_placement
        # Six 2-form coefficients -> antisymmetric 4x4 matrix, flattened.
        self._f_place = np.zeros((6, 16))
        for p, (i, j) in enumerate(PAIRS):
            self._f_place[p, 4 * i + j] = 1.0
            self._f_place[p, 4 * j + i] = -1.0
        # Per seed: kernel coordinates -> F, dF map, and Hodge star then d:
        # F^{kl} (raised, flattened) -> d*F / (sign sqrt det g).
        eps_pairs = np.array([LEVI4[i, j] for i, j in PAIRS], dtype=float).reshape(6, 16)
        self._kernel_t = self.kernel.T[None]
        self._d_t = d_t[None]
        self._star_d = (0.5 * orientation * eps_pairs.T @ d_t)[None]
        # Ricci ingredients that do not depend on the metric: the structure
        # constants as rows [(i, j), k], and with factor -1/2 the structure
        # constants as [m, (l, b)] = c_bm^l, the Killing form
        # B_ab = c_ai^k c_bk^i and the trace form t_a = c_ak^k.
        self._c16 = c.reshape(1, 16, 4)
        self._c_half_m = (-0.5 * c).transpose(1, 2, 0).reshape(1, 4, 16)
        self._killing_half = -0.5 * np.einsum("aik,bki->ab", c, c)[None]
        self._trace_half = -0.5 * np.einsum("akk->a", c)[None]

    @classmethod
    def stack(cls, contexts: list["ResidualContext"]) -> "ResidualContext":
        """One context for the seeds of ``contexts`` (one entry, mode,
        orientation and frozen set, equal kernel sizes), their per-seed
        constants concatenated in order.  It evaluates and checks points;
        per-seed facts (algebra, kernel, candidates) stay with the parts."""
        if len(contexts) == 1:
            return contexts[0]
        out = copy.copy(contexts[0])
        for name in cls._SEED_AXIS:
            setattr(out, name, np.concatenate([getattr(c, name) for c in contexts]))
        out.L = out.kernel = out.algebra_params = None
        return out

    def repeat(self, times: int) -> "ResidualContext":
        """A context whose seeds s * times .. s * times + times - 1 are all
        seed s of this one.  It evaluates and checks points."""
        out = copy.copy(self)
        for name in self._SEED_AXIS:
            setattr(out, name, np.repeat(getattr(self, name), times, axis=0))
        return out

    @property
    def n_rows(self) -> int:
        return 19 if self.mode == "unit_F" else 18

    def pack(self, metric_params: dict, y: np.ndarray) -> np.ndarray:
        return np.concatenate([[metric_params[n] for n in self.metric_names], y])

    def metric_of(self, x: np.ndarray) -> np.ndarray:
        """Metric (..., 4, 4) of x (..., n), in the dtype of x."""
        g = x[..., :len(self.metric_names)] @ self._place + self._g0
        return g.reshape(x.shape[:-1] + (4, 4))

    def f_of(self, x: np.ndarray) -> np.ndarray:
        """2-form coefficients (..., 6) of x (..., n); a 3-D x is (seed, point, n)."""
        return x[..., len(self.metric_names):] @ (self._kernel_t if x.ndim == 3 else
                                                   self._kernel_t[0])

    def feasible(self, x: np.ndarray):
        """Whether x (..., n) is admissible (``metric_geometry.admissible`` on
        its metric parameters): a bool for a 1-D x, else a bool array over
        the leading axes."""
        return admissible(self.entry, x[..., :len(self.metric_names)])

    def residual(self, x: np.ndarray, seeds: np.ndarray | None = None) -> np.ndarray:
        """Residual rows of x: (S, m, n) -> (S, m, n_rows), m points per seed.

        Point x[s, i] is evaluated with the constants of seed ``seeds[s]``
        (of seed s when ``seeds`` is None); those constants broadcast over
        the point axis.  A 2-D x (m, n) -> (m, n_rows) or 1-D x (n,) ->
        (n_rows,) is the one-seed case.

        Every step is complex-analytic (no abs, no casts to float, scratch in
        the dtype of x), so a complex x carries derivatives in its imaginary
        part; ``residual_jacobian`` relies on this.
        """
        xs = x if x.ndim == 3 else x.reshape(1, -1, x.shape[-1])
        consts = [getattr(self, name) for name in self._SEED_AXIS]
        if seeds is not None:
            consts = [a[seeds] for a in consts]
        c16, c_half_m, killing_half, trace_half, kernel_t, d_t, star_d = consts
        s, m = xs.shape[:2]
        g = self.metric_of(xs)
        f6 = xs[..., len(self.metric_names):] @ kernel_t
        g_inv = np.linalg.inv(g)
        det = np.linalg.det(g)
        if not (det.real > 0).all():
            raise ValueError("metric determinant must be positive")
        # Ricci of a left-invariant metric (Besse 7.38), with H = g^-1 t:
        #   Ric_ab = -1/2 g^ij g([e_a,e_i],[e_b,e_j])
        #            + 1/4 g^im g^jn g([e_i,e_j],e_a) g([e_m,e_n],e_b)
        #            - 1/2 B_ab - 1/2 (g([H,e_a],e_b) + g([H,e_b],e_a)).
        # cg[., ., (i, j), l] = g([e_i,e_j], e_l) carries all three metric terms;
        # the second one raises both bracket indices with g^-1 (x) g^-1.
        cg = c16[:, None] @ g
        rows = cg.reshape(s, m, 4, 16)
        ric = rows @ (g_inv @ c_half_m[:, None]).reshape(s, m, 16, 4)
        kron = (g_inv[..., :, None, :, None] * g_inv[..., None, :, None, :]).reshape(s, m, 16, 16)
        ric += 0.25 * (cg.swapaxes(2, 3) @ (kron @ cg))
        mean = ((g_inv @ trace_half[:, None, :, None]).swapaxes(2, 3) @ rows).reshape(s, m, 4, 4)
        ric += mean
        ric += mean.swapaxes(2, 3)
        ric += killing_half[:, None]
        # Stress term; the trace of Ric + F g^-1 F is s + tr_g(F g^-1 F).
        fm = (f6 @ self._f_place).reshape(s, m, 4, 4)
        fg = fm @ g_inv
        em = ric + fg @ fm
        em -= 0.25 * (g_inv.reshape(s, m, 1, 16) @ em.reshape(s, m, 16, 1)) * g
        out = np.empty((s, m, self.n_rows), dtype=g.dtype)
        out[..., :10] = em[..., _TRIU_ROWS, _TRIU_COLS]
        out[..., 10:14] = f6 @ d_t
        # Co-closedness rows: F with both indices raised, starred and differentiated.
        fu = (g_inv @ fg).reshape(s, m, 16)
        out[..., 14:18] = np.sqrt(det)[..., None] * (fu @ star_d)
        if self.mode == "unit_F":
            out[..., 18:] = 0.5 * (fm.reshape(s, m, 1, 16) @ fu[..., None])[..., 0] - 1.0
        return out if x.ndim == 3 else out.reshape(x.shape[:-1] + (self.n_rows,))

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
    """Complex-step Jacobian J[..., :, col] = Im fun(x + i h e_k) / h, k = free_idx[col].

    x is one point (n,), giving J (rows, len(free_idx)), or one point per
    seed (S, n), giving J (S, rows, len(free_idx)).  ``fun`` must be
    complex-analytic and take probes (..., m, n) to (..., m, rows); all probes
    go in one call.  The real part never moves, so no probe can leave the
    feasible region (Squire & Trapp, SIAM Rev. 40(1), 1998).
    """
    x = np.asarray(x, dtype=float)
    cols = np.arange(x.shape[-1]) if free_idx is None else np.asarray(free_idx, dtype=int)
    probes = np.repeat(x[..., None, :].astype(complex), len(cols), axis=-2)
    probes[..., np.arange(len(cols)), cols] += 1j * COMPLEX_STEP
    return np.swapaxes(fun(probes).imag, -1, -2) / COMPLEX_STEP


# ---------------------------------------------------------------------------
# Levenberg-Marquardt refinement
# ---------------------------------------------------------------------------


#: Why a refinement stopped, in the order the search ledger lists them.
STOP_REASONS = ("converged", "slow progress", "stalled", "constraint-trapped",
                "iteration cap", "infeasible start")


@dataclass
class RefineResult:
    candidate: Candidate
    converged: bool
    iterations: int
    max_residual: float
    reason: str
    n_evals: int = 0


def _solve_stack(m: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of m[s] d = rhs[s] (rhs (S, k, 1)) and which systems were
    solvable: one stacked solve unless LAPACK refuses one of them."""
    try:
        return np.linalg.solve(m, rhs)[..., 0], np.ones(len(m), dtype=bool)
    except np.linalg.LinAlgError:
        delta = np.zeros(rhs.shape[:-1])
        solved = np.ones(len(m), dtype=bool)
        for s in range(len(m)):
            try:
                delta[s] = np.linalg.solve(m[s:s + 1], rhs[s:s + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[s] = False
        return delta, solved


#: Trials per running seed and tick: the dampings lam, 4 lam, 16 lam, which
#: a lone run tries after successive rejections.  Powers of two, so each
#: rung's damping equals the lone run's bit for bit.
_RUNGS = 3
_RUNG_SCALE = 4.0 ** np.arange(_RUNGS)


def _iteration_stop(peak: float, iters: int, tol: float, max_iter: int) -> str | None:
    """Why a run stops at the top of an iteration, if it does."""
    if peak <= tol:
        return "converged"
    if iters >= max_iter:
        return "iteration cap"
    if iters >= 25 and peak > 5e-2:
        return "slow progress"
    return None


def _levmar(ctx: ResidualContext, x0: np.ndarray, tol: float, max_iter: int):
    """Levenberg-Marquardt from one start per seed of ``ctx`` (x0 is (S, n)), in lockstep.

    Every seed follows the rules of a lone run: damping lam x10 when the
    damped system is singular, x4 on an infeasible or worse trial, /3
    (floored at 1e-12) on an accepted step; at most 30 trials per iteration,
    giving up once lam > 1e14 after a failed trial; a "slow progress" stop
    from iteration 25 while the max residual exceeds 5e-2.

    A tick gives every running seed a ladder of ``_RUNGS`` trials at lam,
    4 lam and 16 lam, the dampings a lone run tries after successive
    rejections, with one stacked solve, one feasibility check and one
    residual call for all rungs (and one Jacobian call for the seeds
    starting an iteration).  Each seed then takes its rungs in order as a
    lone run would: the first feasible rung that improves is accepted, a
    singular rung gives lam x10 and ends the ladder, and the trial cap and
    the lam break stop the seed; the rungs after that are dropped.  A seed
    thus walks the path of a lone run, up to three trials per tick.

    The rungs sit on the seed axis: the per-seed constants are repeated once
    per call (``ResidualContext.repeat``) and a tick evaluates points
    (S * _RUNGS, 1, n), so each rung is computed as a lone point is.  On the
    point axis, (S, _RUNGS, n), BLAS treats a seed's rungs as one matrix and
    rounds them differently from single points.  Per-seed scalars (lam, the
    counters, the starting and stop flags) are Python lists walked once per
    tick; only points, residuals and normal equations are arrays.

    Returns per seed: end points (S, n), iterations, stop reasons and
    residual evaluations.  These count the start, one per free parameter
    for each Jacobian, and each feasible trial of the lone-run rules; rungs
    evaluated but dropped do not count.
    """
    n_seeds = len(x0)
    free = np.asarray(ctx.free_idx, dtype=int)
    k = len(free)
    ladder = ctx.repeat(_RUNGS)
    out_x = np.array(x0, dtype=float)
    out_iters = [0] * n_seeds
    out_evals = [0] * n_seeds
    reasons = ["infeasible start"] * n_seeds
    # State of the running seeds, compacted whenever some of them stop.
    pos = np.flatnonzero(ctx.feasible(out_x))
    x = out_x[pos]
    n = len(pos)
    r = ctx.residual(x[:, None], seeds=None if n == n_seeds else pos)[:, 0]
    rr = (r[:, None] @ r[..., None])[:, 0, 0].tolist()
    ended = [_iteration_stop(p, 0, tol, max_iter) for p in np.abs(r).max(axis=1).tolist()]
    lam = [1e-3] * n
    iters = [0] * n
    trials = [0] * n
    rejects = [0] * n
    evals = [1] * n
    starting = [True] * n  # at the top of an iteration
    normal = np.zeros((n, k, k))
    neg_grad = np.zeros((n, k, 1))
    damping = np.zeros((n, k, k))
    eye = np.eye(k)
    rows = (pos[:, None] * _RUNGS + np.arange(_RUNGS)).ravel()  # their rungs in ``ladder``
    while n:
        if any(ended):
            for i, why in enumerate(ended):
                if why:
                    s = pos[i]
                    reasons[s], out_x[s], out_iters[s], out_evals[s] = why, x[i], iters[i], evals[i]
            keep = [i for i, why in enumerate(ended) if not why]
            pos, x, r, normal, neg_grad, damping = (
                a[keep] for a in (pos, x, r, normal, neg_grad, damping))
            lam, iters, trials, rejects, evals, rr, starting = (
                [a[i] for i in keep] for a in (lam, iters, trials, rejects, evals, rr, starting))
            n = len(keep)
            ended = [None] * n
            rows = (pos[:, None] * _RUNGS + np.arange(_RUNGS)).ravel()
            if not n:
                break
        every = n == n_seeds  # all seeds run, in order: no gathers of per-seed constants
        go = [i for i in range(n) if starting[i]]
        if go:
            sel = slice(None) if len(go) == n else go
            fun = functools.partial(ctx.residual, seeds=None if every and len(go) == n
                                    else pos[go])
            jac = residual_jacobian(fun, x[sel], free_idx=free)
            jac_t = jac.swapaxes(1, 2)
            normal[sel] = jac_t @ jac
            neg_grad[sel] = -(jac_t @ r[sel, :, None])
            damping[sel] = eye * np.maximum(np.diagonal(normal[sel], 0, 1, 2), 1e-12)[:, None]
            for i in go:
                evals[i] += k  # one batched call of k rows per seed
                trials[i] = rejects[i] = 0
        # The ladder: rung j of running seed i is row i * _RUNGS + j.
        scale = np.multiply.outer(lam, _RUNG_SCALE)[..., None, None]
        delta, solved = _solve_stack(
            (normal[:, None] + scale * damping[:, None]).reshape(-1, k, k),
            np.repeat(neg_grad, _RUNGS, axis=0))
        x_new = np.repeat(x, _RUNGS, axis=0)
        x_new[:, free] += delta
        ok = np.flatnonzero(solved & ctx.feasible(x_new))
        if len(ok) == len(x_new):
            r_ok = ladder.residual(x_new[:, None], seeds=None if every else rows)[:, 0]
        else:
            r_ok = ladder.residual(x_new[ok, None], seeds=rows[ok])[:, 0]
        rr_ok = (r_ok[:, None] @ r_ok[..., None])[:, 0, 0].tolist()
        peak_ok = np.abs(r_ok).max(axis=1).tolist()
        slot = dict(zip(ok.tolist(), range(len(ok))))
        solved = solved.tolist()
        take, take_t, take_j = [], [], []
        for i in range(n):
            lam_i, starting[i], stuck = lam[i], False, False
            for t in range(i * _RUNGS, (i + 1) * _RUNGS):
                if not solved[t]:
                    lam_i *= 10.0
                    trials[i] += 1
                    stuck = trials[i] >= 30
                    break
                j = slot.get(t)
                if j is None:
                    rejects[i] += 1
                else:
                    evals[i] += 1
                    if rr_ok[j] < rr[i]:
                        take.append(i)
                        take_t.append(t)
                        take_j.append(j)
                        rr[i], lam_i, starting[i] = rr_ok[j], max(lam_i / 3, 1e-12), True
                        iters[i] += 1
                        ended[i] = _iteration_stop(peak_ok[j], iters[i], tol, max_iter)
                        break
                lam_i *= 4.0
                trials[i] += 1
                if trials[i] >= 30 or lam_i > 1e14:
                    stuck = True
                    break
            lam[i] = lam_i
            if stuck:
                # An iteration that found no acceptable step ends its seed's run.
                ended[i] = "constraint-trapped" if rejects[i] >= 25 else "stalled"
                iters[i] += 1
        if take:
            x[take] = x_new[take_t]
            r[take] = r_ok[take_j]
    return out_x, out_iters, reasons, out_evals


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
    x, iters, reasons, n_evals = _levmar(ctx, x0[None], tol, max_iter)
    return RefineResult(candidate=ctx.candidate(x[0]), converged=reasons[0] == "converged",
                        iterations=int(iters[0]),
                        max_residual=float(np.abs(ctx.residual(x[0])).max()),
                        reason=reasons[0], n_evals=int(n_evals[0]))


# ---------------------------------------------------------------------------
# Multistart search
# ---------------------------------------------------------------------------


@dataclass
class SearchOutcome:
    entry_name: str
    mode: str
    seed: int
    seeds_used: int  # seeds that reached refinement, not seeds attempted
    seeds_sampled: int = 0  # seeds whose start could be drawn
    seeds_refined: int = 0  # seeds whose refinement ran from a feasible start
    stop_reasons: dict = field(default_factory=dict)  # STOP_REASONS -> seeds
    solutions: list[tuple[Candidate, EMReport]] = field(default_factory=list)
    best_nonsolution_residual: float = float("inf")
    wall_time: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "entry": self.entry_name,
            "mode": self.mode,
            "seed": self.seed,
            "seeds_used": self.seeds_used,
            "seeds_sampled": self.seeds_sampled,
            "seeds_refined": self.seeds_refined,
            "stop_reasons": dict(self.stop_reasons),
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


def sample_metric_params(entry: CatalogEntry, rng: np.random.Generator) -> dict:
    """Uniform draw from the feasible box: [-3, 3] per parameter, positives in
    (0, 3]; rejection of the draws that are not ``admissible``.

    Constraint regions can occupy a small fraction of the box, so after 150
    rejected draws the box shrinks geometrically (off-diagonal parameters
    toward 0, positive ones toward 1) where every catalog shape is feasible.

    Each run of draws with one box size (200, then 50 at a time) is drawn by
    one ``rng.uniform`` call and checked at once; the generator is then
    rewound to just after the first admissible draw.  The result and every
    later draw from ``rng`` are those of drawing and checking one metric at a
    time.
    """
    names = entry.metric_param_names
    if not names:
        return {}
    positive = np.array([n in entry.positive_metric_params for n in names])
    attempt = 0
    while attempt < SAMPLE_TRIES:
        level = max(0, (attempt - 150) // 50)
        stop = min(SAMPLE_TRIES, 200 + 50 * level)
        shrink = 0.7 ** level
        lo = np.where(positive, 10 * EPS_PD, -3.0 * shrink)
        hi = np.where(positive, 1.0 + 2.0 * shrink, 3.0 * shrink)
        state = rng.bit_generator.state
        draws = rng.uniform(lo, hi, size=(stop - attempt, len(names)))
        hits = np.flatnonzero(admissible(entry, draws))
        if hits.size:
            rng.bit_generator.state = state
            rng.uniform(lo, hi, size=(hits[0] + 1, len(names)))
            return dict(zip(names, draws[hits[0]].tolist()))
        attempt = stop
    raise ValueError(f"{entry.name}: empty feasible box "
                     f"(no admissible metric in {SAMPLE_TRIES} draws)")


def sample_algebra_params(entry: CatalogEntry, rng: np.random.Generator,
                          variant_index: int = 0) -> dict:
    """Draw admissible algebra parameters, cycling named variants in.

    Even variant indices sample the generic branch; odd ones walk through the
    entry's admissible named variants so every analysis branch gets seeds.
    Generic values of the entry's ``ordered_params`` are sorted into that
    order (A4,5^{a,b} is classified with a <= b).
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
    ordered = entry.ordered_params
    params.update(zip(ordered, sorted(params[n] for n in ordered)))
    return params


def _canonical_vector(c: Candidate) -> np.ndarray:
    """Parameters and F of a candidate already passed through ``canonical_sign``."""
    return np.concatenate([[c.algebra_params[k] for k in sorted(c.algebra_params)],
                           [c.metric_params[k] for k in sorted(c.metric_params)],
                           c.f_coeffs])


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


#: Seeds sampled and refined together.  A constant, so a seed's block, and
#: with it every number of the search, never depends on n_jobs.
_BLOCK = 32


def _start(entry: CatalogEntry, seed: int, index: int, mode: str, orientation: int,
           contexts: dict):
    """(context, start x0) of seed ``index``, or (why it has none, None).
    ``contexts`` caches contexts by algebra parameters."""
    rng = np.random.default_rng(seed ^ index)
    try:
        algebra_params = sample_algebra_params(entry, rng, variant_index=index)
        metric_params = sample_metric_params(entry, rng)
    except ValueError:
        return "sampling-failed", None
    key = tuple(algebra_params.items())
    if key not in contexts:
        contexts[key] = ResidualContext(entry, algebra_params, orientation, mode=mode)
    ctx = contexts[key]
    k = ctx.kernel.shape[1]
    if k == 0:
        return "no-closed-forms", None
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
    return ctx, x0


def _run_block(args) -> list[dict]:
    """Seeds lo..hi-1 of a search: sample each start, refine the starts of
    equal search dimension in one lockstep ``_levmar``, and re-verify every
    end point independently.  One record per seed, in index order."""
    entry_name, seed, lo, hi, mode, orientation, tol = args
    entry = entry_by_name(entry_name)
    records: dict[int, dict] = {}
    groups: dict[int, list] = {}
    contexts: dict = {}
    for index in range(lo, hi):
        ctx, x0 = _start(entry, seed, index, mode, orientation, contexts)
        if x0 is None:
            records[index] = {"index": index, "status": ctx}
        else:
            groups.setdefault(len(x0), []).append((index, ctx, x0))
    for members in groups.values():
        indices, ctxs, starts = zip(*members)
        x, iters, reasons, _ = _levmar(ResidualContext.stack(ctxs), np.array(starts),
                                       tol=min(tol * 1e-2, 1e-11), max_iter=SEARCH_MAX_ITER)
        for s, index in enumerate(indices):
            cand = canonical_sign(ctxs[s].candidate(x[s]))
            # Independent re-verification through the geometry modules only.
            _, L, g = _instantiated(cand)
            report = em_residual(L, g, cand.f_coeffs, cand.orientation, tol=tol)
            records[index] = {"index": index, "status": "refined", "reason": reasons[s],
                              "iterations": int(iters[s]), "candidate": cand,
                              "report": report}
    return [records[i] for i in range(lo, hi)]


def multistart_search(entry, n_seeds: int, seed: int = 0, mode: str = "unit_F",
                      orientation: int = 1, tol: float = TOL_SOLUTION,
                      n_jobs: int = 1) -> SearchOutcome:
    """Refine from n_seeds deterministic random starts and collect solutions.

    Seeds run in fixed blocks of consecutive indices (``_BLOCK``); with
    n_jobs > 1 a process pool takes whole blocks, so the outcome is the same
    for every n_jobs.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    entry = entry if isinstance(entry, CatalogEntry) else entry_by_name(entry)
    t0 = time.perf_counter()
    blocks = [(entry.name, seed, lo, min(lo + _BLOCK, n_seeds), mode, orientation, tol)
              for lo in range(0, n_seeds, _BLOCK)]
    workers = min(n_jobs, len(blocks))
    if workers > 1:
        # Imported here: multiprocessing adds about 20 ms and 2 MB to every
        # process that imports the package, and serial runs never use it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_block, blocks))
    else:
        done = [_run_block(b) for b in blocks]
    results = [res for block in done for res in block]
    refined = [res for res in results if res["status"] == "refined"]
    reasons = [res["reason"] for res in refined]
    outcome = SearchOutcome(
        entry_name=entry.name, mode=mode, seed=seed, seeds_used=len(refined),
        seeds_sampled=sum(res["status"] != "sampling-failed" for res in results),
        seeds_refined=len(refined) - reasons.count("infeasible start"),
        stop_reasons={r: reasons.count(r) for r in STOP_REASONS})
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
        out = asdict(self)
        out["family"] = out.pop("family_id")
        return {**out, "catalog_sha256": catalog_checksum()}


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
    max_res = max_kerr = max_rho_err = max_defect = 0.0
    classifications, types = [], []
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
        out = asdict(self)
        out["entry"] = out.pop("entry_name")
        if not np.isfinite(self.best_nonsolution_residual):
            out["best_nonsolution_residual"] = None
        return out


def classify_algebra(entry, n_seeds: int = 200, seed: int = 0, n_jobs: int = 1,
                     tol: float = TOL_SOLUTION) -> ClassifyOutcome:
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
    outcome = multistart_search(entry, n_seeds=n_seeds, seed=seed, mode="unit_F",
                                n_jobs=n_jobs, tol=tol)
    non_einstein = [s for s in outcome.solutions
                    if s[1].classification == NON_EINSTEIN_EM]
    solutions = list(outcome.solutions)
    if not non_einstein:
        free_pass = multistart_search(entry, n_seeds=n_seeds, seed=seed, mode="free_F",
                                      n_jobs=n_jobs, tol=tol)
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
