"""Numerical search and verification over (metric, 2-form) candidates.

The closedness condition dF = 0 is handled by restriction, not penalty: the
kernel of the closedness system reparameterizes F before optimization, so the
search runs over metric parameters plus kernel coordinates.  Refinement is
damped Gauss-Newton (Levenberg-Marquardt) with forward-mode Jacobians: every
parameter's column rides as a tangent through the intermediates of the real
kernel pass that evaluated the point.  Steps that violate the catalog's
positivity constraints are rejected by backtracking, never projected back.

The kernel (``ResidualContext.residual``) takes Ricci straight from the
structure constants, g and g^-1 (Besse, Einstein Manifolds, Cor. 7.38) and
never forms the curvature tensor.  Every reported verdict is re-verified by
the geometry modules, which derive curvature independently (Koszul
connection, Riemann tensor, Ricci contraction).

Multistart searches run seeds in lockstep: the seeds of the requests of a
``multistart_many`` call, in request order and then index order, are cut
into programs of at most 32 seeds, and each program is refined by one
Levenberg-Marquardt program whose state carries a leading seed axis (one
``ResidualContext`` for the whole program), every seed's x padded with
zeros to the widest search dimension.  Each seed keeps its own damping and
counters, and its arithmetic does not depend on the seeds beside it, so a
seed gives the same result alone, in its block and in a padded program.  A
process pool, when asked for, takes whole programs.

Each tick of that program tries a damping ladder per seed: the next three
dampings a lone run would try (lam, 4 lam, 16 lam), solved, checked and
evaluated together, then consumed in order under the lone-run rules.  Every
rung is evaluated, a refused one at its seed's current point, so a tick's
pass has one layout whatever was refused.  The rungs are points of their
seed, (S, 3, n) against the constants of the S running seeds: the kernel
multiplies each point alone by its seed's matrices, one row per point, so
every rung is computed as a lone point is.  Iteration counts,
stop reasons and residual evaluation counts are those of a lone run.

Starts and re-verification make a fixed number of numpy calls per
request's share of a program and per program, not per seed.  Each seed
draws from its own generator, but one ``sample_metric_params`` call per
request's share draws and checks the candidate metrics of all its seeds,
one ``ResidualContext`` build serves the program's distinct (entry,
algebra parameters) pairs (brackets evaluated once per entry on parameter
arrays, one rref per seed, whose pivots fix its kernel basis) and one
stacked ``norm_sq`` normalizes the unit_F starts.  One ``em_residual``
call re-verifies the end points of a program, each algebra and metric
instantiated from its own candidate, by one ``instantiate_many`` call and
one metric build per entry.  Starts, and so end points, are those of one
seed at a time; the reference chain takes leading axes and serves exact
input through the same functions, and its reports agree with one call per
seed to round-off (they may differ in the last bits, never in the end
points they describe).

Determinism contract: the per-seed RNG is ``default_rng(seed ^ index)``,
programs are fixed by request and index, every seed runs at most ``SEARCH_MAX_ITER``
iterations and results are merged in index order, so an outcome depends on
entry, seed, n_seeds and mode, and never on n_jobs: serial and parallel
reports are byte-identical.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._smallmat import nullspace
from .families import Family, family_by_id
from .forms import _STAR_PAIRS, _is_orientation, hodge_star, norm_sq
from .kahler import hermitian_diagnostics
from .lie_algebra import (CatalogEntry, CatalogError, LieAlgebra, catalog_checksum,
                          closedness_matrix, d_two_form, entry_by_name, instantiate,
                          instantiate_many, metric_from_params, two_form_matrix)
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

#: Largest residual at which a search's or ``refine``'s Levenberg-Marquardt
#: run stops, a hundredth of TOL_SOLUTION.
SEARCH_TOL = 1e-11

#: Levenberg-Marquardt iterations of one ``refine`` call.
REFINE_MAX_ITER = 60

#: Largest residual, Kahler scale error, rho0 error and decomposition
#: defect at a family grid point that passes ``verify_solution_family``.
TOL_FAMILY = 1e-10

#: Search modes: F on the unit sphere |F|^2_g = 1, or F free.
MODES = ("unit_F", "free_F")

#: Upper triangle (i <= j) of a 4x4 matrix, row by row, and its positions
#: in the flattened matrix.
_TRIU_ROWS, _TRIU_COLS = np.triu_indices(4)
_TRIU_FLAT = 4 * _TRIU_ROWS + _TRIU_COLS

#: Columns of the folded linear map ``x @ _lin + _lin0`` of a
#: ``ResidualContext``: the metric g, F as a 4x4 matrix and the bracket rows
#: g([e_i,e_j],e_l).  dF of a kernel coordinate is 0, so it has no columns.
_G, _F, _CG = slice(0, 16), slice(16, 32), slice(32, 96)
_WIDTH = 96

#: Six 2-form coefficients -> antisymmetric 4x4 matrix, flattened.
_F_PLACE = two_form_matrix(np.eye(6)).reshape(6, 16)


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
    """One point in the search space of ``entry``, a ``CatalogEntry`` (a
    string is a TypeError): checking, refining and re-verifying a candidate
    run on that entry, and ``to_dict`` records its name."""

    entry: CatalogEntry
    algebra_params: dict
    metric_params: dict
    f_coeffs: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        if not isinstance(self.entry, CatalogEntry):
            raise TypeError(f"entry must be a CatalogEntry, got {self.entry!r}")
        params = [*self.algebra_params.values(), *self.metric_params.values()]
        f = self.f_coeffs
        # Six float64 coefficients and float parameters, as a search makes
        # them, need only the orientation and finiteness checks.
        typed = (isinstance(f, np.ndarray) and f.dtype == np.float64 and f.shape == (6,)
                 and all(type(v) is float for v in params))
        coeffs = None if typed else np.asarray(f, dtype=object)
        if coeffs is not None and coeffs.shape != (6,):
            raise CandidateError("f_coeffs must have six components")
        if not _is_orientation(self.orientation):
            raise CandidateError("orientation must be the integer 1 or -1")
        self.orientation = int(self.orientation)
        if coeffs is not None:
            values = [*coeffs.tolist(), *params]
            if any(isinstance(v, (bool, np.bool_)) for v in values):
                raise CandidateError(
                    "f_coeffs, algebra_params and metric_params must be numbers, not booleans")
            if not all(isinstance(v, numbers.Real) for v in values):
                raise CandidateError(
                    "f_coeffs, algebra_params and metric_params must be real numbers")
        try:
            self.f_coeffs = np.asarray(self.f_coeffs, dtype=float)
            finite = np.isfinite(self.f_coeffs).all() and all(map(math.isfinite, params))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise CandidateError("f_coeffs, algebra_params and metric_params must be finite")

    def to_dict(self) -> dict:
        return {
            "entry": self.entry.name,
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
        pairs is refused, never converted.  Then the entry's name is looked
        up: an unknown one is the ``CatalogError`` of ``entry_by_name``."""
        try:
            if not isinstance(raw, dict) or not isinstance(raw.get("entry"), str):
                raise ValueError("expected a JSON object whose entry is a string")
            f_coeffs = raw["f_coeffs"]
            if not (isinstance(f_coeffs, list) and all(map(finite_number, f_coeffs))):
                raise ValueError(f"f_coeffs must be a list of finite numbers, got {f_coeffs!r}")
            params = [number_object(raw.get(k, {}), k) for k in ("algebra_params", "metric_params")]
            return cls(entry_by_name(raw["entry"]), *params, np.asarray(f_coeffs, dtype=float),
                       orientation=raw.get("orientation", 1))
        except CatalogError:
            raise
        except (KeyError, ValueError) as exc:
            raise CandidateError(f"bad candidate document: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "Candidate":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CandidateError(f"cannot read candidate file: {exc}") from exc
        return cls.from_dict(raw)


def _admitted(entry: CatalogEntry, algebra_params: dict,
              metric_params: dict) -> tuple[LieAlgebra, np.ndarray]:
    """The algebra and metric g of the entry at these parameters; a
    CandidateError names the constraints an inadmissible metric fails."""
    L = instantiate(entry, algebra_params)
    g = metric_from_params(entry, metric_params)
    check = validate_metric(entry, metric_params)
    if not check.ok:
        raise CandidateError(f"{entry.name}: inadmissible metric: " + "; ".join(check.failures))
    return L, g


def residual_vector(c: Candidate) -> np.ndarray:
    """18 components on ``c.entry``: EM upper triangle (10), dF (4), d*F (4)."""
    L, g = _admitted(c.entry, c.algebra_params, c.metric_params)
    _, _, _, _, ric0 = curvature_summary(L, g)
    em = ric0 + stress_energy(g, c.f_coeffs)
    out = np.empty(18)
    out[:10] = em[_TRIU_ROWS, _TRIU_COLS]
    out[10:14] = d_two_form(L, c.f_coeffs)
    out[14:18] = d_two_form(L, hodge_star(g, c.f_coeffs, c.orientation))
    return out


# ---------------------------------------------------------------------------
# Parameterization of the per-entry search space
# ---------------------------------------------------------------------------


class _SeedFacts(NamedTuple):
    """What a context knows of one seed besides its constants: its entry,
    algebra parameters, the kernel basis of F as rows (k, 6) with k >= 2 and
    its width (the parameters of its points)."""

    entry: CatalogEntry
    params: dict
    kernel_t: np.ndarray
    width: int


def _groups(keys: list, items: list) -> list[tuple[object, list[int]]]:
    """(item, positions) of each distinct key of ``keys``, in order of first
    appearance, the item being that of its first position.  Entries and
    kernel bases are keyed by identity: a catalog entry holds dicts and is
    not hashable."""
    groups: dict = {}
    for s, (key, item) in enumerate(zip(keys, items)):
        groups.setdefault(key, (item, []))[1].append(s)
    return list(groups.values())


def _by_entry(entries: list[CatalogEntry]) -> list[tuple[CatalogEntry, list[int]]]:
    """(entry, positions) of each distinct entry of ``entries``."""
    return _groups(list(map(id, entries)), entries)


class ResidualContext:
    """Residual as a function of the parameter vector, for a stack of seeds.

    Parameters are the entry's metric parameters followed by the coordinates
    of F in the closed kernel's basis, so dF = 0 holds by construction and
    its four rows are literal zeros.  In unit_F mode a final row
    |F|^2_g - 1 excludes the trivial solution.

    The evaluation here is the fast path: a batched, complex-analytic kernel
    that takes Ricci straight from the structure constants, g and g^-1
    (Besse, Einstein Manifolds, Cor. 7.38).  Everything linear in x is one
    folded map: ``x @ _lin + _lin0`` gives [g | F | cg], g, F and the
    bracket rows cg = g([e_i,e_j],e_l), at once.  ``_tangent_step``
    differentiates a kernel pass in forward mode; the tests hold it to the
    complex step, which the kernel stays complex-analytic for.  The
    module-level ``residual_vector`` derives the same rows independently
    (Koszul connection, Riemann tensor, Ricci contraction, Hodge star)
    through the geometry modules; the two agree to round-off and are
    property-tested against each other.

    Every context is a stack of seeds: the constants that depend on the
    algebra parameters carry a leading seed axis, one entry per seed.  The
    constructor builds the seeds of a whole program in one stacked pass,
    whatever their entries (one seed is its S = 1 case).  Beside its
    constants each seed keeps its facts (``_SeedFacts``: entry, algebra
    parameters, kernel basis, width); ``feasible``, ``f_of`` and
    ``candidates`` take one point per seed, and ``residual`` m points per
    seed.  ``take`` is the one way to pick seeds: it gathers the seeds of a
    context once, so that later calls need no gather.  Several points of a
    seed broadcast against its constants, never repeat them: the products
    with per-seed matrices take one row per point, so each point has the
    bits of a lone call.

    Seeds may differ in entry and width.  ``_lin`` has as many rows as the
    widest seed, a narrower seed's rows past its width being 0: its x is
    padded with zeros to that width, its residual is unchanged and its
    padded Jacobian columns are 0.
    """

    #: Per-seed constants on axis 0, the kernel's: ``_lin`` and ``_lin0``,
    #: the fold of every map linear in x; ``_ct``, the structure constants
    #: and trace form that g^-1 raises; the Killing form; the
    #: Hodge-star-then-d map.  ``_lin0``, ``_ct`` and the Killing form carry
    #: a point axis of length 1 next, which broadcasts over the points of a
    #: seed.
    _SEED_AXIS = ("_lin", "_lin0", "_ct", "_killing_half", "_star_d")

    def __init__(self, seeds: list[tuple[CatalogEntry, dict]], mode: str = "unit_F"):
        """The context of S seeds, one (entry, algebra parameters) pair
        each, built by one stacked pass: the brackets are evaluated once on
        parameter arrays per entry (``instantiate_many``), d of the six unit
        2-forms once for all seeds, and each seed keeps its own rref, whose
        pivots fix its kernel basis.  d maps the 6-dimensional space of
        2-forms to the 4-dimensional space of 3-forms, so every basis has
        at least 2 vectors: a 4-dimensional algebra always has closed
        2-forms.  Seed s has the bits of ``ResidualContext([seeds[s]])``."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if not all(isinstance(pair, tuple) and len(pair) == 2
                   and isinstance(pair[0], CatalogEntry) for pair in seeds):
            raise TypeError("seeds must be a list of (entry, algebra_params) pairs, one per seed")
        self.mode = mode
        n_seeds = len(seeds)
        self._groups = _by_entry([entry for entry, _ in seeds])  # (entry, its seeds)
        c = np.empty((n_seeds, 4, 4, 4))
        for entry, rows in self._groups:
            c[rows] = instantiate_many(entry, [seeds[s][1] for s in rows])
        mats = closedness_matrix(c)
        d_t = mats.swapaxes(1, 2)
        self._facts = []  # per seed, beside the constants of _SEED_AXIS
        for (entry, params), mat in zip(seeds, mats):
            kernel_t = np.array(nullspace(mat)[0])
            self._facts.append(_SeedFacts(entry, dict(params), kernel_t,
                                          len(entry.metric_param_names) + len(kernel_t)))
        # Everything linear in x, folded per seed: x @ _lin + _lin0 is
        # [g | F | g([e_i,e_j],e_l) with rows (i, j)], see _G .. _CG.
        # g is x @ place + g0, place one-hot (one parameter per cell) and g0
        # the literal cells.  A narrower seed's rows past its width stay 0.
        c16 = c.reshape(n_seeds, 16, 4)
        lin = np.zeros((n_seeds, max((f.width for f in self._facts), default=0), _WIDTH))
        lin0 = np.zeros((n_seeds, _WIDTH))
        for entry, rows in self._groups:
            g0, at, which = entry.metric_cells
            m, k = len(entry.metric_param_names), len(rows)
            place = np.zeros((m, 16))
            place[which, at] = 1.0
            lin[rows, :m, _G] = place
            lin[rows, :m, _CG] = (c16[rows, None] @ place.reshape(m, 4, 4)).reshape(k, m, 64)
            lin0[rows, _G] = g0
            lin0[rows, _CG] = (c16[rows] @ g0.reshape(4, 4)).reshape(k, 64)
        for s, facts in enumerate(self._facts):
            m = len(facts.entry.metric_param_names)
            lin[s, m:facts.width, _F] = facts.kernel_t @ _F_PLACE
        self._lin, self._lin0 = lin, lin0[:, None, None]
        # Hodge star then d: F^{kl} (raised, flattened) -> d*F / sqrt det g, with
        # volume form +sqrt(det g) e^1234 (d*F = 0 does not depend on its sign).
        self._star_d = 0.5 * _STAR_PAIRS @ d_t
        # Ricci ingredients that do not depend on the metric, with factor
        # -1/2: the structure constants as [m, (l, b)] = c_bm^l beside the
        # trace form t_m = c_mk^k, one 4 x 17 block that g^-1 raises at once,
        # and the Killing form B_ab = c_ai^k c_bk^i.
        self._ct = -0.5 * np.concatenate([c.transpose(0, 2, 3, 1).reshape(n_seeds, 4, 16),
                                          np.einsum("sakk->sa", c)[..., None]], axis=2)[:, None]
        self._killing_half = -0.5 * np.einsum("saik,sbki->sab", c, c)[:, None]

    def take(self, seeds) -> "ResidualContext":
        """A context whose seed s is seed ``seeds[s]`` of this one, its
        constants and facts gathered once.  It picks running seeds, never a
        tick's rungs: those are points of their seed."""
        out = copy.copy(self)
        for name in self._SEED_AXIS:
            setattr(out, name, getattr(self, name)[seeds])
        out._facts = [self._facts[s] for s in np.asarray(seeds).tolist()]
        out._groups = _by_entry([f.entry for f in out._facts])
        return out

    @property
    def n_rows(self) -> int:
        return 19 if self.mode == "unit_F" else 18

    def f_of(self, x: np.ndarray) -> np.ndarray:
        """2-form coefficients (S, 6) of one point per seed x (S, n): one
        vector-matrix product per kernel basis object, each point times its
        own seed's rows, as a lone product is."""
        xs = _shaped(x, "(S, n)", len(self._facts))
        out = np.empty((len(xs), 6))
        for facts, seeds in _groups([id(f.kernel_t) for f in self._facts], self._facts):
            m = len(facts.entry.metric_param_names)
            out[seeds] = (xs[seeds, None, m:facts.width] @ facts.kernel_t)[:, 0]
        return out

    def feasible(self, x: np.ndarray) -> np.ndarray:
        """Whether points x (S, ..., n), row s of seed s, are admissible: a
        bool array (S, ...), ``metric_geometry.admissible`` on the metric
        parameters of each row, one call per entry of the seeds."""
        x = _shaped(x, "(S, ..., n)", len(self._facts))
        if len(self._groups) == 1:  # one entry: no gather, no scatter
            [(entry, _)] = self._groups
            return admissible(entry, x[..., :len(entry.metric_param_names)])
        ok = np.zeros(x.shape[:-1], dtype=bool)
        for entry, rows in self._groups:
            ok[rows] = admissible(entry, x[rows, ..., :len(entry.metric_param_names)])
        return ok

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Residual rows of x: (S, m, n) -> (S, m, n_rows), m points per seed.

        Point x[s, i] is evaluated with the constants of seed s, which
        broadcast over the point axis, and has the bits of a lone point
        ``residual(x[s, i][None, None])`` on seed s.

        Every step is complex-analytic (no abs, no casts to float, scratch in
        the dtype of x), so a complex x carries derivatives in its imaginary
        part; the complex-step oracle of the tests relies on this.
        """
        return self._kernel(_shaped(x, "(S, m, n)", len(self._facts)))[0]

    def _kernel(self, xs: np.ndarray):
        """Rows (S, m, n_rows) of points xs (S, m, n), point xs[s, i] with the
        constants of seed s, and the intermediate values ``_tangent_step``
        differentiates through, one row per point (S * m, 1, ...), point
        xs[s, i] at row s * m + i, no two sharing memory: it derives the
        views of u and ``raised`` again.

        Only the steps that meet the seeds' constants view the rows per seed
        (S, m, ...), and the two products with per-seed matrices (``_lin``,
        ``_star_d``) take one row per point: BLAS would treat the m points of
        a seed as one matrix and round them differently from a lone point."""
        s, m = xs.shape[:2]
        p = s * m
        u = (xs[..., None, :] @ self._lin[:, None] + self._lin0).reshape(p, 1, _WIDTH)
        g = u[..., _G].reshape(p, 1, 4, 4)
        fm = u[..., _F].reshape(p, 1, 4, 4)
        cg = u[..., _CG].reshape(p, 1, 16, 4)
        g_inv = np.linalg.inv(g)
        det = np.linalg.det(g)
        if not det.real.min(initial=1.0) > 0:  # NaN fails too
            raise ValueError("metric determinant must be positive")
        # Ricci of a left-invariant metric (Besse 7.38), with H = g^-1 t:
        #   Ric_ab = -1/2 g^ij g([e_a,e_i],[e_b,e_j])
        #            + 1/4 g^im g^jn g([e_i,e_j],e_a) g([e_m,e_n],e_b)
        #            - 1/2 B_ab - 1/2 (g([H,e_a],e_b) + g([H,e_b],e_a)).
        # cg[., ., (i, j), l] = g([e_i,e_j], e_l) carries all three metric terms;
        # the second one raises both bracket indices with g^-1 (x) g^-1, one
        # index at a time: half[m, j, l] = g^jn cg[(m, n), l].
        rows = cg.reshape(p, 1, 4, 16)
        raised = (g_inv.reshape(s, m, 4, 4) @ self._ct).reshape(p, 1, 4, 17)
        c_up = raised[..., :16].reshape(p, 1, 16, 4)
        h = raised[..., 16:]
        ric = rows @ c_up
        half = (g_inv[..., None, :, :] @ cg.reshape(p, 1, 4, 4, 4)).reshape(p, 1, 4, 16)
        qcg = (g_inv @ half).reshape(p, 1, 16, 4)
        ric += 0.25 * (cg.swapaxes(2, 3) @ qcg)
        mean = (h.swapaxes(2, 3) @ rows).reshape(p, 1, 4, 4)
        ric += mean
        ric += mean.swapaxes(2, 3)
        per_seed = ric.reshape(s, m, 4, 4)
        per_seed += self._killing_half
        # Stress term; the trace of Ric + F g^-1 F is s + tr_g(F g^-1 F).
        fg = fm @ g_inv
        em = ric + fg @ fm
        trace = g_inv.reshape(p, 1, 1, 16) @ em.reshape(p, 1, 16, 1)
        out = np.empty((p, 1, self.n_rows), dtype=u.dtype)
        out[..., :10] = (em - 0.25 * trace * g).reshape(p, 1, 16).take(_TRIU_FLAT, axis=-1)
        out[..., 10:14] = 0.0  # dF of a point of the closed kernel
        # Co-closedness rows: F with both indices raised, starred and differentiated.
        fu = g_inv @ fg
        root = np.sqrt(det)[..., None]
        star = (fu.reshape(s, m, 1, 16) @ self._star_d[:, None]).reshape(p, 1, 4)
        out[..., 14:18] = root * star
        if self.mode == "unit_F":
            out[..., 18:] = 0.5 * (fm.reshape(p, 1, 1, 16) @ fu.reshape(p, 1, 16, 1))[..., 0] - 1.0
        return out.reshape(s, m, self.n_rows), (u, g_inv, raised, half, qcg, fg, em, trace, fu,
                                                root, star)

    def candidates(self, x: np.ndarray, canonical: bool = False) -> list[Candidate]:
        """The candidate of each seed's point x (S, n); with ``canonical``,
        each F flipped where ``_sign_flips`` says."""
        f = self.f_of(x)
        if canonical:
            flips = _sign_flips(f)
            f[flips] = -f[flips]
        return [Candidate(facts.entry, dict(facts.params),
                          dict(zip(facts.entry.metric_param_names, row)), fs)
                for facts, row, fs in zip(self._facts, x.tolist(), f)]


def residual_jacobian(ctx: ResidualContext, x: np.ndarray) -> np.ndarray:
    """Jacobians (S, rows, n) of ``ctx.residual`` in every parameter at one
    point per seed x (S, n), point s with the constants of seed s: one
    kernel pass at x, then ``_tangent_step``.
    """
    x = _shaped(np.asarray(x, dtype=float), "(S, n)", len(ctx._facts))
    return _tangent_step(ctx, ctx._kernel(x[:, None])[1])


def _shaped(x: np.ndarray, shape: str, n_seeds: int) -> np.ndarray:
    """x if it has as many axes as ``shape`` names (two or more where it
    names ``...``) and one row per seed, else a ValueError naming it."""
    ranked = x.ndim >= 2 if "..." in shape else x.ndim == shape.count(",") + 1
    if not ranked or len(x) != n_seeds:
        raise ValueError(f"x must have shape {shape}, got {x.shape}; "
                         f"the context has S = {n_seeds}")
    return x


def _tangent_step(ctx: ResidualContext, inter: tuple) -> np.ndarray:
    """Jacobians (S, rows, k) in all k parameters from the intermediates
    ``inter`` of a kernel pass over points (S, 1, k), point s with the
    constants of seed s.

    Forward mode (Griewank & Walther, Evaluating Derivatives, SIAM 2008):
    the k columns ride along as tangents.  Those of g, F and the bracket
    rows are rows of the folded linear map, those of dF 0; the rest follow
    from d(g^-1) = -g^-1 dg g^-1, d sqrt(det g) = 1/2 sqrt(det g) <g^-1, dg>
    and the product rule.  Exact to round-off; no point is evaluated.
    """
    u, g_inv, raised, half, qcg, fg, em, trace, fu, root, star = inter
    s = len(u)
    g = u[..., _G].reshape(s, 1, 4, 4)
    fm = u[..., _F].reshape(s, 1, 4, 4)
    cg = u[..., _CG].reshape(s, 1, 16, 4)
    rows = cg.reshape(s, 1, 4, 16)
    c_up = raised[..., :16].reshape(s, 1, 16, 4)
    h = raised[..., 16:]
    du = ctx._lin
    k = du.shape[1]
    dg = du[..., _G].reshape(s, k, 4, 4)
    dfm = du[..., _F].reshape(s, k, 4, 4)
    dcg = du[..., _CG].reshape(s, k, 16, 4)
    drows = dcg.reshape(s, k, 4, 16)
    dg_inv = -(g_inv @ dg @ g_inv)
    draised = dg_inv @ ctx._ct
    dric = drows @ c_up + rows @ draised[..., :16].reshape(s, k, 16, 4)
    # Quartic term 1/4 cg^T Q cg with Q = g^-1 (x) g^-1: its tangent is
    # 1/4 (M + M^T) + 1/2 N with M = dcg^T Q cg and N = cg^T (dQ' cg), where
    # dQ' = d(g^-1) (x) g^-1; the g^-1 (x) d(g^-1) half of dQ gives N again,
    # because cg is antisymmetric in its bracket pair.  N is symmetric, so
    # with the mean-curvature tangent it joins M in one term t + t^T.
    dmean = (draised[..., 16:].swapaxes(2, 3) @ rows
             + h.swapaxes(2, 3) @ drows).reshape(s, k, 4, 4)
    mixed = cg.swapaxes(2, 3) @ (dg_inv @ half).reshape(s, k, 16, 4)
    twin = 0.25 * (dcg.swapaxes(2, 3) @ qcg + mixed) + dmean
    dric += twin
    dric += twin.swapaxes(2, 3)
    dfg = dfm @ g_inv + fm @ dg_inv
    dem = dric + dfg @ fm + fg @ dfm
    dtrace = (dg_inv.reshape(s, k, 1, 16) @ em.reshape(s, 1, 16, 1)
              + g_inv.reshape(s, 1, 1, 16) @ dem.reshape(s, k, 16, 1))
    dem -= 0.25 * (dtrace * g + trace * dg)
    jt = np.empty((s, k, ctx.n_rows))
    jt[..., :10] = dem.reshape(s, k, 16).take(_TRIU_FLAT, axis=-1)
    jt[..., 10:14] = 0.0
    dfu = dg_inv @ fg + g_inv @ dfg
    droot = 0.5 * root * (g_inv.reshape(s, 1, 1, 16) @ dg.reshape(s, k, 16, 1))[..., 0]
    jt[..., 14:18] = droot * star + root * (dfu.reshape(s, k, 16) @ ctx._star_d)
    if ctx.mode == "unit_F":
        jt[..., 18:] = 0.5 * (dfm.reshape(s, k, 1, 16) @ fu.reshape(s, 1, 16, 1)
                              + fm.reshape(s, 1, 1, 16) @ dfu.reshape(s, k, 16, 1))[..., 0]
    return jt.swapaxes(1, 2)


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
    """Solutions d (..., k) of the systems m (..., k, k) with right-hand
    sides rhs (..., k, 1), which broadcast against m, and which systems
    were solvable: one stacked solve unless LAPACK refuses one of them."""
    try:
        return np.linalg.solve(m, rhs)[..., 0], np.ones(m.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        rhs = np.broadcast_to(rhs, m.shape[:-1] + (1,))
        delta = np.zeros(m.shape[:-1])
        solved = np.ones(m.shape[:-2], dtype=bool)
        for s in np.ndindex(solved.shape):
            try:
                delta[s] = np.linalg.solve(m[s][None], rhs[s][None])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[s] = False
        return delta, solved


def _by_width(widths: list[int]) -> list[tuple]:
    """(width, positions) for each width in ``widths``; the positions are
    one slice when all share a width."""
    if len(set(widths)) == 1:
        return [(widths[0], slice(None))]
    each = np.array(widths)
    return [(w, (each == w).nonzero()[0]) for w in dict.fromkeys(widths)]


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
    """Levenberg-Marquardt from one start per seed of ``ctx`` (x0 is (S, n),
    n the widest seed's width), in lockstep.

    Every seed follows the rules of a lone run: damping lam x10 when the
    damped system is singular, x4 on an infeasible or worse trial, /3
    (floored at 1e-12) on an accepted step; at most 30 trials per iteration,
    giving up once lam > 1e14 after a failed trial; a "slow progress" stop
    from iteration 25 while the max residual exceeds 5e-2.

    A tick gives every running seed a ladder of ``_RUNGS`` trials at lam,
    4 lam and 16 lam, the dampings a lone run tries after successive
    rejections, with one stacked solve, one feasibility check and one
    kernel pass for all rungs.  That pass evaluates every rung: one that
    the solve or ``feasible`` refused is evaluated at its seed's point x,
    which is admissible and was evaluated before, so point (i, j) of the
    pass is always rung j of seed i.  Each seed then takes its rungs in
    order as a lone run would: the first feasible rung that improves is
    accepted, a singular rung gives lam x10 and ends the ladder, and the
    trial cap and the lam break stop the seed; the rungs after that are
    dropped.  A seed thus walks the path of a lone run, up to three trials
    per tick.

    A seed that accepted a rung starts an iteration: ``_tangent_step`` on
    that rung's row of the pass (of the start's pass at the first tick),
    gathered right after it, gives its Jacobian.  A run makes one kernel
    pass for the start and one per tick.

    The rungs are points of their seed: the per-seed constants of the
    running seeds are gathered once each time seeds stop
    (``ResidualContext.take``), and a tick evaluates points (S, _RUNGS, n)
    against them; the kernel computes each point as a lone point is, and
    the ladder's solve broadcasts each seed's gradient over its rungs.  Only
    this function's own reference to ``ctx`` is dropped once the running
    seeds are gathered: the caller keeps the program's context for
    ``candidates``.  No context a tick reads holds more seeds than are
    running.  A Jacobian of only some seeds gathers their constants with
    ``take``.  Per-seed scalars (lam, the counters, the starting and stop
    flags) are Python lists walked once per tick; only points, residuals
    and normal equations are arrays.

    Each seed owns the first ``width`` columns of x (``_SeedFacts``), the
    rest being padding.  Its residual, Jacobian and J^T J are those of its
    own width, but J^T r and the LU solve round differently at another
    width, so both run once per width present, on that width's unpadded
    block (``_by_width``; one block when the running seeds share a width).

    Returns per seed: end points (S, n), iterations, stop reasons and
    residual evaluations.  These count the start, one per parameter of the
    seed for each Jacobian, and each feasible trial of the lone-run
    rules; rungs evaluated but dropped or refused do not count.
    """
    n_seeds, k = x0.shape
    out_x = np.array(x0, dtype=float)
    out_iters = [0] * n_seeds
    out_evals = [0] * n_seeds
    reasons = ["infeasible start"] * n_seeds
    # State of the running seeds, compacted whenever some of them stop.
    pos = ctx.feasible(out_x).nonzero()[0]
    x = out_x[pos]
    n = len(pos)
    live = ctx if n == n_seeds else ctx.take(pos)  # the running seeds' constants
    del ctx
    n_free = [facts.width for facts in live._facts]
    widths = _by_width(n_free)
    r, at_x = live._kernel(x[:, None])
    r = r[:, 0]
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
    while n:
        if any(ended):
            for i, why in enumerate(ended):
                if why:
                    s = pos[i]
                    reasons[s], out_x[s], out_iters[s], out_evals[s] = why, x[i], iters[i], evals[i]
            keep = [i for i, why in enumerate(ended) if not why]
            # at_x has one row per starting seed, in seed order.
            at_kept = [q for q, i in enumerate(np.flatnonzero(starting)) if not ended[i]]
            at_x = tuple(a.take(at_kept, axis=0) for a in at_x)
            pos, x, r, normal, neg_grad, damping = (
                a[keep] for a in (pos, x, r, normal, neg_grad, damping))
            lam, iters, trials, rejects, evals, rr, starting = (
                [a[i] for i in keep] for a in (lam, iters, trials, rejects, evals, rr, starting))
            n = len(keep)
            ended = [None] * n
            if not n:
                break
            live = live.take(keep)
            n_free = [facts.width for facts in live._facts]
            widths = _by_width(n_free)
        go = [i for i in range(n) if starting[i]]
        if go:
            sel = slice(None) if len(go) == n else go
            jac = _tangent_step(live if len(go) == n else live.take(go), at_x)
            jac_t = jac.swapaxes(1, 2)
            jtj = jac_t @ jac
            normal[sel] = jtj
            rhs = r[sel, :, None]
            for w, at in _by_width([n_free[i] for i in go]):
                rows = sel if isinstance(at, slice) else np.asarray(go)[at]
                neg_grad[rows, :w] = -(jac_t[at, :w] @ rhs[at])
            damping[sel] = eye * np.maximum(jtj.diagonal(0, 1, 2), 1e-12)[:, None]
            for i in go:
                evals[i] += n_free[i]  # one batched call of n_free rows per seed
                trials[i] = rejects[i] = 0
        # The ladder: rung j of running seed i is point (i, j).
        scale = (np.array(lam)[:, None] * _RUNG_SCALE)[..., None, None]
        delta = np.zeros((n, _RUNGS, k))
        solved = np.empty((n, _RUNGS), dtype=bool)
        for w, at in widths:
            delta[at, :, :w], solved[at] = _solve_stack(
                normal[at, None, :w, :w] + scale[at] * damping[at, None, :w, :w],
                neg_grad[at, None, :w])
        here = x[:, None]
        x_new = here + delta
        ok = solved & live.feasible(x_new)
        # A refused rung is evaluated at its seed's point, which is admissible
        # and was evaluated before, so point (i, j) is always rung j of seed i.
        np.copyto(x_new, here, where=~ok[..., None])
        r_new, trial = live._kernel(x_new)
        rr_new = (r_new[..., None, :] @ r_new[..., None])[..., 0, 0].tolist()
        peak_new = np.abs(r_new).max(axis=2).tolist()
        solved, ok = solved.tolist(), ok.tolist()
        take, take_t = [], []
        for i in range(n):
            lam_i, starting[i], stuck = lam[i], False, False
            for j in range(_RUNGS):
                if not solved[i][j]:
                    lam_i *= 10.0
                    trials[i] += 1
                    stuck = trials[i] >= 30
                    break
                if not ok[i][j]:
                    rejects[i] += 1
                else:
                    evals[i] += 1
                    if rr_new[i][j] < rr[i]:
                        take.append(i)
                        take_t.append(i * _RUNGS + j)
                        rr[i], lam_i, starting[i] = rr_new[i][j], max(lam_i / 3, 1e-12), True
                        iters[i] += 1
                        ended[i] = _iteration_stop(peak_new[i][j], iters[i], tol, max_iter)
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
        # Rung j of seed i is row i * _RUNGS + j of the pass.  The accepted
        # rungs' rows are the points of the next Jacobians.
        take_t = np.array(take_t, dtype=np.intp)
        if take:
            x[take] = x_new.reshape(-1, k).take(take_t, axis=0)
            r[take] = r_new.reshape(-1, r.shape[1]).take(take_t, axis=0)
        at_x = tuple(a.take(take_t, axis=0) for a in trial)
        del trial
    return out_x, out_iters, reasons, out_evals


def _point(entry: CatalogEntry, metric_params: dict, y) -> np.ndarray:
    """One seed's search point (n,): its metric parameters in the entry's
    order, then its kernel coordinates y."""
    return np.concatenate([[metric_params[n] for n in entry.metric_param_names], y])


def refine(c: Candidate, mode: str = "free_F") -> RefineResult:
    """Polish a candidate on the dF = 0 subspace; backtracks at constraints.

    The candidate's metric must be admissible (else a CandidateError, as from
    ``residual_vector``) and its F closed (all fixture and search candidates
    are); its kernel coordinates become the optimization variables together
    with the metric parameters.  ``mode`` is one of ``MODES``, as for
    ``ResidualContext``: "unit_F" appends the row |F|^2_g - 1, forcing F away
    from the trivial solution.  Levenberg-Marquardt runs until every
    residual is within SEARCH_TOL, for at most REFINE_MAX_ITER iterations.
    It runs on ``c.entry`` whatever the orientation, and its candidate
    keeps the entry and the orientation label of ``c``.
    """
    _admitted(c.entry, c.algebra_params, c.metric_params)
    ctx = ResidualContext([(c.entry, c.algebra_params)], mode=mode)
    # Kernel coordinates of F: least squares on the seed's basis (6, k).
    kernel = ctx._facts[0].kernel_t.T
    y = np.linalg.lstsq(kernel, c.f_coeffs, rcond=None)[0]
    defect = float(np.abs(kernel @ y - c.f_coeffs).max())
    if defect > 1e-8:
        raise CandidateError(
            f"candidate F is not closed (distance {defect:.2e} from the dF=0 subspace)")
    x, iters, reasons, n_evals = _levmar(ctx, _point(c.entry, c.metric_params, y)[None],
                                         SEARCH_TOL, REFINE_MAX_ITER)
    return RefineResult(candidate=replace(ctx.candidates(x)[0], orientation=c.orientation),
                        converged=reasons[0] == "converged", iterations=int(iters[0]),
                        max_residual=float(np.abs(ctx.residual(x[:, None])).max()),
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
    seeds_sampled: int = 0  # seeds whose start could be drawn; always seeds_used
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


def sample_metric_params(entry: CatalogEntry, rngs) -> list[dict | None]:
    """Uniform draw from the feasible box: [-3, 3] per parameter, positives in
    (0, 3]; rejection of the draws that are not ``admissible``.

    Constraint regions can occupy a small fraction of the box, so after 200
    rejected draws the box shrinks geometrically, and again after every 50
    more (off-diagonal parameters toward 0, positive ones toward 1), where
    every catalog shape is feasible.

    ``rngs`` is a sequence of generators, and the result one parameter dict
    per generator (None where no draw is admissible).  Each run of draws with
    one box size (200, then 50 at a time) is drawn by one ``uniform`` call
    per generator, and the draws of all generators still searching are
    checked by one ``admissible`` call.  Each generator that found one is
    then rewound (``advance`` by minus the draws past it, one step per
    value) to just after its first admissible draw.  The result and every
    later draw from each generator are those of drawing and checking one
    metric at a time.
    """
    names = entry.metric_param_names
    found: list[dict | None] = [{} if not names else None for _ in rngs]
    positive = np.array([n in entry.positive_metric_params for n in names])
    pending = list(range(len(rngs))) if names else []
    attempt = 0
    while pending and attempt < SAMPLE_TRIES:
        level = max(0, (attempt - 150) // 50)
        stop = min(SAMPLE_TRIES, 200 + 50 * level)
        shrink = 0.7 ** level
        lo = np.where(positive, 10 * EPS_PD, -3.0 * shrink)
        hi = np.where(positive, 1.0 + 2.0 * shrink, 3.0 * shrink)
        draws = np.array([rngs[p].uniform(lo, hi, size=(stop - attempt, len(names)))
                          for p in pending])
        ok = admissible(entry, draws)
        first = ok.argmax(axis=1).tolist()
        searching = []
        for q, p in enumerate(pending):
            if ok[q, first[q]]:
                rngs[p].bit_generator.advance((first[q] + 1 - (stop - attempt)) * len(names))
                found[p] = dict(zip(names, draws[q, first[q]].tolist()))
            else:
                searching.append(p)
        pending = searching
        attempt = stop
    return found


def sample_algebra_params(entry: CatalogEntry, rng: np.random.Generator,
                          variant_index: int = 0) -> dict:
    """Draw admissible algebra parameters, cycling named variants in.

    Even variant indices sample the generic branch; odd ones walk through the
    entry's admissible named variants so every analysis branch gets seeds.
    Generic values of the entry's ``ordered_params`` are sorted into that
    order (A4,5^{a,b} is classified with a <= b).

    Each generic value is drawn from its range clipped to [-2, 2], so an
    unbounded parameter (A4,2^p's p, A4,6^{a,0}'s a, A4,6^{a,b}'s a and b,
    A4,11^a's a, A3,7+A1's a) is searched only up to |value| = 2, and a
    row's negative evidence covers only that window.  A range outside it,
    or one whose 100 draws all miss its 0.05 margin, raises ValueError.
    """
    variants = [v for v in entry.variants if v.admissible]
    if variants and variant_index % 2 == 1:
        v = variants[(variant_index // 2) % len(variants)]
        return dict(v.params)
    params = {}
    for spec in entry.params:
        lo = -2.0 if spec.lo is None else max(spec.lo, -2.0)
        hi = 2.0 if spec.hi is None else min(spec.hi, 2.0)
        if lo > hi:
            raise ValueError(f"{entry.name}: cannot sample parameter {spec.name}: "
                             "its range lies outside the window [-2, 2]")
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
    """Parameters and F of a candidate whose F is canonically signed (``_sign_flips``)."""
    return np.concatenate([[c.algebra_params[k] for k in sorted(c.algebra_params)],
                           [c.metric_params[k] for k in sorted(c.metric_params)],
                           c.f_coeffs])


def _sign_flips(f: np.ndarray) -> np.ndarray:
    """Whether the first coefficient above 1e-9 in size of each F (..., 6)
    is negative (False where there is none): flipping those folds the
    (g, -F) orbit onto one representative."""
    big = np.abs(f) > 1e-9
    first = np.take_along_axis(f, big.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    return big.any(axis=-1) & (first < 0)


#: Seeds per program, sampled and refined together.  A constant, so a
#: seed's program, and with it every number of the search, never depends on
#: n_jobs.
_BLOCK = 32


def _starts(segments: list[tuple], mode: str):
    """The starts of a program's seeds.  ``segments`` are (entry, seed,
    indices) triples, one per request's share of the program.  Returns
    (status, ctx, x0): status the statuses of all seeds, in segment order
    and then index order, "refined" for each seed whose parameters are
    drawn (every algebra has closed 2-forms, see ``ResidualContext``), else
    "sampling-failed"; ctx the context of the sampled seeds (None when none
    is) and x0 their starts (S, n), zero past each seed's width, in the same
    order.  Each seed draws from its own ``default_rng(seed ^ index)``:
    algebra parameters, then metric parameters (one sampler call per
    segment), then kernel coordinates.  One context build serves the
    program's distinct (entry, algebra parameters) pairs, and one stacked
    ``norm_sq`` call scales every unit_F start to |F|_g = 1; every start
    has the bits of one seed at a time."""
    status: list = []
    rngs, sampled = [], []
    for entry, seed, indices in segments:
        offset = len(status)
        status += ["sampling-failed"] * len(indices)
        rngs += [np.random.default_rng(seed ^ index) for index in indices]
        algebras = {}
        for q, index in enumerate(indices, offset):
            try:
                algebras[q] = sample_algebra_params(entry, rngs[q], variant_index=index)
            except ValueError:
                pass
        metrics = sample_metric_params(entry, [rngs[q] for q in algebras])
        for (q, algebra_params), metric_params in zip(algebras.items(), metrics):
            if metric_params is not None:
                sampled.append((q, entry, algebra_params, metric_params))
                status[q] = "refined"
    if not sampled:
        return status, None, None
    keys: dict = {}
    seats = [keys.setdefault((id(entry), tuple(a.items())), (len(keys), (entry, a)))[0]
             for _, entry, a, _ in sampled]
    ctx = ResidualContext([pair for _, pair in keys.values()], mode=mode).take(seats)
    facts = ctx._facts
    first = [len(f.entry.metric_param_names) for f in facts]  # each seed's first kernel column
    x0 = np.zeros((len(sampled), max(f.width for f in facts)))
    for s, (q, _, _, metric_params) in enumerate(sampled):
        x0[s, :facts[s].width] = _point(facts[s].entry, metric_params, rngs[q].uniform(
            -2.0, 2.0, size=facts[s].width - first[s]))
    if mode == "unit_F":
        g = np.empty((len(sampled), 4, 4))
        for entry, rows in ctx._groups:
            g[rows] = metric_from_params(entry, x0[rows, :len(entry.metric_param_names)])
        nrm = norm_sq(g, ctx.f_of(x0))
        # Divide each seed's kernel columns, past its own metric columns, by
        # its norm; a division by 1.0 leaves a value's bits as they are.
        root = np.sqrt(np.where(nrm > 0, nrm, 1.0))[:, None]
        x0 /= np.where(np.arange(x0.shape[1]) >= np.array(first)[:, None], root, 1.0)
    return status, ctx, x0


def _reverified(cands: list[Candidate]) -> list[EMReport]:
    """Independent re-verification of candidates through the geometry
    modules only, in one stacked ``em_residual`` call: each candidate on its
    own entry, its algebra and metric instantiated from its own parameters,
    one ``instantiate_many`` call and one metric build per entry."""
    c = np.empty((len(cands), 4, 4, 4))
    g = np.empty((len(cands), 4, 4))
    for entry, rows in _by_entry([cand.entry for cand in cands]):
        c[rows] = instantiate_many(entry, [cands[s].algebra_params for s in rows])
        g[rows] = metric_from_params(entry, [[cands[s].metric_params[n]
                                              for n in entry.metric_param_names] for s in rows])
    reports = em_residual(c, g, np.array([cand.f_coeffs for cand in cands]))
    for cand, report in zip(cands, reports):
        report.inputs["orientation"] = cand.orientation
    return reports


def _run_block(*segments) -> list[dict]:
    """The seeds of one program: ``segments`` are seed ranges (entry, seed,
    lo, hi, mode), one per request, of one mode.  Draw the program's
    starts (``_starts``), refine them in one lockstep ``_levmar`` and
    re-verify the end points independently (``_reverified``).  One record
    per seed, in segment order, then index order."""
    mode = segments[0][-1]
    status, ctx, x0 = _starts([(entry, seed, range(lo, hi))
                               for entry, seed, lo, hi, _ in segments], mode)
    indices = [index for _, _, lo, hi, _ in segments for index in range(lo, hi)]
    records = [{"index": index, "status": why} for index, why in zip(indices, status)]
    if ctx is None:
        return records
    x, iters, reasons, _ = _levmar(ctx, x0, tol=SEARCH_TOL, max_iter=SEARCH_MAX_ITER)
    cands = ctx.candidates(x, canonical=True)
    reports = _reverified(cands)
    refined = [record for record in records if record["status"] == "refined"]
    for s, record in enumerate(refined):
        record.update(reason=reasons[s], iterations=int(iters[s]), candidate=cands[s],
                      report=reports[s])
    return records


@dataclass(frozen=True)
class SearchRequest:
    """One multistart search: the arguments of ``multistart_search`` but n_jobs."""

    entry: CatalogEntry
    n_seeds: int
    seed: int = 0
    mode: str = "unit_F"


def multistart_many(requests: list[SearchRequest], n_jobs: int = 1) -> list[SearchOutcome]:
    """``multistart_search`` for each request, in one set of programs.

    The seeds of all requests, in request order and then index order, are
    cut into programs of at most ``_BLOCK`` seeds, and where the mode
    changes; with n_jobs > 1 a process pool takes whole programs.  The
    packing never depends on n_jobs, and a seed's result is the one it has
    alone, so each outcome is that of the request's own ``multistart_search``
    (``wall_time`` is the time of the whole call).  Programs carry each
    request's ``CatalogEntry`` as given; a name in its place is a TypeError.
    """
    if not all(isinstance(r.entry, CatalogEntry) for r in requests):
        raise TypeError("each request's entry must be a CatalogEntry")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if any(r.n_seeds < 1 for r in requests):
        raise ValueError("n_seeds must be >= 1")
    for r in requests:
        if r.mode not in MODES:
            raise ValueError(f"unknown mode {r.mode!r}")
    t0 = time.perf_counter()
    programs: list[list[tuple]] = []
    room = 0
    for r in requests:
        lo = 0
        while lo < r.n_seeds:
            if not room or programs[-1][-1][-1] != r.mode:
                programs.append([])
                room = _BLOCK
            hi = min(r.n_seeds, lo + room)
            programs[-1].append((r.entry, r.seed, lo, hi, r.mode))
            room -= hi - lo
            lo = hi
    workers = min(n_jobs, len(programs))
    if workers > 1:
        # Imported here: multiprocessing adds about 20 ms and 2 MB to every
        # process that imports the package, and serial runs never use it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = [job.result() for job in [pool.submit(_run_block, *p) for p in programs]]
    else:
        done = [_run_block(*p) for p in programs]
    results = [res for program in done for res in program]
    outcomes, at = [], 0
    for r in requests:
        outcomes.append(_outcome(r, results[at:at + r.n_seeds]))
        at += r.n_seeds
    wall_time = time.perf_counter() - t0
    for outcome in outcomes:
        outcome.wall_time = wall_time
    return outcomes


def _outcome(request: SearchRequest, results: list[dict]) -> SearchOutcome:
    """A request's ledger, distinct solutions and closest miss from its
    seeds' records; an infeasible start ran no iteration and is no miss.
    A seed's miss is its largest residual, and a NaN residual makes the
    miss, and with it the closest miss, NaN wherever it sits."""
    refined = [res for res in results if res["status"] == "refined"]
    reasons = [res["reason"] for res in refined]
    outcome = SearchOutcome(
        request.entry.name, request.mode, request.seed,
        seeds_used=len(refined), seeds_sampled=len(refined),
        seeds_refined=len(refined) - reasons.count("infeasible start"),
        stop_reasons={r: reasons.count(r) for r in STOP_REASONS})
    kept_vectors: list[np.ndarray] = []
    misses = []
    for res in refined:
        cand, report = res["candidate"], res["report"]
        if report.is_solution:
            vec = _canonical_vector(cand)
            if any(np.abs(v - vec).max() < DEDUP_DISTANCE for v in kept_vectors):
                continue
            kept_vectors.append(vec)
            outcome.solutions.append((cand, report))
        elif res["reason"] != "infeasible start":
            misses.append((report.r_em, report.r_dF, report.r_dstarF))
    if misses:  # numpy's max and min, unlike Python's, keep a NaN
        outcome.best_nonsolution_residual = float(np.max(misses, axis=1).min())
    return outcome


def multistart_search(entry: CatalogEntry, n_seeds: int, seed: int = 0, mode: str = "unit_F",
                      n_jobs: int = 1) -> SearchOutcome:
    """Refine from n_seeds deterministic random starts and collect solutions:
    the one-request case of ``multistart_many``.  Seeds run in fixed blocks
    of consecutive indices (``_BLOCK``); with n_jobs > 1 a process pool
    takes whole blocks, so the outcome is the same for every n_jobs.

    ``entry`` is a ``CatalogEntry``, run as given.  The outcome's ``to_dict``
    records the checksum of the packaged catalog (``catalog_sha256``)
    whatever entry ran, a derived one included.
    """
    return multistart_many([SearchRequest(entry, n_seeds, seed, mode)], n_jobs)[0]


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
    return Candidate(entry_by_name(fam.entry_name), fam.algebra_params(point),
                     fam.metric_params(point), fam.f_coeffs(point), orientation)


def verify_solution_family(family_id: str, orientation: int = 1) -> FamilyReport:
    """Run the full verification battery on the family's default grid; each
    point is admitted once and passes the reference chain once, and its
    Hermitian type and rho0 are those of the ``hermitian`` block that
    ``verify`` reports (one ``hermitian_diagnostics`` call).  A point whose
    type is not Kahler or almost Kahler has no rho0 and fails.  An
    orientation the family does not state (``Family.orientations``) is a
    ValueError: its Kahler expectations hold in the stated ones only."""
    fam = family_by_id(family_id)
    if orientation not in fam.orientations:
        stated = " and ".join(f"{o:+d}" for o in fam.orientations)
        raise ValueError(f"family {fam.id} is stated for orientation {stated} only, "
                         f"not {orientation:+d}")
    max_res = max_kerr = max_rho_err = max_defect = 0.0
    classifications, types = [], []
    ok = True
    for point in fam.default_grid:
        cand = family_candidate(fam, point, orientation)
        L, g = _admitted(cand.entry, cand.algebra_params, cand.metric_params)
        report = em_residual(L, g, cand.f_coeffs)
        max_res = max(max_res, report.r_em, report.r_dF, report.r_dstarF)
        classifications.append(report.classification)
        if report.classification != NON_EINSTEIN_EM:
            ok = False
        omega = fam.omega_from_metric(cand.metric_params, orientation)
        hermitian = hermitian_diagnostics(L, g, omega)
        types.append(hermitian["type"])
        if hermitian["type"] != fam.expected_type(orientation):
            ok = False
        if "rho0" not in hermitian:
            continue
        rho0 = np.array(hermitian["rho0"])
        rho_err = float(np.abs(rho0 - fam.expected_rho0(point, orientation)).max())
        max_rho_err = max(max_rho_err, rho_err)
        kappa, defect = verify_kahler_decomposition(g, cand.f_coeffs, omega, rho0, orientation)
        max_kerr = max(max_kerr, abs(kappa - fam.expected_kappa(point, orientation)))
        max_defect = max(max_defect, defect)
    ok = (ok and max_res <= TOL_FAMILY and max_kerr <= TOL_FAMILY and max_rho_err <= TOL_FAMILY
          and max_defect <= TOL_FAMILY)
    return FamilyReport(
        family_id=fam.id, orientation=orientation, n_points=len(fam.default_grid),
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
    #: Closest miss of the free_F pass; inf when the pass did not run or
    #: refined no seed.  Reported only: the evidence rule reads the unit_F miss.
    best_free_nonsolution_residual: float = float("inf")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["entry"] = out.pop("entry_name")
        for name in ("best_nonsolution_residual", "best_free_nonsolution_residual"):
            if not np.isfinite(out[name]):
                out[name] = None
        return out


def classify_table(entries: list[CatalogEntry], n_seeds: int = 200, seed: int = 0,
                   n_jobs: int = 1) -> list[ClassifyOutcome]:
    """Compare the search verdict with the catalog verdict, one row per entry.

    Runs the unit-norm pass of every row first, as one ``multistart_many``
    (it also supplies the non-existence evidence), then, as a second one, a
    free-norm pass for each row that found no NonEinsteinEM solution: the EM
    equation pins the scale of F, and some solution families live entirely
    at |F|_g > 1 where the unit-norm slice is empty.

    Only the presence of a NonEinsteinEM solution is checked.  A negative
    verdict is numerical evidence only, never a proof: it is reported as "no
    solution found at budget" and demands that the unit-norm pass refined at
    least one seed (ran an iteration from a feasible start) and that the
    closest non-solution stays a factor of 100 above the solution
    tolerance; otherwise it is inconclusive.  The free-norm pass's closest
    miss is reported beside it and gates nothing: without the |F|^2_g = 1
    row, a run can shrink the absolute residual by driving the metric
    towards degeneracy.  Each of ``entries`` is a ``CatalogEntry``, run as
    given.
    """
    units = multistart_many([SearchRequest(e, n_seeds, seed, "unit_F") for e in entries], n_jobs)
    need = [i for i, unit in enumerate(units) if not _non_einstein(unit.solutions)]
    frees = multistart_many([SearchRequest(entries[i], n_seeds, seed, "free_F") for i in need],
                            n_jobs)
    free_of = dict(zip(need, frees))
    return [_classify_row(entry, unit, free_of.get(i))
            for i, (entry, unit) in enumerate(zip(entries, units))]


def _non_einstein(solutions: list) -> list:
    return [s for s in solutions if s[1].classification == NON_EINSTEIN_EM]


def _classify_row(entry: CatalogEntry, outcome: SearchOutcome,
                  free_pass: SearchOutcome | None) -> ClassifyOutcome:
    non_einstein = _non_einstein(outcome.solutions)
    solutions = list(outcome.solutions)
    free_miss = float("inf")
    if free_pass is not None:
        non_einstein = _non_einstein(free_pass.solutions)
        solutions += free_pass.solutions
        free_miss = free_pass.best_nonsolution_residual
    max_stress = 0.0
    for cand, report in solutions:
        if report.classification != NON_EINSTEIN_EM:
            g = metric_from_params(entry, cand.metric_params)
            max_stress = max(max_stress, float(np.abs(stress_energy(g, cand.f_coeffs)).max()))
    if non_einstein:
        computed = "HasNonEinsteinEM"
        inconclusive = False
    else:
        computed = "NoNonEinsteinEMFound"
        # No refined seed is no evidence; a near miss, or a NaN one, is
        # evidence against.  No miss (inf) leaves the verdict standing.
        band = EVIDENCE_FACTOR * TOL_SOLUTION
        inconclusive = bool(outcome.seeds_refined == 0
                            or not outcome.best_nonsolution_residual > band)
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
        best_free_nonsolution_residual=free_miss,
    )


def classify_algebra(entry: CatalogEntry, n_seeds: int = 200, seed: int = 0,
                     n_jobs: int = 1) -> ClassifyOutcome:
    """One row of ``classify_table``."""
    return classify_table([entry], n_seeds, seed, n_jobs)[0]
