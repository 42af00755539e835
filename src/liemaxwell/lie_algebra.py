"""Structure constants, Chevalley-Eilenberg differential, and the algebra catalog.

Conventions used throughout the package:

* ``C[i, j, k]`` holds the structure constant of ``e_k`` in ``[e_i, e_j]``
  (0-based indices; the bracket tables in the catalog are 1-based).
* Invariant 1-forms differentiate as ``(d a)(x, y) = -a([x, y])``, extended to
  higher degree by the graded Leibniz rule.  Equivalently, for a 2-form,
  ``dF(x, y, z) = -F([x,y], z) + F([x,z], y) - F([y,z], x)``.
* 2-form coefficients are stored in the fixed lexicographic order
  ``e^12, e^13, e^14, e^23, e^24, e^34`` and 3-forms in the order
  ``e^123, e^124, e^134, e^234``.

Every operation accepts float64 arrays or object arrays of Fractions; with
Fraction inputs the results are exact.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._expr import ExpressionError, eval_expr, expr_identifiers
from ._smallmat import is_exact, nullspace

DIM = 4

#: Index pairs (i < j, 0-based) for the six 2-form monomials e^{ij}.
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Index triples (i < j < k, 0-based) for the four 3-form monomials e^{ijk}.
TRIPLES: tuple[tuple[int, int, int], ...] = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

PAIR_LABELS: tuple[str, ...] = tuple(f"{i + 1}{j + 1}" for i, j in PAIRS)

VERDICTS = ("HasNonEinsteinEM", "EinsteinOnly", "NoSolution", "Flat")


class CatalogError(ValueError):
    """Raised when the shipped catalog document fails validation, or for a
    name that is not in it."""


@dataclass(frozen=True)
class LieAlgebra:
    """A 4-dimensional Lie algebra given by structure constants."""

    name: str
    c: np.ndarray
    params: dict = field(default_factory=dict)

    dim: int = DIM

    def __post_init__(self):
        c = np.asarray(self.c)
        if c.shape != (DIM, DIM, DIM):
            raise ValueError(f"structure constants must be 4x4x4, got {c.shape}")
        anti = c + np.transpose(c, (1, 0, 2))
        if np.abs(anti).max() > (0 if is_exact(c) else 1e-14):
            raise ValueError(f"structure constants of {self.name!r} are not antisymmetric")
        object.__setattr__(self, "c", c)

    @property
    def exact(self) -> bool:
        return is_exact(self.c)


def from_brackets(name: str, brackets: dict, params: dict | None = None,
                  exact: bool = False) -> LieAlgebra:
    """Build an algebra from a 1-based table ``{(i, j): {k: coeff}}`` with i < j."""
    dtype = object if exact else float
    c = np.zeros((DIM, DIM, DIM), dtype=dtype)
    if exact:
        c[:] = Fraction(0)
    for (i, j), targets in brackets.items():
        if not (1 <= i < j <= DIM):
            raise ValueError(f"bracket indices must satisfy 1 <= i < j <= 4, got ({i}, {j})")
        for k, coeff in targets.items():
            value = Fraction(coeff) if exact else float(coeff)
            c[i - 1, j - 1, k - 1] = value
            c[j - 1, i - 1, k - 1] = -value
    return LieAlgebra(name=name, c=c, params=dict(params or {}))


# ---------------------------------------------------------------------------
# Bracket and Jacobi identity
# ---------------------------------------------------------------------------


def bracket(L: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] for coefficient vectors x, y in the basis e_1..e_4."""
    return np.einsum("i,j,ijk->k", np.asarray(x), np.asarray(y), L.c)


def jacobi_defect(L: LieAlgebra):
    """Max-abs of the Jacobi expression over all index quadruples (0 iff Lie).

    With t[i,j,k,l] = sum_m c[i,j,m] c[m,k,l], the expression is the cyclic
    sum t[i,j,k,l] + t[j,k,i,l] + t[k,i,j,l].  Only products of nonzero
    structure constants are formed, so exact mode stays cheap.
    """
    by_first: dict[int, list] = {m: [] for m in range(DIM)}
    nonzero = []
    for (i, j, m), v in np.ndenumerate(L.c):
        if v != 0:
            nonzero.append((i, j, m, v))
            by_first[i].append((j, m, v))
    # Lexicographic (i, j, m) order adds the terms of each t entry by ascending m.
    t: dict[tuple[int, int, int, int], object] = {}
    for i, j, m, v in nonzero:
        for k, l, w in by_first[m]:
            t[i, j, k, l] = t.get((i, j, k, l), 0) + v * w
    worst = Fraction(0) if L.exact else 0.0
    # Every rotation of (i, j, k) with a nonzero term; all other sums vanish.
    touched = {rot for a, b, d, l in t for rot in ((a, b, d, l), (b, d, a, l), (d, a, b, l))}
    for i, j, k, l in touched:
        expr = t.get((i, j, k, l), 0) + t.get((k, i, j, l), 0) + t.get((j, k, i, l), 0)
        worst = max(worst, abs(expr))
    return worst


def is_unimodular(L: LieAlgebra, tol: float = 1e-12) -> bool:
    """True iff trace(ad_{e_i}) = sum_k c^k_{ik} vanishes for every i."""
    traces = np.einsum("ikk->i", L.c)
    if L.exact:
        return all(t == 0 for t in traces)
    return bool(np.abs(traces).max() <= tol)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential on invariant forms
# ---------------------------------------------------------------------------


def d_one_form(L: LieAlgebra, alpha: np.ndarray) -> np.ndarray:
    """d of a 1-form: six coefficients (d alpha)_{jk} = -alpha([e_j, e_k])."""
    alpha = np.asarray(alpha)
    out = np.zeros(6, dtype=L.c.dtype)
    for p, (j, k) in enumerate(PAIRS):
        out[p] = -sum(L.c[j, k, m] * alpha[m] for m in range(DIM))
    return out


def two_form_matrix(a: np.ndarray, dtype=None) -> np.ndarray:
    """Antisymmetric 4x4 matrix of a 2-form from its six coefficients."""
    a = np.asarray(a)
    F = np.zeros((DIM, DIM), dtype=dtype if dtype is not None else a.dtype)
    for p, (i, j) in enumerate(PAIRS):
        F[i, j] = a[p]
        F[j, i] = -a[p]
    return F


def two_form_coeffs(F: np.ndarray) -> np.ndarray:
    """Six coefficients of an antisymmetric matrix, in the fixed pair order."""
    F = np.asarray(F)
    return np.array([F[i, j] for i, j in PAIRS], dtype=F.dtype)


def d_two_form(L: LieAlgebra, a: np.ndarray) -> np.ndarray:
    """d of a 2-form given by six coefficients; returns the four 3-form coefficients."""
    F = two_form_matrix(np.asarray(a))
    out = np.zeros(4, dtype=np.result_type(L.c.dtype, F.dtype))
    for t, (i, j, k) in enumerate(TRIPLES):
        acc = 0
        for m in range(DIM):
            acc = acc - L.c[i, j, m] * F[m, k] + L.c[i, k, m] * F[m, j] - L.c[j, k, m] * F[m, i]
        out[t] = acc
    return out


@dataclass(frozen=True)
class ClosednessSystem:
    """The linear system dF = 0 over the six 2-form coefficients."""

    matrix: np.ndarray            # 4x6, rows = 3-form components, cols = pair coefficients
    kernel: tuple[np.ndarray, ...]
    dim: int
    free_pairs: tuple[str, ...]   # pair label of the unit coefficient of each kernel vector
    pivot_pairs: tuple[str, ...]


def closedness_constraints(L: LieAlgebra) -> ClosednessSystem:
    """Coefficient matrix of dF = 0 and a canonical basis of its kernel."""
    dtype = L.c.dtype
    mat = np.zeros((4, 6), dtype=dtype)
    for p in range(6):
        unit = np.zeros(6, dtype=dtype)
        unit[p] = Fraction(1) if L.exact else 1.0
        mat[:, p] = d_two_form(L, unit)
    basis = nullspace(mat)
    free = []
    for v in basis:
        lead = next(p for p in range(6) if abs(v[p]) > 0 and
                    (v[p] == 1 if L.exact else abs(v[p] - 1.0) < 1e-9))
        free.append(PAIR_LABELS[lead])
    pivot = tuple(lbl for lbl in PAIR_LABELS if lbl not in free)
    return ClosednessSystem(matrix=mat, kernel=tuple(basis), dim=len(basis),
                            free_pairs=tuple(free), pivot_pairs=pivot)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: float | None
    hi: float | None
    open_lo: bool
    open_hi: bool
    exclude: tuple[float, ...]
    sample: float

    def admits(self, value: float, margin: float = 1e-9) -> bool:
        if self.lo is not None and (value < self.lo or (self.open_lo and value <= self.lo)):
            return False
        if self.hi is not None and (value > self.hi or (self.open_hi and value >= self.hi)):
            return False
        return all(abs(value - ex) > margin for ex in self.exclude)


@dataclass(frozen=True)
class Variant:
    """A named parameter assignment targeting one analysis branch."""

    name: str
    params: dict
    admissible: bool = True


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    brackets: tuple[tuple[int, int, tuple[tuple[int, str], ...]], ...]
    params: tuple[ParamSpec, ...]
    metric_shape: tuple[tuple[object, ...], ...]   # literals (numbers) or parameter names
    metric_constraints: tuple[str, ...]            # polynomials required to be > 0
    positive_metric_params: tuple[str, ...]
    verdict: str
    family: dict | None = None
    variants: tuple[Variant, ...] = ()
    notes: str = ""
    aliases: tuple[str, ...] = ()          # lookup names besides ``name``
    ordered_params: tuple[str, ...] = ()   # sampled values are sorted into this order

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @functools.cached_property
    def metric_param_names(self) -> tuple[str, ...]:
        names = sorted({cell for row in self.metric_shape for cell in row
                        if isinstance(cell, str)})
        return tuple(names)

    @functools.cached_property
    def metric_placement(self) -> tuple[np.ndarray, np.ndarray]:
        """(place, g0) with metric = params @ place + g0, flattened (..., 16),
        for parameter vectors in ``metric_param_names`` order: the literal
        cells of the shape plus the parameters, placed exactly (one nonzero
        term per cell)."""
        names = self.metric_param_names
        place, g0 = np.zeros((len(names), 16)), np.zeros(16)
        for i, row in enumerate(self.metric_shape):
            for j, cell in enumerate(row):
                if isinstance(cell, str):
                    place[names.index(cell), 4 * i + j] = 1.0
                else:
                    g0[4 * i + j] = cell
        return place, g0

    def sample_params(self) -> dict:
        return {p.name: p.sample for p in self.params}


def canonical_key(name: str) -> str:
    """Normalize an entry name for lookups: lowercase alphanumerics only."""
    return "".join(ch for ch in name.lower() if ch.isalnum())


def instantiate(entry: CatalogEntry, params: dict | None = None, *,
                exact: bool = False, check_range: bool = True) -> LieAlgebra:
    """Concrete LieAlgebra from an entry at given algebra parameter values."""
    params = dict(params or {})
    declared = set(entry.param_names)
    unknown = set(params) - declared
    if unknown:
        raise CatalogError(f"{entry.name}: unknown algebra parameters {sorted(unknown)}")
    missing = declared - set(params)
    if missing:
        raise CatalogError(f"{entry.name}: missing algebra parameters {sorted(missing)}")
    if check_range:
        for spec in entry.params:
            if not spec.admits(float(params[spec.name])):
                raise CatalogError(
                    f"{entry.name}: parameter {spec.name}={params[spec.name]} outside admissible range")
    env = {k: (Fraction(v) if exact else float(v)) for k, v in params.items()}
    table: dict[tuple[int, int], dict[int, object]] = {}
    for i, j, coeffs in entry.brackets:
        row = table.setdefault((i, j), {})
        for k, expr in coeffs:
            val = eval_expr(expr, env)
            row[k] = val if exact else float(val)
    return from_brackets(entry.name, table, params=params, exact=exact)


def metric_from_params(entry: CatalogEntry, metric_params: dict, *,
                       exact: bool = False) -> np.ndarray:
    """Fill the entry's reduced metric shape with concrete parameter values."""
    needed = set(entry.metric_param_names)
    given = set(metric_params)
    if needed != given:
        raise CatalogError(
            f"{entry.name}: metric parameters {sorted(needed)} required, got {sorted(given)}")
    number = Fraction if exact else float
    return np.array([[number(metric_params[cell] if isinstance(cell, str) else cell)
                      for cell in row] for row in entry.metric_shape],
                    dtype=object if exact else float)


def _parse_entry(raw: dict) -> CatalogEntry:
    name = raw["name"]
    brackets = []
    for b in raw["brackets"]:
        coeffs = tuple((int(k), str(expr)) for k, expr in b["coeffs"])
        brackets.append((int(b["i"]), int(b["j"]), coeffs))
    params = []
    for p in raw.get("params", []):
        lo, hi = p.get("range", [None, None])
        op = p.get("open", [False, False])
        params.append(ParamSpec(
            name=p["name"],
            lo=None if lo is None else float(lo),
            hi=None if hi is None else float(hi),
            open_lo=bool(op[0]), open_hi=bool(op[1]),
            exclude=tuple(float(x) for x in p.get("exclude", [])),
            sample=float(p["sample"]),
        ))
    shape = tuple(tuple(cell if isinstance(cell, str) else float(cell) for cell in row)
                  for row in raw["metric_shape"])
    variants = tuple(Variant(name=v["name"], params=dict(v["params"]),
                             admissible=bool(v.get("admissible", True)))
                     for v in raw.get("variants", []))
    entry = CatalogEntry(
        name=name,
        brackets=tuple(brackets),
        params=tuple(params),
        metric_shape=shape,
        metric_constraints=tuple(raw.get("constraints", [])),
        positive_metric_params=tuple(raw.get("positive_metric_params", [])),
        verdict=raw["verdict"],
        family=raw.get("family"),
        variants=variants,
        notes=raw.get("notes", ""),
        aliases=tuple(raw.get("aliases", [])),
        ordered_params=tuple(raw.get("ordered_params", [])),
    )
    _validate_entry(entry)
    return entry


def _validate_entry(entry: CatalogEntry) -> None:
    if entry.verdict not in VERDICTS:
        raise CatalogError(f"{entry.name}: unknown verdict {entry.verdict!r}")
    declared = set(entry.param_names)
    for _, _, coeffs in entry.brackets:
        for _, expr in coeffs:
            try:
                refs = expr_identifiers(expr)
            except ExpressionError as exc:
                raise CatalogError(f"{entry.name}: bad bracket expression: {exc}") from exc
            if not refs <= declared:
                raise CatalogError(
                    f"{entry.name}: bracket expression {expr!r} references undeclared parameters")
    mnames = set(entry.metric_param_names)
    for i in range(DIM):
        for j in range(DIM):
            if entry.metric_shape[i][j] != entry.metric_shape[j][i]:
                raise CatalogError(f"{entry.name}: metric shape is not symmetric")
    for poly in entry.metric_constraints:
        try:
            refs = expr_identifiers(poly)
        except ExpressionError as exc:
            raise CatalogError(f"{entry.name}: bad constraint: {exc}") from exc
        if not refs <= mnames:
            raise CatalogError(
                f"{entry.name}: constraint {poly!r} references unknown parameter")
    if not set(entry.positive_metric_params) <= mnames:
        raise CatalogError(f"{entry.name}: positive_metric_params not in shape")
    ordered = entry.ordered_params
    if len(set(ordered)) != len(ordered) or not set(ordered) <= declared:
        raise CatalogError(f"{entry.name}: ordered_params must be distinct declared parameters")
    # Jacobi gate at the recorded sample point, exact when the sample is rational.
    sample = entry.sample_params()
    exact = all(float(v) == float(Fraction(str(v)).limit_denominator(10**6)) for v in sample.values())
    L = instantiate(entry, sample, exact=exact, check_range=False)
    defect = jacobi_defect(L)
    if (defect != 0) if exact else (float(defect) > 1e-13):
        raise CatalogError(f"{entry.name}: Jacobi identity fails at sample parameters")


def _catalog_text() -> str:
    return importlib.resources.files("liemaxwell").joinpath("catalog.json").read_text()


def catalog_checksum(document: dict | None = None) -> str:
    """SHA-256 over the canonicalized (version, entries) payload.

    Without a document, the checksum of the packaged catalog as verified when
    it was loaded.
    """
    if document is None:
        catalog()
        return _PACKAGED_SHA256
    payload = {"version": document["version"], "entries": document["entries"]}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_catalog(source: str | Path | None = None) -> list[CatalogEntry]:
    """Parse and validate the catalog document (the packaged one by default)."""
    text = Path(source).read_text() if source is not None else _catalog_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog does not parse: {exc}") from exc
    recorded = document.get("sha256")
    actual = catalog_checksum(document)
    if recorded != actual:
        raise CatalogError(f"catalog checksum mismatch: recorded {recorded}, actual {actual}")
    entries = [_parse_entry(raw) for raw in document["entries"]]
    _lookup_index(entries)
    if source is None:
        global _PACKAGED_SHA256
        _PACKAGED_SHA256 = actual
    return entries


def _lookup_index(entries: list[CatalogEntry]) -> dict[str, CatalogEntry]:
    """Every entry under the canonical key of its name and of each alias;
    two names with one key are a catalog error."""
    index: dict[str, CatalogEntry] = {}
    for entry in entries:
        for name in (entry.name, *entry.aliases):
            key = canonical_key(name)
            if key in index:
                raise CatalogError(f"name {name!r} of {entry.name} collides with {index[key].name}")
            index[key] = entry
    return index


_CATALOG_CACHE: list[CatalogEntry] | None = None
_INDEX: dict[str, CatalogEntry] = {}
_PACKAGED_SHA256: str | None = None


def catalog() -> list[CatalogEntry]:
    global _CATALOG_CACHE, _INDEX
    if _CATALOG_CACHE is None:
        _CATALOG_CACHE = load_catalog()
        _INDEX = _lookup_index(_CATALOG_CACHE)
    return _CATALOG_CACHE


def entry_by_name(name: str) -> CatalogEntry:
    """The entry with a name or alias of the same canonical key as ``name``."""
    catalog()
    try:
        return _INDEX[canonical_key(name)]
    except KeyError:
        raise CatalogError(f"no catalog entry named {name!r}") from None
