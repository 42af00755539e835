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
Fraction inputs the results are exact.  ``two_form_matrix``,
``two_form_coeffs`` and ``d_two_form`` take leading axes: forms (..., 6), and
for ``d_two_form`` one algebra or stacked constants (..., 4, 4, 4)
(``structure_constants``).
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
from ._smallmat import as_fractions, is_exact

DIM = 4

#: Index pairs (i < j, 0-based) for the six 2-form monomials e^{ij}.
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Index triples (i < j < k, 0-based) for the four 3-form monomials e^{ijk}.
TRIPLES: tuple[tuple[int, int, int], ...] = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

_PAIR_I, _PAIR_J = (np.array(ix) for ix in zip(*PAIRS))


def _d_two_form_terms():
    """Index arrays (4 triples x 12 terms) of dF: term 3m + r of triple
    (i, j, k) is sign * C[c0, c1, c2] * F[f0, f1], m the bracket index."""
    rows = []
    for i, j, k in TRIPLES:
        rows.append([t for m in range(DIM) for t in ((-1, i, j, m, m, k), (1, i, k, m, m, j),
                                                       (-1, j, k, m, m, i))])
    return tuple(np.array(col) for col in np.array(rows).transpose(2, 0, 1))


_D_SIGN, _D_C0, _D_C1, _D_C2, _D_F0, _D_F1 = _d_two_form_terms()

PAIR_LABELS: tuple[str, ...] = tuple(f"{i + 1}{j + 1}" for i, j in PAIRS)

#: What the catalog states about an entry's left-invariant solutions (g, F):
#: HasNonEinsteinEM, some solution's metric is not Einstein (the entry names
#: its family); EinsteinOnly, solutions with F != 0 exist and all have
#: Einstein metrics, so null stress (F self-dual or anti-self-dual);
#: NoSolution, no metric with a nonzero closed, co-closed F solves the
#: system; Flat, every metric is flat and the solutions are the self-dual
#: and anti-self-dual F.  ``classify`` checks only whether a NonEinsteinEM
#: solution is present.
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

    def __post_init__(self):
        c = np.asarray(self.c)
        if c.shape != (DIM, DIM, DIM):
            raise ValueError(f"structure constants must be 4x4x4, got {c.shape}")
        if is_exact(c):
            # Rationals only, as Fractions: an int / int would divide in floats.
            if not all(isinstance(v, (int, Fraction, np.integer)) for v in c.flat):
                raise ValueError(f"exact structure constants of {self.name!r} must be rational")
            c = as_fractions(c)
            # A nonzero c[i, j, k] + c[j, i, k] has a nonzero term: check
            # only those, with no Fraction arithmetic on zeros.
            nonzero = c.astype(bool)
            defect = (c[nonzero] + c.transpose(1, 0, 2)[nonzero]).astype(bool).any()
        else:
            # Non-finite entries first: NaN fails every comparison, so a
            # "> tolerance" test admits it, and an inf/-inf pair sums to NaN.
            defect = not (np.isfinite(c).all() and np.abs(c + c.transpose(1, 0, 2)).max() <= 1e-14)
        if defect:
            raise ValueError(f"structure constants of {self.name!r} are not antisymmetric")
        object.__setattr__(self, "c", c)

    @property
    def exact(self) -> bool:
        return is_exact(self.c)


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


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential on invariant forms
# ---------------------------------------------------------------------------


def d_one_form(L: LieAlgebra, alpha: np.ndarray) -> np.ndarray:
    """d of a 1-form: six coefficients (d alpha)_{jk} = -alpha([e_j, e_k])."""
    return -two_form_coeffs(L.c @ alpha)


def structure_constants(L) -> np.ndarray:
    """C (4, 4, 4) of one algebra; stacked constants (..., 4, 4, 4) are
    returned as they are.  Anything else is a TypeError."""
    if isinstance(L, np.ndarray):
        return L
    if isinstance(L, LieAlgebra):
        return L.c
    raise TypeError("expected one LieAlgebra or stacked structure constants (..., 4, 4, 4), "
                    f"got {type(L).__name__}")


def two_form_matrix(a: np.ndarray, dtype=None) -> np.ndarray:
    """Antisymmetric 4x4 matrices (..., 4, 4) of 2-forms from their
    coefficients (..., 6)."""
    a = np.asarray(a)
    F = np.zeros(a.shape[:-1] + (DIM, DIM), dtype=dtype if dtype is not None else a.dtype)
    F[..., _PAIR_I, _PAIR_J] = a
    F[..., _PAIR_J, _PAIR_I] = -a
    return F


def two_form_coeffs(F: np.ndarray) -> np.ndarray:
    """Six coefficients (..., 6) of antisymmetric matrices (..., 4, 4), in the
    fixed pair order."""
    return np.asarray(F)[..., _PAIR_I, _PAIR_J]


def d_two_form(L, a: np.ndarray) -> np.ndarray:
    """d of 2-forms (..., 6); returns the 3-form coefficients (..., 4).

    ``L`` is one algebra or stacked constants (..., 4, 4, 4)
    (``structure_constants``), matching the leading axes of ``a``.
    The coefficient of e^{ijk} is the sum over m of -C[i,j,m] F[m,k] +
    C[i,k,m] F[m,j] - C[j,k,m] F[m,i], accumulated from 0 in that order of
    terms by one cumulative sum, so floats round as in a loop over m and a
    stacked call gives each form the bits of a lone call.
    """
    c = structure_constants(L)
    F = two_form_matrix(np.asarray(a))
    terms = c[..., _D_C0, _D_C1, _D_C2] * F[..., _D_F0, _D_F1]
    terms = np.concatenate([np.zeros_like(terms[..., :1]), _D_SIGN * terms], axis=-1)
    return np.cumsum(terms, axis=-1)[..., -1]


def closedness_matrix(L) -> np.ndarray:
    """Coefficient matrix (4, 6) of dF = 0, column p being d(e^p), of one
    algebra, or (S, 4, 6) of stacked constants (S, 4, 4, 4)
    (``structure_constants``): d of all
    six unit 2-forms in one ``d_two_form`` call.  ``_smallmat.nullspace``
    of one matrix gives the closed 2-forms in canonical rref form, and its
    free columns name their free pairs (``PAIR_LABELS``)."""
    c = structure_constants(L)
    mat = d_two_form(c[..., None, :, :, :], np.eye(6, dtype=c.dtype))
    return np.ascontiguousarray(np.swapaxes(mat, -1, -2))


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

    def admits(self, value, margin: float = 1e-9):
        """Whether a value is admissible, or which values of an array are."""
        ok = np.isfinite(value)
        if self.lo is not None:
            ok = ok & ((value > self.lo) if self.open_lo else (value >= self.lo))
        if self.hi is not None:
            ok = ok & ((value < self.hi) if self.open_hi else (value <= self.hi))
        for ex in self.exclude:
            ok = ok & (np.abs(value - ex) > margin)
        return ok


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
    def metric_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(literal, at, which) of the shape flattened (16,): the literal
        cells (0 where a parameter sits), the positions of the parameter
        cells and the index of the parameter at each of them (in
        ``metric_param_names`` order)."""
        names = self.metric_param_names
        cells = [cell for row in self.metric_shape for cell in row]
        at = [q for q, v in enumerate(cells) if isinstance(v, str)]
        return (np.array([0.0 if isinstance(v, str) else v for v in cells]), np.array(at, dtype=int),
                np.array([names.index(cells[q]) for q in at], dtype=int))

    def sample_params(self) -> dict:
        return {p.name: p.sample for p in self.params}


def canonical_key(name: str) -> str:
    """Normalize an entry name for lookups: lowercase alphanumerics only."""
    return "".join(ch for ch in name.lower() if ch.isalnum())


def _checked(entry: CatalogEntry, params: dict) -> None:
    """CatalogError unless ``params`` names exactly the entry's algebra
    parameters, with numbers that are not booleans."""
    if params.keys() == set(entry.param_names) and not any(
            isinstance(v, (bool, np.bool_)) for v in params.values()):
        return
    declared = set(entry.param_names)
    unknown = set(params) - declared
    if unknown:
        raise CatalogError(f"{entry.name}: unknown algebra parameters {sorted(unknown)}")
    missing = declared - set(params)
    if missing:
        raise CatalogError(f"{entry.name}: missing algebra parameters {sorted(missing)}")
    flags = sorted(k for k, v in params.items() if isinstance(v, (bool, np.bool_)))
    raise CatalogError(f"{entry.name}: algebra parameters {flags} must be numbers, not booleans")


def _as_float(entry: CatalogEntry, name: str, value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise CatalogError(f"{entry.name}: parameter {name} is beyond the float range") from None


def _bracket_constants(entry: CatalogEntry, env: dict, lead: tuple = (), dtype=float) -> np.ndarray:
    """Structure constants (*lead, 4, 4, 4) of the entry's bracket table,
    each coefficient evaluated once on ``env``: Python numbers, or arrays of
    shape ``lead`` (``eval_expr`` gives each element the bits of a Python
    float).  The table is 1-based with i < j; [e_j, e_i] = -[e_i, e_j]."""
    c = np.zeros(lead + (DIM, DIM, DIM), dtype=dtype)
    if dtype is object:
        c[...] = Fraction(0)
    for i, j, coeffs in entry.brackets:
        for k, expr in coeffs:
            val = eval_expr(expr, env)
            c[..., i - 1, j - 1, k - 1] = val
            c[..., j - 1, i - 1, k - 1] = -val
    return c


def instantiate(entry: CatalogEntry, params: dict | None = None, *,
                exact: bool = False) -> LieAlgebra:
    """Concrete LieAlgebra from an entry at given algebra parameter values:
    the one-set case of ``instantiate_many``, which checks the parameters
    and the constants.  Exact constants, from the parameters read as
    Fractions, are refused where their floats would be."""
    params = dict(params or {})
    c = instantiate_many(entry, [params])[0]
    if exact:
        env = dict(zip(params, as_fractions(np.array(list(params.values()), dtype=object))))
        c = _bracket_constants(entry, env, dtype=object)
    return LieAlgebra(name=entry.name, c=c, params=params)


def instantiate_many(entry: CatalogEntry, params: list[dict]) -> np.ndarray:
    """Structure constants (S, 4, 4, 4) of the entry at S sets of algebra
    parameters.  Each set must name exactly the entry's parameters, with
    numbers inside their admissible ranges, and give finite constants; a
    CatalogError names the first that does not.  Every bracket coefficient
    is evaluated once, on the parameter arrays, each element with the bits
    of a Python float."""
    for p in params:
        _checked(entry, p)
    env = {}
    for spec in entry.params:
        env[spec.name] = values = np.array([_as_float(entry, spec.name, p[spec.name])
                                            for p in params])
        bad = np.flatnonzero(~spec.admits(values))
        if len(bad):
            raise CatalogError(f"{entry.name}: parameter {spec.name}="
                               f"{params[bad[0]][spec.name]} outside admissible range")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        c = _bracket_constants(entry, env, (len(params),))
    if not np.isfinite(c).all():
        raise CatalogError(f"{entry.name}: structure constants beyond the float range")
    return c


def metric_from_params(entry: CatalogEntry, metric_params, *, exact: bool = False) -> np.ndarray:
    """Fill the entry's reduced metric shape with concrete parameter values:
    a dict over ``entry.metric_param_names`` gives one metric (4, 4), and
    float parameter vectors (..., m) in that order give metrics (..., 4, 4).
    Every cell is a copy of its parameter or literal, never a sum."""
    if not isinstance(metric_params, dict):
        literal, at, which = entry.metric_cells
        params = np.asarray(metric_params, dtype=float)
        cells = np.empty(params.shape[:-1] + literal.shape)
        cells[...] = literal
        cells[..., at] = params[..., which]
        return cells.reshape(params.shape[:-1] + (DIM, DIM))
    needed = set(entry.metric_param_names)
    given = set(metric_params)
    if needed != given:
        raise CatalogError(
            f"{entry.name}: metric parameters {sorted(needed)} required, got {sorted(given)}")
    if exact:
        cells = [[metric_params[cell] if isinstance(cell, str) else cell for cell in row]
                 for row in entry.metric_shape]
        return as_fractions(np.array(cells, dtype=object))
    return metric_from_params(entry, [float(metric_params[n]) for n in entry.metric_param_names])


def _parse_entry(raw: dict) -> CatalogEntry:
    """The validated entry of one catalog record; a missing key or a value
    of the wrong type is a CatalogError naming the entry."""
    name = raw.get("name", "unnamed entry") if isinstance(raw, dict) else "unnamed entry"
    try:
        entry = _entry_of(raw)
        _validate_entry(entry)
    except CatalogError:
        raise
    except KeyError as exc:
        raise CatalogError(f"{name}: entry has no {exc.args[0]!r}") from exc
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise CatalogError(f"{name}: malformed entry: {exc}") from exc
    return entry


def _entry_of(raw: dict) -> CatalogEntry:
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
    return CatalogEntry(
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


def _validate_entry(entry: CatalogEntry) -> None:
    if entry.verdict not in VERDICTS:
        raise CatalogError(f"{entry.name}: unknown verdict {entry.verdict!r}")
    declared = set(entry.param_names)
    for i, j, coeffs in entry.brackets:
        if not 1 <= i < j <= DIM or not all(1 <= k <= DIM for k, _ in coeffs):
            raise CatalogError(f"{entry.name}: bracket indices must satisfy 1 <= i < j <= 4 "
                               f"and 1 <= k <= 4, got ({i}, {j})")
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
    # Exact Jacobi gate at the sample and at each admissible variant, each
    # in range: the Jacobi expression is a polynomial in the parameters, so
    # it vanishes exactly at a float's binary value.
    for variant in entry.variants:
        if set(variant.params) != declared:
            raise CatalogError(f"{entry.name}: variant {variant.name!r} must name exactly "
                               f"the parameters {sorted(declared)}, got {sorted(variant.params)}")
    points = [("sample parameters", entry.sample_params())]
    points += [(f"variant {v.name!r}", v.params) for v in entry.variants if v.admissible]
    for where, params in points:
        if jacobi_defect(instantiate(entry, params, exact=True)) != 0:
            raise CatalogError(f"{entry.name}: Jacobi identity fails at {where}")


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
    return _loaded(source)[0]


def _loaded(source: str | Path | None) -> tuple[list[CatalogEntry], dict, str]:
    """The entries of a catalog document, their lookup index and the
    document's checksum.  The index holds every entry under the canonical
    key of its name and of each alias; two names with one key are a
    catalog error."""
    text = Path(source).read_text() if source is not None else _catalog_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog does not parse: {exc}") from exc
    if not isinstance(document, dict):
        raise CatalogError("catalog document is not a JSON object")
    for key in ("version", "entries"):
        if key not in document:
            raise CatalogError(f"catalog document has no {key!r}")
    if not isinstance(document["entries"], list):
        raise CatalogError("catalog entries are not a JSON list")
    recorded = document.get("sha256")
    actual = catalog_checksum(document)
    if recorded != actual:
        raise CatalogError(f"catalog checksum mismatch: recorded {recorded}, actual {actual}")
    entries = [_parse_entry(raw) for raw in document["entries"]]
    index: dict[str, CatalogEntry] = {}
    for entry in entries:
        for name in (entry.name, *entry.aliases):
            key = canonical_key(name)
            if key in index:
                raise CatalogError(f"name {name!r} of {entry.name} collides with {index[key].name}")
            index[key] = entry
    return entries, index, actual


_CATALOG_CACHE: list[CatalogEntry] | None = None
_INDEX: dict[str, CatalogEntry] = {}
_PACKAGED_SHA256: str | None = None


def catalog() -> list[CatalogEntry]:
    """The packaged catalog, loaded, validated and indexed by name once."""
    global _CATALOG_CACHE, _INDEX, _PACKAGED_SHA256
    if _CATALOG_CACHE is None:
        _CATALOG_CACHE, _INDEX, _PACKAGED_SHA256 = _loaded(None)
    return _CATALOG_CACHE


def entry_by_name(name: str) -> CatalogEntry:
    """The entry with a name or alias of the same canonical key as ``name``."""
    catalog()
    try:
        return _INDEX[canonical_key(name)]
    except KeyError:
        raise CatalogError(f"no catalog entry named {name!r}") from None
