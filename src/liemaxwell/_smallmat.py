"""Dtype-generic linear algebra for the tiny systems this package solves.

All matrices here are at most 6x6.  ``rref`` is the one elimination: it runs
on float arrays and on object arrays of Fractions alike, and exactness is
preserved because only field operations are used.  Pivoting is by absolute
value, with exact-zero tests in object mode and a relative tolerance in float
mode.  Float ``inverse`` and ``determinant`` are numpy's, the exact ones come
from ``rref``.  ``as_fractions`` is the one converter to Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RREF_TOL = 1e-12


def is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def as_fractions(values) -> np.ndarray:
    """An object array of Fractions with the shape of ``values``; each number
    passes through its Python scalar (``.tolist()``, ``.item()``), since a
    Fraction of a numpy integer keeps it as numerator and wraps on overflow."""
    a = np.asarray(values)
    out = np.empty(a.shape, dtype=object)
    flat = out.reshape(-1)
    for idx, v in enumerate(a.reshape(-1).tolist()):
        if isinstance(v, np.generic):
            v = v.item()
        flat[idx] = v if isinstance(v, Fraction) else Fraction(v)
    return out


def rref(mat: np.ndarray) -> tuple[np.ndarray, list[int], list, int]:
    """Reduced row-echelon form; returns (R, pivot_columns, heads, sign).

    ``heads`` are the pivots as taken, before their rows are scaled to 1, and
    ``sign`` is -1 to the number of row swaps: for a square matrix whose
    columns are all pivot columns, det = sign * prod(heads).
    """
    a = np.asarray(mat)
    rows, pivots, heads, sign = _rref_rows(a)
    return np.array(rows, dtype=a.dtype).reshape(a.shape), pivots, heads, sign


def _rref_rows(a: np.ndarray) -> tuple[list[list], list[int], list, int]:
    """``rref`` of a on the rows of ``a.tolist()``: Python floats or
    Fractions, whose field operations round as numpy's elementwise ones do,
    at a fraction of their cost on rows of at most a dozen entries."""
    rows = a.tolist()
    n_rows, n_cols = a.shape
    thr = 0.0 if is_exact(a) else RREF_TOL * max(1.0, float(np.abs(a).max(initial=0.0)))
    pivots: list[int] = []
    heads: list = []
    sign = 1
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        best = max(range(row, n_rows), key=lambda r: abs(rows[r][col]))
        if abs(rows[best][col]) <= thr:
            continue
        if best != row:
            rows[row], rows[best] = rows[best], rows[row]
            sign = -sign
        head = rows[row][col]
        heads.append(head)
        pivot = rows[row] = [v / head for v in rows[row]]
        for r in range(n_rows):
            factor = rows[r][col]
            if r != row and abs(factor) > 0:
                rows[r] = [v - factor * w for v, w in zip(rows[r], pivot)]
        pivots.append(col)
        row += 1
    return rows, pivots, heads, sign


def nullspace(mat: np.ndarray) -> tuple[list[np.ndarray], list[int]]:
    """Kernel basis in canonical rref form, and the free columns: basis
    vector i has a 1 in free column i and a 0 in every other free column."""
    a = np.asarray(mat)
    n_cols = a.shape[1]
    r, pivots, _, _ = _rref_rows(a)
    free = [c for c in range(n_cols) if c not in pivots]
    zero, one = (Fraction(0), Fraction(1)) if is_exact(a) else (0.0, 1.0)
    basis = []
    for c in free:
        v = [zero] * n_cols
        v[c] = one
        for row_idx, p in enumerate(pivots):
            v[p] = -r[row_idx][c]
        basis.append(v)
    return list(np.array(basis, dtype=a.dtype).reshape(len(free), n_cols)), free


def inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a matrix, or of each matrix of a stack (..., n, n); an exact
    one is the right half of the rref of [A | I]."""
    a = np.asarray(mat)
    if not is_exact(a):
        return np.linalg.inv(a)
    if a.ndim > 2:
        return _each(inverse, a, a.shape)
    n = a.shape[0]
    r, pivots, _, _ = rref(np.hstack([a, as_fractions(np.eye(n, dtype=int))]))
    if pivots != list(range(n)):
        raise np.linalg.LinAlgError("singular matrix")
    return r[:, n:]


def determinant(mat: np.ndarray):
    """Determinant of a matrix (a float or Fraction), or an array of the
    determinants of a stack (..., n, n); an exact one is the signed product
    of the pivots of its rref."""
    a = np.asarray(mat)
    if not is_exact(a):
        det = np.linalg.det(a)
        return float(det) if a.ndim == 2 else det
    if a.ndim > 2:
        return _each(determinant, a, a.shape[:-2])
    _, pivots, heads, sign = rref(a)
    return sign * math.prod(heads) if len(pivots) == len(a) else Fraction(0)


def _each(fn, a: np.ndarray, shape: tuple) -> np.ndarray:
    """``fn`` of each exact matrix of a stack, in an object array of ``shape``."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(a.shape[:-2]):
        out[idx] = fn(a[idx])
    return out


def sqrt_fraction(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if value < 0:
        raise ValueError("negative value has no real square root")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)
