"""Dtype-generic linear algebra for the tiny systems this package solves.

All matrices here are at most 6x6.  The routines run on float arrays and on
object arrays of Fractions alike; exactness is preserved because only field
operations are used.  Pivoting is by absolute value, with exact-zero tests in
object mode and a relative tolerance in float mode.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RREF_TOL = 1e-12


def is_exact(arr: np.ndarray) -> bool:
    return arr.dtype == object


def _zero_threshold(a: np.ndarray) -> float:
    if is_exact(a):
        return 0.0
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return RREF_TOL * max(1.0, scale)


def rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form; returns (R, pivot_columns)."""
    a = np.array(mat, copy=True)
    n_rows, n_cols = a.shape
    thr = _zero_threshold(a)
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        sub = a[row:, col]
        best = max(range(len(sub)), key=lambda r: abs(sub[r]))
        if abs(sub[best]) <= thr:
            continue
        if best != 0:
            a[[row, row + best]] = a[[row + best, row]]
        a[row] = a[row] / a[row, col]
        for r in range(n_rows):
            if r != row and abs(a[r, col]) > 0:
                a[r] = a[r] - a[r, col] * a[row]
        pivots.append(col)
        row += 1
    return a, pivots


def nullspace(mat: np.ndarray) -> list[np.ndarray]:
    """Kernel basis with a 1 in each free column (canonical rref form)."""
    a = np.asarray(mat)
    n_cols = a.shape[1]
    r, pivots = rref(a)
    free = [c for c in range(n_cols) if c not in pivots]
    one = Fraction(1) if is_exact(a) else 1.0
    basis = []
    for c in free:
        v = np.zeros(n_cols, dtype=a.dtype)
        v[c] = one
        for row_idx, p in enumerate(pivots):
            v[p] = -r[row_idx, c]
        basis.append(v)
    return basis


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a square nonsingular system by Gaussian elimination."""
    a = np.array(mat, copy=True)
    b = np.array(rhs, copy=True)
    n = a.shape[0]
    thr = _zero_threshold(a)
    for col in range(n):
        best = col + max(range(n - col), key=lambda r: abs(a[col + r, col]))
        if abs(a[best, col]) <= thr:
            raise np.linalg.LinAlgError("singular matrix")
        if best != col:
            a[[col, best]] = a[[best, col]]
            b[[col, best]] = b[[best, col]]
        for r in range(col + 1, n):
            f = a[r, col] / a[col, col]
            if abs(f) > 0:
                a[r] = a[r] - f * a[col]
                b[r] = b[r] - f * b[col]
    x = np.zeros(n, dtype=a.dtype)
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc = acc - a[r, c] * x[c]
        x[r] = acc / a[r, r]
    return x


def inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a matrix, or of each matrix of a stack (..., n, n)."""
    a = np.asarray(mat)
    if not is_exact(a):
        return np.linalg.inv(a)
    if a.ndim > 2:
        return _each(inverse, a, a.shape)
    n = a.shape[0]
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=object)
        e[j] = Fraction(1)
        cols.append(solve(a, e))
    return np.stack(cols, axis=1)


def determinant(mat: np.ndarray):
    """Determinant of a matrix (a float or Fraction), or an array of the
    determinants of a stack (..., n, n)."""
    a = np.asarray(mat)
    if not is_exact(a):
        det = np.linalg.det(a)
        return float(det) if a.ndim == 2 else det
    if a.ndim > 2:
        return _each(determinant, a, a.shape[:-2])
    a = np.array(a, copy=True)
    n = a.shape[0]
    det = Fraction(1)
    for col in range(n):
        best = col + max(range(n - col), key=lambda r: abs(a[col + r, col]))
        if a[best, col] == 0:
            return Fraction(0)
        if best != col:
            a[[col, best]] = a[[best, col]]
            det = -det
        det *= a[col, col]
        for r in range(col + 1, n):
            f = a[r, col] / a[col, col]
            if f != 0:
                a[r] = a[r] - f * a[col]
    return det


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
