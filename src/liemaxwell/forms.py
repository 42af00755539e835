"""Two-form algebra: Hodge star, self-dual splitting, wedge pairing.

A 2-form is a vector of six coefficients in the fixed order
``e^12, e^13, e^14, e^23, e^24, e^34``.  The star is defined by
``F ^ *G = <F, G>_g vol_g`` with ``vol_g = sign * sqrt(det g) * e^1234`` and
``<F, G> = (1/2) F_ij G^ij``; it is realized by raising both indices with
``g^{-1}`` and contracting with the Levi-Civita symbol.

``inner_product``, ``norm_sq``, ``volume_coefficient`` and ``hodge_star``
take leading axes: metrics (..., 4, 4) with forms (..., 6), one result per
leading index.  ``inner_product`` and ``norm_sq`` keep exact (Fraction)
input exact; ``hodge_star`` casts to float, and ``hodge_star_exact`` is the
exact star, carrying sqrt(det g) as a separate radical; exact input meets
the Levi-Civita symbol as ``_smallmat.as_fractions(LEVI4)``, the package's
one Fraction converter.  An orientation is the integer 1 or -1; 1.0, True
and "1" are refused.  Whether F is co-closed, d(*F) = 0, is decided in one
place: ``maxwell.em_residual``, by its ``r_dstarF`` at ``TOL_SOLUTION``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

from . import _smallmat
from .lie_algebra import DIM, PAIRS, two_form_coeffs, two_form_matrix
from .metric_geometry import _match_dtypes


def _levi_civita_symbol() -> np.ndarray:
    eps = np.zeros((DIM,) * 4, dtype=int)
    for perm in permutations(range(DIM)):
        sign = 1
        p = list(perm)
        for i in range(DIM):
            for j in range(i + 1, DIM):
                if p[i] > p[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


LEVI4 = _levi_civita_symbol()

#: The star as a matrix: coefficient p of eps_{klmn} F^{mn}, (k, l) the p-th
#: pair, is row (m, n) of F^{mn} flattened times column p.
_STAR_PAIRS = np.array([LEVI4[i, j] for i, j in PAIRS], dtype=float).reshape(6, 16).T.copy()


def _is_orientation(value) -> bool:
    """Whether ``value`` is the integer 1 or -1 (1.0, True and "1" are not)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value in (1, -1))


def _check_orientation(orientation: int) -> None:
    if not _is_orientation(orientation):
        raise ValueError(f"orientation must be the integer 1 or -1, got {orientation!r}")


def _raised(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """F^{mn} as a matrix: both indices of the 2-form raised with g^{-1}."""
    g_inv = _smallmat.inverse(g)
    return g_inv @ two_form_matrix(a, dtype=g.dtype) @ g_inv


def inner_product(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """<F, G> = (1/2) F_ij G^ij."""
    arrs = _match_dtypes(np.asarray(g), np.asarray(a), np.asarray(b))
    g, a, b = arrs
    fu = _raised(g, a)
    gm = two_form_matrix(b, dtype=g.dtype)
    return np.einsum("...ij,...ij->...", gm, fu) / 2


def norm_sq(g: np.ndarray, a: np.ndarray):
    return inner_product(g, a, a)


def _positive_det(g: np.ndarray):
    """det g (one value, or an array over a stack); a ValueError naming the
    first non-positive one."""
    det = _smallmat.determinant(g)
    ok = det > 0
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        bad = np.asarray(det)[~np.asarray(ok)]
        raise ValueError(f"metric determinant must be positive, got {float(bad.flat[0])}")
    return det


def volume_coefficient(g: np.ndarray, orientation: int = 1):
    """Coefficient of e^1234 in vol_g (a float, or an array over a stack of
    metrics); errors on a non-positive det."""
    _check_orientation(orientation)
    det = _positive_det(np.asarray(g))
    if np.ndim(det):
        return orientation * np.sqrt(det.astype(float))
    return orientation * float(np.sqrt(float(det)))


def hodge_star(g: np.ndarray, a: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Star of 2-forms: (*F)_kl = (sign sqrt(det g)/2) eps_{klmn} F^{mn}."""
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    vol = volume_coefficient(g, orientation)
    fu = _raised(g, a)
    coeffs = fu.reshape(fu.shape[:-2] + (DIM * DIM,)) @ _STAR_PAIRS / 2
    return np.asarray(vol)[..., None] * coeffs


def hodge_star_exact(g: np.ndarray, a: np.ndarray,
                     orientation: int = 1) -> tuple[np.ndarray, Fraction]:
    """Exact star for rational data: returns (coefficients, root).

    The star equals ``coefficients * sqrt(root)``.  When det g is a perfect
    rational square the radical is absorbed and root is 1; otherwise root is
    det g itself, the single radical the closed-form fixtures need.
    """
    _check_orientation(orientation)
    g, a = _match_dtypes(np.asarray(g), np.asarray(a))
    det = _positive_det(g)
    fu = _raised(g, a)
    mat = np.einsum("klmn,mn->kl", _smallmat.as_fractions(LEVI4), fu) / 2
    coeffs = two_form_coeffs(mat) * Fraction(orientation)
    root = _smallmat.sqrt_fraction(det)
    if root is not None:
        return coeffs * root, Fraction(1)
    return coeffs, det


def sd_asd_split(g: np.ndarray, a: np.ndarray,
                 orientation: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(F+, F-) with F+- = (F +- *F)/2; *F+ = F+ and *F- = -F-."""
    star = hodge_star(g, a, orientation)
    a = np.asarray(a, dtype=float)
    return (a + star) / 2, (a - star) / 2


def wedge_two_two(a: np.ndarray, b: np.ndarray):
    """Coefficient of e^1234 in F ^ G (metric-free pairing of 2-forms)."""
    fm = two_form_matrix(np.asarray(a))
    gm = two_form_matrix(np.asarray(b), dtype=fm.dtype)
    eps = _smallmat.as_fractions(LEVI4) if fm.dtype == object else LEVI4
    return np.einsum("ijkl,ij,kl->", eps, fm, gm) / 4


def two_form(**coeffs) -> np.ndarray:
    """Convenience constructor: two_form(e12=1.0, e34=-2.0)."""
    labels = {f"e{i + 1}{j + 1}": p for p, (i, j) in enumerate(PAIRS)}
    out = np.zeros(6)
    for key, val in coeffs.items():
        if key not in labels:
            raise ValueError(f"unknown 2-form coefficient {key!r}")
        out[labels[key]] = val
    return out
