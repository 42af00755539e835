"""Almost-complex structures from 2-forms: integrability and Kahler diagnostics.

The endomorphism associated with a nondegenerate 2-form is fixed by
``omega(x, y) = g(Jx, y)``; as matrices ``J = -g^{-1} W`` where ``W`` is the
antisymmetric coefficient matrix of omega.  J is always derived from (g, omega)
here, never passed in freely, so incompatible triples cannot arise.
"""

from __future__ import annotations

import numpy as np

from .lie_algebra import DIM, LieAlgebra, d_two_form, two_form_coeffs, two_form_matrix
from .metric_geometry import curvature_summary

#: Compatibility tolerance; structures come from closed-form fixtures or
#: solver output already polished below 1e-9.
TOL_COMPAT = 1e-10

KAHLER = "Kahler"
ALMOST_KAHLER = "AlmostKahlerNonIntegrable"
NOT_COMPATIBLE = "NotCompatible"
NOT_CLOSED = "NotClosed"


def endomorphism_from_form(g: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """J with omega(x, y) = g(Jx, y); columns hold the images of the basis."""
    g = np.asarray(g, dtype=float)
    w = two_form_matrix(np.asarray(omega, dtype=float))
    return -np.linalg.inv(g) @ w


def is_compatible(g: np.ndarray, omega: np.ndarray) -> bool:
    """True iff J^2 = -I and g(Jx, Jy) = g(x, y), each within TOL_COMPAT."""
    g = np.asarray(g, dtype=float)
    J = endomorphism_from_form(g, omega)
    acs = np.abs(J @ J + np.eye(DIM)).max()
    iso = np.abs(J.T @ g @ J - g).max()
    return bool(acs <= TOL_COMPAT and iso <= TOL_COMPAT)


def nijenhuis(L: LieAlgebra, J: np.ndarray) -> tuple[float, np.ndarray]:
    """N(x, y) = [Jx, Jy] - J[Jx, y] - J[x, Jy] - [x, y] on all basis pairs.

    Returns (max component magnitude, tensor N[i, j, :]).
    """
    J = np.asarray(J, dtype=float)
    if np.abs(J @ J + np.eye(DIM)).max() > 1e-8:
        raise ValueError("J is not an almost-complex structure (J^2 != -I)")
    c = np.asarray(L.c, dtype=float)
    br_jj = np.einsum("ai,bj,abk->ijk", J, J, c)     # [Jx, Jy]
    br_jx = np.einsum("ai,ajm->ijm", J, c)           # [Jx, y]
    br_xj = np.einsum("bj,ibm->ijm", J, c)           # [x, Jy]
    n = (br_jj
         - np.einsum("km,ijm->ijk", J, br_jx)
         - np.einsum("km,ijm->ijk", J, br_xj)
         - c)
    return float(np.abs(n).max()), n


def ricci_form(L: LieAlgebra, g: np.ndarray, omega: np.ndarray):
    """Trace-free Ricci form rho0(x, y) = Ric0(Jx, y), J-invariance defect of Ric,
    and the full Ricci form rho = rho0 + (s/4) omega as a cross-check.

    Returns (rho0 coefficients, rho coefficients, defect).  rho0 is genuinely
    antisymmetric only when the defect vanishes; the antisymmetric part is
    returned and the defect quantifies the deviation.
    """
    g = np.asarray(g, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if not is_compatible(g, omega):
        raise ValueError("(g, omega) is not a compatible almost-Hermitian pair")
    J = endomorphism_from_form(g, omega)
    _, _, ric, s, ric0 = curvature_summary(L, g)
    rho0_mat = J.T @ ric0          # rho0[i, j] = Ric0(J e_i, e_j)
    rho_mat = J.T @ ric
    defect = float(np.abs(J.T @ ric @ J - ric).max())
    rho0 = two_form_coeffs((rho0_mat - rho0_mat.T) / 2)
    rho = two_form_coeffs((rho_mat - rho_mat.T) / 2)
    return rho0, rho, defect


def hermitian_diagnostics(L: LieAlgebra, g: np.ndarray, omega: np.ndarray) -> dict:
    """The Hermitian type of (g, omega), JSON-ready for an EMReport, with
    its evidence: compatibility, max |d omega|, the largest Nijenhuis
    component of a closed compatible pair, and the Ricci forms of a Kahler
    or almost-Kahler one."""
    g = np.asarray(g, dtype=float)
    omega = np.asarray(omega, dtype=float)
    compatible = is_compatible(g, omega)
    evidence = {"compatible": compatible, "d_omega": float(np.abs(d_two_form(L, omega)).max())}
    if not compatible:
        kind = NOT_COMPATIBLE
    elif evidence["d_omega"] > TOL_COMPAT:
        kind = NOT_CLOSED
    else:
        evidence["nijenhuis"], _ = nijenhuis(L, endomorphism_from_form(g, omega))
        kind = KAHLER if evidence["nijenhuis"] <= TOL_COMPAT else ALMOST_KAHLER
    out = {"type": kind, **evidence, "omega": [float(x) for x in omega]}
    if kind in (KAHLER, ALMOST_KAHLER):
        rho0, rho, defect = ricci_form(L, g, omega)
        out["rho0"] = [float(x) for x in rho0]
        out["rho"] = [float(x) for x in rho]
        out["ricci_j_invariance_defect"] = defect
    return out
