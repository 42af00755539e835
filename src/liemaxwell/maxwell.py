"""Stress-energy tensor, the Einstein-Maxwell residual, and candidate reports.

The coupled system checked here is

    Ric0 + [F o F]0 = 0,    dF = 0,    d*F = 0,

with ``[F o F]0 = F g^{-1} F - (1/4) tr_g(F g^{-1} F) g`` the trace-free part
of the electromagnetic stress term.  Under a conformal rescaling g -> t g the
two terms of the stress scale identically (both as 1/t), which is why the
trace-free part survives the rescaling; the tensor itself carries that
conformal weight.

``stress_energy`` and ``em_residual`` take leading axes.  One call of
``em_residual`` with stacked constants (S, 4, 4, 4), metrics (S, 4, 4) and
forms (S, 6) re-verifies S candidates through one pass of the reference chain
(``curvature_summary``, ``stress_energy``, ``hodge_star``, ``d_two_form``,
``norm_sq``), which is how the solver re-verifies each lockstep group's end
points; one algebra with one metric and one form is the S = 1 case.  The
chain is loop-free matmul, einsum and index code that serves exact input
through the same functions.  Reported residuals match a one-at-a-time
evaluation to round-off and may differ from it in the last bits; the
solver's end points do not depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _smallmat
from .forms import hodge_star, inner_product, norm_sq, sd_asd_split
from .lie_algebra import d_two_form, structure_constants, two_form_matrix
from .metric_geometry import _match_dtypes, curvature_summary

#: Residual tolerance below which a candidate counts as a solution; verified
#: closed-form fixtures land near 1e-13, leaving headroom for solver output.
TOL_SOLUTION = 1e-9
TOL_EINSTEIN = 1e-9
TOL_TRIVIAL_F = 1e-9

NON_EINSTEIN_EM = "NonEinsteinEM"
EINSTEIN_NULL_STRESS = "EinsteinWithNullStress"
NOT_A_SOLUTION = "NotASolution"


def stress_energy(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Trace-free stress tensor [F o F]0 (..., 4, 4) of metrics (..., 4, 4)
    and 2-forms (..., 6); symmetric, g-trace-free, and zero exactly when F is
    self-dual or anti-self-dual."""
    g, = _match_dtypes(np.asarray(g))
    fm = two_form_matrix(np.asarray(a), dtype=g.dtype)
    g_inv = _smallmat.inverse(g)
    comp = fm @ g_inv @ fm
    trace = np.einsum("...ij,...ij->...", g_inv, comp)
    return comp - np.asarray(trace / 4)[..., None, None] * g


@dataclass
class EMReport:
    """Residuals and classification of one (metric, 2-form) candidate."""

    r_em: float
    r_dF: float
    r_dstarF: float
    einstein: bool
    trivial_F: bool
    scalar_curvature: float
    classification: str
    hermitian: dict | None = None
    inputs: dict = field(default_factory=dict)

    @property
    def is_solution(self) -> bool:
        """Every residual is within TOL_SOLUTION; a NaN residual never is."""
        return all(r <= TOL_SOLUTION for r in (self.r_em, self.r_dF, self.r_dstarF))

    def to_dict(self) -> dict:
        out = {
            "r_em": self.r_em,
            "r_dF": self.r_dF,
            "r_dstarF": self.r_dstarF,
            "einstein": self.einstein,
            "trivial_F": self.trivial_F,
            "scalar_curvature": self.scalar_curvature,
            "classification": self.classification,
            "tol": TOL_SOLUTION,
        }
        if self.hermitian is not None:
            out["hermitian"] = self.hermitian
        if self.inputs:
            out["inputs"] = self.inputs
        return out


def em_residual(L, g: np.ndarray, a: np.ndarray):
    """Evaluate the full system on candidates and classify them.

    ``L`` is one algebra or stacked constants.  One algebra with g (4, 4)
    and a (6,) gives one EMReport; constants (S, 4, 4, 4) with g (S, 4, 4)
    and a (S, 6) give a list of S reports from one pass of the reference
    chain.  No orientation is needed: reversing it negates *F, and d is
    linear, so every residual and the classification keep their bits.
    """
    c = structure_constants(L)
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    _, _, _, s, ric0 = curvature_summary(c, g)
    em = ric0 + stress_energy(g, a)
    r_em = np.abs(em).max(axis=(-2, -1))
    r_df = np.abs(d_two_form(c, a)).max(axis=-1)
    r_dstar = np.abs(d_two_form(c, hodge_star(g, a))).max(axis=-1)
    einstein = np.abs(ric0).max(axis=(-2, -1)) <= TOL_EINSTEIN
    trivial = np.sqrt(np.maximum(norm_sq(g, a), 0.0)) <= TOL_TRIVIAL_F
    # Each residual on its own: a NaN fails its comparison, where max may drop it.
    solved = (r_em <= TOL_SOLUTION) & (r_df <= TOL_SOLUTION) & (r_dstar <= TOL_SOLUTION)
    reports = []
    for k in [()] if g.ndim == 2 else range(len(g)):
        if solved[k]:
            classification = (EINSTEIN_NULL_STRESS if (einstein[k] or trivial[k])
                              else NON_EINSTEIN_EM)
        else:
            classification = NOT_A_SOLUTION
        reports.append(EMReport(
            r_em=float(r_em[k]), r_dF=float(r_df[k]), r_dstarF=float(r_dstar[k]),
            einstein=bool(einstein[k]), trivial_F=bool(trivial[k]),
            scalar_curvature=float(s[k]),
            classification=classification,
            inputs={"f_coeffs": a[k].tolist(), "metric": g[k].tolist()},
        ))
    return reports[0] if g.ndim == 2 else reports


def verify_kahler_decomposition(g: np.ndarray, a: np.ndarray, omega: np.ndarray,
                                rho0: np.ndarray, orientation: int = 1) -> tuple[float, float]:
    """Best single scale k with omega/2 ~ F+/k and rho0 ~ k F-.

    Minimizes ``|omega/2 - F+/k|^2 + |rho0 - k F-|^2`` in the metric norm over
    k != 0.  Stationarity is a quartic in k; the minimum is taken on the
    positive branch, falling back to negative roots only when no positive root
    exists.  Returns (k, minimized defect).
    """
    g = np.asarray(g, dtype=float)
    fp, fm = sd_asd_split(g, np.asarray(a, dtype=float), orientation)
    half_omega = np.asarray(omega, dtype=float) / 2
    rho0 = np.asarray(rho0, dtype=float)

    np_sq = float(norm_sq(g, fp))
    nm_sq = float(norm_sq(g, fm))
    ip_rho_fm = float(inner_product(g, rho0, fm))
    ip_w_fp = float(inner_product(g, half_omega, fp))
    if np_sq <= 1e-24 and float(norm_sq(g, omega)) > 1e-24:
        raise ValueError("F+ vanishes but omega does not: no admissible scale")

    def defect(kappa: float) -> float:
        return float(norm_sq(g, half_omega - fp / kappa) + norm_sq(g, rho0 - kappa * fm))

    # d/dk of the objective: nm_sq k^4 - ip_rho_fm k^3 + ip_w_fp k - np_sq = 0
    coeffs = np.array([nm_sq, -ip_rho_fm, 0.0, ip_w_fp, -np_sq])
    if np.abs(coeffs).max() <= 1e-24:
        return 1.0, defect(1.0)
    roots = np.roots(coeffs)
    candidates = [float(r.real) for r in roots if abs(r.imag) < 1e-9 and abs(r.real) > 1e-12]
    if not candidates:
        raise ValueError("no stationary scale found")
    positive = [k for k in candidates if k > 0]
    pool = positive if positive else candidates
    kappa = min(pool, key=defect)
    return float(kappa), defect(kappa)
