"""The four explicit solution families and their verification data.

Each family supplies: a default parameter grid, the candidate data at a grid
point, the compatible 2-form for a given orientation, the expected scale in
the (omega/2, rho0) decomposition, and the expected trace-free Ricci form.

The expected rho0 values are pinned twice over: by direct curvature
evaluation and by the decomposition identity rho0 = kappa F^- that ties the
Ricci form to the anti-self-dual part of the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import two_form
from .kahler import ALMOST_KAHLER, KAHLER
from .lie_algebra import CatalogError, catalog, entry_by_name


@dataclass(frozen=True)
class Family:
    id: str
    default_grid: tuple[dict, ...]
    algebra_params: Callable[[dict], dict]
    metric_params: Callable[[dict], dict]
    f_coeffs: Callable[[dict], np.ndarray]
    expected_kappa: Callable[[dict, int], float]
    expected_rho0: Callable[[dict, int], np.ndarray]
    expected_type: Callable[[int], str]
    omega_from_metric: Callable[[dict, int], np.ndarray]
    orientations: tuple[int, ...] = (1,)

    @property
    def entry_name(self) -> str:
        """Name of the catalog entry whose ``family.id`` is this family's id."""
        return next(e.name for e in catalog() if e.family and e.family["id"] == self.id)

    def kahler_form(self, point: dict, orientation: int) -> np.ndarray:
        """The compatible 2-form at a grid point: ``omega_from_metric`` of its metric."""
        return self.omega_from_metric(self.metric_params(point), orientation)


def _grid_2a2() -> tuple[dict, ...]:
    pts = []
    for a12 in (0.0, 0.5, 1.0, 2.0):
        for a34 in (0.5, 1.0, math.sqrt(3), 3.0):
            a5 = (1 + a34 ** 2) / (1 + a12 ** 2)
            if abs(a5 - 1) < 1e-12:
                continue  # excluded: the metric is Einstein there
            pts.append({"a12": a12, "a34": a34})
    return tuple(pts)


_FAM_2A2 = Family(
    id="2A2",
    default_grid=_grid_2a2(),
    algebra_params=lambda p: {},
    metric_params=lambda p: {"a1": 0.0, "a2": 0.0, "a3": 0.0, "a4": 0.0,
                             "a5": (1 + p["a34"] ** 2) / (1 + p["a12"] ** 2)},
    f_coeffs=lambda p: two_form(e12=p["a12"], e34=p["a34"]),
    expected_kappa=lambda p, o: p["a34"] / math.sqrt(
        (1 + p["a34"] ** 2) / (1 + p["a12"] ** 2)) + p["a12"],
    expected_rho0=lambda p, o: _rho0_2a2(p),
    omega_from_metric=lambda mp, o: two_form(e12=1.0, e34=o * math.sqrt(mp["a5"])),
    expected_type=lambda o: KAHLER,
)


def _rho0_2a2(p: dict) -> np.ndarray:
    a5 = (1 + p["a34"] ** 2) / (1 + p["a12"] ** 2)
    return two_form(e12=(1 - a5) / (2 * a5), e34=(a5 - 1) / (2 * math.sqrt(a5)))


_FAM_A22A1 = Family(
    id="A2+2A1",
    default_grid=tuple({"a12": a12, "a34": math.sqrt(1 + a12 ** 2)}
                       for a12 in (0.0, 0.5, 1.0, 2.0)),
    algebra_params=lambda p: {},
    metric_params=lambda p: {"a1": 0.0, "a2": 0.0},
    f_coeffs=lambda p: two_form(e12=p["a12"], e34=p["a34"]),
    expected_kappa=lambda p, o: p["a12"] + p["a34"],
    expected_rho0=lambda p, o: two_form(e12=-0.5, e34=0.5 * o),
    omega_from_metric=lambda mp, o: two_form(e12=1.0, e34=float(o)),
    expected_type=lambda o: KAHLER,
)

_FAM_A46 = Family(
    id="A46a0",
    default_grid=tuple({"a": a, "a14": a14, "a23": math.sqrt(a ** 2 + a14 ** 2)}
                       for a in (0.5, 1.0, 2.0) for a14 in (0.0, 1.0)),
    algebra_params=lambda p: {"a": p["a"]},
    metric_params=lambda p: {"a1": 0.0, "a2": 0.0, "a3": 1.0},
    f_coeffs=lambda p: two_form(e14=p["a14"], e23=p["a23"]),
    expected_kappa=lambda p, o: p["a14"] + p["a23"],
    expected_rho0=lambda p, o: two_form(e14=-p["a"] ** 2 / 2, e23=o * p["a"] ** 2 / 2),
    omega_from_metric=lambda mp, o: two_form(e14=1.0, e23=float(o)),
    expected_type=lambda o: KAHLER,
)

_FAM_A49 = Family(
    id="A49half",
    default_grid=tuple({"a24": a24, "a13": math.sqrt(1.5 + a24 ** 2)}
                       for a24 in (0.0, 0.5, 1.0, 2.0)),
    algebra_params=lambda p: {},
    metric_params=lambda p: {"a1": 1.0, "a2": 0.0, "a3": 0.0, "a4": 0.0},
    f_coeffs=lambda p: two_form(e13=p["a13"], e24=p["a24"]),
    expected_kappa=lambda p, o: (1.5 / (p["a13"] + p["a24"]) if o == 1
                                 else p["a13"] + p["a24"]),
    expected_rho0=lambda p, o: two_form(e13=0.75, e24=0.75 * o),
    omega_from_metric=lambda mp, o: two_form(e13=1.0, e24=-float(o)),
    expected_type=lambda o: ALMOST_KAHLER if o == 1 else KAHLER,
    orientations=(1, -1),
)

FAMILIES: dict[str, Family] = {f.id: f for f in (_FAM_2A2, _FAM_A22A1, _FAM_A46, _FAM_A49)}


def family_by_id(family_id: str) -> Family:
    """The family of the catalog entry that ``family_id`` names: each family's
    id is a name or alias of its entry, so ids and entry names both work."""
    try:
        family = entry_by_name(family_id).family
    except CatalogError:
        family = None
    if family is None:
        raise CatalogError(f"unknown family {family_id!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[family["id"]]
