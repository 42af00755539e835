"""Left-invariant Einstein-Maxwell geometry on 4-dimensional Lie algebras.

Every name in ``__all__`` resolves on first use, and its submodule loads on
demand: ``import liemaxwell`` alone loads none, and the first
``liemaxwell.multistart_search`` imports ``liemaxwell.solver``.  A resolved
name is not kept in the package namespace, so it is always the object its
home submodule holds at that moment.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the names it re-exports here.
_EXPORTS = {
    "families": "FAMILIES family_by_id",
    "forms": "hodge_star inner_product norm_sq sd_asd_split two_form",
    "kahler": "endomorphism_from_form is_compatible nijenhuis ricci_form",
    "lie_algebra": "CatalogEntry LieAlgebra bracket catalog catalog_checksum d_one_form "
                   "d_two_form entry_by_name instantiate jacobi_defect "
                   "load_catalog metric_from_params",
    "maxwell": "EMReport em_residual stress_energy verify_kahler_decomposition",
    "metric_geometry": "validate_metric",
    "solver": "Candidate SearchOutcome SearchRequest classify_algebra classify_table "
              "multistart_many multistart_search refine residual_vector verify_solution_family",
}
#: Re-exported name -> its home submodule.
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
