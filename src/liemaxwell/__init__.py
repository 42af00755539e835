"""Left-invariant Einstein-Maxwell geometry on 4-dimensional Lie algebras."""

from .families import FAMILIES, family_by_id
from .forms import hodge_star, inner_product, is_coclosed, norm_sq, sd_asd_split, two_form
from .kahler import (classify_hermitian_type, endomorphism_from_form, is_compatible,
                     nijenhuis, ricci_form)
from .lie_algebra import (CatalogEntry, LieAlgebra, bracket, catalog, catalog_checksum,
                          closedness_constraints, d_one_form, d_two_form, entry_by_name,
                          from_brackets, instantiate, is_unimodular, jacobi_defect,
                          load_catalog, metric_from_params)
from .maxwell import EMReport, em_residual, stress_energy, verify_kahler_decomposition
from .metric_geometry import (is_einstein, levi_civita, ricci, riemann, scalar_curvature,
                              traceless_ricci, validate_metric)
from .solver import (Candidate, SearchOutcome, SearchRequest, classify_algebra, classify_table,
                     multistart_many, multistart_search, refine, residual_vector,
                     verify_solution_family)

__version__ = "0.1.0"
