"""tropcay: exact enumeration and classification of smooth tropical curves
obtained by slicing regular unimodular triangulations of Cayley polytopes."""

from .enumeration import EnumerationFilters, Enumerator
from .geometry import (
    PointConfiguration,
    Subdivision,
    WeightVector,
    affine_reduce,
    cayley_config,
    normalized_volume,
    regular_subdivision,
    simplex_lattice_points,
)
from .graphs import CanonicalForm, ClassTable, canonical_form, census, classify
from .lp import strict_lp_feasible
from .triangulation import (
    Flip,
    SymmetryGroup,
    Triangulation,
    apply_symmetry,
    builtin_symmetry,
    flips,
    is_regular,
    is_unimodular,
    orbit_canonical_rep,
    placing_triangulation,
)
from .tropical import (
    CurveGraph,
    CurveReport,
    MixedCell,
    MixedSubdivision,
    ValuedPolynomial,
    cycle_length,
    dual_curve_3d,
    dual_curve_planar,
    genus,
    mixed_subdivision,
    tropicalize_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "ClassTable",
    "CurveGraph",
    "CurveReport",
    "EnumerationFilters",
    "Enumerator",
    "Flip",
    "MixedCell",
    "MixedSubdivision",
    "PointConfiguration",
    "Subdivision",
    "SymmetryGroup",
    "Triangulation",
    "ValuedPolynomial",
    "WeightVector",
    "affine_reduce",
    "apply_symmetry",
    "builtin_symmetry",
    "canonical_form",
    "cayley_config",
    "census",
    "classify",
    "cycle_length",
    "dual_curve_3d",
    "dual_curve_planar",
    "flips",
    "genus",
    "is_regular",
    "is_unimodular",
    "mixed_subdivision",
    "normalized_volume",
    "orbit_canonical_rep",
    "placing_triangulation",
    "regular_subdivision",
    "simplex_lattice_points",
    "strict_lp_feasible",
    "tropicalize_pair",
]
