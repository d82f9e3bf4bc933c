"""covmin: exact covering minima of rational polytopes.

Exact rational geometry of numbers at desk scale: closed-form covering
minima for special polytope families, a certified branch-and-bound
covering-radius oracle, lattice width and successive minima, and the
projection / intersection / successive-minima upper-bound machinery.
"""

from .bounds import (
    BoundReport,
    bound_table,
    intersection_bound,
    kl_bound,
    projection_bound,
    projection_recursion,
    terminal_intersection_bound,
    terminal_kl_bound,
    terminal_projection_bound,
    weighted_intersection_bound,
)
from .errors import (
    BudgetExceeded,
    CovminError,
    EmptySlice,
    Inconsistent,
    IndexOutOfRange,
    InputError,
    MissingLambda,
    NonPositiveWeight,
    NotFullDimensional,
    NotLAB,
    NotSymmetric,
    OriginMissing,
    OriginNotInterior,
    Singular,
    SliceDegenerate,
    UnsortedWeights,
)
from .families import (
    MinimaTable,
    TableEntry,
    WeightVector,
    box,
    box_minima_table,
    crosspolytope,
    crosspolytope_table,
    cube,
    direct_sum_minima,
    direct_sum_table,
    match_box,
    match_segment_sum,
    match_weighted_simplex,
    recognize,
    segment,
    terminal_polytope,
    terminal_simplex,
    weighted_conjectured_minimum,
    weighted_covering_radius,
    weighted_minima_table,
    weighted_simplex,
    weighted_slice,
    weights,
)
from .lattice import Lattice, group_basis
from .linalg import Rat, RatMat, RatVec, format_rat, hnf, mat_inverse, parse_rat
from .oracle import (
    CoveringCertificate,
    DirectSumCheck,
    SandwichResult,
    covering_radius,
    covering_radius_value,
    lab_minima,
    lattice_width,
    minima_sandwich,
    successive_minima,
    upper_bound_reports,
    verify_direct_sum,
)
from .polytope import (
    Polytope,
    center_translate,
    coord_project,
    coord_slice,
    difference_body,
    direct_sum,
    gauge,
    index_set,
    is_locally_anti_blocking,
    support,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"
