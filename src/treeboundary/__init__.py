"""Exact arithmetic on the boundary of a homogeneous tree.

The package models the free product of s order-two and t infinite-order
cyclic groups acting on the ends of its Cayley tree: reduced words,
cylinder sets with exact rational measure, the translation action and
its scaling tables, measure-preserving cylinder swaps, a transitivity
certificate for ergodicity, and constructive witnesses pinning the set
of essential scaling values to the powers of the branching number.
"""

from .action import (
    RNTable,
    act_cylinder,
    act_point,
    cyclic_core,
    fixed_points,
    rn_exponent,
    rn_table,
    rn_value,
)
from .cylinders import (
    BoundaryPoint,
    Cylinder,
    CylinderUnion,
    periodic_extension,
)
from .fullgroup import (
    Piece,
    PiecewiseTranslation,
    SwapReport,
    build_swap,
    transitivity_check,
    verify_swap,
)
from .ratios import (
    ClassificationReport,
    Witness,
    classify,
    find_witness,
    power_exponent,
    realized_rn_values,
)
from .sampling import EmpiricalRN, SampleBatch, chi_square, empirical_rn, frequency_sigma, sample
from .words import (
    DEFAULT_CELL_LIMIT,
    Presentation,
    ResourceLimitError,
    Word,
    cuntz_krieger_matrix,
    sphere,
    sphere_size,
)

__all__ = [
    "BoundaryPoint",
    "ClassificationReport",
    "Cylinder",
    "CylinderUnion",
    "DEFAULT_CELL_LIMIT",
    "EmpiricalRN",
    "Piece",
    "PiecewiseTranslation",
    "Presentation",
    "RNTable",
    "ResourceLimitError",
    "SampleBatch",
    "SwapReport",
    "Witness",
    "Word",
    "act_cylinder",
    "act_point",
    "build_swap",
    "chi_square",
    "classify",
    "cuntz_krieger_matrix",
    "cyclic_core",
    "empirical_rn",
    "find_witness",
    "fixed_points",
    "frequency_sigma",
    "periodic_extension",
    "power_exponent",
    "realized_rn_values",
    "rn_exponent",
    "rn_table",
    "rn_value",
    "sample",
    "sphere",
    "sphere_size",
    "transitivity_check",
    "verify_swap",
]
