"""Workbench for constructing and verifying quantum CSS product codes."""

from .analysis import (
    CSSParams,
    LogicalBasis,
    check_commutation,
    css_distance,
    css_params,
    hgp_canonical_logicals,
    hgp_distance_bound,
    hgp_k_formula,
    logical_count,
    lp_bp_coincide,
    search_noncommuting_lp,
)
from .classical import ClassicalCode, CodeParams, SystematicBasis
from .errors import BudgetError, DimensionError, FormatError, PreconditionError
from .gf2 import BitMatrix, RrefResult, kernel_basis, kron, matmul, rank, rref
from .groups import (
    FiniteGroup,
    GroupAlgebraElement,
    GroupAlgebraMatrix,
    binary_map,
    conj_transpose,
    parse_group_spec,
    ring_kron_identity,
)
from .products import (
    CoordinateTable,
    CSSCode,
    balanced_product,
    css_from_matrices,
    hgp,
    hgp_of_lifts,
    lift_with_regular_actions,
    lifted_product,
)
from .render import (
    Oblique,
    OperatorOverlay,
    RenderSpec,
    emit,
    line_layout_table,
    parse_layout,
)
from .tanner import (
    CoveringMap,
    GroupAction,
    PlainGraph,
    QuotientLayout,
    TannerGraph,
    cartesian_product_plain,
    has_fixed_edge,
    is_free,
    lift_from_ring_matrix,
    product_action_plain,
    quotient,
    verify_covering,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
