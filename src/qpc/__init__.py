"""Workbench for constructing and verifying quantum CSS product codes.

Each public name is imported from its home module on first access
(PEP 562), so `import qpc` loads no submodule.
"""

import importlib

# The submodule that defines each public name.
_EXPORTS = {
    "analysis": "CSSParams check_commutation css_distance css_params hgp_distance_bound"
                " hgp_k_formula logical_count",
    "classical": "ClassicalCode",
    "errors": "BudgetError DimensionError FormatError PreconditionError",
    "gf2": "BitMatrix kernel_basis kron matmul rank rref",
    "groups": "FiniteGroup GroupAlgebraElement GroupAlgebraMatrix binary_map parse_group_spec",
    "products": "CSSCode balanced_product css_from_matrices hgp lifted_product",
    "render": "CoordinateTable OperatorOverlay RenderSpec emit line_layout_table parse_layout",
    "tanner": "GroupAction PlainGraph TannerGraph has_fixed_edge is_free lift_from_ring_matrix"
              " quotient verify_covering",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
