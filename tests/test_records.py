"""qpc's records are `typing.NamedTuple`s: what they keep and what they widen.

Each record is built twice from equal fields.  The two copies are equal
and hash alike (records holding a list or a dict do not hash, as before),
a copy with one field changed is unequal, `repr` names every field, and
no field can be set.  What is new: a record equals the plain tuple of its
fields and can be iterated.  `RrefResult.rank` and `CoveringReport.valid`
are read from other fields, not stored.
"""

import pytest

from qpc.analysis import CSSParams
from qpc.classical import ClassicalCode
from qpc.gf2 import rref
from qpc.groups import FiniteGroup, GroupAlgebraElement, GroupAlgebraMatrix, parse_element
from qpc.render import _FORMATS, OperatorOverlay, RenderSpec
from qpc.tanner import CoveringReport, Lift, PlainGraph, lift_from_ring_matrix, verify_covering

from oracles import from_dense, hgp_canonical_logicals, path, repetition_check, systematic_basis

Z3 = FiniteGroup.cyclic(3)


def rep3():
    return ClassicalCode(repetition_check(3))


def lift():
    return lift_from_ring_matrix(GroupAlgebraMatrix(Z3, [[parse_element("1+x", Z3)]]))


def covering_report():
    return verify_covering(PlainGraph(6, [(0, 3), (1, 2), (2, 4), (3, 5)]), path(3),
                           {"vertex": [0, 0, 1, 1, 2, 2]})


# name -> a function building the record afresh; the last two hold a list or a dict
BUILD = {
    "CSSParams": lambda: CSSParams(n=18, k=2, d=3, d_x=3, d_z=3),
    "LogicalBasis": lambda: hgp_canonical_logicals(rep3(), rep3()),
    "SystematicBasis": lambda: systematic_basis(rep3()),
    "RrefResult": lambda: rref(from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])),
    "GroupAlgebraElement": lambda: parse_element("1+x^2", Z3),
    "RenderSpec": lambda: RenderSpec(include_edges=True),
    "OperatorOverlay": lambda: OperatorOverlay(((0, "Z"), (4, "X"))),
    "_Format": lambda: _FORMATS["svg"]._replace(),
    "CoveringReport": covering_report,
    "Lift": lift,
}
UNHASHABLE = {"CoveringReport", "Lift"}


@pytest.mark.parametrize("name", BUILD)
def test_record_equality_hash_repr_and_immutability(name):
    one, two = BUILD[name](), BUILD[name]()
    assert type(one).__name__ == name and type(two) is type(one)
    if name == "Lift":  # a lift's group action compares by identity
        two = two._replace(action=one.action)
    assert one == two and not one != two
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two)
    fields = type(one)._fields
    assert repr(one) == f"{name}({', '.join(f'{f}={getattr(one, f)!r}' for f in fields)})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(one, field, None)
    assert one != one._replace(**{fields[0]: object()})
    # wider than a frozen dataclass: a record is the tuple of its fields
    assert one == tuple(getattr(one, f) for f in fields) == tuple(one)


def test_css_params_repr_is_the_readme_line():
    assert repr(BUILD["CSSParams"]()) == "CSSParams(n=18, k=2, d=3, d_x=3, d_z=3)"
    assert CSSParams(6, 2) == (6, 2, None, None, None)


@pytest.mark.parametrize("rows", [[[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[0, 0]], [[1, 0], [0, 1]]])
def test_rref_rank_is_the_pivot_count(rows):
    result = rref(from_dense(rows))
    assert result.rank == len(result.pivot_cols)
    assert result._fields == ("rref", "pivot_cols")


def test_covering_report_valid_is_no_violation():
    good = covering_report()
    assert good.valid and good.violations == [] and good.lift_size == 2
    bad = verify_covering(PlainGraph(3, [(0, 1), (1, 2)]), PlainGraph(2, [(0, 1)]),
                          {"vertex": [0, 1, 0]})
    assert not bad.valid and bad.violations
    assert CoveringReport._fields == ("violations", "lift_size")


def test_lift_fields_hold_no_covering_record():
    lifted = lift()
    assert Lift._fields == ("graph", "action", "base", "maps")
    assert verify_covering(lifted.graph, lifted.base, lifted.maps).lift_size == 3


def test_group_algebra_element_keeps_ring_operations():
    a, b = parse_element("1+x", Z3), parse_element("x", Z3)
    assert a + b == parse_element("1", Z3)          # not tuple concatenation
    assert a * b == parse_element("x+x^2", Z3)      # not tuple repetition
    assert a + a == GroupAlgebraElement.zero(Z3)


def test_render_spec_fields_and_defaults():
    assert RenderSpec() == RenderSpec(12.0, False, 0.45, 0.3)
    assert RenderSpec()._fields == ("scale", "include_edges", "x_shear", "y_scale")
