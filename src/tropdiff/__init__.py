"""Exact tropical algebra for differential polynomials over Q((t1..tm)).

The value semiring is the set of finite vertex sets of Newton polyhedra in
N^m, and every computation here (tropical values, weighted values, residues,
translations, initial forms) is carried out in exact rational arithmetic.
"""

from .diffpoly import DiffMonomial, DiffPoly, multi_indices, prolong
from .errors import (
    DimensionMismatch,
    InconsistentOracle,
    InternalInconsistency,
    NegativeExponent,
    NotAMonomialOrder,
    NotInUnitBall,
    PolyParseError,
    SchemaError,
    TropdiffError,
    UnknownVariable,
    ZeroDenominator,
    ZeroTropicalValue,
)
from .orders import (
    EQ,
    GT,
    LT,
    MonomialOrder,
    order_standard,
)
from .parsing import parse_poly, parse_rational
from .series import (
    QPoly,
    RationalFunction,
    bezout_witness,
    divides_in_unit_ball,
    in_unit_ball,
    is_unit,
    max_ideal_member,
    order_from_membership,
    residue,
    separating_constants,
    trop_frac,
    trop_poly,
)
from .translation import (
    initial_form,
    initial_generators,
    normalizer,
    translate,
    translate_generators,
    tropw,
)
from .vertexpoly import (
    VertexFraction,
    VertexPoly,
    omega_chain,
    omega_witness,
    staircase_vertices_2d,
)
from .weights import BooleanWeight, SubstitutionKernel, substitution_poly

__version__ = "0.1.0"

__all__ = [
    "BooleanWeight",
    "DiffMonomial",
    "DiffPoly",
    "DimensionMismatch",
    "EQ",
    "GT",
    "InconsistentOracle",
    "InternalInconsistency",
    "LT",
    "MonomialOrder",
    "NegativeExponent",
    "NotAMonomialOrder",
    "NotInUnitBall",
    "PolyParseError",
    "QPoly",
    "RationalFunction",
    "SchemaError",
    "SubstitutionKernel",
    "TropdiffError",
    "UnknownVariable",
    "VertexFraction",
    "VertexPoly",
    "ZeroDenominator",
    "ZeroTropicalValue",
    "bezout_witness",
    "divides_in_unit_ball",
    "in_unit_ball",
    "initial_form",
    "initial_generators",
    "is_unit",
    "max_ideal_member",
    "multi_indices",
    "normalizer",
    "omega_chain",
    "omega_witness",
    "order_from_membership",
    "order_standard",
    "parse_poly",
    "parse_rational",
    "prolong",
    "residue",
    "separating_constants",
    "staircase_vertices_2d",
    "substitution_poly",
    "translate",
    "translate_generators",
    "trop_frac",
    "trop_poly",
    "tropw",
    "__version__",
]
