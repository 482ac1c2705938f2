"""Exact verification of Dickson-invariant and conjugation Chern class identities.

Everything here is exact arithmetic: prime fields, sparse polynomials,
cyclotomic integers.  Each identity check is a decision, never an
approximation.
"""

from ._version import __version__
from .chern import ChernContext, GradedChern, total_conj_chern
from .cyclo import CycInt, CycMatrix, a_matrix, conj_act, gen_matrices
from .dickson import (
    DicksonContext,
    GLMatrix,
    delta_full,
    delta_ni,
    dickson_c,
    dickson_c_from_f,
    f_n_product,
    gl_action,
    random_gl,
)
from .errors import ConjChernError
from .poly import (
    Poly,
    PolyMatrix,
    PolyRing,
    determinant,
    exact_div,
    jacobian_det,
)
from .report import Check, VerificationReport
from .steenrod import (
    CohAlgebra,
    CohClass,
    bockstein,
    even_to_poly,
    milnor_q,
    power_op,
    r_closed,
    total_power,
    x_class,
)

__all__ = [
    "__version__",
    "Check",
    "ChernContext",
    "CohAlgebra",
    "CohClass",
    "ConjChernError",
    "CycInt",
    "CycMatrix",
    "DicksonContext",
    "GLMatrix",
    "GradedChern",
    "Poly",
    "PolyMatrix",
    "PolyRing",
    "VerificationReport",
    "a_matrix",
    "bockstein",
    "conj_act",
    "delta_full",
    "delta_ni",
    "determinant",
    "dickson_c",
    "dickson_c_from_f",
    "even_to_poly",
    "exact_div",
    "f_n_product",
    "gen_matrices",
    "gl_action",
    "jacobian_det",
    "milnor_q",
    "power_op",
    "r_closed",
    "random_gl",
    "total_conj_chern",
    "total_power",
    "x_class",
]
