"""Exact verification of Dickson-invariant and conjugation Chern class identities.

Everything here is exact arithmetic: prime fields, sparse polynomials,
monomial matrices over the cyclotomic integers.  Each identity check is a
decision, never an approximation.

The package imports no layer module itself: each exported name is read from
its home module, which is imported on the first access to one of its names
(PEP 562), so `import conjchern` and the `verify` front door load only the
layers that a caller uses.
"""

import importlib

from ._version import __version__

# Each home module and the names that the package exports from it.
_HOMES = {
    "chern": ("GradedChern", "total_conj_chern"),
    "cyclo": ("CycMatrix", "a_matrix", "conj_act", "gen_matrices"),
    "dickson": (
        "DicksonContext", "delta_full", "delta_ni", "dickson_c_from_f",
        "f_n_coefficients", "f_n_product",
    ),
    "errors": ("ConjChernError",),
    "poly": ("Poly", "PolyMatrix", "PolyRing", "determinant", "jacobian_det"),
    "report": ("Check", "VerificationReport"),
    "steenrod": (
        "CohAlgebra", "CohClass", "bockstein", "even_to_poly", "milnor_chain",
        "milnor_q", "power_op", "r_closed", "total_power", "x_class",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    """Import the home module of an exported name, and bind the name here so
    that later reads skip this hook."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
