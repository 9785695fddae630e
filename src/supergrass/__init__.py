"""supergrass: exact symbolic algebra for supercommutative and Clifford
algebras, Berezin integration, superdomain morphisms, super Minkowski
translation algebras over the four normed division algebras, and two worked
supersymmetric field models."""

from .kernel import (EVEN, ODD, Derivation, ParityError, SuperPolynomial,
                     Symbol, SymbolTable, TableMismatchError, cartan_triple,
                     jacobi_check, skew_check, super_bracket)
from .scalars import QI, I

__all__ = [
    "EVEN",
    "ODD",
    "Derivation",
    "ParityError",
    "SuperPolynomial",
    "Symbol",
    "SymbolTable",
    "TableMismatchError",
    "cartan_triple",
    "jacobi_check",
    "skew_check",
    "super_bracket",
    "QI",
    "I",
]

__version__ = "0.1.0"
