"""Exact-arithmetic workbench for graded multiplicity combinatorics:
Dyck skew shapes, Kazhdan-Lusztig tables, graded Cartan matrices,
Frobenius weight separation, and Koszulity checks."""

from .laurent import LaurentPoly
from .shapes import Partition, SkewShape, DyckVerdict, dyck_depth, scan_box
from .hecke import KLTable, bruhat_leq
from .mult import Space, graded_cartan, kl_inversion_check
from .weights import (wt_space, find_separating_prime, is_separated,
                      is_phi_decomposable)
from .koszul import GradedAlgebra, builtin_algebra, is_koszul, cartan_inverse


__all__ = [
    "LaurentPoly",
    "Partition",
    "SkewShape",
    "DyckVerdict",
    "dyck_depth",
    "scan_box",
    "KLTable",
    "bruhat_leq",
    "Space",
    "graded_cartan",
    "kl_inversion_check",
    "wt_space",
    "find_separating_prime",
    "is_separated",
    "is_phi_decomposable",
    "GradedAlgebra",
    "builtin_algebra",
    "is_koszul",
    "cartan_inverse",
]

__version__ = "0.1.0"
