"""Exact-arithmetic workbench for graded multiplicity combinatorics:
Dyck skew shapes, Kazhdan-Lusztig tables, graded Cartan matrices,
Frobenius weight separation, and Koszulity checks."""

from .laurent import LaurentPoly
from .shapes import Partition, SkewShape, DyckVerdict, dyck_depth, scan_box
from .hecke import KLTable
from .mult import Space, graded_cartan, kl_inversion_check
from .weights import wt_space, find_separating_prime, is_phi_decomposable
from .koszul import GradedAlgebra, builtin_algebra, is_koszul
from . import hecke, mult


def clear_caches() -> None:
    """Empty the module-level memos: the permutation lengths of
    hecke.length and the full flag KL tables of mult. Every KLTable
    keeps its interned ids and columns to itself, so dropping a table
    frees them. Results recompute identically."""
    hecke._LEN.clear()
    mult._FLAG_TABLES.clear()


__all__ = [
    "LaurentPoly",
    "Partition",
    "SkewShape",
    "DyckVerdict",
    "dyck_depth",
    "scan_box",
    "KLTable",
    "Space",
    "graded_cartan",
    "kl_inversion_check",
    "wt_space",
    "find_separating_prime",
    "is_phi_decomposable",
    "GradedAlgebra",
    "builtin_algebra",
    "is_koszul",
    "clear_caches",
]

__version__ = "0.1.0"
