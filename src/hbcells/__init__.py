"""Canonical Hilbert-Burch matrices and Groebner cells of k[x,y].

Exact-arithmetic library for the bijection between finite-colength
Groebner cells and structured perturbation spaces of the bidiagonal
Hilbert-Burch matrix, with cell dimension formulas, Betti strata, the
generic n-variable cell equations, and point-count validation.
"""

from .errors import DomainError, ParseError
from .field import GF, QQ, PrimeField
from .poly import (Polynomial, UniPoly, divide_univariate, lex_compare,
                   parse_ideal, parse_polynomial, polynomial_to_str)
from .groebner import (MonomialIdeal, buchberger_reduced, colength,
                       graded_minimal_generators, is_groebner_basis,
                       leading_term_ideal, normal_form, reduce, s_polynomial)
from .staircase import (HSeries, Staircase, enumerate_staircases,
                        lex_segment_from_hseries, staircase_from_monomial_ideal)
from .hilbert_burch import (CanonicalFrame, CellKind, CellMatrix,
                            canonical_frame, canonical_matrix, cell_dimension,
                            cell_kinds_of_ideal, minors_ideal,
                            random_cell_matrix, slot_set, validate_cell_matrix)
from .betti import (BettiTable, GradedPieceMatrix, ResolutionDegrees,
                    betti_numbers, g_dim, graded_matrix, lex_codim,
                    resolution_degrees, stratum_descriptor, strata_descriptors)
from .generic_cells import (EliminationReport, GenericFamily, ParameterEquations,
                            affine_space_check, buchberger_equations,
                            cell_report, eliminate_linear, generic_family,
                            instantiate)
from .census import CellCensus, brute_force_ideal_count, cell_census

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ParseError",
    "GF", "QQ", "PrimeField",
    "Polynomial", "UniPoly", "divide_univariate", "lex_compare",
    "parse_ideal", "parse_polynomial", "polynomial_to_str",
    "MonomialIdeal", "buchberger_reduced", "colength",
    "graded_minimal_generators", "is_groebner_basis", "leading_term_ideal",
    "normal_form", "reduce", "s_polynomial",
    "HSeries", "Staircase", "enumerate_staircases",
    "lex_segment_from_hseries", "staircase_from_monomial_ideal",
    "CanonicalFrame", "CellKind", "CellMatrix", "canonical_frame",
    "canonical_matrix", "cell_dimension", "cell_kinds_of_ideal",
    "minors_ideal", "random_cell_matrix", "slot_set", "validate_cell_matrix",
    "BettiTable", "GradedPieceMatrix", "ResolutionDegrees", "betti_numbers",
    "g_dim", "graded_matrix", "lex_codim", "resolution_degrees",
    "stratum_descriptor", "strata_descriptors",
    "EliminationReport", "GenericFamily", "ParameterEquations", "affine_space_check",
    "buchberger_equations", "cell_report", "eliminate_linear",
    "generic_family", "instantiate",
    "CellCensus", "brute_force_ideal_count", "cell_census",
]
