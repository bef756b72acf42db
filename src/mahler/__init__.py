"""Exact analysis of linear Mahler equations over Hahn series.

Newton polygons, characteristic polynomials and exponents, first-order
factorization, and a full basis of solutions with certified residual and
independence checks.  All arithmetic is exact over Q and Q(lambda).
"""

from .errors import (DivisionByZero, InsufficientPrecision, MahlerError,
                     NonRationalExponent, NonRationalExponentLiteral,
                     ParseError, PlanMismatch, PoleAtEvaluationPoint,
                     UnknownLeadingTerm, VerificationError, ZeroDivisor,
                     ZeroSeries)
from .fields import Poly, RatFun, rational_roots
from .hahn import HahnSeries, Mask, hs, hs_mul, hs_sum, monomial, one, zero
from .newton import (FrobeniusPlan, NewtonData, analyze, char_poly,
                     frobenius_plan, newton_polygon, slopes_of)
from .operator import MahlerOperator, phi_minus
from .factorize import (Factorization, FirstOrderFactor, factor_operator,
                        factor_reconstruct, slope_zero_unit_solution)
from .frobenius import (ExponentBlock, FrobeniusOutput, SolutionObject,
                        apply_to_solution, frobenius_basis, solve_gcj,
                        solve_order1_param, solve_slope, specialize_solutions,
                        verify_independence)
from .cli import EquationSpec, elaborate, parse_spec, run_pipeline

__all__ = [
    "DivisionByZero", "InsufficientPrecision", "MahlerError",
    "NonRationalExponent", "NonRationalExponentLiteral", "ParseError",
    "PlanMismatch", "PoleAtEvaluationPoint", "UnknownLeadingTerm",
    "VerificationError", "ZeroDivisor", "ZeroSeries",
    "Poly", "RatFun", "rational_roots",
    "HahnSeries", "Mask", "hs", "hs_mul", "hs_sum", "monomial", "one", "zero",
    "FrobeniusPlan", "NewtonData", "analyze", "char_poly", "frobenius_plan",
    "newton_polygon", "slopes_of",
    "MahlerOperator", "phi_minus",
    "Factorization", "FirstOrderFactor", "factor_operator",
    "factor_reconstruct", "slope_zero_unit_solution",
    "ExponentBlock", "FrobeniusOutput", "SolutionObject", "apply_to_solution",
    "frobenius_basis", "solve_gcj", "solve_order1_param", "solve_slope",
    "specialize_solutions", "verify_independence",
    "EquationSpec", "elaborate", "parse_spec", "run_pipeline",
]
