"""Exact tools for periodic piecewise linear cut-generating functions.

The package provides exact arithmetic over Q(sqrt2), periodic piecewise
linear functions with one-sided limits, the two-dimensional polyhedral
complex of additivity domains, covering/connectivity analysis, exact
perturbation linear algebra, a catalog of named functions, and scripted
verification of several extremality arguments.
"""

from .exactnum import QNum, Rat, parse_qnum, format_qnum
from .pwl import (BreakpointRow, PwlFunction, MINUS, AT, PLUS,
                  parse_text, to_text, save, load)
from .complex2d import Interval, Face2D, Complex2D, n_f
from .additivity import (ADDITIVE, LIMIT_ADDITIVE, NON_ADDITIVE,
                         additive_face_report, e_containment,
                         minimality_test, slack_at)
from .covering import components as covering_components
from .perturbation import (LinearSystem, build_system, drop_one_ranks,
                           lipschitz_epsilon, scaling_epsilon,
                           verify_effective)
from .catalog import (catalog_names, get, kzh_function, kzh_params,
                      lifted_function, psi_function, psi_prime_function)
from .verify import (ClaimReport, verify_all, verify_kzh_claim_slacks,
                     verify_kzh_perturbation_rank, verify_lifted,
                     verify_psi_separation)
from .diagram import render_sidecar, render_svg

__all__ = [
    "QNum", "Rat", "parse_qnum", "format_qnum",
    "BreakpointRow", "PwlFunction", "MINUS", "AT", "PLUS",
    "parse_text", "to_text", "save", "load",
    "Interval", "Face2D", "Complex2D", "n_f",
    "ADDITIVE", "LIMIT_ADDITIVE", "NON_ADDITIVE",
    "additive_face_report", "e_containment",
    "minimality_test", "slack_at",
    "covering_components",
    "LinearSystem", "build_system", "drop_one_ranks",
    "lipschitz_epsilon", "scaling_epsilon", "verify_effective",
    "catalog_names", "get", "kzh_function", "kzh_params",
    "lifted_function", "psi_function", "psi_prime_function",
    "ClaimReport", "verify_all", "verify_kzh_claim_slacks",
    "verify_kzh_perturbation_rank", "verify_lifted",
    "verify_psi_separation",
    "render_sidecar", "render_svg",
]

__version__ = "0.1.0"
