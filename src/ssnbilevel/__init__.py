"""Semismooth Newton solver for simple bilevel programs with a linear,
leader-priced lower level, plus a toll-pricing model builder."""

from .problem import (BilevelProblem, IterateU, PenaltyParams,
                      QuadraticObjective, quadratic_objective, pack, unpack,
                      validate)
from .residual import (eval_pi, eval_residual, eval_residual_vec, eval_merit,
                       residual_and_selection, check_noc,
                       assemble_affine_system)
from .jacobian import (generalized_element, smoothed_residual,
                       smoothed_jacobian, merit_gradient, fd_jacobian)
from .newton import (solve, alpha_continuation, default_start, SolveReport,
                     newton_element, newton_direction, line_search)
from .regularity import (index_sets, check_theorem_invertibleA,
                         check_theorem_fullrank_yy, probe_nonsingularity,
                         certify)
from .oracle import (Polyhedron, enumerate_vertices, lower_level_argmin,
                     global_penalized, bilevel_bruteforce)
from .toll import TollNetwork, preset, build_problem

__version__ = "0.1.0"

__all__ = [
    "BilevelProblem", "IterateU", "PenaltyParams", "QuadraticObjective",
    "quadratic_objective", "pack", "unpack", "validate",
    "eval_pi", "eval_residual", "eval_residual_vec", "eval_merit",
    "residual_and_selection", "check_noc", "assemble_affine_system",
    "generalized_element", "smoothed_residual", "smoothed_jacobian",
    "merit_gradient", "fd_jacobian",
    "solve", "alpha_continuation", "default_start", "SolveReport",
    "newton_element", "newton_direction", "line_search",
    "index_sets", "check_theorem_invertibleA", "check_theorem_fullrank_yy",
    "probe_nonsingularity", "certify",
    "Polyhedron", "enumerate_vertices", "lower_level_argmin",
    "global_penalized", "bilevel_bruteforce",
    "TollNetwork", "preset", "build_problem",
    "__version__",
]
