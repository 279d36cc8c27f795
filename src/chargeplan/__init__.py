"""Joint planning of EV charging capacity and vehicle assignment.

The package couples an infrastructure-investment decision (how much
charging capacity to build at each candidate location) with an operational
assignment decision (where arriving vehicles charge, slot by slot).  A
centralized LP gives the reference solution; a consensus ADMM scheme solves
the same model with per-location subproblems for settings where demand data
cannot be pooled.
"""

from .admm import AdmmConfig, ConvergenceReport, run_admm
from .central import build_lp, solve_base_model, solve_centralized
from .datagen import GenParams, generate_instance, with_range_limit
from .io import load_instance, load_solution, save_instance, save_solution
from .model import (
    FORBIDDEN,
    AssignmentPlan,
    ConvergenceError,
    CostBreakdown,
    FeasibilityReport,
    InfeasibleProblemError,
    InvestmentPlan,
    PlanningInstance,
    Solution,
    assess,
    check_feasibility,
    evaluate_objective,
)
from .mps import write_mps
from .simplex import solve_simplex

__version__ = "0.1.0"

__all__ = [
    "FORBIDDEN",
    "AdmmConfig",
    "AssignmentPlan",
    "ConvergenceError",
    "ConvergenceReport",
    "CostBreakdown",
    "FeasibilityReport",
    "GenParams",
    "InfeasibleProblemError",
    "InvestmentPlan",
    "PlanningInstance",
    "Solution",
    "assess",
    "build_lp",
    "check_feasibility",
    "evaluate_objective",
    "generate_instance",
    "load_instance",
    "load_solution",
    "run_admm",
    "save_instance",
    "save_solution",
    "solve_base_model",
    "solve_centralized",
    "solve_simplex",
    "with_range_limit",
    "write_mps",
]
