"""Solvers for team Markov games with finite rectangular transition uncertainty.

The package provides the game model and validation (:mod:`robustdp.model`),
Gauss-Seidel and Jacobi backup operators (:mod:`robustdp.sweeps`), the four
outer solvers (:mod:`robustdp.solvers`), an exhaustive maximin oracle
(:mod:`robustdp.oracle`), the social-dilemma benchmark generator
(:mod:`robustdp.rssd`), bounded-perturbation oracles
(:mod:`robustdp.perturb`), and a command-line interface (:mod:`robustdp.cli`).
"""

from .model import (
    BudgetExceededError,
    GameValidationError,
    TeamDecisionRule,
    TeamMarkovGame,
    build_game,
    count_decision_rules,
    count_policy_models,
    enumerate_decision_rules,
    enumerate_policy_models,
    game_to_dict,
    load_game,
    save_game,
    sup_norm,
    validate_game,
)
from .oracle import OracleResult, brute_force_maximin, verify_epsilon_optimal
from .perturb import PerturbationOracle
from .rssd import RssdParams, build_rssd, check_dilemma_conditions
from .solvers import (
    SolverParams,
    SolverResult,
    SolverTrace,
    evaluate_policy_exact,
    evaluate_policy_robust,
    max_delta,
    solve_ratpi,
    solve_ratvi,
    solve_rmpi,
    solve_rvi,
)
from .sweeps import (
    SweepResult,
    backup_lattice,
    best_case_multistep,
    evaluation_sweep,
    gs_bellman_residual,
    gs_splitting,
    greedy_multistep,
    improvement_sweep,
    jacobi_improvement_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "GameValidationError",
    "OracleResult",
    "PerturbationOracle",
    "RssdParams",
    "SolverParams",
    "SolverResult",
    "SolverTrace",
    "SweepResult",
    "TeamDecisionRule",
    "TeamMarkovGame",
    "backup_lattice",
    "best_case_multistep",
    "brute_force_maximin",
    "build_game",
    "build_rssd",
    "check_dilemma_conditions",
    "count_decision_rules",
    "count_policy_models",
    "enumerate_decision_rules",
    "enumerate_policy_models",
    "evaluate_policy_exact",
    "evaluate_policy_robust",
    "evaluation_sweep",
    "game_to_dict",
    "greedy_multistep",
    "gs_bellman_residual",
    "gs_splitting",
    "improvement_sweep",
    "jacobi_improvement_sweep",
    "load_game",
    "max_delta",
    "save_game",
    "solve_ratpi",
    "solve_ratvi",
    "solve_rmpi",
    "solve_rvi",
    "sup_norm",
    "validate_game",
]
