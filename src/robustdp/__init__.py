"""Solvers for team Markov games with finite rectangular transition uncertainty.

The package provides the game model and validation (:mod:`robustdp.model`),
Gauss-Seidel and Jacobi backup operators (:mod:`robustdp.sweeps`), the four
outer solvers (:mod:`robustdp.solvers`), an exhaustive maximin oracle
(:mod:`robustdp.oracle`), the social-dilemma benchmark generator
(:mod:`robustdp.rssd`), bounded-perturbation oracles
(:mod:`robustdp.perturb`), and a command-line interface (:mod:`robustdp.cli`).

``__all__`` lists what the CLI, the benchmark and the tests call.  Return types
(``SweepResult``, ``SolverTrace``, ``OracleResult``) stay importable from
their modules; the slow references the tests compare against live in
``tests/conftest.py``.
"""

from .model import (
    BudgetExceededError,
    GameValidationError,
    TeamDecisionRule,
    TeamMarkovGame,
    build_game,
    game_to_dict,
    load_game,
    save_game,
    sup_norm,
    validate_game,
)
from .oracle import brute_force_maximin
from .perturb import PerturbationOracle
from .rssd import RssdParams, build_rssd
from .solvers import (
    SolverParams,
    SolverResult,
    evaluate_policy_robust,
    max_delta,
    solve_ratpi,
    solve_ratvi,
    solve_rmpi,
    solve_rvi,
)
from .sweeps import (
    backup_lattice,
    evaluation_sweep,
    improvement_sweep,
    jacobi_improvement_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "GameValidationError",
    "PerturbationOracle",
    "RssdParams",
    "SolverParams",
    "SolverResult",
    "TeamDecisionRule",
    "TeamMarkovGame",
    "backup_lattice",
    "brute_force_maximin",
    "build_game",
    "build_rssd",
    "evaluate_policy_robust",
    "evaluation_sweep",
    "game_to_dict",
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
