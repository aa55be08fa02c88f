"""The package's public names, and the program names the benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import robustdp

PUBLIC_NAMES = [
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

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_all_is_pinned_and_sorted():
    assert robustdp.__all__ == PUBLIC_NAMES
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 26


def test_every_public_name_resolves():
    for name in robustdp.__all__:
        assert getattr(robustdp, name) is not None, name


def test_every_benchmark_wrap_point_resolves():
    # The traced benchmark skips a missing name without saying so, which
    # would silently drop its layer from the report.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, module_name, path in tracing.WRAP_POINTS:
        owner = importlib.import_module(module_name)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert not missing
