import warnings

import numpy as np
import pytest

import robustdp as r
from conftest import (
    evaluate_policy_exact,
    mdp_game,
    robust_value_by_model_enumeration,
    singleton_game,
    verify_epsilon_optimal,
)
from robustdp.random_games import random_game


def test_singleton_optimum():
    game = singleton_game(payoff=1.0)
    orc = r.brute_force_maximin(game, 0.5)
    assert orc.v_star[0] == pytest.approx(2.0, abs=1e-12)
    assert orc.dominance_ok
    assert orc.d_star.joint_actions == (0,)


def test_degenerate_uncertainty_matches_exhaustive_mdp_optimum():
    game = mdp_game(seed=17)
    # independent reference: dense per-policy solves, componentwise max
    best = np.full(game.m, -np.inf)
    for rule in r.enumerate_decision_rules(game):
        rows = tuple(0 for _ in range(game.m))
        np.maximum(best, evaluate_policy_exact(game, rule, rows, 0.9), out=best)
    orc = r.brute_force_maximin(game, 0.9)
    assert np.allclose(orc.v_star, best, atol=1e-9)


def test_solver_terminal_value_matches_oracle(rssd_game, rssd_oracle):
    params = r.SolverParams(lam=0.97, epsilon=1e-5, mt_schedule=10)
    res = r.solve_ratpi(rssd_game, params)
    assert r.sup_norm(res.value - rssd_oracle.v_star) < 1e-5


def test_optimum_is_update_fixed_point(rssd_game, rssd_oracle):
    updated = r.improvement_sweep(rssd_game, rssd_oracle.v_star, 0.97).u0
    assert r.sup_norm(updated - rssd_oracle.v_star) <= 1e-9


def test_verify_epsilon_optimal_accepts_the_optimal_rule():
    game = random_game(23)
    orc = r.brute_force_maximin(game, 0.9)
    ok, report = verify_epsilon_optimal(game, orc.d_star, 0.9, 1e-9, orc)
    assert ok
    assert report["max_violation"] <= 1e-9


def test_verify_epsilon_optimal_single_action_game():
    game = singleton_game(payoff=0.3)
    ok, _ = verify_epsilon_optimal(game, r.TeamDecisionRule((0,)), 0.9, 1e-9)
    assert ok


def test_verify_epsilon_optimal_rejects_bad_rule(rssd_game, rssd_oracle):
    all_defect = r.TeamDecisionRule((rssd_game.joint_index([1, 1, 1]),) * 3)
    ok, report = verify_epsilon_optimal(
        rssd_game, all_defect, 0.97, 1e-5, rssd_oracle
    )
    assert not ok
    assert report["max_violation"] > 1.0


def test_dominance_holds_on_random_games_logged_not_asserted():
    missing = []
    for seed in range(25):
        game = random_game(seed + 500)
        orc = r.brute_force_maximin(game, 0.9)
        if not orc.dominance_ok:
            missing.append((seed + 500, orc.max_dominance_gap))
    if missing:
        warnings.warn(f"componentwise attainment failed on {missing}")


def test_model_enumeration_cross_check_on_two_row_games():
    for seed in (100, 101, 102):
        game = random_game(seed, max_rows=2)
        for rule in r.enumerate_decision_rules(game):
            fast, _ = r.evaluate_policy_robust(game, rule, 0.85)
            slow = robust_value_by_model_enumeration(game, rule, 0.85)
            assert np.allclose(fast, slow, atol=1e-9)


def test_budget_exceeded(rssd_game):
    with pytest.raises(r.BudgetExceededError):
        r.brute_force_maximin(rssd_game, 0.97, budget=100)
