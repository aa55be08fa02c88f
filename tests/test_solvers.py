import numpy as np
import pytest

import robustdp as r
from conftest import huge_payoff_game, mdp_game, singleton_game, two_state_chain
from robustdp.random_games import random_game
from robustdp.solvers import _mt_at, initial_value, termination_threshold


class TestParams:
    def test_delta_bound_is_strict(self):
        bound = r.max_delta(0.9, 1e-5)
        r.SolverParams(lam=0.9, epsilon=1e-5, delta=0.999 * bound)
        with pytest.raises(ValueError, match="delta"):
            r.SolverParams(lam=0.9, epsilon=1e-5, delta=bound)
        with pytest.raises(ValueError, match="delta"):
            r.SolverParams(lam=0.9, epsilon=1e-5, delta=-1e-9)

    def test_discount_range(self):
        with pytest.raises(ValueError, match="lam"):
            r.SolverParams(lam=1.0, epsilon=1e-5)
        with pytest.raises(ValueError, match="lam"):
            r.SolverParams(lam=-0.1, epsilon=1e-5)

    def test_threshold_positive_within_delta_bound(self):
        lam, eps = 0.97, 1e-5
        delta = 0.999 * r.max_delta(lam, eps)
        assert termination_threshold(lam, eps, delta) > 0

    def test_mt_schedule_forms(self):
        assert _mt_at(5, 3) == 5
        assert _mt_at((1, 2, 3), 0) == 1
        assert _mt_at((1, 2, 3), 7) == 3
        with pytest.raises(TypeError):
            r.SolverParams(lam=0.5, epsilon=1e-6, mt_schedule=lambda t: 1)

    def test_v0_modes(self):
        game = two_state_chain()
        p = r.SolverParams(lam=0.5, epsilon=1e-6)
        assert np.all(initial_value(game, p) == game.payoff.min() / 0.5)
        pz = r.SolverParams(lam=0.5, epsilon=1e-6, v0_mode="zeros")
        assert np.all(initial_value(game, pz) == 0.0)
        pe = r.SolverParams(lam=0.5, epsilon=1e-6, v0_mode=(1.0, 2.0))
        assert np.array_equal(initial_value(game, pe), [1.0, 2.0])
        with pytest.raises(ValueError):
            initial_value(game, r.SolverParams(lam=0.5, epsilon=1e-6, v0_mode=(1.0,)))


class TestSolverLoops:
    def test_singleton_game_terminates_at_policy_value(self):
        game = singleton_game(payoff=1.0)
        params = r.SolverParams(lam=0.5, epsilon=1e-8, mt_schedule=3)
        for solve in (r.solve_ratpi, r.solve_ratvi, r.solve_rvi, r.solve_rmpi):
            res = solve(game, params)
            assert res.terminated
            assert abs(res.value[0] - 2.0) < 1e-8

    def test_trace_length_is_iterations_plus_one(self, rssd_game):
        params = r.SolverParams(lam=0.9, epsilon=1e-4, mt_schedule=5)
        res = r.solve_ratpi(rssd_game, params)
        assert res.terminated
        assert len(res.trace) == res.iterations + 1

    def test_mt_zero_trace_identical_to_value_iteration(self, rssd_game):
        params = r.SolverParams(lam=0.9, epsilon=1e-5, mt_schedule=0)
        a = r.solve_ratpi(rssd_game, params)
        b = r.solve_ratvi(rssd_game, params)
        assert a.trace.residuals == b.trace.residuals
        assert all(
            np.array_equal(x, y) for x, y in zip(a.trace.values, b.trace.values)
        )
        c = r.solve_rmpi(rssd_game, params)
        d = r.solve_rvi(rssd_game, params)
        assert c.trace.residuals == d.trace.residuals

    def test_gs_and_jacobi_agree_on_deterministic_game(self):
        game = singleton_game(payoff=1.0)
        params = r.SolverParams(lam=0.5, epsilon=1e-6)
        a = r.solve_ratvi(game, params)
        b = r.solve_rvi(game, params)
        assert abs(a.value[0] - b.value[0]) < 2e-6

    def test_monotone_iterates_from_payoff_floor_start(self, rssd_game):
        params = r.SolverParams(lam=0.97, epsilon=1e-5, mt_schedule=5)
        res = r.solve_ratpi(rssd_game, params)
        for prev, cur in zip(res.trace.values, res.trace.values[1:]):
            assert np.all(cur >= prev - 1e-12)

    def test_epsilon_optimal_policies_on_random_games(self):
        for seed in range(12):
            game = random_game(seed + 300)
            orc = r.brute_force_maximin(game, 0.9)
            params = r.SolverParams(lam=0.9, epsilon=1e-6, mt_schedule=5)
            for solve in (r.solve_ratvi, r.solve_ratpi, r.solve_rvi, r.solve_rmpi):
                res = solve(game, params)
                assert res.terminated
                ok, report = r.verify_epsilon_optimal(
                    game, res.policy, 0.9, 1e-6, orc
                )
                assert ok, (seed, solve.__name__, report["max_violation"])

    def test_value_iteration_rate_bound(self):
        game = random_game(42)
        orc = r.brute_force_maximin(game, 0.9)
        params = r.SolverParams(lam=0.9, epsilon=1e-6)
        res = r.solve_ratvi(game, params)
        dists = [r.sup_norm(v - orc.v_star) for v in res.trace.values]
        for prev, cur in zip(dists, dists[1:]):
            assert cur <= 0.9 * prev + 1e-10

    def test_non_termination_is_flagged_not_raised(self, rssd_game):
        params = r.SolverParams(lam=0.97, epsilon=1e-8, max_iterations=3)
        res = r.solve_ratvi(rssd_game, params)
        assert not res.terminated
        assert res.iterations == 3
        assert len(res.trace) == 3

    def test_rssd_iteration_count_magnitude(self, rssd_game):
        # reference count for this configuration is 446; exact v0 and sweep
        # details are not pinned down, so only the magnitude is checked
        delta = 0.99 * r.max_delta(0.97, 1e-5)
        params = r.SolverParams(lam=0.97, epsilon=1e-5, delta=delta)
        res = r.solve_ratvi(rssd_game, params)
        assert res.terminated
        assert 223 <= res.iterations <= 892

    def test_perturbed_run_still_returns_epsilon_optimal_policy(self):
        game = random_game(77)
        lam, eps = 0.9, 1e-4
        delta = 0.9 * r.max_delta(lam, eps)
        params = r.SolverParams(lam=lam, epsilon=eps, delta=delta, mt_schedule=3)
        orc = r.brute_force_maximin(game, lam)
        for mode in ("uniform_noise", "adversarial_extremes"):
            for lock in (False, True):
                oracle = r.PerturbationOracle(
                    mode=mode, bound=lam * delta, seed=11, argmax_lock=lock
                )
                res = r.solve_ratpi(game, params, oracle)
                assert res.terminated
                ok, report = r.verify_epsilon_optimal(game, res.policy, lam, eps, orc)
                assert ok, (mode, lock, report["max_violation"])


class TestNonFiniteValues:
    @pytest.mark.parametrize("algo", sorted(r.solvers.SOLVERS))
    def test_overflowing_value_scale_raises(self, algo):
        params = r.SolverParams(lam=0.99, epsilon=1e-5, max_iterations=50)
        with pytest.raises(ValueError, match="not finite"):
            r.solvers.SOLVERS[algo](huge_payoff_game(), params)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_residual_raises(self):
        params = r.SolverParams(
            lam=0.9, epsilon=1e-5, v0_mode=[1.7e308, -1.7e308], max_iterations=50
        )
        with pytest.raises(ValueError, match="residual"):
            r.solve_ratpi(two_state_chain(), params)


class TestRobustEvaluation:
    def test_singleton_rows_match_dense_solve(self):
        game = mdp_game(seed=9)
        for rule in r.enumerate_decision_rules(game):
            value, rows = r.evaluate_policy_robust(game, rule, 0.9)
            expected = r.evaluate_policy_exact(game, rule, rows, 0.9)
            assert np.allclose(value, expected, atol=1e-10)

    def test_rssd_all_defect_value_is_zero(self, rssd_game):
        # zero cooperators: identity transitions, zero payoffs everywhere
        rule = r.TeamDecisionRule((rssd_game.joint_index([1, 1, 1]),) * 3)
        value, rows = r.evaluate_policy_robust(rssd_game, rule, 0.97)
        assert np.array_equal(value, np.zeros(3))
        assert rows == (0, 0, 0)

    def test_agrees_with_model_enumeration_oracle(self):
        from robustdp.oracle import robust_value_by_model_enumeration

        for seed in range(6):
            game = random_game(seed + 50, max_rows=2)
            for rule in r.enumerate_decision_rules(game):
                fast, _ = r.evaluate_policy_robust(game, rule, 0.9)
                slow = robust_value_by_model_enumeration(game, rule, 0.9)
                assert np.allclose(fast, slow, atol=1e-9)

    def test_worst_rows_certify_the_value(self):
        game = random_game(61)
        rule = next(iter(r.enumerate_decision_rules(game)))
        value, rows = r.evaluate_policy_robust(game, rule, 0.9)
        assert np.allclose(
            value, r.evaluate_policy_exact(game, rule, rows, 0.9), atol=1e-9
        )


class TestExactEvaluation:
    def test_single_state_geometric_series(self):
        game = singleton_game(payoff=1.0)
        value = r.evaluate_policy_exact(game, r.TeamDecisionRule((0,)), (0,), 0.9)
        assert abs(value[0] - 10.0) < 1e-12

    def test_zero_discount_returns_expected_payoff(self):
        game = two_state_chain()
        rule = r.TeamDecisionRule((0, 0))
        value = r.evaluate_policy_exact(game, rule, (1, 0), 0.0)
        from robustdp.sweeps import fixed_model_arrays

        _, rew = fixed_model_arrays(game, rule, (1, 0))
        assert np.array_equal(value, rew)

    def test_matches_iterated_gs_updates(self):
        game = random_game(71)
        rule = next(iter(r.enumerate_decision_rules(game)))
        rows = tuple(0 for _ in range(game.m))
        expected = r.evaluate_policy_exact(game, rule, rows, 0.9)
        v = np.zeros(game.m)
        for _ in range(1500):
            v = r.evaluation_sweep(game, v, rule, rows, 0.9)
        assert np.allclose(v, expected, atol=1e-9)
