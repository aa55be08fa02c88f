import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import (
    enumerate_decision_rules,
    evaluate_policy_exact,
    games,
    huge_payoff_game,
    mdp_game,
    per_action,
    random_game,
    robust_value_by_model_enumeration,
    singleton_game,
    two_state_chain,
    verify_epsilon_optimal,
)
from robustdp import solvers
from robustdp.perturb import MODES
from robustdp.solvers import SOLVERS, _mt_at, initial_value, termination_threshold
from robustdp.sweeps import fixed_model_arrays

#: Rule count of the largest game ``games(max_states=3, max_actions=2)``
#: draws: 4 joint actions in each of 3 states.
ORACLE_BUDGET = 4**3
#: Step cap for solver runs on those games: at least 8 times their lam-rate
#: bound at lam 0.99, so a run that cycles fails in seconds, not minutes.
GENERATED_MAX_ITERATIONS = 20_000


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
        assert np.all(initial_value(game, p) == per_action(game, game.group_payoff).min() / 0.5)
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
        assert len(res.trace.residuals) == res.iterations + 1

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
                ok, report = verify_epsilon_optimal(
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
        assert res.settled
        assert res.iterations == 3
        assert len(res.trace.residuals) == 3

    @pytest.mark.parametrize("algo", sorted(SOLVERS))
    def test_unsettled_terminal_evaluation_is_flagged(self, algo, rssd_game, monkeypatch):
        params = r.SolverParams(lam=0.9, epsilon=1e-4)
        assert SOLVERS[algo](rssd_game, params).settled
        monkeypatch.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", 1)
        res = SOLVERS[algo](rssd_game, params)
        assert res.terminated
        assert not res.settled

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
                ok, report = verify_epsilon_optimal(game, res.policy, lam, eps, orc)
                assert ok, (mode, lock, report["max_violation"])


    @pytest.mark.parametrize("solve", [r.solve_ratpi, r.solve_ratvi])
    def test_perturbation_bound_above_lam_delta_rejected(self, rssd_game, solve):
        # delta is 0, so a bound of 1e-6 keeps the residual from ever
        # falling below the threshold.
        params = r.SolverParams(lam=0.97, epsilon=1e-5, max_iterations=2000)
        approx = r.PerturbationOracle(
            "adversarial_extremes", bound=1e-6, argmax_lock=True
        )
        with pytest.raises(ValueError, match="perturbation bound 1e-06 exceeds"):
            solve(rssd_game, params, approx)


@given(games(max_states=3, max_actions=2), st.sampled_from([0.0, 0.5, 0.9, 0.99]))
@settings(max_examples=100, deadline=None)
def test_solvers_match_oracle_on_generated_games(game, lam):
    """Every solver terminates within epsilon of the exhaustive maximin
    value, and each Gauss-Seidel solver agrees with its Jacobi twin."""
    eps, slack = 1e-6, 1e-9
    v_star = r.brute_force_maximin(game, lam, budget=ORACLE_BUDGET).v_star
    params = r.SolverParams(
        lam=lam, epsilon=eps, max_iterations=GENERATED_MAX_ITERATIONS
    )
    values = {}
    for algo, solve in SOLVERS.items():
        res = solve(game, params)
        assert res.terminated, algo
        assert r.sup_norm(res.value - v_star) <= eps + slack, algo
        values[algo] = res.value
    assert r.sup_norm(values["ratpi"] - values["rmpi"]) <= eps + slack
    assert r.sup_norm(values["ratvi"] - values["rvi"]) <= eps + slack


def test_rmpi_terminates_on_two_state_game():
    # Left on its evaluation sweeps, rmpi cycles here at lam 0.99 with mt 5:
    # its residual alternates 0.080 and 0.067.
    s0 = [[0.60722898, 0.39277102]]
    game = r.build_game(
        1, ["s0", "s1"], [["a0", "a1"]],
        [[[-0.08917863, -0.39067193], [-0.08917863, -0.39067193]],
         [[0.25077987, -0.58145689], [-0.85737468, -0.31595424]]],
        [[s0, s0],
         [[[0.20000996, 0.79999004], [0.10822764, 0.89177236], [0.64351418, 0.35648582]],
          [[0.64575228, 0.35424772], [0.46745119, 0.53254881],
           [0.14634621, 0.85365379], [0.03510287, 0.96489713]]]],
    )
    params = r.SolverParams(lam=0.99, epsilon=1e-6, mt_schedule=5, max_iterations=5000)
    res = r.solve_rmpi(game, params)
    assert res.terminated
    v_star = r.brute_force_maximin(game, 0.99).v_star
    assert r.sup_norm(res.value - v_star) <= 1e-6


def test_rmpi_terminates_on_three_state_game():
    # A generated game on which rmpi at lam 0.9 with mt 5 cycled with a
    # residual of 0.576; mt 4 and mt 10 terminated.
    s1 = [[0.46886036, 0.00860358, 0.52253606], [0.33885279, 0.38726327, 0.27388394],
          [0.07502578, 0.89891763, 0.02605659]]
    s2 = [[0.3120056, 0.6128797, 0.0751147]]
    game = r.build_game(
        1, ["s0", "s1", "s2"], [["a0", "a1"]],
        [[[0.50111295, -0.78024533, 0.42762733], [0.8878965, -0.82341332, 0.52241261]],
         [[-0.47129129, -0.16035156, 0.69981221], [-0.42461095, 0.72042359, -0.53178316]],
         [[0.67690345, -0.84072498, -0.74316451], [0.67690345, -0.84072498, -0.74316451]]],
        [[[[0.33588571, 0.16735124, 0.49676305], [0.60160135, 0.33722388, 0.06117477],
           [0.27609136, 0.30069055, 0.42321809]],
          [[0.83956808, 0.06734316, 0.09308876]]],
         [s1, s1], [s2, s2]],
    )
    params = r.SolverParams(lam=0.9, epsilon=1e-6, mt_schedule=5, max_iterations=5000)
    res = r.solve_rmpi(game, params)
    assert res.terminated
    v_star = r.brute_force_maximin(game, 0.9).v_star
    assert r.sup_norm(res.value - v_star) <= 1e-6


@given(
    games(max_states=3, max_actions=2),
    st.sampled_from([0.5, 0.9, 0.99]),
    st.sampled_from(["uniform_noise", "adversarial_extremes"]),
    st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_perturbed_solvers_match_oracle_on_generated_games(game, lam, mode, seed):
    """With every query off by up to lam * delta, each Gauss-Seidel solver,
    with and without ``argmax_lock``, still terminates with a policy whose
    robust value is within epsilon of the exhaustive maximin value."""
    eps, slack = 1e-6, 1e-9
    v_star = r.brute_force_maximin(game, lam, budget=ORACLE_BUDGET).v_star
    params = r.SolverParams(
        lam=lam, epsilon=eps, delta=0.99 * r.max_delta(lam, eps),
        max_iterations=GENERATED_MAX_ITERATIONS,
    )
    for solve in (r.solve_ratpi, r.solve_ratvi):
        for lock in (False, True):
            approx = r.PerturbationOracle(
                mode, lam * params.delta, seed=seed, argmax_lock=lock
            )
            res = solve(game, params, approx)
            assert res.terminated, (solve.__name__, lock)
            assert r.sup_norm(res.value - v_star) <= eps + slack, (solve.__name__, lock)


@given(
    games(max_states=3, max_actions=2),
    st.sampled_from([0.5, 0.9, 0.99]),
    st.sampled_from(MODES),
    st.booleans(),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_perturbed_ratvi_stays_in_sandwich_on_generated_games(game, lam, mode, lock, seed):
    """Every step's incoming value of a perturbed ratvi run lies within
    theta = bound / (1 - lam) of its exact twin's, in both noisy modes, with
    and without ``argmax_lock``.  The Gauss-Seidel robust backup is a
    lam-contraction and each state's noise is at most the bound, so each
    state's new drift is at most lam * theta + bound = theta.
    ``adversarial_extremes`` can drive the drift to theta itself, so the
    slack covers rounding only."""
    eps = 1e-6
    delta = 0.99 * r.max_delta(lam, eps)
    bound = lam * delta
    theta = bound / (1.0 - lam)
    exact = r.solve_ratvi(game, r.SolverParams(lam=lam, epsilon=eps))
    approx = r.PerturbationOracle(mode, bound, seed=seed, argmax_lock=lock)
    noisy = r.solve_ratvi(game, r.SolverParams(lam=lam, epsilon=eps, delta=delta), approx)
    drift = max(
        r.sup_norm(u - w) for u, w in zip(exact.trace.values, noisy.trace.values)
    )
    assert drift <= theta + 1e-12, drift / theta


class TestUnreachableTolerance:
    """One WARNING up front when the threshold cannot be reached; the run
    itself is not changed."""

    def warnings(self, caplog, game, **params):
        with caplog.at_level(logging.WARNING, logger="robustdp.solvers"):
            r.solve_ratpi(game, r.SolverParams(**params))
        return [
            rec.getMessage() for rec in caplog.records
            if "may not terminate" in rec.getMessage()
        ]

    def test_threshold_below_double_spacing_warns(self, rssd_game, caplog):
        (message,) = self.warnings(
            caplog, rssd_game, lam=0.99999, epsilon=1e-10, max_iterations=3
        )
        assert "below the double spacing" in message
        assert "exceeds max_iterations=3" in message

    def test_step_bound_above_max_iterations_warns(self, rssd_game, caplog):
        (message,) = self.warnings(
            caplog, rssd_game, lam=0.97, epsilon=1e-5, max_iterations=10
        )
        assert "exceeds max_iterations=10" in message
        assert "double spacing" not in message

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-310])
    def test_extreme_scales_warn_without_raising(self, caplog, epsilon):
        # threshold / residual0 is ~1e-608: it underflows to 0.0 as a ratio.
        (message,) = self.warnings(
            caplog, huge_payoff_game(), lam=0.5, epsilon=epsilon, max_iterations=3
        )
        assert "below the double spacing" in message
        assert "exceeds max_iterations=3" in message

    def test_default_paper_cell_is_silent(self, rssd_game, caplog):
        delta = 0.99 * r.max_delta(0.97, 1e-5)
        with caplog.at_level(logging.DEBUG, logger="robustdp"):
            res = r.solve_ratpi(rssd_game, r.SolverParams(0.97, 1e-5, delta))
        assert res.terminated
        assert not [rec for rec in caplog.records if rec.levelno >= logging.WARNING]


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
        for rule in enumerate_decision_rules(game):
            value, rows, _ = r.evaluate_policy_robust(game, rule, 0.9)
            expected = evaluate_policy_exact(game, rule, rows, 0.9)
            assert np.allclose(value, expected, atol=1e-10)

    def test_rssd_all_defect_value_is_zero(self, rssd_game):
        # zero cooperators: identity transitions, zero payoffs everywhere
        rule = r.TeamDecisionRule((np.ravel_multi_index((1, 1, 1), rssd_game.action_shape),) * 3)
        value, rows, _ = r.evaluate_policy_robust(rssd_game, rule, 0.97)
        assert np.array_equal(value, np.zeros(3))
        assert rows == (0, 0, 0)

    def test_agrees_with_model_enumeration_oracle(self):
        for seed in range(6):
            game = random_game(seed + 50, max_rows=2)
            for rule in enumerate_decision_rules(game):
                fast, _, _ = r.evaluate_policy_robust(game, rule, 0.9)
                slow = robust_value_by_model_enumeration(game, rule, 0.9)
                assert np.allclose(fast, slow, atol=1e-9)

    def test_worst_rows_certify_the_value(self):
        game = random_game(61)
        rule = next(iter(enumerate_decision_rules(game)))
        value, rows, settled = r.evaluate_policy_robust(game, rule, 0.9)
        assert settled
        assert np.allclose(
            value, evaluate_policy_exact(game, rule, rows, 0.9), atol=1e-9
        )

    def test_round_cap_is_reported_as_unsettled(self, monkeypatch, caplog):
        game = random_game(61)
        rule = next(iter(enumerate_decision_rules(game)))
        monkeypatch.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", 1)
        with caplog.at_level(logging.WARNING, logger="robustdp.solvers"):
            _, _, settled = r.evaluate_policy_robust(game, rule, 0.9)
        assert not settled
        assert "did not settle in 1 rounds" in caplog.text

    def test_unsettled_stack_logs_one_warning_with_the_count(self, monkeypatch, caplog):
        game = random_game(61)
        rules = np.array([rule.joint_actions for rule in enumerate_decision_rules(game)])
        monkeypatch.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", 1)
        with caplog.at_level(logging.WARNING, logger="robustdp.solvers"):
            _, _, settled = r.evaluate_policy_robust(game, rules, 0.9)
        assert not settled.any()
        assert len(caplog.records) == 1
        assert "did not settle in 1 rounds" in caplog.text
        assert f"for {len(rules)} of {len(rules)} rules" in caplog.text

    def test_empty_stack(self, rssd_game):
        value, rows, settled = r.evaluate_policy_robust(
            rssd_game, np.zeros((0, 3), dtype=int), 0.97
        )
        assert value.shape == rows.shape == (0, 3)
        assert settled.shape == (0,)

    @pytest.mark.parametrize(
        "rules",
        [
            np.zeros((2, 3)),
            np.zeros((2, 3), dtype=bool),
            np.zeros((2, 2), dtype=int),
            np.zeros(3, dtype=int),
            np.array([[0, 0, 8]]),
            np.array([[0, -1, 0]]),
        ],
        ids=["float", "bool", "short", "one-dim", "past-end", "negative"],
    )
    def test_invalid_stack_is_rejected(self, rules, rssd_game):
        with pytest.raises(ValueError, match="rules"):
            r.evaluate_policy_robust(rssd_game, rules, 0.97)


class TestExactEvaluation:
    def test_single_state_geometric_series(self):
        game = singleton_game(payoff=1.0)
        value = evaluate_policy_exact(game, r.TeamDecisionRule((0,)), (0,), 0.9)
        assert abs(value[0] - 10.0) < 1e-12

    def test_zero_discount_returns_expected_payoff(self):
        game = two_state_chain()
        rule = r.TeamDecisionRule((0, 0))
        value = evaluate_policy_exact(game, rule, (1, 0), 0.0)
        _, rew = fixed_model_arrays(game, rule, (1, 0))
        assert np.array_equal(value, rew)

    def test_matches_iterated_gs_updates(self):
        game = random_game(71)
        rule = next(iter(enumerate_decision_rules(game)))
        rows = tuple(0 for _ in range(game.m))
        expected = evaluate_policy_exact(game, rule, rows, 0.9)
        P, rew = fixed_model_arrays(game, rule, rows)
        v = np.zeros(game.m)
        for _ in range(1500):
            v = r.evaluation_sweep(P, rew, v, 0.9)
        assert np.allclose(v, expected, atol=1e-9)
