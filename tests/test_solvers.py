import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import (
    chain_game,
    dirichlet_game,
    enumerate_decision_rules,
    evaluate_one,
    evaluate_policy_exact,
    games,
    huge_payoff_game,
    mdp_game,
    per_action,
    random_game,
    reference_run,
    robust_value_by_model_enumeration,
    singleton_game,
    two_state_chain,
    verify_epsilon_optimal,
)
from robustdp import solvers
from robustdp.cli import DEFAULT_BENCH_MT, DEFAULT_LAMBDAS, _default_delta
from robustdp.perturb import MODES
from robustdp.solvers import SOLVERS, _mt_at, initial_value, termination_threshold
from robustdp.sweeps import evaluation_operator, fixed_model_arrays

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mt_schedule": "35"}, {"mt_schedule": [1.7]}, {"mt_schedule": True},
            {"mt_schedule": (2, False)}, {"mt_schedule": 2.0},
            {"max_iterations": 2.5}, {"max_iterations": True}, {"max_iterations": "10"},
        ],
        ids=repr,
    )
    def test_counts_must_be_integers(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            r.SolverParams(lam=0.5, epsilon=1e-6, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iterations": 0}, "max_iterations must be positive"),
            ({"mt_schedule": -1}, "mt_schedule must be nonnegative"),
            ({"mt_schedule": []}, "mt_schedule list must be nonempty and nonnegative"),
        ],
        ids=repr,
    )
    def test_counts_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            r.SolverParams(lam=0.5, epsilon=1e-6, **kwargs)

    @pytest.mark.parametrize(
        "v0",
        [(1.0, float("nan"), 2.0), [1.0, float("inf")], (True, 1.0), [np.True_, 1.0],
         np.array([True, False]), ["1", "2"], [[1.0, 2.0]], 1.0],
        ids=repr,
    )
    def test_explicit_v0_checked_when_built(self, v0):
        with pytest.raises(ValueError, match="^explicit v0 must be a finite 1-D vector"):
            r.SolverParams(lam=0.5, epsilon=1e-6, v0_mode=v0)

    def test_unknown_v0_mode_rejected_when_built(self):
        with pytest.raises(ValueError, match="^unknown v0_mode 'bogus'$"):
            r.SolverParams(lam=0.5, epsilon=1e-6, v0_mode="bogus")

    def test_explicit_v0_stored_as_floats(self):
        for v0 in ([1, 2.5], np.array([1.0, 2.5]), np.array([1, 2], dtype=np.int32)):
            params = r.SolverParams(lam=0.5, epsilon=1e-6, v0_mode=v0)
            assert type(params.v0_mode) is tuple
            assert all(type(x) is float for x in params.v0_mode)
            assert params.v0_mode == tuple(float(x) for x in v0)

    def test_counts_are_read_as_ints(self):
        params = r.SolverParams(
            lam=0.5, epsilon=1e-6, mt_schedule=np.int64(3), max_iterations=np.int32(7)
        )
        assert type(params.mt_schedule) is int and type(params.max_iterations) is int
        params = r.SolverParams(lam=0.5, epsilon=1e-6, mt_schedule=np.array([1, 2]))
        assert params.mt_schedule == (1, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [{"lam": "0.5"}, {"lam": False}, {"lam": np.True_}, {"epsilon": True},
         {"epsilon": "1e-6"}, {"delta": False}, {"delta": [0.0]}],
        ids=repr,
    )
    def test_reals_must_be_real_numbers(self, kwargs):
        with pytest.raises(TypeError, match=f"^{next(iter(kwargs))} must be a real number"):
            r.SolverParams(**{"lam": 0.5, "epsilon": 1e-6, **kwargs})

    def test_reals_are_stored_as_floats(self):
        params = r.SolverParams(lam=np.float32(0.5), epsilon=1, delta=np.int64(0))
        assert (params.lam, params.epsilon, params.delta) == (0.5, 1.0, 0.0)
        assert all(type(x) is float for x in (params.lam, params.epsilon, params.delta))

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, float("inf"), float("nan")])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be positive and finite"):
            r.SolverParams(lam=0.9, epsilon=epsilon)

    @pytest.mark.parametrize(
        "bound", [r.max_delta, lambda lam, eps: termination_threshold(lam, eps, 0.0)],
        ids=["max_delta", "termination_threshold"],
    )
    @pytest.mark.parametrize(
        ("lam", "epsilon", "error", "message"),
        [
            (True, 1e-5, TypeError, "^lam must be a real number"),
            ("0.9", 1e-5, TypeError, "^lam must be a real number"),
            (0.9, np.False_, TypeError, "^epsilon must be a real number"),
            (0.9, "1e-5", TypeError, "^epsilon must be a real number"),
            (-0.5, 1e-5, ValueError, r"^lam must be in \[0, 1\)"),
            (1.0, 1e-5, ValueError, r"^lam must be in \[0, 1\)"),
            (0.9, float("nan"), ValueError, "^epsilon must be positive and finite"),
            (0.9, float("inf"), ValueError, "^epsilon must be positive and finite"),
            (0.9, 0.0, ValueError, "^epsilon must be positive and finite"),
            (0.9, -1e-5, ValueError, "^epsilon must be positive and finite"),
        ],
    )
    def test_bounds_read_lam_and_epsilon_as_params_do(self, bound, lam, epsilon, error, message):
        with pytest.raises(error, match=message):
            bound(lam, epsilon)

    @pytest.mark.parametrize("lam", [0.5, 0.9, 0.97, 0.99, np.float64(0.95)])
    @pytest.mark.parametrize("epsilon", [1e-5, 1e-6, np.float32(1e-3), 2])
    def test_bounds_of_valid_numbers_keep_their_bits(self, lam, epsilon):
        lam_f, eps_f = float(lam), float(epsilon)
        bound = (1.0 - lam_f) ** 2 * eps_f / (2.0 * lam_f * (1.0 + lam_f))
        threshold = (1.0 - lam_f) * eps_f / (2.0 * lam_f) - 0.5 * bound
        assert r.max_delta(lam, epsilon) == bound
        assert termination_threshold(lam, epsilon, 0.5 * bound) == threshold
        assert r.max_delta(0.0, epsilon) == math.inf
        assert termination_threshold(0.0, epsilon, 0.0) == math.inf

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
                    game, res.policy.joint_actions, 0.9, 1e-6, orc
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
                ok, report = verify_epsilon_optimal(
                    game, res.policy.joint_actions, lam, eps, orc
                )
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


def assert_same_run(result, ref):
    """Two runs agree bit for bit: values, both traces, rules, rows,
    iterations and the termination and settling flags."""
    assert result.value.tobytes() == ref.value.tobytes()
    assert result.policy == ref.policy
    assert result.worst_model == ref.worst_model
    assert (result.iterations, result.terminated, result.settled) == (
        ref.iterations, ref.terminated, ref.settled
    )
    assert np.array(result.trace.residuals).tobytes() == np.array(ref.trace.residuals).tobytes()
    assert len(result.trace.values) == len(ref.trace.values)
    for got, want in zip(result.trace.values, ref.trace.values):
        assert got.tobytes() == want.tobytes()


#: (solver, Gauss-Seidel, perturbation mode, argmax_lock); mode None is exact.
RUN_CASES = [
    *((algo, algo in ("ratpi", "ratvi"), None, False) for algo in SOLVERS),
    *((algo, True, mode, lock)
      for algo in ("ratpi", "ratvi")
      for mode, lock in (("uniform_noise", False), ("uniform_noise", True),
                         ("adversarial_extremes", False))),
]


@given(
    games(),
    st.sampled_from([0.0, 0.5, 0.99]),
    st.sampled_from(RUN_CASES),
    st.sampled_from([0, 1, 3, (2, 0, 5)]),
    st.sampled_from(["remark1", "zeros", "random"]),
    st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
@example(chain_game(20, 10), 0.99, ("ratpi", True, "adversarial_extremes", False),
         3, "remark1", 0)
def test_solvers_match_reference_run(game, lam, case, mt, v0, seed):
    """Each solver, exact and under each perturbed mode, replays the plain
    step loop of ``reference_run`` bit for bit.  A random start makes the
    rules and rows change from step to step; runs at lam 0.99 stop at the
    iteration cap.  In the chain case the perturbed run rolls back the
    evaluation sweeps of some steps."""
    algo, gauss_seidel, mode, lock = case
    eps = 1e-6
    if v0 == "random":
        v0 = np.random.default_rng(seed).uniform(-20, 20, game.m)
    params = r.SolverParams(
        lam=lam, epsilon=eps, delta=0.99 * r.max_delta(lam, eps) if lam else 0.0,
        mt_schedule=mt, v0_mode=v0, max_iterations=200,
    )
    approx = None
    if mode is not None and lam:
        approx = r.PerturbationOracle(mode, lam * params.delta, seed=seed, argmax_lock=lock)
    ref_params = params if algo in ("ratpi", "rmpi") else replace(params, mt_schedule=0)
    ref = reference_run(game, ref_params, approx, gauss_seidel, algo)
    if gauss_seidel:
        result = SOLVERS[algo](game, params, approx)
    else:
        result = SOLVERS[algo](game, params)
    assert_same_run(result, ref)


@pytest.mark.parametrize(
    "mode, lock",
    [("uniform_noise", False), ("uniform_noise", True), ("adversarial_extremes", False)],
)
def test_perturbed_ratpi_terminates_on_a_chain_game(mode, lock):
    """Unchecked, evaluation sweeps under the rows the improvement recorded
    cycle on the chain family, with noise or without; with each step's
    sweeps vetted by the next improvement sweep, a perturbed run terminates
    within epsilon of ``rvi``."""
    game = chain_game(20, 10)
    lam, eps = 0.97, 1e-5
    params = r.SolverParams(
        lam=lam, epsilon=eps, delta=0.99 * r.max_delta(lam, eps), mt_schedule=10,
        max_iterations=1000,
    )
    baseline = r.solve_rvi(game, params)
    assert baseline.terminated
    for seed in (0, 1):
        approx = r.PerturbationOracle(mode, lam * params.delta, seed=seed, argmax_lock=lock)
        res = r.solve_ratpi(game, params, approx)
        assert res.terminated, seed
        assert r.sup_norm(res.value - baseline.value) <= eps, seed


@pytest.mark.parametrize("algo", ["ratpi", "rmpi"])
def test_rows_that_change_under_a_fixed_rule_are_gathered_again(algo):
    """A one-action game has one rule, but from v0 = (10, 0) the adversary
    in s1 first moves to s2 and then stays: the step that keeps the rule
    must still gather the new rows.  The start lies above the robust value,
    so from step 1 on every step rolls back the last one's evaluation
    sweeps and the trace holds the value-iteration iterates."""
    game = two_state_chain()
    params = r.SolverParams(lam=0.9, epsilon=1e-6, mt_schedule=3, v0_mode=(10.0, 0.0))
    gauss_seidel = algo == "ratpi"
    ref = reference_run(game, params, None, gauss_seidel, algo)
    sweep = r.improvement_sweep if gauss_seidel else r.jacobi_improvement_sweep
    seen = [sweep(game, v, params.lam).worst_model for v in ref.trace.values[:2]]
    assert seen == [(1, 0), (0, 0)]
    values = [v.tolist() for v in ref.trace.values[:4]]
    assert values == [[10, 0], [1, 0], [0.9, 0], [0.81, 0]]
    assert_same_run(SOLVERS[algo](game, params), ref)


def rollbacks(caplog):
    """How many steps the solvers' DEBUG log says were rolled back."""
    return sum("rolled back" in rec.getMessage() for rec in caplog.records)


@pytest.mark.parametrize("seed", [2, 10])
def test_partial_evaluation_beats_value_iteration_on_chain_games(seed, caplog):
    """On the chain family the evaluation sweeps overshoot the robust value
    now and then, and the next step rolls them back; the steps that keep
    theirs plan toward the goal, so ``ratpi`` and ``rmpi`` end within
    epsilon of ``rvi`` in fewer steps than ``rvi``."""
    game, eps = chain_game(30, seed), 1e-5
    params = r.SolverParams(lam=0.97, epsilon=eps, mt_schedule=10, max_iterations=2000)
    baseline = r.solve_rvi(game, params)
    assert baseline.terminated
    for solve in (r.solve_ratpi, r.solve_rmpi):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="robustdp.solvers"):
            res = solve(game, params)
        assert res.terminated and res.iterations < baseline.iterations / 3, solve
        assert r.sup_norm(res.value - baseline.value) <= eps
        assert rollbacks(caplog) > 0


@given(
    games(),
    st.sampled_from([0.5, 0.9, 0.99]),
    st.sampled_from(
        [(None, False), ("uniform_noise", False), ("uniform_noise", True),
         ("adversarial_extremes", False)]
    ),
    st.sampled_from([1, 5, (0, 10)]),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
@example(chain_game(20, 10), 0.97, (None, False), 10, 0)
@example(chain_game(20, 10), 0.97, ("adversarial_extremes", False), 10, 0)
def test_accepted_iterates_never_fall_from_remark1(game, lam, perturbed, mt, seed):
    """From ``remark1`` T v >= v, and a step's fixed-row sweeps from T v
    only rise; the steps whose sweeps overshoot the robust value are rolled
    back.  So the trace's values never fall, to within the rollback tol:
    an accepted v has T v >= v - tol; a perturbed sweep puts its rule's
    fixed-row value at v within beta = bound / (1 - lam) of T v, and each
    evaluation sweep adds at most beta of noise while it contracts what it
    starts below by lam, so the next value is at least
    v - (tol + 2 * beta) / (1 - lam).  ``rmpi`` runs exact."""
    mode, lock = perturbed
    eps = 1e-6
    params = r.SolverParams(
        lam=lam, epsilon=eps, delta=0.99 * r.max_delta(lam, eps), mt_schedule=mt,
        max_iterations=300,
    )
    approx = None
    if mode is not None:
        approx = r.PerturbationOracle(mode, lam * params.delta, seed=seed, argmax_lock=lock)
    runs = [(r.solve_ratpi(game, params, approx), approx)]
    if approx is None:
        runs.append((r.solve_rmpi(game, params), None))
    for res, oracle in runs:
        beta = 0.0 if oracle is None else oracle.bound / (1.0 - lam)
        values = res.trace.values
        for t, (v, w) in enumerate(zip(values, values[1:])):
            tol = solvers._rollback_tol(game.m, lam, oracle, v, w)
            assert np.min(w - v) >= -(tol + 2 * beta) / (1.0 - lam), t


@pytest.mark.parametrize("start", ["zeros", "random"])
@pytest.mark.parametrize("solve", [r.solve_ratpi, r.solve_rmpi])
def test_starts_off_remark1_terminate(start, solve):
    """From 0, or from values on either side of the robust value, where
    many steps roll back, ``ratpi`` and ``rmpi`` terminate below the cap,
    within epsilon of ``rvi`` and in far fewer steps."""
    game, eps = chain_game(20, 10), 1e-5
    v0 = start
    if start == "random":
        v0 = np.random.default_rng(3).uniform(-40, 40, game.m)
    params = r.SolverParams(
        lam=0.97, epsilon=eps, mt_schedule=10, v0_mode=v0, max_iterations=1000
    )
    baseline = r.solve_rvi(game, params)
    res = solve(game, params)
    assert baseline.terminated and res.terminated
    assert res.iterations < baseline.iterations / 3
    assert r.sup_norm(res.value - baseline.value) <= eps


@pytest.mark.parametrize("lam", [0.97, 0.99])
def test_noise_that_moves_within_a_group_keeps_the_operator(lam, monkeypatch):
    """Unlocked noise on ``build_rssd()`` picks another joint action with
    the same cooperator count, so the same group, from step to step.  The
    operator depends only on each state's group and row, so a run forms it
    once per change of (groups, rows), not once per change of rule, and
    still replays the reference step loop, which forms it every step, bit
    for bit."""
    game = r.build_rssd()
    eps = 1e-6
    params = r.SolverParams(lam=lam, epsilon=eps, delta=0.99 * r.max_delta(lam, eps))
    approx = r.PerturbationOracle("uniform_noise", lam * params.delta, seed=41)
    sweeps, formed = [], []

    def recording_sweep(*args):
        sweeps.append(r.improvement_sweep(*args))
        return sweeps[-1]

    def counting_operator(*args):
        formed.append(args)
        return evaluation_operator(*args)

    monkeypatch.setattr(solvers, "improvement_sweep", recording_sweep)
    monkeypatch.setattr(solvers, "evaluation_operator", counting_operator)
    result = r.solve_ratpi(game, params, approx)
    states = np.arange(game.m)
    # Every step but the last runs evaluation sweeps: the residual falls.
    records = [(s.rule, s.worst_model) for s in sweeps[:-1]]
    by_group = [(game.action_group[states, rule].tobytes(), rows) for rule, rows in records]
    changes = lambda seq: sum(a != b for a, b in zip([None] + seq, seq))
    assert len(formed) == changes(by_group) < changes(records)
    monkeypatch.undo()
    assert_same_run(result, reference_run(game, params, approx))


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
            value, rows, _ = evaluate_one(game, rule, 0.9)
            expected = evaluate_policy_exact(game, rule, rows, 0.9)
            assert np.allclose(value, expected, atol=1e-10)

    def test_rssd_all_defect_value_is_zero(self, rssd_game):
        # zero cooperators: identity transitions, zero payoffs everywhere
        rule = (np.ravel_multi_index((1, 1, 1), rssd_game.action_shape),) * 3
        value, rows, _ = evaluate_one(rssd_game, rule, 0.97)
        assert np.array_equal(value, np.zeros(3))
        assert rows == (0, 0, 0)

    def test_agrees_with_model_enumeration_oracle(self):
        for seed in range(6):
            game = random_game(seed + 50, max_rows=2)
            for rule in enumerate_decision_rules(game):
                fast, _, _ = evaluate_one(game, rule, 0.9)
                slow = robust_value_by_model_enumeration(game, rule, 0.9)
                assert np.allclose(fast, slow, atol=1e-9)

    def test_worst_rows_certify_the_value(self):
        game = random_game(61)
        rule = next(iter(enumerate_decision_rules(game)))
        value, rows, settled = evaluate_one(game, rule, 0.9)
        assert settled
        assert np.allclose(
            value, evaluate_policy_exact(game, rule, rows, 0.9), atol=1e-9
        )

    def test_round_cap_is_reported_as_unsettled(self, monkeypatch, caplog):
        game = random_game(61)
        rule = next(iter(enumerate_decision_rules(game)))
        monkeypatch.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", 1)
        with caplog.at_level(logging.WARNING, logger="robustdp.solvers"):
            _, _, settled = evaluate_one(game, rule, 0.9)
        assert not settled
        assert "did not settle in 1 rounds" in caplog.text

    def test_unsettled_stack_logs_one_warning_with_the_count(self, monkeypatch, caplog):
        game = random_game(61)
        rules = np.array(list(enumerate_decision_rules(game)))
        monkeypatch.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", 1)
        with caplog.at_level(logging.WARNING, logger="robustdp.solvers"):
            _, _, settled = r.evaluate_policy_robust(game, rules, 0.9)
        assert not settled.any()
        assert len(caplog.records) == 1
        assert "did not settle in 1 rounds" in caplog.text
        assert f"for {len(rules)} of {len(rules)} rules" in caplog.text

    def test_empty_stack(self, rssd_game, caplog):
        with caplog.at_level(logging.DEBUG, logger="robustdp.solvers"):
            value, rows, settled = r.evaluate_policy_robust(
                rssd_game, np.zeros((0, 3), dtype=int), 0.97
            )
        assert value.shape == rows.shape == (0, 3)
        assert settled.shape == (0,)
        assert not caplog.records

    @pytest.mark.parametrize(
        "rules",
        [
            np.zeros((2, 3)),
            np.zeros((2, 3), dtype=bool),
            np.zeros((2, 2), dtype=int),
            np.zeros(3, dtype=int),
            np.array([[0, 0, 8]]),
            np.array([[0, -1, 0]]),
            # One rule is a stack of one: a list holding its tuple, as the
            # solvers pass it.
            [(0, 0)],
            [(0, 0, 0, 0)],
            [(0, 0, 8)],
            [(0, -1, 0)],
            # The result type is no stack, even when its rule is valid.
            r.TeamDecisionRule((0, 0, 0)),
        ],
        ids=[
            "float", "bool", "short", "one-dim", "past-end", "negative",
            "rule-short", "rule-long", "rule-past-end", "rule-negative", "rule-object",
        ],
    )
    def test_invalid_stack_is_rejected(self, rules, rssd_game):
        with pytest.raises(ValueError, match="rules"):
            r.evaluate_policy_robust(rssd_game, rules, 0.97)

    @pytest.mark.parametrize("lam", ["0.97", True, None], ids=repr)
    def test_lam_must_be_a_real_number(self, lam, rssd_game):
        with pytest.raises(TypeError, match="^lam must be a real number"):
            r.evaluate_policy_robust(rssd_game, [(0, 0, 0)], lam)


class TestExactEvaluation:
    def test_single_state_geometric_series(self):
        game = singleton_game(payoff=1.0)
        value = evaluate_policy_exact(game, (0,), (0,), 0.9)
        assert abs(value[0] - 10.0) < 1e-12

    def test_zero_discount_returns_expected_payoff(self):
        game = two_state_chain()
        rule = (0, 0)
        value = evaluate_policy_exact(game, rule, (1, 0), 0.0)
        _, rew = fixed_model_arrays(game, rule, (1, 0))
        assert np.array_equal(value, rew)

    def test_matches_iterated_gs_updates(self):
        game = random_game(71)
        rule = next(iter(enumerate_decision_rules(game)))
        rows = tuple(0 for _ in range(game.m))
        expected = evaluate_policy_exact(game, rule, rows, 0.9)
        op = evaluation_operator(*fixed_model_arrays(game, rule, rows), 0.9)
        v = np.zeros(game.m)
        for _ in range(1500):
            v = r.evaluation_sweep(op, v)
        assert np.allclose(v, expected, atol=1e-9)


#: Iterations of the 60 exact ``bench-table1`` cells on ``build_rssd()`` at
#: the CLI defaults (epsilon 1e-5, ``remark1`` start), by solver and mt, one
#: count per ``DEFAULT_LAMBDAS`` entry.  Every cell returns the policy
#: ``TABLE1_POLICY`` with worst-case rows ``TABLE1_ROWS``.  Recorded with the
#: per-state evaluation loop, before evaluation sweeps became one
#: matrix-vector product per sweep; integers, so they hold on any numpy or
#: BLAS build that rounds within the solvers' margins.
TABLE1_ITERATIONS = {
    ("rvi", 0): (302, 385, 526, 814, 1705),
    ("ratvi", 0): (261, 332, 453, 700, 1464),
    ("rmpi", 1): (151, 193, 263, 407, 853),
    ("rmpi", 3): (76, 97, 132, 204, 427),
    ("rmpi", 5): (51, 65, 88, 136, 285),
    ("rmpi", 10): (28, 35, 48, 74, 155),
    ("rmpi", 50): (6, 8, 11, 16, 34),
    ("ratpi", 1): (131, 166, 227, 350, 732),
    ("ratpi", 3): (66, 83, 114, 175, 366),
    ("ratpi", 5): (44, 56, 76, 117, 244),
    ("ratpi", 10): (24, 31, 42, 64, 134),
    ("ratpi", 50): (6, 7, 9, 14, 29),
}
TABLE1_POLICY, TABLE1_ROWS = (0, 0, 3), (0, 0, 2)
#: Iterations of ``ratpi`` and ``rmpi`` at mt 10 and epsilon 1e-5 on
#: :func:`dirichlet_game` (60), by lam, recorded as above.  All four runs
#: return the policy and rows below, one digit per state.
DIRICHLET60_ITERATIONS = {
    ("ratpi", 0.97): 26, ("rmpi", 0.97): 47, ("ratpi", 0.99): 82, ("rmpi", 0.99): 153,
}
DIRICHLET60_POLICY = "232300020230103230300130131103120230323230103333110232030032"
DIRICHLET60_ROWS = "020313301031323010010033200230233313011330310232033010220312"


def test_grid_iterations_policies_and_rows_are_pinned():
    """Iterations, policies and worst-case rows on the ``bench-table1`` grid
    and on a 60-state random game: a change of rounding in the solvers
    moves none of them.  Unlike the golden hashes, these hold on any build."""
    game = r.build_rssd()
    for (algo, mt), counts in TABLE1_ITERATIONS.items():
        for lam, iterations in zip(DEFAULT_LAMBDAS, counts):
            params = r.SolverParams(
                lam=lam, epsilon=1e-5, delta=_default_delta(algo, lam, 1e-5), mt_schedule=mt
            )
            result = SOLVERS[algo](game, params)
            got = (result.iterations, result.policy.joint_actions, result.worst_model)
            assert got == (iterations, TABLE1_POLICY, TABLE1_ROWS), (algo, mt, lam)
    assert {mt for _, mt in TABLE1_ITERATIONS} == {0, *DEFAULT_BENCH_MT}
    game = dirichlet_game(60)
    for (algo, lam), iterations in DIRICHLET60_ITERATIONS.items():
        result = SOLVERS[algo](game, r.SolverParams(lam=lam, epsilon=1e-5, mt_schedule=10))
        policy = "".join(map(str, result.policy.joint_actions))
        rows = "".join(map(str, result.worst_model))
        got = (result.iterations, policy, rows)
        assert got == (iterations, DIRICHLET60_POLICY, DIRICHLET60_ROWS), (algo, lam)
