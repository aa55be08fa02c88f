import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import (
    best_case_multistep,
    enumerate_decision_rules,
    enumerate_policy_models,
    evaluate_policy_exact,
    games,
    greedy_multistep,
    gs_backup,
    gs_splitting,
    is_int_tuple,
    mdp_game,
    per_action,
    random_game,
    row_counts,
    singleton_game,
    two_state_chain,
)
from robustdp.solvers import initial_value
from robustdp.sweeps import evaluation_operator, fixed_model_arrays

LAM = 0.9


def dense_gs_step(P, rew, v, lam):
    """Independent dense oracle for one Gauss-Seidel sweep:
    solve (I - lam*P_lower) x = rew + lam*P_upper v."""
    m = P.shape[0]
    Q = np.eye(m) - lam * np.tril(P, -1)
    return np.linalg.solve(Q, rew + lam * (np.triu(P, 0) @ v))


def small_vectors(m, lo=-50.0, hi=50.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi), min_size=m, max_size=m
    ).map(np.array)


class TestGsBackup:
    def test_single_state_one_term_sum(self):
        game = singleton_game(payoff=1.0)
        value, row = gs_backup(game, np.array([2.0]), np.array([0.0]), 0, 0, 0.5)
        assert value == 2.0
        assert row == 0

    def test_zero_discount_is_worst_case_immediate_payoff(self):
        game = two_state_chain()
        value, row = gs_backup(game, np.array([7.0, 9.0]), np.zeros(2), 0, 0, 0.0)
        # candidates (1,0) and (0,1) score their expected immediate payoff only
        assert value == min(0.0, 1.0)
        assert row == 0

    def test_two_state_hand_enumeration(self):
        # candidate (1,0): 0 + 0.9*v(s1)=0 -> 0; candidate (0,1): 1 + 0.9*10 -> 10
        game = two_state_chain()
        value, row = gs_backup(game, np.array([0.0, 10.0]), np.zeros(2), 0, 0, 0.9)
        assert value == 0.0
        assert row == 0

    @given(small_vectors(2), st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=50)
    def test_backup_monotone_in_continuation(self, v, bump):
        game = two_state_chain()
        u = np.zeros(2)
        low, _ = gs_backup(game, v, u, 0, 0, LAM)
        high, _ = gs_backup(game, v + bump, u, 0, 0, LAM)
        assert high >= low - 1e-12


class TestImprovementSweep:
    def test_single_action_rule_is_forced(self):
        game = two_state_chain()
        v = np.array([1.0, 2.0])
        sweep = r.improvement_sweep(game, v, LAM)
        assert sweep.rule == (0, 0)
        assert is_int_tuple(sweep.rule)
        jacobi = r.jacobi_improvement_sweep(game, v, LAM)
        assert jacobi.rule == (0, 0)
        assert is_int_tuple(jacobi.rule)
        # matches the raw backups computed with the partially updated vector
        b0, _ = gs_backup(game, v, v, 0, 0, LAM)
        b1, _ = gs_backup(game, v, np.array([b0, 0.0]), 1, 0, LAM)
        assert sweep.u0[0] == b0
        assert sweep.u0[1] == b1

    def test_rssd_start_below_keeps_update_above(self, rssd_game):
        params = r.SolverParams(lam=0.97, epsilon=1e-5)
        v0 = initial_value(rssd_game, params)
        sweep = r.improvement_sweep(rssd_game, v0, 0.97)
        assert np.all(sweep.u0 >= v0)

    def test_wide_separation_keeps_perturbed_argmax(self):
        # two actions whose exact backups differ by more than twice the bound
        pay = np.zeros((1, 2, 1))
        pay[0, 0, 0] = 0.0
        pay[0, 1, 0] = 1.0
        game = r.build_game(1, ["s1"], [["a0", "a1"]], pay, [[[[1.0]], [[1.0]]]])
        bound = 0.01
        exact = r.improvement_sweep(game, np.zeros(1), LAM)
        for seed in range(10):
            noisy = r.improvement_sweep(
                game,
                np.zeros(1),
                LAM,
                r.PerturbationOracle(mode="uniform_noise", bound=bound, seed=seed),
            )
            assert noisy.rule == exact.rule

    def test_argmax_lock_selects_exact_argmax(self):
        pay = np.zeros((1, 2, 1))
        pay[0, 1, 0] = 1e-9  # near-tie the unlocked noise could flip
        game = r.build_game(1, ["s1"], [["a0", "a1"]], pay, [[[[1.0]], [[1.0]]]])
        oracle = r.PerturbationOracle(
            mode="adversarial_extremes", bound=0.5, seed=0, argmax_lock=True
        )
        sweep = r.improvement_sweep(game, np.zeros(1), LAM, oracle)
        assert sweep.rule == (1,)
        assert is_int_tuple(sweep.rule)

    def test_worst_model_records_exact_argmin_at_chosen_action(self):
        game = two_state_chain()
        oracle = r.PerturbationOracle(mode="adversarial_extremes", bound=0.05, seed=0)
        sweep = r.improvement_sweep(game, np.array([0.0, 10.0]), 0.9, oracle)
        assert sweep.worst_model[0] == 0


class TestEvaluationSweep:
    def test_zero_discount_ignores_continuation(self):
        game = two_state_chain()
        rule = (0, 0)
        rows = (1, 0)
        P, rew = fixed_model_arrays(game, rule, rows)
        out = r.evaluation_sweep(evaluation_operator(P, rew, 0.0), np.array([55.0, -3.0]))
        assert np.array_equal(out, rew)

    def test_single_state_policy_evaluation_fixed_point(self):
        game = singleton_game(payoff=1.0)
        P, rew = fixed_model_arrays(game, (0,), (0,))
        out = r.evaluation_sweep(evaluation_operator(P, rew, 0.9), np.array([10.0]))
        assert out[0] == 1.0 + 0.9 * 10.0

    def test_matches_dense_forward_substitution_oracle(self):
        game = random_game(21)
        rule = next(iter(enumerate_decision_rules(game)))
        rows = tuple(0 for _ in range(game.m))
        P, rew = fixed_model_arrays(game, rule, rows)
        op = evaluation_operator(P, rew, LAM)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.uniform(-10, 10, game.m)
            swept = r.evaluation_sweep(op, u)
            assert np.allclose(swept, dense_gs_step(P, rew, u, LAM), atol=1e-12)


ORACLES = st.sampled_from(
    [
        None,
        r.PerturbationOracle("uniform_noise", 0.05, seed=3),
        r.PerturbationOracle("adversarial_extremes", 0.05),
    ]
)


@given(
    games(), st.sampled_from([0.0, 0.5, 0.99]), ORACLES, st.integers(1, 6),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_sweeps_in_one_call_match_chained_calls(game, lam, approx, mt, seed):
    """``sweeps=mt`` with one noise row per sweep gives the bits of mt
    chained one-sweep calls, each given its own row."""
    rng = np.random.default_rng(seed)
    rule = tuple(rng.integers(0, game.n_joint_actions, game.m).tolist())
    counts = per_action(game, row_counts(game))[np.arange(game.m), list(rule)]
    rows = tuple(int(rng.integers(0, n)) for n in counts)
    op = evaluation_operator(*fixed_model_arrays(game, rule, rows), lam, noisy=True)
    u = rng.uniform(-20, 20, game.m)
    noise = None
    if approx is not None:
        queries = list(enumerate(rule))
        noise = np.array([approx.perturb(seed, s, queries) for s in range(1, mt + 1)])
    chained = u
    for s in range(mt):
        chained = r.evaluation_sweep(op, chained, None if noise is None else noise[s])
    start = u.copy()
    swept = r.evaluation_sweep(op, u, noise, mt)
    assert swept.tobytes() == chained.tobytes()
    assert u.tobytes() == start.tobytes()


@pytest.mark.parametrize("lam", [0.5, 0.99])
def test_singleton_sets_score_one_block_per_group(lam):
    """The kernel's scores are those of one product per (state, group)
    block, written out here; on these all-singleton games a product of a
    state's groups as one flat block rounds differently."""
    for seed in range(20):
        game = mdp_game(seed, m=4, n_actions=3)
        w = np.random.default_rng(seed).uniform(-20, 20, game.m)
        expected = w.copy()
        pe, cand = game.group_payoff_exp, game.group_candidates
        for k in range(game.m):
            scores = np.stack([cand[k, g] @ expected for g in range(len(pe[k]))])
            expected[k] = np.minimum.reduce(pe[k] + lam * scores, axis=-1).max()
        assert r.improvement_sweep(game, w, lam).u0.tobytes() == expected.tobytes()


def test_noise_must_hold_one_row_per_sweep():
    game = two_state_chain()
    op = evaluation_operator(*fixed_model_arrays(game, (0, 0), (1, 0)), 0.5, noisy=True)
    with pytest.raises(ValueError):
        r.evaluation_sweep(op, np.zeros(2), np.zeros((2, 2)), 3)


class TestGsPolicyUpdate:
    def test_upper_triangular_model_needs_no_substitution(self):
        # strictly upper transition structure: P_lower = 0, so x = rew + lam*P v
        pay = np.zeros((2, 1, 2))
        pay[0, 0, 1] = 1.0
        pay[1, 0, 1] = 0.5
        rows = [[[[0.5, 0.5]]], [[[0.0, 1.0]]]]
        game = r.build_game(1, ["s1", "s2"], [["a0"]], pay, rows)
        v = np.array([2.0, 4.0])
        P, rew = fixed_model_arrays(game, (0, 0), (0, 0))
        assert np.tril(P, -1).max() == 0.0
        out = r.evaluation_sweep(evaluation_operator(P, rew, LAM), v)
        assert np.allclose(out, rew + LAM * (P @ v), atol=1e-14)

    def test_single_state_update(self):
        game = singleton_game(payoff=1.0)
        P, rew = fixed_model_arrays(game, (0,), (0,))
        out = r.evaluation_sweep(evaluation_operator(P, rew, 0.9), np.array([3.0]))
        assert out[0] == 1.0 + 0.9 * 3.0

    def test_iterated_update_reaches_dense_solve(self):
        game = random_game(33)
        rule = next(iter(enumerate_decision_rules(game)))
        rows = tuple(0 for _ in range(game.m))
        P, rew = fixed_model_arrays(game, rule, rows)
        expected = np.linalg.solve(np.eye(game.m) - LAM * P, rew)
        v = np.zeros(game.m)
        for _ in range(2000):
            v = r.evaluation_sweep(evaluation_operator(P, rew, LAM), v)
        assert np.allclose(v, expected, atol=1e-9)


class TestOptimalityUpdate:
    def test_fixed_point_is_brute_force_optimum(self):
        for seed in (0, 1, 2):
            game = random_game(seed)
            v_star = r.brute_force_maximin(game, LAM).v_star
            updated = r.improvement_sweep(game, v_star, LAM).u0
            assert r.sup_norm(updated - v_star) <= 1e-9

    def test_degenerate_uncertainty_is_plain_gs_value_iteration(self):
        game = mdp_game(seed=7)
        v = np.array([0.3, -0.8, 0.1])
        updated = r.improvement_sweep(game, v, LAM).u0
        # manual sweep: single candidate row per action, max over actions
        cand = per_action(game, game.group_candidates)
        payoff = per_action(game, game.group_payoff)
        w = v.copy()
        for k in range(game.m):
            best = -np.inf
            for a in range(game.n_joint_actions):
                row = cand[k, a, 0]
                best = max(best, float(row @ payoff[k, a] + LAM * (row @ w)))
            w[k] = best
        assert np.allclose(updated, w, atol=1e-13)

    def test_contraction_on_random_pairs(self):
        game = random_game(4)
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = rng.uniform(-30, 30, game.m)
            v = rng.uniform(-30, 30, game.m)
            yu = r.improvement_sweep(game, u, LAM).u0
            yv = r.improvement_sweep(game, v, LAM).u0
            assert r.sup_norm(yu - yv) <= LAM * r.sup_norm(u - v) + 1e-12

    def test_jacobi_and_gs_residuals_both_contract(self):
        game = random_game(8)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(-10, 10, game.m)
            gs1 = r.improvement_sweep(game, v, LAM).u0
            gs2 = r.improvement_sweep(game, gs1, LAM).u0
            assert r.sup_norm(gs2 - gs1) <= LAM * r.sup_norm(gs1 - v) + 1e-12
            j1 = r.jacobi_improvement_sweep(game, v, LAM).u0
            j2 = r.jacobi_improvement_sweep(game, j1, LAM).u0
            assert r.sup_norm(j2 - j1) <= LAM * r.sup_norm(j1 - v) + 1e-12


class TestBellmanResidual:
    def test_zero_at_the_optimum(self):
        game = random_game(2)
        v_star = r.brute_force_maximin(game, LAM).v_star
        updated = r.improvement_sweep(game, v_star, LAM).u0
        assert r.sup_norm(updated - v_star) <= 1e-9

    def test_affine_downshift_bounds(self):
        # Jacobi sweeps shift exactly by lam*c; Gauss-Seidel sweeps attenuate
        # the shift further for later states, so only the bounds are exact.
        game = random_game(6)
        rng = np.random.default_rng(1)
        v = rng.uniform(-5, 5, game.m)
        base = r.improvement_sweep(game, v, LAM).u0
        jacobi_base = r.jacobi_improvement_sweep(game, v, LAM).u0
        for c in (0.5, 2.0, 10.0):
            shifted = r.improvement_sweep(game, v - c, LAM).u0
            assert np.all(shifted >= base - LAM * c - 1e-10)
            assert np.all(shifted <= base + 1e-10)
            jacobi_shifted = r.jacobi_improvement_sweep(game, v - c, LAM).u0
            assert np.allclose(jacobi_shifted, jacobi_base - LAM * c, atol=1e-10)

    def test_downshift_of_optimum_stays_nonnegative(self):
        game = random_game(2)
        v_star = r.brute_force_maximin(game, LAM).v_star
        for c in (0.1, 1.0, 25.0):
            v = v_star - c
            assert np.all(r.improvement_sweep(game, v, LAM).u0 - v >= -1e-9)

    def test_payoff_floor_start_is_nonnegative(self, rssd_game):
        params = r.SolverParams(lam=0.97, epsilon=1e-5)
        v0 = initial_value(rssd_game, params)
        assert np.all(r.improvement_sweep(rssd_game, v0, 0.97).u0 - v0 >= 0.0)


class TestGreedyMultistep:
    def test_zero_extra_sweeps_equals_optimality_update(self):
        game = random_game(12)
        v = np.linspace(-1, 1, game.m)
        expected = r.improvement_sweep(game, v, LAM).u0
        assert np.array_equal(greedy_multistep(game, v, 0, LAM), expected)

    def test_many_sweeps_reach_the_recorded_policy_value(self):
        game = random_game(13)
        v = np.zeros(game.m)
        sweep = r.improvement_sweep(game, v, LAM)
        expected = evaluate_policy_exact(game, sweep.rule, sweep.worst_model, LAM)
        out = greedy_multistep(game, v, 600, LAM)
        assert r.sup_norm(out - expected) <= 1e-12

    def test_preserves_nonnegative_residual_region(self):
        game = random_game(14)
        floor = float(per_action(game, game.group_payoff).min()) / (1 - LAM)
        v = np.full(game.m, floor)
        for extra in (0, 1, 3, 8):
            out = greedy_multistep(game, v, extra, LAM)
            assert np.all(r.improvement_sweep(game, out, LAM).u0 - out >= -1e-10)


class TestBestCaseMultistep:
    def test_singleton_rule_and_model_is_repeated_policy_update(self):
        game = singleton_game(payoff=1.0)
        v = np.array([4.0])
        out = best_case_multistep(game, v, 2, 0.5)
        P, rew = fixed_model_arrays(game, (0,), (0,))
        x = v.copy()
        for _ in range(3):
            x = r.evaluation_sweep(evaluation_operator(P, rew, 0.5), x)
        assert np.array_equal(out, x)

    def test_contraction_at_multistep_rate(self):
        game = random_game(15, max_states=3, max_rows=2)
        rng = np.random.default_rng(7)
        for mstep in (0, 2, 5):
            for _ in range(30):
                u = rng.uniform(-20, 20, game.m)
                v = rng.uniform(-20, 20, game.m)
                du = best_case_multistep(game, u, mstep, LAM)
                dv = best_case_multistep(game, v, mstep, LAM)
                assert (
                    r.sup_norm(du - dv)
                    <= LAM ** (mstep + 1) * r.sup_norm(u - v) + 1e-12
                )

    def test_dominates_greedy_and_single_updates_from_ordered_starts(self):
        game = random_game(16, max_states=3, max_rows=2)
        floor = float(per_action(game, game.group_payoff).min()) / (1 - LAM)
        rng = np.random.default_rng(2)
        for mstep in (0, 3):
            for _ in range(20):
                u = np.full(game.m, floor) - rng.uniform(0, 1)
                v = u - rng.uniform(0, 5)
                best = best_case_multistep(game, u, mstep, LAM)
                greedy = greedy_multistep(game, v, mstep, LAM)
                yv = r.improvement_sweep(game, v, LAM).u0
                assert np.all(best >= greedy - 1e-10)
                assert np.all(greedy_multistep(game, v, mstep, LAM) >= yv - 1e-10)

    def test_fixes_the_optimum_when_uncertainty_degenerates(self):
        game = mdp_game(seed=5)
        v_star = r.brute_force_maximin(game, LAM).v_star
        for mstep in (0, 3):
            out = best_case_multistep(game, v_star, mstep, LAM)
            assert r.sup_norm(out - v_star) <= 1e-9

    def test_upper_bounds_the_optimum_in_general(self):
        # with real row uncertainty the exhaustive max may exceed the maximin
        # value, but never falls below it
        game = random_game(3)
        v_star = r.brute_force_maximin(game, LAM).v_star
        for mstep in (0, 2):
            out = best_case_multistep(game, v_star, mstep, LAM)
            assert np.all(out >= v_star - 1e-9)

    def test_budget_guard(self, rssd_game):
        with pytest.raises(r.BudgetExceededError):
            best_case_multistep(rssd_game, np.zeros(3), 0, 0.9, budget=10)


class TestSplitting:
    def test_gs_splitting_parts(self):
        P = np.array([[0.2, 0.8], [0.5, 0.5]])
        Q, R = gs_splitting(P, LAM)
        assert np.allclose(Q - (np.eye(2) - LAM * np.array([[0, 0], [0.5, 0]])), 0)
        assert np.allclose(R, LAM * np.array([[0.2, 0.8], [0.0, 0.5]]))
        assert np.allclose(Q - R, np.eye(2) - LAM * P)

    def test_iteration_matrix_norm_below_discount(self):
        for seed in range(6):
            game = random_game(seed, max_states=3, max_rows=2)
            for rule in enumerate_decision_rules(game):
                for P in enumerate_policy_models(game, rule):
                    Q, R = gs_splitting(P, LAM)
                    norm = np.abs(np.linalg.solve(Q, R)).sum(axis=1).max()
                    assert norm <= LAM + 1e-12
                    assert norm <= np.abs(LAM * P).sum(axis=1).max() + 1e-12


class TestBackupLattice:
    def test_row_maxima_match_improvement_sweep(self, rssd_game):
        v = np.linspace(-5, 5, 3)
        lattice = r.backup_lattice(rssd_game, v, 0.97)
        sweep = r.improvement_sweep(rssd_game, v, 0.97)
        assert np.allclose(lattice.max(axis=1), sweep.u0, atol=1e-13)
        for k in range(3):
            assert lattice[k].argmax() == sweep.rule[k]
