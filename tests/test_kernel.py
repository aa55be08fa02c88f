"""Differential tests: the packed backup kernel against per-(state, action)
loops built on the slow ``gs_backup`` reference.

Games are hypothesis-generated with ragged candidate counts (so padded slots
are exercised), singleton sets, duplicate rows (exact row ties) and
duplicated joint actions (exact action ties, and states with different group
counts, so padded groups are exercised); lam runs from 0 to 0.999.  The
kernel backs up one action per group, the references every action.  Values
must match bit for bit, rules and rows exactly.  A stacked robust
evaluation must give each rule exactly its one-rule call and the loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import games, gs_backup, per_action, reference_noise
from robustdp import solvers
from robustdp.sweeps import fixed_model_arrays

LAMS = st.sampled_from([0.0, 0.5, 0.9, 0.999])
ORACLES = st.sampled_from(
    [
        None,
        r.PerturbationOracle("uniform_noise", 0.05, seed=3),
        r.PerturbationOracle("uniform_noise", 0.05, seed=3, argmax_lock=True),
        r.PerturbationOracle("adversarial_extremes", 0.05),
        r.PerturbationOracle("adversarial_extremes", 0.05, argmax_lock=True),
    ]
)


def start_value(game, seed):
    return np.random.default_rng(seed).uniform(-20, 20, game.m)


def reference_sweep(game, v, lam, approx=None, step=0, gauss_seidel=True):
    """(u0, rule, worst rows, every action's backup value) by looping over
    states and joint actions; ties go to the first maximising action."""
    noisy = approx is not None
    u = v.copy()
    rule, worst, lattice = [], [], []
    for k in range(game.m):
        backups = [
            gs_backup(game, v, u if gauss_seidel else v, k, a, lam)
            for a in range(game.n_joint_actions)
        ]
        values = [value for value, _ in backups]
        lattice.append(values)
        if noisy and not approx.argmax_lock:
            values = [x + reference_noise(approx, (step, 0, k, a)) for a, x in enumerate(values)]
        best = 0
        for a in range(1, len(values)):
            if values[a] > values[best]:
                best = a
        chosen = values[best]
        if noisy and approx.argmax_lock:
            chosen = chosen + reference_noise(approx, (step, 0, k, best))
        u[k] = chosen
        rule.append(best)
        worst.append(backups[best][1])
    return u, tuple(rule), tuple(worst), np.array(lattice)


def reference_robust_evaluation(game, rule, lam, tol=1e-12):
    """Per-state loop form of evaluate_policy_robust."""
    m = game.m
    acts = rule.joint_actions
    threshold = math.inf if lam == 0.0 else tol * (1.0 - lam) / (2.0 * lam)
    cand = per_action(game, game.group_candidates)
    pexp = per_action(game, game.group_payoff_exp)
    v = np.zeros(m)
    prev_rows = None
    for _ in range(10_000):
        backups = [gs_backup(game, v, v, k, acts[k], lam) for k in range(m)]
        q = np.array([value for value, _ in backups])
        rows = tuple(j for _, j in backups)
        if r.sup_norm(q - v) < threshold or rows == prev_rows:
            return q, rows
        P = np.stack([cand[k, acts[k], rows[k]] for k in range(m)])
        pay = np.array([pexp[k, acts[k], rows[k]] for k in range(m)])
        v = np.linalg.solve(np.eye(m) - lam * P, pay)
        prev_rows = rows
    raise AssertionError("reference robust evaluation did not settle")


@given(games(), LAMS, ORACLES, st.integers(0, 50))
@settings(max_examples=150, deadline=None)
def test_improvement_sweep_matches_loop(game, lam, approx, seed):
    v = start_value(game, seed)
    u, rule, worst, _ = reference_sweep(game, v, lam, approx, step=seed)
    sweep = r.improvement_sweep(game, v, lam, approx, seed)
    assert np.array_equal(sweep.u0, u)
    assert sweep.rule.joint_actions == rule
    assert sweep.worst_model == worst


def reference_evaluation(game, u, rule, rows, lam, approx, step, phase):
    """Per-state loop form of one Gauss-Seidel evaluation sweep, indexing the
    packed candidates directly."""
    w = u.copy()
    for k, (a, j) in enumerate(zip(rule.joint_actions, rows)):
        g = game.action_group[k, a]
        val = float(game.group_payoff_exp[k, g, j] + lam * (game.group_candidates[k, g, j] @ w))
        if approx is not None:
            val += reference_noise(approx, (step, phase, k, a))
        w[k] = val
    return w


@given(games(), LAMS, ORACLES, st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_evaluation_sweep_matches_loop(game, lam, approx, seed):
    """The sweep over gathered (P, r), with the noise drawn as the solvers
    draw it, equals the loop bit for bit."""
    rng = np.random.default_rng(seed)
    rule = r.TeamDecisionRule(rng.integers(0, game.n_joint_actions, game.m))
    counts = per_action(game, game.group_n_rows)[np.arange(game.m), list(rule.joint_actions)]
    rows = tuple(int(rng.integers(0, n)) for n in counts)
    u = start_value(game, seed)
    step, phase = seed % 7, 1 + seed % 3
    P, rew = fixed_model_arrays(game, rule, rows)
    noise = None
    if approx is not None:
        noise = approx.perturb(step, phase, enumerate(rule.joint_actions))
    swept = r.evaluation_sweep(P, rew, u, lam, noise)
    ref = reference_evaluation(game, u, rule, rows, lam, approx, step, phase)
    assert np.array_equal(swept, ref)


@given(games(), LAMS, st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_jacobi_sweep_and_lattice_match_loop(game, lam, seed):
    v = start_value(game, seed)
    u, rule, worst, _ = reference_sweep(game, v, lam, gauss_seidel=False)
    sweep = r.jacobi_improvement_sweep(game, v, lam)
    assert np.array_equal(sweep.u0, u)
    assert sweep.rule.joint_actions == rule
    assert sweep.worst_model == worst
    _, _, _, lattice = reference_sweep(game, v, lam)
    assert np.array_equal(r.backup_lattice(game, v, lam), lattice)


@given(games(), LAMS, st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_robust_evaluation_matches_loop(game, lam, seed):
    rng = np.random.default_rng(seed)
    rule = r.TeamDecisionRule(rng.integers(0, game.n_joint_actions, game.m))
    value, rows, _ = r.evaluate_policy_robust(game, rule, lam)
    ref_value, ref_rows = reference_robust_evaluation(game, rule, lam)
    assert np.array_equal(value, ref_value)
    assert rows == ref_rows


def rule_stack(game, seed):
    """1 to 8 random rules, with a repeated rule now and then."""
    rng = np.random.default_rng(seed)
    rules = rng.integers(0, game.n_joint_actions, (int(rng.integers(1, 9)), game.m))
    return rules[rng.integers(0, len(rules), len(rules))] if seed % 3 == 0 else rules


@given(games(), LAMS, st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_stacked_robust_evaluation_matches_one_rule_calls(game, lam, seed):
    """Each row of a stacked call is the one-rule call and the per-state
    loop, bit for bit, whichever round the other rules settle in."""
    rules = rule_stack(game, seed)
    value, rows, settled = r.evaluate_policy_robust(game, rules, lam)
    assert value.shape == rows.shape == rules.shape
    assert settled.shape == (len(rules),)
    for i, acts in enumerate(rules):
        rule = r.TeamDecisionRule(acts)
        one_value, one_rows, one_settled = r.evaluate_policy_robust(game, rule, lam)
        ref_value, ref_rows = reference_robust_evaluation(game, rule, lam)
        assert value[i].tobytes() == one_value.tobytes() == ref_value.tobytes()
        assert tuple(rows[i].tolist()) == one_rows == ref_rows
        assert settled[i] and one_settled


@given(
    games(), st.sampled_from([0.5, 0.9, 0.999]), st.integers(1, 3), st.integers(0, 2**16)
)
@settings(max_examples=40, deadline=None)
def test_stacked_round_cap_matches_one_rule_calls(game, lam, cap, seed):
    """Under a round cap each row is still the one-rule call, settled or
    not, when rules leave the stack in different rounds.  With one round
    no rule settles: the first backup moves each value from 0 by its
    nonzero expected payoff."""
    rules = rule_stack(game, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", cap)
        value, rows, settled = r.evaluate_policy_robust(game, rules, lam)
        for i, acts in enumerate(rules):
            one = r.evaluate_policy_robust(game, r.TeamDecisionRule(acts), lam)
            assert value[i].tobytes() == one[0].tobytes()
            assert tuple(rows[i].tolist()) == one[1]
            assert settled[i] == one[2]
    if cap == 1:
        assert not settled.any()


@given(games(), st.integers(0, 50))
@settings(max_examples=50, deadline=None)
def test_padding_leaves_real_rows_within_rounding(game, seed):
    """Padded and unpadded row products differ at most by BLAS rounding."""
    v = start_value(game, seed)
    n_rows = per_action(game, game.group_n_rows)
    cand = per_action(game, game.group_candidates)
    pexp = per_action(game, game.group_payoff_exp)
    for k in range(game.m):
        for a in range(game.n_joint_actions):
            n = n_rows[k, a]
            padded = (cand[k, a] @ v)[:n]
            exact = cand[k, a, :n] @ v
            assert np.allclose(padded, exact, rtol=1e-13, atol=1e-12)
            assert np.all(np.isinf(pexp[k, a, n:]))
