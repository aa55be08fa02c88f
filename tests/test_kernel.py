"""Differential tests: the packed backup kernel against per-(state, action)
loops built on the slow ``gs_backup`` reference.

Games are hypothesis-generated with ragged candidate counts (so padded slots
are exercised), singleton sets, duplicate rows (exact row ties) and
duplicated joint actions (exact action ties, and states with different group
counts, so padded groups are exercised); lam runs from 0 to 0.999.  The
kernel backs up one action per group, the references every action.  Values
must match bit for bit, rules and rows exactly, and both sweeps return the
rule as a tuple of ints.  An evaluation sweep, one matrix-vector product
over a formed operator, must stay within a rounding bound of the per-state
loop, also on seeded games of more than ``sweeps.LEAF`` states, whose
operators are formed by blocked substitution; at most ``LEAF`` states the
operator is the plain halving's, byte for byte.  A stacked robust evaluation must give each rule exactly its
stack-of-one call and the loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import (
    chain_game,
    dirichlet_game,
    evaluate_one,
    games,
    gs_backup,
    is_int_tuple,
    per_action,
    reference_noise,
    row_counts,
)
from robustdp import solvers, sweeps
from robustdp.sweeps import LEAF, evaluation_operator, fixed_model_arrays

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


def reference_robust_evaluation(game, acts, lam, tol=1e-12):
    """Per-state loop form of evaluate_policy_robust."""
    m = game.m
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
    assert is_int_tuple(sweep.rule)
    assert sweep.rule == rule
    assert sweep.worst_model == worst


def reference_evaluation(game, u, rule, rows, lam, approx, step, phase, gauss_seidel=True):
    """Per-state loop form of one evaluation sweep, indexing the packed
    candidates directly: forward substitution for Gauss-Seidel, the
    incoming ``u`` throughout for Jacobi."""
    w = u.copy()
    for k, (a, j) in enumerate(zip(rule, rows)):
        g = game.action_group[k, a]
        x = w if gauss_seidel else u
        val = float(game.group_payoff_exp[k, g, j] + lam * (game.group_candidates[k, g, j] @ x))
        if approx is not None:
            val += reference_noise(approx, (step, phase, k, a))
        w[k] = val
    return w


def evaluation_bound(rew, u, noise, lam):
    """Largest gap allowed between an evaluation sweep and its loop:
    8 * m * eps * (|r| + lam*|u| + |noise|) / (1 - lam), in sup norms.

    Both compute x = Q^{-1} (R u + r + noise), with Q = I, R = lam*P for
    Jacobi and Q = I - lam*P_lower, R = lam*P_upper for Gauss-Seidel.  For
    a stochastic P the row sums of Q^{-1} R are at most lam and those of
    Q^{-1} at most 1/(1 - lam), so x and the partial sums either side forms
    are of the order of the value scale S = (|r| + lam*|u| + |noise|) /
    (1 - lam).  Either side rounds at most m + 2 terms per entry, each off
    by about eps of S, so to first order the gap is a few units of
    m * eps * S.  The factor 8 leaves room for the rounding in the formed
    operator and still catches a wrong one: a Gauss-Seidel operator that
    drops P's diagonal misses by lam*P[k, k]*u[k].  Over random games with
    up to 40 states the largest gap seen was 0.43 m * eps * S.  On the
    blocked path (more than ``LEAF`` states) it was 0.011 m * eps * S, over
    920 sweeps of ``dirichlet_game`` and ``chain_game`` with 33 to 500
    states, lam 0 to 0.999, random and downward records, exact and noisy."""
    eta = 0.0 if noise is None else float(np.max(np.abs(noise)))
    scale = float(np.max(np.abs(rew))) + lam * float(np.max(np.abs(u))) + eta
    return 8 * len(u) * np.finfo(float).eps * scale / (1.0 - lam)


def random_record(game, seed):
    """A random rule and, for each state, a random row of its action."""
    rng = np.random.default_rng(seed)
    rule = tuple(rng.integers(0, game.n_joint_actions, game.m).tolist())
    counts = per_action(game, row_counts(game))[np.arange(game.m), list(rule)]
    return rule, tuple(int(rng.integers(0, n)) for n in counts)


@given(games(), LAMS, ORACLES, st.booleans(), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_evaluation_sweep_matches_loop(game, lam, approx, gauss_seidel, seed):
    """The sweep's one matrix-vector product over the operator formed from
    gathered (P, r), with the noise drawn as the solvers draw it, is within
    rounding of the per-state loop: Gauss-Seidel under every oracle, Jacobi
    (which runs exact) without one.  At lam 0 both are r + noise, bit for
    bit."""
    if not gauss_seidel:
        approx = None
    rule, rows = random_record(game, seed)
    u = start_value(game, seed)
    step, phase = seed % 7, 1 + seed % 3
    P, rew = fixed_model_arrays(game, rule, rows)
    noise = None
    if approx is not None:
        noise = approx.perturb(step, phase, enumerate(rule))
    op = evaluation_operator(P, rew, lam, gauss_seidel, noise is not None)
    swept = r.evaluation_sweep(op, u, noise)
    ref = reference_evaluation(game, u, rule, rows, lam, approx, step, phase, gauss_seidel)
    gap = float(np.max(np.abs(swept - ref)))
    assert gap <= evaluation_bound(rew, u, noise, lam)
    if lam == 0.0:
        assert swept.tobytes() == ref.tobytes()


def downward_record(game):
    """Joint action 0 at every state, with its row that puts the most mass
    on earlier states: on the chain family action 0 moves down the chain."""
    cand = per_action(game, game.group_candidates)[:, 0]
    below = (cand * np.tri(game.m, k=-1)[:, None, :]).sum(axis=-1)
    return (0,) * game.m, tuple(below.argmax(axis=1).tolist())


@pytest.mark.parametrize("m", [LEAF + 1, 2 * LEAF + 1, 150])
@pytest.mark.parametrize("family", ["dirichlet", "chain"])
def test_blocked_operator_matches_loop(family, m):
    """Above ``LEAF`` states the Gauss-Seidel operator is formed by blocked
    substitution with the leaves' inverses; its sweep, exact and noisy,
    under a random record and under the downward one, stays within the
    rounding bound of the per-state loop.  At 2 * LEAF + 1 states one leaf
    has LEAF rows, and on the chain family's downward record the terms
    L^16 to L^31 that the last factor (I + L^16) of its inverse brings in
    are far above the bound."""
    game = dirichlet_game(m) if family == "dirichlet" else chain_game(m, 2)
    approx = r.PerturbationOracle("uniform_noise", 0.05, seed=3)
    u = start_value(game, m)
    for i, lam in enumerate([0.0, 0.5, 0.97, 0.999]):
        for rule, rows in (random_record(game, m + i), downward_record(game)):
            P, rew = fixed_model_arrays(game, rule, rows)
            noise = approx.perturb(i, 1, enumerate(rule))
            op = evaluation_operator(P, rew, lam, noisy=True)
            for draw, oracle in ((None, None), (noise, approx)):
                swept = r.evaluation_sweep(op, u, draw)
                ref = reference_evaluation(game, u, rule, rows, lam, oracle, i, 1)
                gap = float(np.max(np.abs(swept - ref)))
                assert gap <= evaluation_bound(rew, u, draw, lam), (lam, rule[:3], draw is None)


@pytest.mark.parametrize("m", [1, 3, LEAF // 2 + 1, LEAF])
def test_small_operator_is_the_plain_halving(m):
    """A game of at most ``LEAF`` states halves its solve down to single
    rows: the operator's bytes are those of the plain halving."""
    game = dirichlet_game(m)
    P, rew = fixed_model_arrays(game, *random_record(game, m))
    scaled = 0.97 * P
    x = np.hstack([np.triu(scaled), rew[:, None], np.eye(m)])
    sweeps._unit_lower_solve(scaled, x, 0, m)
    A, b, N = evaluation_operator(P, rew, 0.97, noisy=True)
    assert A.tobytes() == np.ascontiguousarray(x[:, :m]).tobytes()
    assert b.tobytes() == np.ascontiguousarray(x[:, m]).tobytes()
    assert N.tobytes() == np.ascontiguousarray(x[:, m + 1 :]).tobytes()


@given(games(), LAMS, st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_jacobi_sweep_and_lattice_match_loop(game, lam, seed):
    v = start_value(game, seed)
    u, rule, worst, _ = reference_sweep(game, v, lam, gauss_seidel=False)
    sweep = r.jacobi_improvement_sweep(game, v, lam)
    assert np.array_equal(sweep.u0, u)
    assert is_int_tuple(sweep.rule)
    assert sweep.rule == rule
    assert sweep.worst_model == worst
    _, _, _, lattice = reference_sweep(game, v, lam)
    assert np.array_equal(r.backup_lattice(game, v, lam), lattice)


@given(games(), LAMS, st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_robust_evaluation_matches_loop(game, lam, seed):
    rng = np.random.default_rng(seed)
    rule = tuple(rng.integers(0, game.n_joint_actions, game.m).tolist())
    value, rows, _ = evaluate_one(game, rule, lam)
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
    """Each row of a stacked call is the rule's stack-of-one call and the
    per-state loop, bit for bit, whichever round the other rules settle in."""
    rules = rule_stack(game, seed)
    value, rows, settled = r.evaluate_policy_robust(game, rules, lam)
    assert value.shape == rows.shape == rules.shape
    assert settled.shape == (len(rules),)
    for i, acts in enumerate(rules):
        one_value, one_rows, one_settled = evaluate_one(game, acts, lam)
        ref_value, ref_rows = reference_robust_evaluation(game, acts, lam)
        assert value[i].tobytes() == one_value.tobytes() == ref_value.tobytes()
        assert tuple(rows[i].tolist()) == one_rows == ref_rows
        assert settled[i] and one_settled


@given(
    games(), st.sampled_from([0.5, 0.9, 0.999]), st.integers(1, 3), st.integers(0, 2**16)
)
@settings(max_examples=40, deadline=None)
def test_stacked_round_cap_matches_one_rule_calls(game, lam, cap, seed):
    """Under a round cap each row is still the stack-of-one call, settled or
    not, when rules leave the stack in different rounds.  With one round
    no rule settles: the first backup moves each value from 0 by its
    nonzero expected payoff."""
    rules = rule_stack(game, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", cap)
        value, rows, settled = r.evaluate_policy_robust(game, rules, lam)
        for i, acts in enumerate(rules):
            one = evaluate_one(game, acts, lam)
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
    n_rows = per_action(game, row_counts(game))
    cand = per_action(game, game.group_candidates)
    pexp = per_action(game, game.group_payoff_exp)
    for k in range(game.m):
        for a in range(game.n_joint_actions):
            n = n_rows[k, a]
            padded = (cand[k, a] @ v)[:n]
            exact = cand[k, a, :n] @ v
            assert np.allclose(padded, exact, rtol=1e-13, atol=1e-12)
            assert np.all(np.isinf(pexp[k, a, n:]))
