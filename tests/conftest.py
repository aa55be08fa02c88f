"""Shared games and the slow references the tests hold the package to.

The references are deliberately naive: exhaustive enumeration of rules and
models, dense solves, per-(state, action) loops.  Every model is gathered
through ``fixed_model_arrays``, the same gather the solvers use, and every
enumeration raises ``BudgetExceededError`` up front when it would exceed
its budget.
"""

import functools
import hashlib
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

import robustdp as r
from robustdp.model import DEFAULT_ENUMERATION_BUDGET
from robustdp.sweeps import fixed_model_arrays


def singleton_game(payoff: float = 1.0) -> r.TeamMarkovGame:
    """1 state, 1 player, 1 action, constant payoff."""
    return r.build_game(
        1, ["s1"], [["a0"]], np.full((1, 1, 1), payoff), [[[[1.0]]]]
    )


def reference_noise(oracle: r.PerturbationOracle, tag) -> float:
    """One query's noise, by its definition: +/-bound by the parity of the
    tag sum, or bound * (2u - 1) with u the first 8 bytes of the blake2b
    digest of the packed (seed, tag), little-endian, over 2**64."""
    if oracle.mode == "adversarial_extremes":
        return oracle.bound if sum(tag) % 2 == 0 else -oracle.bound
    payload = struct.pack("<5q", oracle.seed, *tag)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return oracle.bound * (2.0 * (int.from_bytes(digest, "little") / 2.0**64) - 1.0)


def two_state_chain() -> r.TeamMarkovGame:
    """2 states, single action; s1 rows {(1,0),(0,1)}, s2 stays put.

    Payoffs: r(s1,a,s2)=1, everything else 0.  The adversary in s1 chooses
    between staying (payoff 0) and moving to s2 (payoff 1 once).
    """
    pay = np.zeros((2, 1, 2))
    pay[0, 0, 1] = 1.0
    rows = [[[[1.0, 0.0], [0.0, 1.0]]], [[[0.0, 1.0]]]]
    return r.build_game(1, ["s1", "s2"], [["a0"]], pay, rows)


def huge_payoff_game() -> r.TeamMarkovGame:
    """Valid 2-state game whose payoff -1e307 overflows r_max / (1 - lam)
    for lam >= 0.9."""
    pay = np.zeros((2, 1, 2))
    pay[0, 0, 1] = -1e307
    rows = [[[[0.5, 0.5]]], [[[0.0, 1.0]]]]
    return r.build_game(1, ["s1", "s2"], [["a0"]], pay, rows)


def mdp_game(seed: int = 5, m: int = 3, n_actions: int = 2) -> r.TeamMarkovGame:
    """Singleton-uncertainty game: a plain MDP wrapped in the robust model."""
    rng = np.random.default_rng(seed)
    pay = rng.uniform(-1, 1, (m, n_actions, m))
    rows = [
        [rng.dirichlet(np.ones(m), 1) for _ in range(n_actions)] for _ in range(m)
    ]
    states = [f"s{i + 1}" for i in range(m)]
    return r.build_game(1, states, [[f"a{j}" for j in range(n_actions)]], pay, rows)


@st.composite
def game_parts(draw, max_states=4, max_actions=3):
    """``build_game`` arguments of a small game with 1 to ``max_states``
    states, 1-2 players of 1 to ``max_actions`` actions, 1-4 rows per
    (state, joint action); optionally every set's last row repeats its
    first, and optionally each joint action of a state copies the payoff,
    the rows, or both, of any earlier joint action of that state.  So a
    state's groups of identical actions can have many members, members need
    not be adjacent, states can differ in their group counts, and some
    actions share their payoff or their rows but not both."""
    m = draw(st.integers(1, max_states))
    sizes = draw(st.lists(st.integers(1, max_actions), min_size=1, max_size=2))
    n_joint = math.prod(sizes)
    counts = draw(
        st.lists(st.integers(1, 4), min_size=m * n_joint, max_size=m * n_joint)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payoff = rng.uniform(-1, 1, (m, n_joint, m))
    rows = [
        [rng.dirichlet(np.ones(m), size=counts[k * n_joint + a]) for a in range(n_joint)]
        for k in range(m)
    ]
    if draw(st.booleans()):
        for per_state in rows:
            for cand in per_state:
                cand[-1] = cand[0]
    if n_joint > 1 and draw(st.booleans()):
        size = m * n_joint
        sources = draw(st.lists(st.integers(0, n_joint - 1), min_size=size, max_size=size))
        # What a copy takes: both parts (a duplicate) or one (a near miss).
        parts = draw(st.lists(st.sampled_from("bpr"), min_size=size, max_size=size))
        for k, per_state in enumerate(rows):
            for a in range(n_joint):
                src, part = sources[k * n_joint + a], parts[k * n_joint + a]
                if src < a and part in "bp":
                    payoff[k, a] = payoff[k, src]
                if src < a and part in "br":
                    per_state[a] = per_state[src].copy()
    actions = [[f"a{j}" for j in range(size)] for size in sizes]
    states = [f"s{k}" for k in range(m)]
    return len(sizes), states, actions, payoff, rows


def games(max_states=4, max_actions=3):
    """Games built from :func:`game_parts`."""
    return game_parts(max_states, max_actions).map(lambda parts: r.build_game(*parts))


def gs_backup(game, v, u_partial, k, a, lam):
    """Slow per-(state, joint action) reference for the backup kernel.

    Worst-case Gauss-Seidel backup of state k under joint action a: the
    continuation uses ``u_partial`` for states before k (already updated
    this sweep) and ``v`` from k onward.  Returns the minimum over the real
    candidate rows of payoff_exp + lam * row @ continuation, and the first
    minimising row index.  Row products are taken over the whole padded
    (Kmax, m) block, as the kernel takes them, because BLAS rounds a row's
    product differently depending on how many rows it is given.
    """
    w = np.concatenate([np.asarray(u_partial, float)[:k], np.asarray(v, float)[k:]])
    n = game.n_rows[k, a]
    q = game.payoff_exp[k, a, :n] + lam * (game.candidates[k, a] @ w)[:n]
    j = int(np.argmin(q))
    return float(q[j]), j


def gs_splitting(P, lam):
    """Gauss-Seidel regular splitting (Q, R) of I - lam*P:
    Q = I - lam * strict lower part of P, R = lam * upper part incl. diagonal."""
    P = np.asarray(P, dtype=float)
    return np.eye(P.shape[0]) - lam * np.tril(P, -1), lam * np.triu(P, 0)


def model_rows(game, rule, budget=DEFAULT_ENUMERATION_BUDGET):
    """Every per-state candidate-row choice of a rule, lexicographic.
    Raises BudgetExceededError up front when the product of the per-state
    candidate counts exceeds ``budget``."""
    game.validate_rule(rule)
    counts = [int(game.n_rows[k, a]) for k, a in enumerate(rule.joint_actions)]
    total = math.prod(counts)
    if total > budget:
        raise r.BudgetExceededError(total, budget)
    return itertools.product(*map(range, counts))


def enumerate_policy_models(game, rule, budget=DEFAULT_ENUMERATION_BUDGET):
    """Every admissible transition matrix of a rule, in ``model_rows`` order."""
    return (
        fixed_model_arrays(game, rule, rows)[0]
        for rows in model_rows(game, rule, budget)
    )


def evaluate_policy_exact(game, rule, rows, lam):
    """Value of a fixed rule under one fixed admissible model (dense solve)."""
    P, rew = fixed_model_arrays(game, rule, rows)
    return np.linalg.solve(np.eye(game.m) - lam * P, rew)


def robust_value_by_model_enumeration(
    game, rule, lam, budget=DEFAULT_ENUMERATION_BUDGET
):
    """Componentwise min over every admissible model of the dense evaluation."""
    return np.min(
        [evaluate_policy_exact(game, rule, rows, lam)
         for rows in model_rows(game, rule, budget)],
        axis=0,
    )


def verify_epsilon_optimal(game, rule, lam, epsilon, oracle_result=None,
                           slack=1e-9):
    """Check that a rule's worst-case value is within epsilon of the
    exhaustive maximin value in every component.

    Returns (ok, report); ``report["max_violation"]`` is the largest
    componentwise shortfall v_star - epsilon - value.  ``slack`` absorbs the
    numerical tolerance of the two evaluations.
    """
    value, _ = r.evaluate_policy_robust(game, rule, lam)
    if oracle_result is None:
        oracle_result = r.brute_force_maximin(game, lam)
    ok = bool(np.all(value >= oracle_result.v_star - epsilon - slack))
    shortfall = oracle_result.v_star - epsilon - value
    return ok, {"max_violation": float(np.max(shortfall))}


def greedy_multistep(game, v, extra_sweeps, lam):
    """One exact improvement sweep, then ``extra_sweeps`` evaluation sweeps
    under the rule and rows the improvement recorded."""
    sweep = r.improvement_sweep(game, v, lam)
    P, rew = fixed_model_arrays(game, sweep.rule, sweep.worst_model)
    u = sweep.u0
    for _ in range(int(extra_sweeps)):
        u = r.evaluation_sweep(P, rew, u, lam)
    return u


@functools.cache
def _rule_model_stacks(game, budget):
    """Transition matrices (N, m, m) and expected one-step payoffs (N, m) of
    every (rule, model) pair, cached per game."""
    pairs = [
        fixed_model_arrays(game, rule, rows)
        for rule in r.enumerate_decision_rules(game, budget)
        for rows in model_rows(game, rule, budget)
    ]
    return np.stack([P for P, _ in pairs]), np.stack([pe for _, pe in pairs])


def best_case_multistep(game, v, extra_sweeps, lam, budget=DEFAULT_ENUMERATION_BUDGET):
    """Componentwise best (extra_sweeps + 1)-sweep Gauss-Seidel update over
    every decision rule and every admissible model."""
    P, pe = _rule_model_stacks(game, budget)
    X = np.tile(np.asarray(v, dtype=float), (len(P), 1))
    for _ in range(int(extra_sweeps) + 1):
        prev = X.copy()
        for k in range(game.m):
            lower = np.einsum("nl,nl->n", P[:, k, :k], X[:, :k])
            upper = np.einsum("nl,nl->n", P[:, k, k:], prev[:, k:])
            X[:, k] = pe[:, k] + lam * (lower + upper)
    return X.max(axis=0)


@pytest.fixture(scope="session")
def rssd_game():
    return r.build_rssd()


@pytest.fixture(scope="session")
def rssd_oracle(rssd_game):
    return r.brute_force_maximin(rssd_game, 0.97)
