"""The robust Gauss-Seidel backup and the sweeps built on it.

Every operator here is one kernel, :func:`_row_min`: each candidate row of a
(state, joint action) pair scores its expected immediate team payoff plus
the discounted continuation, ``payoff_exp + lam * (candidates @ w)``, and
the adversary takes the minimum over rows.  Callers hold the action or the
row fixed, choose the continuation ``w``, and take the maximum over joint
actions.  Padded candidate slots score ``+inf`` and never win the minimum.

A Gauss-Seidel improvement sweep walks the states in order and feeds freshly
updated values into the backups of later states; states at or beyond the
current one still see the incoming value function.  Writing
P = P_lower + P_upper with P_lower strictly lower triangular and P_upper
upper triangular including the diagonal, one sweep under a fixed rule and
fixed rows solves

    (I - lam * P_lower) x = r + lam * P_upper v

by forward substitution, i.e. it applies the iteration matrix
Q^{-1} R of the regular splitting Q = I - lam*P_lower, R = lam*P_upper.
Jacobi variants (Q = I, R = lam*P) keep the incoming value fixed for the
whole sweep, so one kernel call backs up every state at once.

All functions are pure in (game, vector, parameters).  Ties in action or row
selection break to the lowest index (``argmax``/``argmin``), so traces replay
exactly; action comparison is exact floating comparison with no epsilon
fuzz.  Row scores use ``@`` (BLAS), never ``einsum`` or a multiply-then-sum:
those round differently, and results and traces must replay bit for bit.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    TeamDecisionRule,
    TeamMarkovGame,
)
from .perturb import PerturbationOracle


@dataclass(frozen=True)
class SweepResult:
    """One improvement sweep: updated values, greedy rule, worst-case rows.

    ``worst_model[k]`` indexes the minimising candidate row recorded at the
    chosen action of state k; partial evaluation reuses exactly these rows.
    """

    u0: np.ndarray
    rule: TeamDecisionRule
    worst_model: tuple[int, ...]


def _row_min(
    payoff_exp: np.ndarray, candidates: np.ndarray, w: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case backups: min over the row axis (the last one of
    ``payoff_exp``) of ``payoff_exp + lam * (candidates @ w)``.

    Returns the minimum and the first minimising row index, both shaped like
    ``payoff_exp`` without its last axis.
    """
    q = payoff_exp + lam * (candidates @ w)
    return q.min(axis=-1), q.argmin(axis=-1)


def improvement_sweep(
    game: TeamMarkovGame,
    v: np.ndarray,
    lam: float,
    approx: PerturbationOracle | None = None,
    step: int = 0,
) -> SweepResult:
    """One Gauss-Seidel improvement sweep.

    For each state in order: back up every joint action, keep the maximum
    as the updated value, record the first maximising action and the exact
    minimising row at that action.  A non-identity ``approx`` perturbs the
    backup of every action before the maximum is taken, or with
    ``argmax_lock`` only the value of the action the exact backups chose.
    """
    noisy = approx is not None and not approx.is_identity
    w = np.array(v, dtype=float)
    rule = [0] * game.m
    worst = [0] * game.m
    for k in range(game.m):
        vals, rows = _row_min(game.payoff_exp[k], game.candidates[k], w, lam)
        if noisy and not approx.argmax_lock:
            vals = np.array(
                [approx.perturb(float(x), (step, 0, k, a)) for a, x in enumerate(vals)]
            )
        a = int(vals.argmax())
        chosen = float(vals[a])
        if noisy and approx.argmax_lock:
            chosen = approx.perturb(chosen, (step, 0, k, a))
        w[k] = chosen
        rule[k] = a
        worst[k] = int(rows[a])
    return SweepResult(u0=w, rule=TeamDecisionRule(rule), worst_model=tuple(worst))


def jacobi_improvement_sweep(
    game: TeamMarkovGame, v: np.ndarray, lam: float
) -> SweepResult:
    """Exact improvement sweep with no within-sweep updates (baselines)."""
    vals, rows = _row_min(
        game.payoff_exp, game.candidates, np.asarray(v, dtype=float), lam
    )
    acts = vals.argmax(axis=1)
    states = np.arange(game.m)
    return SweepResult(
        u0=vals[states, acts],
        rule=TeamDecisionRule(acts),
        worst_model=tuple(int(j) for j in rows[states, acts]),
    )


def evaluation_sweep(
    game: TeamMarkovGame,
    u: np.ndarray,
    rule: TeamDecisionRule,
    model_rows: tuple[int, ...],
    lam: float,
    approx: PerturbationOracle | None = None,
    step: int = 0,
    sweep_index: int = 1,
) -> np.ndarray:
    """One Gauss-Seidel sweep under a fixed rule and fixed worst-case rows.

    Freshly written values feed the remaining states of the same sweep, so
    with an identity oracle this is exactly the forward substitution solve of
    (I - lam*P_lower) x = r + lam*P_upper u.
    """
    w = np.array(u, dtype=float)
    use_noise = approx is not None and not approx.is_identity
    for k, (a, j) in enumerate(zip(rule.joint_actions, model_rows)):
        val = float(
            game.payoff_exp[k, a, j] + lam * (game.candidates[k, a, j] @ w)
        )
        if use_noise:
            val = approx.perturb(val, (step, sweep_index, k, a))
        w[k] = val
    return w


def gs_bellman_residual(game: TeamMarkovGame, v: np.ndarray, lam: float) -> np.ndarray:
    """Componentwise residual of the Gauss-Seidel maximin update at v.

    Nonnegative residual marks the initialisation region from which the
    multistep solvers converge monotonically.
    """
    return improvement_sweep(game, v, lam).u0 - np.asarray(v, dtype=float)


def greedy_multistep(
    game: TeamMarkovGame, v: np.ndarray, extra_sweeps: int, lam: float
) -> np.ndarray:
    """One exact improvement sweep, then ``extra_sweeps`` evaluation sweeps
    under the rule and rows the improvement recorded.

    With ``extra_sweeps`` 0 this is exactly the Gauss-Seidel maximin update;
    iterated to convergence it approaches the fixed policy's value under its
    recorded worst-case rows.
    """
    sweep = improvement_sweep(game, v, lam)
    u = sweep.u0
    for _ in range(int(extra_sweeps)):
        u = evaluation_sweep(game, u, sweep.rule, sweep.worst_model, lam)
    return u


_stack_cache: "weakref.WeakKeyDictionary[TeamMarkovGame, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _rule_model_stacks(game: TeamMarkovGame) -> tuple[np.ndarray, np.ndarray, int]:
    """Stack every (rule, model) combination: transition matrices (N, m, m),
    expected one-step payoffs (N, m), and the combination count N."""
    cached = _stack_cache.get(game)
    if cached is not None:
        return cached
    m = game.m
    mats = []
    pays = []
    for combo in itertools.product(range(game.n_joint_actions), repeat=m):
        counts = [game.n_rows[k, combo[k]] for k in range(m)]
        grid = np.indices(counts).reshape(m, -1)
        n_mod = grid.shape[1]
        P = np.empty((n_mod, m, m))
        pe = np.empty((n_mod, m))
        for k in range(m):
            P[:, k, :] = game.candidates[k, combo[k], grid[k]]
            pe[:, k] = game.payoff_exp[k, combo[k], grid[k]]
        mats.append(P)
        pays.append(pe)
    P_all = np.concatenate(mats)
    pe_all = np.concatenate(pays)
    result = (P_all, pe_all, P_all.shape[0])
    _stack_cache[game] = result
    return result


def best_case_multistep(
    game: TeamMarkovGame,
    v: np.ndarray,
    extra_sweeps: int,
    lam: float,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> np.ndarray:
    """Componentwise best (extra_sweeps + 1)-sweep update over every decision
    rule and every admissible model.

    Test-oracle operator: cost grows with the rule count times the per-rule
    model count, so it is gated behind ``budget`` and meant for small
    instances only.
    """
    total_rules = game.n_joint_actions ** game.m
    if total_rules > budget:
        raise BudgetExceededError(total_rules, budget)
    P, pe, n_combo = _rule_model_stacks(game)
    if n_combo > budget:
        raise BudgetExceededError(n_combo, budget)
    v = np.asarray(v, dtype=float)
    m = game.m
    X = np.tile(v, (n_combo, 1))
    for _ in range(int(extra_sweeps) + 1):
        prev = X.copy()
        for k in range(m):
            lower = (
                np.einsum("nl,nl->n", P[:, k, :k], X[:, :k]) if k > 0 else 0.0
            )
            upper = np.einsum("nl,nl->n", P[:, k, k:], prev[:, k:])
            X[:, k] = pe[:, k] + lam * (lower + upper)
    return X.max(axis=0)


def fixed_model_arrays(
    game: TeamMarkovGame, rule: TeamDecisionRule, model_rows: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense transition matrix and expected one-step payoff vector for a
    fixed rule and per-state candidate-row choice."""
    index = (np.arange(game.m), list(rule.joint_actions), list(model_rows))
    return game.candidates[index], game.payoff_exp[index]


def gs_splitting(P: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Seidel regular splitting (Q, R) of I - lam*P:
    Q = I - lam * strict lower part of P, R = lam * upper part incl. diagonal."""
    P = np.asarray(P, dtype=float)
    Q = np.eye(P.shape[0]) - lam * np.tril(P, -1)
    R = lam * np.triu(P, 0)
    return Q, R


def backup_lattice(game: TeamMarkovGame, v: np.ndarray, lam: float) -> np.ndarray:
    """Exact Gauss-Seidel backup value of every (state, joint action) at v,
    as an (m, n_joint_actions) array; partial values build up via the
    per-state maxima exactly as in an improvement sweep."""
    w = np.array(v, dtype=float)
    out = np.empty((game.m, game.n_joint_actions))
    for k in range(game.m):
        out[k], _ = _row_min(game.payoff_exp[k], game.candidates[k], w, lam)
        w[k] = out[k].max()
    return out
