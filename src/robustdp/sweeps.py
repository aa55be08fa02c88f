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

The module holds only what the solvers and the CLI run.  The slow
references the tests hold these operators to (the per-(state, action)
backup, the splitting (Q, R), the best (m+1)-sweep update over every rule
and model) live in ``tests/conftest.py``.

All functions are pure in (game, vector, parameters).  Ties in action or row
selection break to the lowest index (``argmax``/``argmin``), so traces replay
exactly; action comparison is exact floating comparison with no epsilon
fuzz.  Row scores use ``@`` (BLAS), never ``einsum`` or a multiply-then-sum:
those round differently, and results and traces must replay bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TeamDecisionRule, TeamMarkovGame
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


def fixed_model_arrays(
    game: TeamMarkovGame, rule: TeamDecisionRule, model_rows: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense transition matrix and expected one-step payoff vector for a
    fixed rule and per-state candidate-row choice."""
    index = (np.arange(game.m), list(rule.joint_actions), list(model_rows))
    return game.candidates[index], game.payoff_exp[index]


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
