"""The robust Gauss-Seidel backup and the sweeps built on it.

Every operator here is one kernel, :func:`_row_min`: each candidate row of a
(state, group of identical joint actions) pair scores its expected immediate
team payoff plus the discounted continuation,
``group_payoff_exp + lam * (group_candidates @ w)``, and the adversary takes
the minimum over rows.  Callers hold the action or the row fixed, choose the
continuation ``w``, and take the maximum over groups.  Padded candidate slots
score ``+inf`` and never win the minimum; padded groups score ``-inf`` and
never win the maximum.

Every member of a group backs up to the same value, so each group is backed
up once.  Groups are numbered by their lowest member, so the first
maximising group holds the first maximising action: an earlier action with
the maximal value would sit in a group with a lower number.  Its lowest
member, ``group_action[k, g]``, is therefore the action a backup of every
action would choose.  Only unlocked noise tells the members of a group
apart, because each action draws its own noise: that sweep spreads the
group values over all actions before it adds the noise and takes the max.

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

The evaluation sweeps of a step all run under the rule and worst-case rows
its improvement sweep recorded, so each is the same affine map.  The solver
gathers the dense (P, r) of those with :func:`fixed_model_arrays` (the row
of state k is ``P[k] = group_candidates[k, action_group[k, rule[k]],
rows[k]]``) and forms the map once with :func:`evaluation_operator`, only
when the rule or the rows differ from the last gather.  For Gauss-Seidel
that is the splitting's x = Q^{-1} (R u + r): one triangular solve per
gather gives A = Q^{-1} R and b = Q^{-1} r, and every sweep is then one
matrix-vector product, ``A @ u + b``.  Jacobi sweeps take A = lam * P and b = r and run through the
same :func:`evaluation_sweep`; a step's sweeps run in one call.  A
perturbed sweep adds the noise each state's value takes as the sweep writes
it, pushed through the same solve: ``Q^{-1} noise``.  One oracle call draws
a whole sweep's noise, before the sweep backs up any state; only the locked
action's value, chosen as the sweep goes, takes one call per state.

The module holds only what the solvers and the CLI run.  The slow
references the tests hold these operators to (the per-(state, action)
backup, the splitting (Q, R), the best (m+1)-sweep update over every rule
and model) live in ``tests/conftest.py``.

All functions are pure in their arguments.  Ties in action or row
selection break to the lowest index (``argmax``/``argmin``), so traces replay
exactly; action comparison is exact floating comparison with no epsilon
fuzz.  Row scores use BLAS, never ``einsum`` or a multiply-then-sum: those
round differently, and results and traces must replay bit for bit.  The
kernel scores stacked rows with ``@``, one matrix-vector product per
(state, group) block of Kmax rows.  It never scores a state's groups as one
flat (G*Kmax, m) block, because BLAS rounds a row's product differently
depending on how many rows it is given: with numpy 2.4 and OpenBLAS 0.3.31
a flat block changes the bits of games whose candidate sets are all
singletons, and of m = 150 games at Kmax = 3.  An evaluation sweep sums
the terms of the per-state forward substitution in another order, so it
rounds differently from that loop: ``tests/test_kernel.py`` holds it to the
loop within a rounding bound, and the solvers to one sweep per call bit for
bit.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .model import TeamMarkovGame
from .perturb import PerturbationOracle

_min = np.minimum.reduce


class SweepResult(NamedTuple):
    """One improvement sweep: updated values, greedy rule, worst-case rows.

    ``rule[k]`` is the joint action chosen at state k, an int.
    ``worst_model[k]`` indexes the minimising candidate row recorded at the
    chosen action of state k; partial evaluation reuses exactly these rows.
    """

    u0: np.ndarray
    rule: tuple[int, ...]
    worst_model: tuple[int, ...]


def _row_min(
    payoff_exp: np.ndarray, candidates: np.ndarray, w: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case backups: the row scores
    ``q = payoff_exp + lam * (candidates @ w)`` and their minimum over the
    row axis (the last one of ``payoff_exp``).

    The minimising row is the first ``argmin`` of ``q`` over that axis;
    callers take it only where they need it.
    """
    q = payoff_exp + lam * (candidates @ w)
    return q, _min(q, axis=-1)


def improvement_sweep(
    game: TeamMarkovGame,
    v: np.ndarray,
    lam: float,
    approx: PerturbationOracle | None = None,
    step: int = 0,
) -> SweepResult:
    """One Gauss-Seidel improvement sweep.

    For each state in order: back up every joint action (one backup per
    group of identical actions), keep the maximum as the updated value,
    record the first maximising action and the exact minimising row at that
    action.  An ``approx`` oracle perturbs the backup of every action before
    the maximum is taken, or with ``argmax_lock`` only the value of the
    action the exact backups chose.
    """
    w = np.array(v, dtype=float)
    m = len(w)
    payoff_exp, candidates = game.group_payoff_exp, game.group_candidates
    action_group, group_action = game.action_group, game.group_action
    lock = approx is not None and approx.argmax_lock
    noise = None
    if approx is not None and not lock:
        queries = product(range(m), range(action_group.shape[1]))
        noise = approx.perturb(step, 0, queries).reshape(m, -1)
    rule = [0] * m
    worst = [0] * m
    for k in range(m):
        q, vals = _row_min(payoff_exp[k], candidates[k], w, lam)
        if noise is None:
            g = int(vals.argmax())
            a = group_action.item(k, g)
            w[k] = vals[g] + approx.perturb(step, 0, [(k, a)])[0] if lock else vals[g]
        else:
            vals = vals[action_group[k]] + noise[k]
            a = int(vals.argmax())
            g = action_group.item(k, a)
            w[k] = vals[a]
        rule[k] = a
        worst[k] = int(q[g].argmin())
    return SweepResult(w, tuple(rule), tuple(worst))


def jacobi_improvement_sweep(
    game: TeamMarkovGame, v: np.ndarray, lam: float
) -> SweepResult:
    """Exact improvement sweep with no within-sweep updates (baselines)."""
    q, vals = _row_min(
        game.group_payoff_exp, game.group_candidates, np.asarray(v, dtype=float), lam
    )
    groups = vals.argmax(axis=1)
    states = np.arange(game.m)
    return SweepResult(
        vals[states, groups],
        tuple(game.group_action[states, groups].tolist()),
        tuple(q[states, groups].argmin(axis=-1).tolist()),
    )


def _unit_lower_solve(a: np.ndarray, x: np.ndarray, lo: int, hi: int) -> None:
    """Overwrite rows ``lo:hi`` of ``x`` with the solution y of
    (I - L) y = x on that diagonal block, where L is the strictly lower
    triangular part of ``a``; only entries of ``a`` below its diagonal are
    read.

    Recursive halving: solve the top half, fold it into the bottom half's
    right-hand side with one matmul, solve the bottom half.  A 1x1 block is
    solved as it stands, because the diagonal of I - L is 1.
    """
    if hi - lo > 1:
        mid = (lo + hi) // 2
        _unit_lower_solve(a, x, lo, mid)
        x[mid:hi] += a[mid:hi, lo:mid] @ x[lo:mid]
        _unit_lower_solve(a, x, mid, hi)


def evaluation_operator(
    P: np.ndarray,
    r: np.ndarray,
    lam: float,
    gauss_seidel: bool = True,
    noisy: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The affine map ``u -> A @ u + b`` of one evaluation sweep under a
    fixed rule and fixed worst-case rows, and the map ``N`` of its noise.

    ``(P, r)`` are the rule's transition matrix and expected one-step
    payoffs under those rows, as :func:`fixed_model_arrays` gathers them.
    A Jacobi sweep is ``A = lam * P``, ``b = r``.  A Gauss-Seidel sweep
    solves (I - lam*P_lower) x = r + lam*P_upper u + noise, so with
    Q = I - lam*P_lower it is ``A = Q^{-1} lam*P_upper``, ``b = Q^{-1} r``
    and ``N = Q^{-1}``; Q is unit lower triangular, so all three come from
    one solve of Q [A | b | N] = [lam*P_upper | r | I].  ``N`` is formed only
    when ``noisy``, and is None otherwise.
    """
    scaled = lam * P
    if not gauss_seidel:
        return scaled, r, None
    m = len(r)
    parts = [np.triu(scaled), r[:, None]]
    if noisy:
        parts.append(np.eye(m))
    x = np.hstack(parts)
    # The solve reads only the entries of ``scaled`` below its diagonal.
    _unit_lower_solve(scaled, x, 0, m)
    return (
        np.ascontiguousarray(x[:, :m]),
        np.ascontiguousarray(x[:, m]),
        np.ascontiguousarray(x[:, m + 1 :]) if noisy else None,
    )


def evaluation_sweep(
    op: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    u: np.ndarray,
    noise: np.ndarray | None = None,
    sweeps: int = 1,
) -> np.ndarray:
    """``sweeps`` evaluation sweeps under a fixed rule and fixed worst-case
    rows, each one matrix-vector product: ``u = A @ u + b``.

    ``op`` is the ``(A, b, N)`` of :func:`evaluation_operator`, Gauss-Seidel
    or Jacobi.  ``noise``, when given, is an array of ``sweeps`` rows, one
    per sweep (a flat row of m draws serves one sweep): ``noise[s, k]`` is
    the perturbation oracle's draw for state k's query in sweep s, added to
    that state's value as the sweep writes it, so the sweep also adds
    ``N @ noise[s]``.  Each sweep returns a fresh array, and ``sweeps``
    sweeps in one call give the bits of ``sweeps`` chained one-sweep calls.
    """
    A, b, N = op
    if noise is not None:
        noise = np.reshape(noise, (sweeps, len(b)))
    for s in range(sweeps):
        u = A @ u
        u += b
        if noise is not None:
            u += N @ noise[s]
    return u


def fixed_model_arrays(
    game: TeamMarkovGame, joint_actions: tuple[int, ...], model_rows: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense transition matrix and expected one-step payoff vector for a
    fixed rule (its joint action per state) and candidate-row choice."""
    states = np.arange(game.m)
    index = (states, game.action_group[states, joint_actions], np.array(model_rows))
    return game.group_candidates[index], game.group_payoff_exp[index]


def backup_lattice(game: TeamMarkovGame, v: np.ndarray, lam: float) -> np.ndarray:
    """Exact Gauss-Seidel backup value of every (state, joint action) at v,
    as an (m, n_joint_actions) array; partial values build up via the
    per-state maxima exactly as in an improvement sweep."""
    w = np.array(v, dtype=float)
    out = np.empty((game.m, game.n_joint_actions))
    for k in range(game.m):
        _, vals = _row_min(game.group_payoff_exp[k], game.group_candidates[k], w, lam)
        out[k] = vals[game.action_group[k]]
        w[k] = out[k].max()
    return out
