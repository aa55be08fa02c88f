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
when the rule's groups or the rows change.  For Gauss-Seidel
that is the splitting's x = Q^{-1} (R u + r): one triangular solve per
gather gives A = Q^{-1} R and b = Q^{-1} r, and every sweep is then one
matrix-vector product, ``A @ u + b``.  The solve halves Q down to diagonal
blocks of at most ``LEAF`` (32) rows and applies each block's inverse,
formed for all blocks in one batched product of powers, so a formation
makes a few dozen numpy calls rather than one per row.  A game of at most
``LEAF`` states halves down to single rows, so its operator keeps its bytes.
Jacobi sweeps take A = lam * P and b = r and run through the same
:func:`evaluation_sweep`; a step's sweeps run in one call.  A
perturbed sweep adds the noise each state's value takes as the sweep writes
it, pushed through the same solve: ``Q^{-1} noise``.  One oracle call draws
a whole sweep's noise, before the sweep backs up any state; only the locked
action's value, chosen as the sweep goes, takes one call per state.

On a run's tail the improvement sweep records, step after step, the (rule,
rows) of the operator the solver holds, and is then that affine map up to
rounding.  :func:`_tail_check` scores such a sweep in full and certifies the
margin its choices win by, a :class:`Certificate`, and :func:`_carries`
tests whether a certificate still proves them at a later value; the solver
decides when either runs (see :mod:`robustdp.solvers`).  A check that
declines returns the record its own scores prefer, if they prefer it by
more than the check's tol at every state: where the record changes, that
is most often the sweep's new record, which a check under the record's
own operator can prove.

The module holds only what the solvers and the CLI run.  The slow
references the tests hold these operators to (the per-(state, action)
backup, the splitting (Q, R), the best (m+1)-sweep update over every rule
and model) live in ``tests/conftest.py``.

All functions are pure in their arguments.  Ties in action or row
selection break to the lowest index (``argmax``/``argmin``), so traces replay
exactly; action comparison is exact floating comparison with no epsilon
fuzz (the tail check's and a certificate's margins only decide whether
they can vouch for the plain sweep's choices).  Row scores use BLAS, never
``einsum`` or a multiply-then-sum: those round differently, and results
and traces must replay bit for bit.  The kernel scores stacked rows with ``@``, one
matrix-vector product per (state, group) block of Kmax rows.  It never
scores a state's groups as one flat (G*Kmax, m) block, because BLAS rounds
a row's product differently depending on how many rows it is given: with
numpy 2.4 and OpenBLAS 0.3.31 a flat block changes the bits of games whose
candidate sets are all singletons, and of m = 150 games at Kmax = 3.  (The
tail check does score flat blocks; its margin covers that rounding.)  An
evaluation sweep sums the terms of the per-state forward substitution in
another order, so it rounds differently from that loop:
``tests/test_kernel.py`` holds it to the loop within a rounding bound, and
the solvers to one sweep per call bit for bit.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .model import TeamMarkovGame
from .perturb import PerturbationOracle

_min = np.minimum.reduce
_max = np.maximum.reduce
_EPS = np.finfo(float).eps
# The largest diagonal block the Gauss-Seidel operator's solve inverts: of
# 16 to 80, 32 forms within 4 % of the fastest at m = 50 to 500, and 80 is
# up to 2.3x slower.  A game of at most this many states halves down to
# single rows.
LEAF = 32


class Certificate(NamedTuple):
    """A full scoring's proof of a sweep's choices: at value ``v``, where
    the sweep's operator gives ``w = A @ v + b``, every state's recorded
    group and row beat every other group and row by at least ``margin``."""

    v: np.ndarray
    w: np.ndarray
    margin: float


class SweepResult(NamedTuple):
    """One improvement sweep: updated values, greedy rule, worst-case rows.

    ``rule[k]`` is the joint action chosen at state k, an int.
    ``worst_model[k]`` indexes the minimising candidate row recorded at the
    chosen action of state k; partial evaluation reuses exactly these rows.
    ``certificate`` is the :class:`Certificate` of the full scoring that
    proved this rule and these rows: a passing :func:`_tail_check`, a
    Jacobi sweep run with ``certify``, or one the solver carried.  It is
    None when no scoring did, as for every per-state loop.
    """

    u0: np.ndarray
    rule: tuple[int, ...]
    worst_model: tuple[int, ...]
    certificate: Certificate | None = None


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


def _fold(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` for ``np.minimum`` or ``np.maximum``, as
    one elementwise call per slice of the last axis.

    The reduction pays a call per entry of its result, so over the short
    row and group axes of a full scoring this is 4x faster at shape
    (150, 4, 4) and 14x at (500, 4, 4).  The values are the reduction's;
    only the sign of a NaN, and on an axis of more than 8 entries the sign
    of a zero, can differ, and neither decides a comparison.
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        ufunc(out, x[..., j], out=out)
    return out


def _margin(
    chosen: np.ndarray, vals: np.ndarray, groups: np.ndarray, picked: np.ndarray
) -> tuple[np.ndarray, float]:
    """Each state's score at group ``groups[k]`` and row ``picked[k]``, and
    the least amount by which those choices win: the smallest, over
    states, of the gap up to the next row of the group and the gap down to
    the best other group's minimum.

    ``chosen`` are the (m, Kmax) row scores of each state's group
    ``groups[k]``, and ``vals`` the (m, G) minima over rows of every
    group's scores; this overwrites both at the choices.  An exact tie, a
    duplicate row among them, gives 0; a state whose group and row have no
    rival gives ``+inf``, as padding scores ``+inf`` in a group and
    ``-inf`` for a group.
    """
    states = np.arange(len(groups))
    best = chosen[states, picked]
    chosen[states, picked] = np.inf
    vals[states, groups] = -np.inf
    gaps = np.minimum(
        _fold(np.minimum, chosen) - best, best - _fold(np.maximum, vals)
    )
    return best, float(_min(gaps))


def _carries(
    certificate: Certificate,
    v: np.ndarray,
    w: np.ndarray,
    lam: float,
    gauss_seidel: bool,
) -> bool:
    """Whether ``certificate`` still proves its choices at ``v``, where the
    operator of those choices gives ``w = A @ v + b``: whether its margin
    exceeds ``lam`` times the span of the change since its scoring, plus a
    rounding tol.  A NaN anywhere does not carry.

    Let the scoring be at v0 with w0 = A @ v0 + b and margin M.  The sweep
    at v makes the same choices without scoring when
    M - lam * sp(D) > tol1, where sp(x) = max x - min x and D joins
    w - w0 and v - v0: the change of every continuation (w[:k], v[k:]).
    In exact arithmetic the difference of two scores of one state moves by
    lam * (c - c') @ d, for rows c, c' and the change d of that state's
    continuation.  Writing d = a * 1 + e with a the midpoint of d's range,
    |e| <= sp(d) / 2, that is at most lam * (sp(D) * (1 + s) + 2 * s * |D|),
    where s bounds |sum(c) - 1|: the game divides each row by its float
    sum, so s <= (m + 1) * eps / 2.  With S the largest of |v0|, |w0|,
    |v|, |w|, so |D| <= 2 * S and sp(D) <= 4 * S, tol1 covers:

    * the rounding at the scoring and now: the check's scores at v0 against
      exact scores, and the sweep's scores at v against exact scores at
      (w[:k], v[k:]), the latter with the sweep's forward substitution
      against A @ v + b; together the tol of :func:`_tail_check`, at
      scale S;
    * row sums that are 1 only to rounding: 4 * (m + 1) * eps * S;
    * the rounding of D and of its span, 4 * eps * S.

    So tol1 = 2 * eps * S * (3 * (m + 2) + 24 * m * lam / (1 - lam)).  A
    Jacobi sweep scores every state on v and makes its own scores, so its
    certificate joins only v - v0 and drops the forward-substitution term:
    tol1 = 6 * (m + 2) * eps * S.  On a run's tail D is close to a multiple
    of 1, whose span is 0, so one scoring serves many steps; a zero margin
    never carries.
    """
    v0, w0, margin = certificate
    m = len(v)
    delta = np.concatenate((w - w0, v - v0)) if gauss_seidel else v - v0
    scale = _max(np.abs(np.concatenate((v0, w0, v, w))))
    terms = 3 * (m + 2) + (24 * m * lam / (1.0 - lam) if gauss_seidel else 0.0)
    return bool(margin - lam * (_max(delta) - _min(delta)) > 2 * _EPS * scale * terms)


def _tail_check(
    game: TeamMarkovGame,
    v: np.ndarray,
    w: np.ndarray,
    lam: float,
    rule: tuple[int, ...],
    rows: tuple[int, ...],
    below: np.ndarray,
) -> tuple[SweepResult | None, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """The exact improvement sweep at ``v``, if it records ``rule`` and
    ``rows`` again, with its :class:`Certificate`; else the record to try
    next, if the scores name one.  Returns ``(sweep, None)``,
    ``(None, (rule', rows'))`` or ``(None, None)``.

    ``w = A @ v + b`` under the Gauss-Seidel :func:`evaluation_operator`
    of ``rule`` and ``rows``, so it is the sweep's forward substitution
    under them, up to rounding.  ``below`` is ``np.tri(m, m, -1,
    dtype=bool)``, which depends only on m, so a run forms it once.  Every
    (state k, group, row) is scored in one batched product against the
    continuation ``(w[:k], v[k:])``, as the sweep would score it had it
    chosen ``rule`` and ``rows`` at every earlier state.  The scores prefer, at each state, the first group of
    the highest minimum over rows and that group's first minimising row,
    and those win by a margin M, the smallest over states of the gaps to
    every other group's minimum and every other row of the group.  When
    M > ``tol`` and the preferred record is ``rule`` and ``rows``, with
    ``rule[k]`` its group's lowest member, the result is the sweep: each
    state's score at its choice, ``rule`` and ``rows``.  When M > ``tol``
    and the record differs, the result is the preferred record, each
    action its group's lowest member: it is what the sweep records if its
    values are close to ``w``, and only a check under its own operator can
    tell.  Otherwise the result is neither, as for exact ties, duplicate
    rows among them.

    ``tol`` bounds twice the gap between a score here and the sweep's score
    of the same row, given the sweep chose ``rule`` and ``rows`` before
    state k.  With eps the double spacing at 1 and S = max(|v|, |w|) in sup
    norm, the gap is at most:

    * the rounding of either side's m-term dot product of a stochastic row,
      and of its scaling and payoff, together at most (m + 2) * eps * S for
      the scores that decide: those near the winner, of size about S;
    * plus lam times the largest gap between ``w[l]`` and the sweep's value
      at an earlier state l, which the sweep computes by forward
      substitution.  That is the gap ``tests/test_kernel.py`` holds an
      evaluation sweep to, 8 * m * eps * S' with
      S' = (|r| + lam * |v|) / (1 - lam); since w = r + lam * P (w, v) up
      to rounding, |r| <= (1 + lam) * S, so S' <= 3 * S / (1 - lam).

    So tol = 2 * eps * S * (m + 2 + 24 * m * lam / (1 - lam)).  By
    induction over the states, a winner by more than tol here is a strict
    winner in the sweep, so the sweep makes the same choices and its values
    differ from these by at most tol / 2.  Exact ties, duplicate rows among
    them, never pass.  A non-finite v or w makes tol infinite or NaN, and
    the check fails.
    """
    m = game.m
    # x[k] = (w[:k], v[k:]): the continuation the sweep backs up state k on.
    x = np.empty((m, m))
    x[:] = v
    np.copyto(x, w, where=below)
    cand = game.group_candidates
    n_groups, n_rows = cand.shape[1:3]
    scores = (cand.reshape(m, n_groups * n_rows, m) @ x[:, :, None]).reshape(
        m, n_groups, n_rows
    )
    scores *= lam
    scores += game.group_payoff_exp
    states = np.arange(m)
    vals = _fold(np.minimum, scores)
    groups = vals.argmax(axis=1)
    chosen = scores[states, groups]
    picked = chosen.argmin(axis=-1)
    best, margin = _margin(chosen, vals, groups, picked)
    scale = max(_max(np.abs(v)), _max(np.abs(w)))
    tol = 2 * _EPS * scale * (m + 2 + 24 * m * lam / (1.0 - lam))
    if not margin > tol:
        return None, None
    acts = game.group_action[states, groups]
    record = (tuple(acts.tolist()), tuple(picked.tolist()))
    if record == (rule, rows):
        return SweepResult(best, rule, rows, Certificate(v, w, margin)), None
    return None, record


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
    action the exact backups chose.  The result has no certificate.
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
    game: TeamMarkovGame, v: np.ndarray, lam: float, certify: bool = False
) -> SweepResult:
    """Exact improvement sweep with no within-sweep updates (baselines).

    Every sweep scores every (state, group, row); with ``certify`` it also
    returns the :class:`Certificate` of the margin its choices win by.
    """
    v = np.asarray(v, dtype=float)
    q, vals = _row_min(game.group_payoff_exp, game.group_candidates, v, lam)
    groups = vals.argmax(axis=1)
    states = np.arange(game.m)
    chosen = q[states, groups]
    picked = chosen.argmin(axis=-1)
    sweep = SweepResult(
        vals[states, groups],
        tuple(game.group_action[states, groups].tolist()),
        tuple(picked.tolist()),
    )
    if certify:
        margin = _margin(chosen, vals, groups, picked)[1]
        return sweep._replace(certificate=Certificate(v, sweep.u0, margin))
    return sweep


def _leaf_inverses(a: np.ndarray) -> np.ndarray:
    """The inverse of I - L on each leaf of :func:`_unit_lower_solve`'s
    halving of ``a``'s rows into blocks of at most ``LEAF`` rows, in the
    order the solve reaches them, zero-padded to one (leaves, S, S) stack;
    L is the strictly lower triangular part of the leaf's block of ``a``.
    L is nilpotent, so the inverse is I + L + ... + L^(S-1), formed for all
    leaves at once as (I + L)(I + L^2)(I + L^4)...: ceil(log2 S) factors,
    each power the square of the last, and for a nonnegative ``a`` (as
    lam * P is) no sum cancels."""

    def leaves(lo: int, hi: int) -> list[tuple[int, int]]:
        if hi - lo <= LEAF:
            return [(lo, hi)]
        mid = (lo + hi) // 2
        return leaves(lo, mid) + leaves(mid, hi)

    bounds = leaves(0, len(a))
    size = max(hi - lo for lo, hi in bounds)
    power = np.zeros((len(bounds), size, size))
    for block, (lo, hi) in zip(power, bounds):
        block[: hi - lo, : hi - lo] = a[lo:hi, lo:hi]
    power = np.tril(power, -1)
    inverse = power + np.eye(size)
    for _ in range((size - 1).bit_length() - 1):
        power = power @ power
        inverse += inverse @ power
    return inverse


def _unit_lower_solve(a: np.ndarray, x: np.ndarray, lo: int, hi: int, inverses=None) -> None:
    """Overwrite rows ``lo:hi`` of ``x`` with the solution y of
    (I - L) y = x on that diagonal block, where L is the strictly lower
    triangular part of ``a``; only entries of ``a`` below its diagonal are
    read.

    Recursive halving: solve the top half, fold it into the bottom half's
    right-hand side with one matmul, solve the bottom half.  Without
    ``inverses`` it halves down to 1x1 blocks, each solved as it stands,
    because the diagonal of I - L is 1.  With ``inverses``, an iterator
    over :func:`_leaf_inverses` of ``a``, it halves down to blocks of at
    most ``LEAF`` rows, each solved by one product with its inverse.
    """
    if hi - lo > (1 if inverses is None else LEAF):
        mid = (lo + hi) // 2
        _unit_lower_solve(a, x, lo, mid, inverses)
        x[mid:hi] += a[mid:hi, lo:mid] @ x[lo:mid]
        _unit_lower_solve(a, x, mid, hi, inverses)
    elif inverses is not None:
        x[lo:hi] = next(inverses)[: hi - lo, : hi - lo] @ x[lo:hi]


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
    when ``noisy``, and is None otherwise.  A game of more than ``LEAF``
    states halves the solve down to blocks of at most ``LEAF`` rows and
    solves each by its inverse, all formed in one batched computation; a
    smaller game halves down to single rows.
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
    inverses = iter(_leaf_inverses(scaled)) if m > LEAF else None
    _unit_lower_solve(scaled, x, 0, m, inverses)
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
