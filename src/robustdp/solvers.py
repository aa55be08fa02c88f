"""Outer solver loops for robust team Markov games.

Four solvers share one skeleton: run an improvement sweep, test the
termination residual, then run a configurable number of cheaper evaluation
sweeps under the rule and worst-case rows the improvement recorded.

* ``ratpi`` - Gauss-Seidel improvement + Gauss-Seidel partial evaluation.
* ``ratvi`` - ratpi with zero evaluation sweeps per step.
* ``rmpi``  - Jacobi improvement + Jacobi partial evaluation (baseline).
* ``rvi``   - rmpi with zero evaluation sweeps per step (baseline).

The Gauss-Seidel pair accepts an injectable bounded-error oracle; its
termination threshold is (1-lam)*epsilon/(2*lam) - delta, where delta bounds
the per-query error through the oracle (|error| <= lam*delta; a run whose
oracle bound exceeds lam*delta is rejected up front).  The Jacobi
baselines always run exact and use the delta = 0 threshold, so iteration
counts are comparable across all four solvers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .model import TeamDecisionRule, TeamMarkovGame
from .perturb import PerturbationOracle
from .sweeps import (
    evaluation_sweep,
    fixed_model_arrays,
    improvement_sweep,
    jacobi_improvement_sweep,
)

log = logging.getLogger("robustdp.solvers")

MtSchedule = int | Sequence[int]

_max = np.maximum.reduce
_min = np.minimum.reduce

#: Tolerance of the terminal robust evaluation (:func:`evaluate_policy_robust`).
ROBUST_EVAL_TOL = 1e-12
#: Rounds after which :func:`evaluate_policy_robust` stops unsettled.
ROBUST_EVAL_MAX_ROUNDS = 10_000


def max_delta(lam: float, epsilon: float) -> float:
    """Strict upper bound on the approximation parameter delta."""
    if lam == 0.0:
        return math.inf
    return (1.0 - lam) ** 2 * epsilon / (2.0 * lam * (1.0 + lam))


def _check_lam(lam: float) -> None:
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must be in [0, 1), got {lam}")


def termination_threshold(lam: float, epsilon: float, delta: float) -> float:
    """Residual below which the improvement step stops the solver."""
    if lam == 0.0:
        return math.inf
    return (1.0 - lam) * epsilon / (2.0 * lam) - delta


@dataclass(frozen=True)
class SolverParams:
    """Shared solver configuration.

    ``mt_schedule`` gives the number of partial-evaluation sweeps per step:
    a constant, or a list indexed by step with its last entry repeated.  A
    run without a perturbation oracle whose residual fails to fall drops
    its sweeps for the rest of the run (see :func:`_run`).
    ``v0_mode`` selects the initial value function: ``"remark1"`` fills
    every state with min payoff / (1 - lam), which keeps the maximin update
    residual nonnegative and hence the iterates monotone; ``"zeros"`` starts
    at 0; an explicit array is used as given.
    """

    lam: float
    epsilon: float
    delta: float = 0.0
    mt_schedule: MtSchedule = 5
    v0_mode: str | Sequence[float] | np.ndarray = "remark1"
    max_iterations: int = 1_000_000

    def __post_init__(self):
        _check_lam(self.lam)
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        bound = max_delta(self.lam, self.epsilon)
        if not 0.0 <= self.delta < bound:
            raise ValueError(
                f"delta must satisfy 0 <= delta < {bound!r}, got {self.delta!r}"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if isinstance(self.mt_schedule, int):
            if self.mt_schedule < 0:
                raise ValueError("mt_schedule must be nonnegative")
        else:
            sched = tuple(int(x) for x in self.mt_schedule)
            if not sched or any(x < 0 for x in sched):
                raise ValueError("mt_schedule list must be nonempty and nonnegative")
            object.__setattr__(self, "mt_schedule", sched)


def _mt_at(schedule: MtSchedule, t: int) -> int:
    if isinstance(schedule, int):
        return schedule
    return schedule[t] if t < len(schedule) else schedule[-1]


def initial_value(game: TeamMarkovGame, params: SolverParams) -> np.ndarray:
    """Initial value function selected by ``params.v0_mode``."""
    mode = params.v0_mode
    if isinstance(mode, str):
        if mode == "remark1":
            floor = float(game.group_payoff.min()) / (1.0 - params.lam)
            return np.full(game.m, floor)
        if mode == "zeros":
            return np.zeros(game.m)
        raise ValueError(f"unknown v0_mode {mode!r}")
    v0 = np.asarray(mode, dtype=float)
    if v0.shape != (game.m,):
        raise ValueError(f"explicit v0 must have shape ({game.m},)")
    if not np.all(np.isfinite(v0)):
        raise ValueError("explicit v0 must be finite")
    return v0.copy()


@dataclass
class SolverTrace:
    """Per-step record of what the CLI writes: the improvement residual and
    the incoming value function of every step.  For a terminated run each
    list holds iterations + 1 entries."""

    residuals: list[float] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True)
class SolverResult:
    """Returned policy with its robust evaluation and run metadata.

    ``worst_model`` holds the per-state minimising row indices certifying
    ``value`` (the robust evaluation of ``policy``).  ``terminated`` is set
    only when the residual fell below the termination threshold, and
    ``settled`` only when that robust evaluation settled within
    ``ROBUST_EVAL_MAX_ROUNDS`` rounds.
    """

    algo: str
    policy: TeamDecisionRule
    worst_model: tuple[int, ...]
    value: np.ndarray
    iterations: int
    terminated: bool
    settled: bool
    trace: SolverTrace


def _warn_if_unreachable(
    game: TeamMarkovGame,
    params: SolverParams,
    threshold: float,
    residual0: float,
    algo: str,
) -> None:
    """Log one WARNING when the termination threshold looks unreachable:
    it lies below the spacing of doubles at the value scale
    r_max / (1 - lam), so only an exact-zero residual can stop the run, or
    the lam-rate bound log(threshold / residual0) / log(lam) on the steps
    needed exceeds ``max_iterations``.  The run goes on either way:
    Gauss-Seidel often beats the lam rate, and exact-zero residuals occur."""
    lam = params.lam
    if lam == 0.0 or residual0 < threshold:
        return
    problems = []
    spacing = float(np.spacing(game.r_max / (1.0 - lam)))
    if threshold < spacing:
        problems.append(
            f"threshold {threshold:.3g} is below the double spacing {spacing:.3g} "
            f"of the value scale r_max/(1-lambda)"
        )
    # A difference of logs: the ratio threshold / residual0 can underflow.
    steps = (math.log(threshold) - math.log(residual0)) / math.log(lam)
    if steps > params.max_iterations:
        problems.append(
            f"the lambda-rate bound of {steps:.3g} steps exceeds "
            f"max_iterations={params.max_iterations}"
        )
    if problems:
        log.warning("%s may not terminate: %s", algo, "; ".join(problems))


def _run(
    game: TeamMarkovGame,
    params: SolverParams,
    approx: PerturbationOracle | None,
    gauss_seidel: bool,
    algo: str,
) -> SolverResult:
    lam = params.lam
    if not math.isfinite(game.r_max / (1.0 - lam)):
        raise ValueError(
            f"r_max / (1 - lambda) is not finite (r_max={game.r_max!r}, "
            f"lambda={lam!r}); rescale the payoffs"
        )
    delta = params.delta if gauss_seidel else 0.0
    if approx is not None and approx.bound > lam * delta:
        raise ValueError(
            f"{algo}: perturbation bound {approx.bound!r} exceeds "
            f"lambda * delta = {lam * delta!r}"
        )
    threshold = termination_threshold(lam, params.epsilon, delta)
    # The evaluation sweeps run under the worst-case rows of the step's
    # start, so they can overshoot the robust value and cycle: an exact run
    # whose residual fails to fall goes on as value iteration, which
    # contracts by lam each step.
    sweeps_on = True
    v = initial_value(game, params)
    trace = SolverTrace()
    last_rule: TeamDecisionRule | None = None
    for t in range(params.max_iterations):
        if gauss_seidel:
            sweep = improvement_sweep(game, v, lam, approx, t)
        else:
            sweep = jacobi_improvement_sweep(game, v, lam)
        residual = float(_max(np.abs(sweep.u0 - v)))
        if not math.isfinite(residual):
            raise ValueError(
                f"{algo}: residual {residual!r} at step {t} is not finite"
            )
        trace.residuals.append(residual)
        trace.values.append(v)
        if t == 0:
            _warn_if_unreachable(game, params, threshold, residual, algo)
        last_rule = sweep.rule
        if residual < threshold:
            value, worst, settled = evaluate_policy_robust(game, sweep.rule, lam)
            log.debug("%s terminated at t=%d residual=%.3e", algo, t, residual)
            return SolverResult(algo, sweep.rule, worst, value, t, True, settled, trace)
        if sweeps_on and approx is None and t and residual >= trace.residuals[-2]:
            sweeps_on = False
            log.info("%s: residual did not fall at step %d; evaluation sweeps stop", algo, t)
        u = sweep.u0
        mt = _mt_at(params.mt_schedule, t) if sweeps_on else 0
        if mt:
            P, r = fixed_model_arrays(game, sweep.rule, sweep.worst_model)
            for s in range(1, mt + 1):
                if not gauss_seidel:
                    u = r + lam * (P @ u)
                    continue
                noise = None
                if approx is not None:
                    noise = approx.perturb(t, s, enumerate(sweep.rule.joint_actions))
                u = evaluation_sweep(P, r, u, lam, noise)
        v = u
    assert last_rule is not None
    value, worst, settled = evaluate_policy_robust(game, last_rule, lam)
    log.warning("%s hit max_iterations=%d without terminating", algo, params.max_iterations)
    return SolverResult(
        algo, last_rule, worst, value, params.max_iterations, False, settled, trace
    )


def solve_ratpi(
    game: TeamMarkovGame,
    params: SolverParams,
    approx: PerturbationOracle | None = None,
) -> SolverResult:
    """Gauss-Seidel robust team policy iteration with partial evaluation."""
    return _run(game, params, approx, gauss_seidel=True, algo="ratpi")


def solve_ratvi(
    game: TeamMarkovGame,
    params: SolverParams,
    approx: PerturbationOracle | None = None,
) -> SolverResult:
    """Gauss-Seidel robust team value iteration (no evaluation sweeps)."""
    result = _run(
        game, replace(params, mt_schedule=0), approx, gauss_seidel=True, algo="ratvi"
    )
    return result


def solve_rmpi(game: TeamMarkovGame, params: SolverParams) -> SolverResult:
    """Jacobi robust modified policy iteration baseline (exact backups)."""
    return _run(game, params, None, gauss_seidel=False, algo="rmpi")


def solve_rvi(game: TeamMarkovGame, params: SolverParams) -> SolverResult:
    """Jacobi robust value iteration baseline (exact backups)."""
    return _run(
        game, replace(params, mt_schedule=0), None, gauss_seidel=False, algo="rvi"
    )


SOLVERS = {
    "ratpi": solve_ratpi,
    "ratvi": solve_ratvi,
    "rmpi": solve_rmpi,
    "rvi": solve_rvi,
}


def _rule_stack(game: TeamMarkovGame, rules) -> np.ndarray:
    """``rules`` as an integer (R, m) array of joint actions, one rule per
    row; ``ValueError`` for any other shape or dtype, or an action outside
    [0, n_joint_actions)."""
    rules = np.asarray(rules)
    if rules.ndim != 2 or rules.shape[1] != game.m or rules.dtype.kind not in "iu":
        raise ValueError(
            f"rules must be an integer (R, {game.m}) array of joint actions, "
            f"got {rules.dtype} with shape {rules.shape}"
        )
    if rules.size and not 0 <= rules.min() <= rules.max() < game.n_joint_actions:
        raise ValueError(
            f"rules hold joint actions outside [0, {game.n_joint_actions})"
        )
    return rules


def evaluate_policy_robust(
    game: TeamMarkovGame,
    rule: TeamDecisionRule | np.ndarray,
    lam: float,
) -> tuple[np.ndarray, tuple[int, ...] | np.ndarray, bool | np.ndarray]:
    """Worst-case value of fixed rules over their admissible models.

    Iterates the per-state fixed point v <- min over candidate rows of
    row @ (payoff + lam * v), which by row rectangularity equals the minimum
    over whole transition matrices.  Successive one-step backups alternate
    with exact evaluation of the current minimising rows (policy iteration
    for the adversary), and a rule settles once a backup step moves its
    value by less than ``termination_threshold(lam, ROBUST_EVAL_TOL, 0.0)``
    in sup norm, or its minimising rows repeat (the fixed point is reached
    to linear-solve precision).

    ``rule`` is one :class:`TeamDecisionRule`, or an integer (R, m) array of
    joint actions, one rule per row.  A stack runs as one loop: each round
    scores every rule's candidate rows with one stacked matmul and solves
    every unsettled rule's linear system with one batched solve, and a rule
    leaves the stack in the round it settles.  Each rule's arithmetic is
    that of its own evaluation, so every row of a stacked call is bit for
    bit the one-rule result.

    Returns the value, the final per-state minimising row indices, and
    whether the rule settled: ``(m,)``, a tuple and a bool for one rule,
    ``(R, m)``, ``(R, m)`` and ``(R,)`` for a stack.  Rules still unsettled
    after ``ROBUST_EVAL_MAX_ROUNDS`` rounds return their last iterate with
    ``False``, and the call logs one warning that counts them.  Raises
    ``ValueError`` unless 0 <= lam < 1, or for an invalid rule.
    """
    _check_lam(lam)
    single = isinstance(rule, TeamDecisionRule)
    if single:
        game.validate_rule(rule)
        acts = np.array(rule.joint_actions)
    else:
        acts = _rule_stack(game, rule)
    m = game.m
    states = np.arange(m)
    n_groups, n_cand = game.group_payoff_exp.shape[1:]
    # One rule is a stack of leading shape (), so ``...`` spans the stack.
    # Flat indices of each rule's (state, group) pairs, gathered with
    # ``take``: one pass over a flat index is cheaper than fancy indexing.
    pair = states * n_groups + game.action_group[states, acts]
    cand = game.group_candidates.reshape(-1, n_cand, m).take(pair, axis=0)
    pe = game.group_payoff_exp.reshape(-1, n_cand).take(pair, axis=0)
    first_row = pair * n_cand
    threshold = termination_threshold(lam, ROBUST_EVAL_TOL, 0.0)
    eye = np.zeros((m, m))
    eye.flat[:: m + 1] = 1.0
    v = np.zeros(acts.shape)
    # ``left`` holds the stack positions of the rules still iterating, from
    # the first round in which some but not all of them settle.
    left = prev = None
    for _ in range(ROBUST_EVAL_MAX_ROUNDS):
        scores = (cand @ v[..., None, :, None])[..., 0]
        scores *= lam
        scores += pe
        q = _min(scores, axis=-1)
        picked = scores.argmin(axis=-1)
        step = q - v
        np.abs(step, out=step)
        done = _max(step, axis=-1) < threshold
        n_done = np.count_nonzero(done)
        if prev is not None and n_done < done.size:
            done |= _min(picked == prev, axis=-1)
            n_done = np.count_nonzero(done)
        if n_done == done.size and left is None:
            value, rows, settled = q, picked, done
            break
        if n_done:
            if left is None:
                left = np.arange(len(done))
                value = np.empty(q.shape)
                rows = np.empty(q.shape, dtype=np.intp)
                settled = np.zeros(len(done), dtype=bool)
            at = left[done]
            value[at], rows[at], settled[at] = q[done], picked[done], True
            if n_done == done.size:
                break
            keep = ~done
            left, q, picked = left[keep], q[keep], picked[keep]
            cand, pe, first_row = cand[keep], pe[keep], first_row[keep]
        row = first_row + picked
        a = game.group_candidates.reshape(-1, m).take(row, axis=0)
        a *= -lam
        a += eye  # eye - lam * P, to the bit
        b = game.group_payoff_exp.reshape(-1, 1).take(row, axis=0)
        v = np.linalg.solve(a, b)[..., 0]
        prev = picked
    else:
        if left is None:
            value, rows, settled = q, picked, done
        else:
            value[left], rows[left] = q, picked
        log.warning(
            "robust evaluation did not settle in %d rounds for %d of %d rules; "
            "returning the last iterates",
            ROBUST_EVAL_MAX_ROUNDS,
            q.size // m,
            acts.size // m,
        )
    if single:
        return value, tuple(rows.tolist()), bool(settled)
    return value, rows, settled
