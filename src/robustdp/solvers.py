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

from .model import TeamDecisionRule, TeamMarkovGame, sup_norm
from .perturb import PerturbationOracle
from .sweeps import (
    _row_min,
    evaluation_sweep,
    fixed_model_arrays,
    improvement_sweep,
    jacobi_improvement_sweep,
)

log = logging.getLogger("robustdp.solvers")

MtSchedule = int | Sequence[int]

_max = np.maximum.reduce

#: Tolerance of the terminal robust evaluation (:func:`evaluate_policy_robust`).
ROBUST_EVAL_TOL = 1e-12


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
    a constant, or a list indexed by step with its last entry repeated.
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
    the incoming value function of every step.  For a terminated run the
    length is iterations + 1."""

    residuals: list[float] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.residuals)


@dataclass(frozen=True)
class SolverResult:
    """Returned policy with its robust evaluation and run metadata.

    ``worst_model`` holds the per-state minimising row indices certifying
    ``value`` (the robust evaluation of ``policy``).  ``terminated`` is set
    only when the residual fell below the termination threshold.
    """

    algo: str
    policy: TeamDecisionRule
    worst_model: tuple[int, ...]
    value: np.ndarray
    iterations: int
    terminated: bool
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
            value, worst = evaluate_policy_robust(game, sweep.rule, lam)
            log.debug("%s terminated at t=%d residual=%.3e", algo, t, residual)
            return SolverResult(algo, sweep.rule, worst, value, t, True, trace)
        u = sweep.u0
        mt = _mt_at(params.mt_schedule, t)
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
    value, worst = evaluate_policy_robust(game, last_rule, lam)
    log.warning("%s hit max_iterations=%d without terminating", algo, params.max_iterations)
    return SolverResult(
        algo, last_rule, worst, value, params.max_iterations, False, trace
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


def evaluate_policy_robust(
    game: TeamMarkovGame,
    rule: TeamDecisionRule,
    lam: float,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Worst-case value of a fixed rule over its admissible models.

    Iterates the per-state fixed point v <- min over candidate rows of
    row @ (payoff + lam * v), which by row rectangularity equals the minimum
    over whole transition matrices.  Successive one-step backups alternate
    with exact evaluation of the current minimising rows, and the iteration
    stops once a backup step moves the value by less than
    ``termination_threshold(lam, ROBUST_EVAL_TOL, 0.0)`` in sup norm (or the
    minimising rows repeat, i.e. the fixed point is reached to linear-solve
    precision).  Returns the value and the final per-state minimising row
    indices.  Raises ``ValueError`` unless 0 <= lam < 1.
    """
    _check_lam(lam)
    game.validate_rule(rule)
    m = game.m
    states = np.arange(m)
    groups = game.action_group[states, rule.joint_actions]
    cand = game.group_candidates[states, groups]
    pe = game.group_payoff_exp[states, groups]
    threshold = termination_threshold(lam, ROBUST_EVAL_TOL, 0.0)
    eye = np.eye(m)
    v = np.zeros(m)
    prev_rows: tuple[int, ...] | None = None
    q = v
    rows: tuple[int, ...] = (0,) * m
    for _ in range(10_000):
        scores, q = _row_min(pe, cand, v, lam)
        picked = scores.argmin(axis=-1)
        rows = tuple(picked.tolist())
        if sup_norm(q - v) < threshold or rows == prev_rows:
            return q, rows
        v = np.linalg.solve(eye - lam * cand[states, picked], pe[states, picked])
        prev_rows = rows
    log.warning("robust evaluation did not settle; returning last iterate")
    return q, rows
