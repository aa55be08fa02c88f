"""Outer solver loops for robust team Markov games.

Four solvers share one skeleton: run an improvement sweep, test the
termination residual, then run a configurable number of cheaper evaluation
sweeps under the rule and worst-case rows the improvement recorded.  Each
evaluation sweep, Gauss-Seidel or Jacobi, is one affine map u -> A u + b
(:func:`~robustdp.sweeps.evaluation_operator`).  The map is formed again,
from a fresh gather of the dense (P, r), only when the rule's groups or the
rows change, and a step's evaluation sweeps run in one call; the results
are bit for bit those of a fresh map and one call per sweep.

A step that ran evaluation sweeps leaves ``held``, the improvement
:class:`~robustdp.sweeps.SweepResult` whose rule and rows they ran under,
and ``op``, their map; a step without them leaves ``held`` None.  One gate
decides whether a run scores sweeps in full: the run is exact, and its game
has at least ``TAIL_CHECK_MIN_STATES`` states.  Behind it, a step that holds
a record forms w = A v + b under ``op`` once.  If ``held`` has a
:class:`~robustdp.sweeps.Certificate`, the margin M by which a full scoring
proved its choices, :func:`~robustdp.sweeps._carries` tests it at w: the
rows are stochastic, so two scores of one state move apart by at most
lam * sp(D), where sp is the span (max minus min) and D the change of the
continuation since the scoring (of v for Jacobi; of w and v joined for
Gauss-Seidel).  While M - lam * sp(D) exceeds a rounding tol, the step's
result is w with the held rule and rows, and no improvement sweep runs.
Otherwise a Jacobi sweep certifies its own choices.  A Gauss-Seidel step
that does not carry goes on in this order:

1. the tail check (:func:`~robustdp.sweeps._tail_check`) of the held rule
   and rows at the same w;
2. where that check declines but its scores prefer another record by more
   than its tol at every state, a guess: the step forms that record's
   operator and its own w = A v + b and checks the record, at most
   ``TAIL_GUESSES`` times, each declining check proposing the next;
3. the per-state loop, only where no check passed.

A proved guess's operator is the one its evaluation sweeps run under, so a
change of record costs one formation, as after the loop.  On a run's tail
D is close to a multiple of 1, whose span is 0, so one scoring serves many
steps, and near a change of record the check's scores name the new one
(Puterman 1994, sections 6.6-6.7).

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

from . import sweeps
from .model import TeamDecisionRule, TeamMarkovGame, _count, _real
from .perturb import PerturbationOracle
from .sweeps import (
    SweepResult,
    evaluation_operator,
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
#: Fewest states at which an exact run scores sweeps in full: on smaller
#: games the per-state loop costs less than the tail check.  A perturbed
#: sweep adds noise the operator does not hold, so no perturbed run does.
TAIL_CHECK_MIN_STATES = 8
#: Most records a step tries to prove, each proposed by the tail check before
#: it, when the check of the held record declines; then it runs the per-state
#: loop.  On exact ``ratpi`` runs of ``dense_game(1)`` (m = 150 and 500,
#: lam 0.97 and 0.99, mt 10) the first proposal was the loop's record in 56
#: of 65 failed checks, and the second in the other 9.
TAIL_GUESSES = 2


def max_delta(lam: float, epsilon: float) -> float:
    """Strict upper bound on the approximation parameter delta.

    ``lam`` and ``epsilon`` are read as :class:`SolverParams` reads them:
    ``TypeError`` for a bool or a str, ``ValueError`` for lam outside
    [0, 1) or an epsilon that is not positive and finite."""
    lam, epsilon = _check_lam(lam), _check_epsilon(epsilon)
    if lam == 0.0:
        return math.inf
    return (1.0 - lam) ** 2 * epsilon / (2.0 * lam * (1.0 + lam))


def _check_lam(lam) -> float:
    """``lam`` read as a real number (see :func:`~robustdp.model._real`),
    which must lie in [0, 1)."""
    lam = _real(lam, "lam")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must be in [0, 1), got {lam}")
    return lam


def _check_epsilon(epsilon) -> float:
    """``epsilon`` read as a real number, which must be positive and
    finite."""
    epsilon = _real(epsilon, "epsilon")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return epsilon


def termination_threshold(lam: float, epsilon: float, delta: float) -> float:
    """Residual below which the improvement step stops the solver; ``lam``
    and ``epsilon`` are read as :func:`max_delta` reads them, ``delta`` as a
    real number."""
    lam, epsilon = _check_lam(lam), _check_epsilon(epsilon)
    delta = _real(delta, "delta")
    if lam == 0.0:
        return math.inf
    return (1.0 - lam) * epsilon / (2.0 * lam) - delta


@dataclass(frozen=True)
class SolverParams:
    """Shared solver configuration.

    ``mt_schedule`` gives the number of partial-evaluation sweeps per step:
    a constant, or a list indexed by step with its last entry repeated.
    Its entries and ``max_iterations`` are integers, read with
    ``operator.index``: a bool, a str or a float is a ``TypeError``.
    ``lam``, ``epsilon`` and ``delta`` are real numbers, stored as floats: a
    bool or a str is a ``TypeError``.  ``epsilon`` is positive and finite.
    ``v0_mode`` selects the initial value function: ``"remark1"`` fills
    every state with min payoff / (1 - lam), which keeps the maximin update
    residual nonnegative and hence the iterates monotone; ``"zeros"``
    starts at 0; a finite 1-D vector of numbers, not bools, is used as
    given.
    """

    lam: float
    epsilon: float
    delta: float = 0.0
    mt_schedule: MtSchedule = 5
    v0_mode: str | Sequence[float] | np.ndarray = "remark1"
    max_iterations: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lam(self.lam))
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))
        object.__setattr__(self, "delta", _real(self.delta, "delta"))
        bound = max_delta(self.lam, self.epsilon)
        if not 0.0 <= self.delta < bound:
            raise ValueError(
                f"delta must satisfy 0 <= delta < {bound!r}, got {self.delta!r}"
            )
        max_iterations = _count(self.max_iterations, "max_iterations")
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        object.__setattr__(self, "max_iterations", max_iterations)
        sched = self.mt_schedule
        # A str is iterable, but "35" is no schedule (3, 5).
        if isinstance(sched, str) or not np.iterable(sched):
            sched = _count(sched, "mt_schedule")
            if sched < 0:
                raise ValueError("mt_schedule must be nonnegative")
        else:
            sched = tuple(_count(x, "mt_schedule entry") for x in sched)
            if not sched or any(x < 0 for x in sched):
                raise ValueError("mt_schedule list must be nonempty and nonnegative")
        object.__setattr__(self, "mt_schedule", sched)
        v0 = self.v0_mode
        if isinstance(v0, str):
            if v0 not in ("remark1", "zeros"):
                raise ValueError(f"unknown v0_mode {v0!r}")
        else:
            arr = np.asarray(v0)
            # A bool among numbers would be read as 0 or 1.
            if (arr.ndim != 1 or arr.dtype.kind not in "iuf"
                    or any(isinstance(x, (bool, np.bool_)) for x in v0)
                    or not np.isfinite(arr).all()):
                raise ValueError("explicit v0 must be a finite 1-D vector of numbers")
            object.__setattr__(self, "v0_mode", tuple(arr.astype(float).tolist()))


def _mt_at(schedule: MtSchedule, t: int) -> int:
    if isinstance(schedule, int):
        return schedule
    return schedule[t] if t < len(schedule) else schedule[-1]


def initial_value(game: TeamMarkovGame, params: SolverParams) -> np.ndarray:
    """Initial value function selected by ``params.v0_mode``."""
    mode = params.v0_mode
    if mode == "remark1":
        floor = float(game.group_payoff.min()) / (1.0 - params.lam)
        return np.full(game.m, floor)
    if mode == "zeros":
        return np.zeros(game.m)
    v0 = np.array(mode, dtype=float)
    if v0.shape != (game.m,):
        raise ValueError(f"explicit v0 must have shape ({game.m},)")
    return v0


@dataclass
class SolverTrace:
    """Per-step record of what the CLI writes: the improvement residual and
    the incoming value function of every step, which for a step that rolled
    back is the value it went back to (see :func:`_run`).  For a terminated
    run each list holds iterations + 1 entries."""

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


def _rollback_tol(m: int, lam: float, approx, v: np.ndarray, u: np.ndarray) -> float:
    """How far min(u - v), for u the improvement output at v, may read below
    0 before :func:`_run` rolls v back: the most the computed u - v can
    fall below the exact T v - v.  With S = max(|v|, |u|) and eps the
    spacing of doubles at 1, the loop's scores are (m + 2) * eps * S off,
    passed on to later states with weight lam; a checked or carried sweep
    adds eps * S * (m + 2 + 24 * m / (1 - lam)) (see
    :func:`~robustdp.sweeps._tail_check`) and the subtraction eps * S:
    26 * (m + 2) * eps * S / (1 - lam) in all.  An oracle's bound puts u
    within beta = bound / (1 - lam) of the exact sweep, and the last
    evaluation sweep's noise, through Q^{-1}, moves T v - v by at most
    (1 + lam) * beta: (2 + lam) * beta more."""
    bound = 0.0 if approx is None else approx.bound
    scale = max(_max(np.abs(v)), _max(np.abs(u)))
    return (26 * (m + 2) * sweeps._EPS * scale + (2 + lam) * bound) / (1.0 - lam)


def _proved_sweep(
    game: TeamMarkovGame,
    v: np.ndarray,
    w: np.ndarray,
    lam: float,
    rule: tuple[int, ...],
    rows: tuple[int, ...],
    below: np.ndarray,
) -> tuple[SweepResult | None, tuple | None]:
    """The exact Gauss-Seidel improvement sweep at ``v`` as a tail check
    proves it, and the operator formed for its record; None for the sweep
    where no check proves one.

    ``w = A @ v + b`` under the operator of ``rule`` and ``rows``.  Where
    :func:`~robustdp.sweeps._tail_check` of those declines and proposes the
    record its scores prefer, this forms that record's operator and its own
    w, and checks it in turn, at most ``TAIL_GUESSES`` times.  The operator
    is None when the first check passed, and is that of the sweep's record
    whenever a later one did.  ``below`` is the run's strictly lower mask,
    which every check takes.
    """
    checked, guess = sweeps._tail_check(game, v, w, lam, rule, rows, below)
    formed = None
    for _ in range(TAIL_GUESSES):
        if guess is None:
            break
        formed = evaluation_operator(*fixed_model_arrays(game, *guess), lam)
        checked, guess = sweeps._tail_check(
            game, v, formed[0] @ v + formed[1], lam, *guess, below
        )
    return checked, formed


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
    if approx is not None and approx.bound > lam * params.delta:
        raise ValueError(
            f"{algo}: perturbation bound {approx.bound!r} exceeds "
            f"lambda * delta = {lam * params.delta!r}"
        )
    threshold = termination_threshold(lam, params.epsilon, params.delta)
    v = initial_value(game, params)
    trace = SolverTrace()
    # ``held`` is the improvement sweep the last step's evaluation sweeps ran
    # under, if it ran any, and ``op`` their operator.
    held = op = None
    # The one gate of every full scoring: tail checks, certified Jacobi
    # sweeps and carries.
    full = approx is None and game.m >= TAIL_CHECK_MIN_STATES
    # The strictly lower mask every tail check of the run takes.
    below = np.tri(game.m, game.m, -1, dtype=bool) if full else None
    states = np.arange(game.m)

    def improve(v):
        # The step's improvement sweep, and the operator of its record if
        # proving it formed one.
        if held is not None and full:
            # One A v + b serves the carry test and the tail check.
            w = op[0] @ v + op[1]
            if held.certificate is not None and sweeps._carries(
                held.certificate, v, w, lam, gauss_seidel
            ):
                carried = SweepResult(w, held.rule, held.worst_model, held.certificate)
                return carried, None
            if not gauss_seidel:
                return jacobi_improvement_sweep(game, v, lam, certify=True), None
            checked, formed = _proved_sweep(
                game, v, w, lam, held.rule, held.worst_model, below
            )
            if checked is not None:
                return checked, formed
        if gauss_seidel:
            return improvement_sweep(game, v, lam, approx, t), None
        return jacobi_improvement_sweep(game, v, lam), None

    for t in range(params.max_iterations):
        sweep, formed = improve(v)
        d = sweep.u0 - v
        # T v >= v puts v below v*; where the last step's evaluation sweeps
        # overshot v*, that step counts as one value-iteration step instead,
        # and this one sweeps again from its improvement output.
        if held is not None and (lo := float(_min(d))) < 0.0 and (
            lo < -_rollback_tol(game.m, lam, approx, v, sweep.u0)
        ):
            log.debug("%s: rolled back step %d's evaluation sweeps", algo, t - 1)
            v = held.u0
            sweep, formed = improve(v)
            d = sweep.u0 - v
        residual = float(_max(np.abs(d)))
        if not math.isfinite(residual):
            raise ValueError(
                f"{algo}: residual {residual!r} at step {t} is not finite"
            )
        trace.residuals.append(residual)
        trace.values.append(v)
        if t == 0:
            _warn_if_unreachable(game, params, threshold, residual, algo)
        if residual < threshold:
            log.debug("%s terminated at t=%d residual=%.3e", algo, t, residual)
            break
        u = sweep.u0
        mt = _mt_at(params.mt_schedule, t)
        if mt:
            # ``op`` depends only on each state's group and row, so it is
            # formed again only when those change, not when noise picks
            # another member of a group; a proved guess formed it already.
            if formed is not None:
                op = formed
            elif held is None or held.worst_model != sweep.worst_model or (
                held.rule != sweep.rule and not np.array_equal(
                    game.action_group[states, held.rule],
                    game.action_group[states, sweep.rule]
                )
            ):
                P, r = fixed_model_arrays(game, sweep.rule, sweep.worst_model)
                op = evaluation_operator(P, r, lam, gauss_seidel, approx is not None)
            held = sweep
            noise = None
            if approx is not None:
                queries = list(enumerate(sweep.rule))
                noise = np.array(
                    [approx.perturb(t, s, queries) for s in range(1, mt + 1)]
                )
            u = evaluation_sweep(op, u, noise, mt)
        else:
            held = None
        v = u
    else:
        t = params.max_iterations
        log.warning("%s hit max_iterations=%d without terminating", algo, t)
    value, worst, settled = evaluate_policy_robust(game, [sweep.rule], lam)
    policy, worst = TeamDecisionRule(sweep.rule), tuple(worst[0].tolist())
    return SolverResult(
        algo, policy, worst, value[0], t, residual < threshold, bool(settled[0]), trace
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
    return _run(
        game, replace(params, mt_schedule=0), approx, gauss_seidel=True, algo="ratvi"
    )


def solve_rmpi(game: TeamMarkovGame, params: SolverParams) -> SolverResult:
    """Jacobi robust modified policy iteration baseline (exact backups)."""
    return _run(game, replace(params, delta=0.0), None, gauss_seidel=False, algo="rmpi")


def solve_rvi(game: TeamMarkovGame, params: SolverParams) -> SolverResult:
    """Jacobi robust value iteration baseline (exact backups)."""
    params = replace(params, delta=0.0, mt_schedule=0)
    return _run(game, params, None, gauss_seidel=False, algo="rvi")


SOLVERS = {
    "ratpi": solve_ratpi,
    "ratvi": solve_ratvi,
    "rmpi": solve_rmpi,
    "rvi": solve_rvi,
}


def _rule_stack(game: TeamMarkovGame, rules) -> np.ndarray:
    """``rules``, an integer (R, m) array of joint actions with one rule per
    row, as an array; ``ValueError`` for any other shape or dtype, or an
    action outside [0, n_joint_actions)."""
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
    game: TeamMarkovGame, rules: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worst-case value of fixed rules over their admissible models.

    Iterates the per-state fixed point v <- min over candidate rows of
    row @ (payoff + lam * v), which by row rectangularity equals the minimum
    over whole transition matrices.  Successive one-step backups alternate
    with exact evaluation of the current minimising rows (policy iteration
    for the adversary), and a rule settles once a backup step moves its
    value by less than ``termination_threshold(lam, ROBUST_EVAL_TOL, 0.0)``
    in sup norm, or its minimising rows repeat (the fixed point is reached
    to linear-solve precision).

    ``rules`` is an integer (R, m) array of joint actions, one rule per
    row; one rule is a stack of one, ``[joint_actions]``.  The stack runs
    as one loop: each round scores every rule's candidate rows with one
    stacked matmul and solves every unsettled rule's linear system with one
    batched solve, and a rule leaves the stack in the round it settles.
    Each rule's arithmetic is its own, so a row of a stacked call is bit for
    bit the result of evaluating that rule alone.

    Returns the ``(R, m)`` values, the ``(R, m)`` final per-state
    minimising row indices, and the ``(R,)`` flags of which rules settled.
    Rules still unsettled after ``ROBUST_EVAL_MAX_ROUNDS`` rounds return
    their last iterate with ``False``, and the call logs one warning that
    counts them; an empty stack returns at once.  Raises ``TypeError``
    unless ``lam`` is a real number, not a bool, and ``ValueError`` unless
    0 <= lam < 1, or for an invalid stack.
    """
    lam = _check_lam(lam)
    acts = _rule_stack(game, rules)
    n_rules, m = acts.shape
    states = np.arange(m)
    n_groups, n_cand = game.group_payoff_exp.shape[1:]
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
    value = np.empty(acts.shape)
    rows = np.empty(acts.shape, dtype=np.intp)
    settled = np.zeros(n_rules, dtype=bool)
    # ``left`` holds the stack positions of the rules still iterating.
    left = np.arange(n_rules)
    prev = np.full(acts.shape, -1)  # no row is -1: no repeat in round 0
    for _ in range(ROBUST_EVAL_MAX_ROUNDS):
        scores = (cand @ v[:, None, :, None])[..., 0]
        scores *= lam
        scores += pe
        q = _min(scores, axis=-1)
        picked = scores.argmin(axis=-1)
        step = q - v
        np.abs(step, out=step)
        done = (_max(step, axis=-1) < threshold) | _min(picked == prev, axis=-1)
        if done.any() or not left.size:
            at = left[done]
            value[at], rows[at], settled[at] = q[done], picked[done], True
            if done.all():  # the last rules settled, or the stack is empty
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
        value[left], rows[left] = q, picked
        log.warning(
            "robust evaluation did not settle in %d rounds for %d of %d rules; "
            "returning the last iterates",
            ROBUST_EVAL_MAX_ROUNDS,
            len(left),
            n_rules,
        )
    return value, rows, settled
