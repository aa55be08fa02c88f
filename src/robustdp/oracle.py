"""Exhaustive maximin ground truth for small instances.

Enumerates every distinct decision rule, evaluates each against its
worst-case model, and takes the componentwise maximum.  Joint actions of a
group back up to the same value, so one rule per combination of per-state
groups stands for all the rules that play members of those groups: the
paper's instance has 4 groups of 8 joint actions per state, so 4**3 = 64 of
its 512 rules are evaluated.  The rules are evaluated in blocks, each
block as one stacked call of :func:`evaluate_policy_robust`.  A block
gathers about 8 * m * m * (Kmax + 2) bytes per rule (Kmax the largest
candidate count), so it holds at most ``ORACLE_BLOCK`` rules and at most
``ORACLE_BLOCK_BYTES`` of them, but never fewer than one rule: the memory
of a block stays bounded whatever the rule count and the state count.
Only the values, m doubles per rule, are kept for all of them.
Meant as an independent reference for the iterative solvers, not as a
production path; the ``oracle`` and ``bench-table1`` CLI commands (the
latter for each lambda's ``oracle_gap``) and the benchmark's paper
workload run it.  The slower references the tests check the oracle, the
robust evaluation and epsilon-optimality against (enumeration of every
rule, and of every admissible model of a rule) live in
``tests/conftest.py``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    TeamDecisionRule,
    TeamMarkovGame,
    _count,
)
from .solvers import evaluate_policy_robust

log = logging.getLogger("robustdp.oracle")

_max = np.maximum.reduce
_min = np.minimum.reduce

#: Most rules per stacked robust evaluation.
ORACLE_BLOCK = 1024
#: Most bytes a block of rules gathers, at 8 * m * m * (Kmax + 2) per rule.
ORACLE_BLOCK_BYTES = 64 * 2**20

#: Slack within which one rule attains the maximum in every component, as a
#: fraction of the value scale r_max / (1 - lam): the rounding error of the
#: robust evaluation grows with the values.
DOMINANCE_RTOL = 1e-9


def dominance_tolerance(game: TeamMarkovGame, lam: float) -> float:
    """``DOMINANCE_RTOL`` times the value scale r_max / (1 - lam)."""
    return DOMINANCE_RTOL * (game.r_max / (1.0 - lam))


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive maximin value and the rule attaining it.

    ``v_star`` is the componentwise maximum over rules of the robust value.
    ``dominance_ok`` records whether a single rule attains that maximum in
    every component simultaneously; when none does, ``d_star`` is the rule
    with the smallest worst-component shortfall and ``max_dominance_gap``
    reports that shortfall.  ``settled`` is set only when the robust
    evaluation of every rule settled.
    """

    v_star: np.ndarray
    d_star: TeamDecisionRule
    dominance_ok: bool
    max_dominance_gap: float
    settled: bool


def _group_rules(
    game: TeamMarkovGame, n_groups: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Rules ``start`` to ``stop`` (exclusive) of the lexicographic order
    over per-state groups, each group played by its lowest member, as an
    integer (stop - start, m) array of joint actions."""
    index = np.arange(start, stop)
    digits = np.empty((len(index), game.m), dtype=np.intp)
    for k in reversed(range(game.m)):
        index, digits[:, k] = np.divmod(index, n_groups[k])
    return game.group_action[np.arange(game.m), digits]


def brute_force_maximin(
    game: TeamMarkovGame,
    lam: float,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> OracleResult:
    """Componentwise max over all rules of the robust (worst-case) value.

    One rule per combination of per-state groups is evaluated with
    :func:`evaluate_policy_robust`, each group played by its lowest member,
    in lexicographic order.  Groups are numbered by their lowest member, so
    this is the order of the full enumeration of joint actions, and the
    first rule within :func:`dominance_tolerance` of the maximum everywhere
    (or, failing that, the first with the smallest shortfall) is the one
    the full enumeration would pick.  ``budget`` counts the rules evaluated, the
    product of the per-state group counts; BudgetExceededError is raised
    up front when they exceed it.  ``budget`` is an integer, read with
    ``operator.index``, and ``lam`` a real number, read as
    :func:`evaluate_policy_robust` reads it; a bool or a str is a
    ``TypeError``.
    """
    budget = _count(budget, "budget")
    n_groups = game.action_group.max(axis=1) + 1
    total = math.prod(n_groups.tolist())
    if total > budget:
        raise BudgetExceededError(total, budget)
    values = np.empty((total, game.m))
    settled = True
    per_rule = 8 * game.m**2 * (game.group_candidates.shape[2] + 2)
    block = max(1, min(ORACLE_BLOCK, ORACLE_BLOCK_BYTES // per_rule))
    for start in range(0, total, block):
        stop = min(start + block, total)
        rules = _group_rules(game, n_groups, start, stop)
        values[start:stop], _, block_settled = evaluate_policy_robust(game, rules, lam)
        settled = settled and bool(block_settled.all())
    # Reducing over the rule axis folds the values in rule order, as a
    # running ``np.maximum`` over the rules would.
    v_star = _max(values, axis=0)
    floor = v_star - dominance_tolerance(game, lam)
    dominating = np.flatnonzero(_min(values >= floor, axis=1))
    dominance_ok = dominating.size > 0
    if dominance_ok:
        best = int(dominating[0])
        max_gap = float(_max(v_star - values[best]))
    else:
        gaps = _max(v_star - values, axis=1)
        best = int(np.argmin(gaps))
        max_gap = float(gaps[best])
        log.warning(
            "no single rule attains the componentwise maximum; best shortfall %.3e",
            max_gap,
        )
    return OracleResult(
        v_star=v_star,
        d_star=TeamDecisionRule(_group_rules(game, n_groups, best, best + 1)[0]),
        dominance_ok=dominance_ok,
        max_dominance_gap=max_gap,
        settled=settled,
    )
