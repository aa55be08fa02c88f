"""Exhaustive maximin ground truth for small instances.

Enumerates every distinct decision rule, evaluates each against its
worst-case model, and takes the componentwise maximum.  Joint actions of a
group back up to the same value, so one rule per combination of per-state
groups stands for all the rules that play members of those groups: the
paper's instance has 4 groups of 8 joint actions per state, so 4**3 = 64 of
its 512 rules are evaluated.  Meant as an independent reference for the
iterative solvers, not as a production path; the ``oracle`` CLI command and
the benchmark's paper workload run it.  The slower references the tests
check the oracle, the robust evaluation and epsilon-optimality against
(enumeration of every rule, and of every admissible model of a rule) live in
``tests/conftest.py``.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    TeamDecisionRule,
    TeamMarkovGame,
)
from .solvers import evaluate_policy_robust

log = logging.getLogger("robustdp.oracle")

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
    up front when they exceed it.
    """
    n_groups = (game.action_group.max(axis=1) + 1).tolist()
    total = math.prod(n_groups)
    if total > budget:
        raise BudgetExceededError(total, budget)
    representatives = [game.group_action[k, :n].tolist() for k, n in enumerate(n_groups)]
    entries: list[tuple[TeamDecisionRule, np.ndarray]] = []
    settled = True
    for combo in itertools.product(*representatives):
        rule = TeamDecisionRule(combo)
        value, _, rule_settled = evaluate_policy_robust(game, rule, lam)
        settled = settled and rule_settled
        entries.append((rule, value))
    v_star = entries[0][1].copy()
    for _, value in entries[1:]:
        np.maximum(v_star, value, out=v_star)
    d_star = None
    floor = v_star - dominance_tolerance(game, lam)
    for rule, value in entries:
        if np.all(value >= floor):
            d_star = rule
            max_gap = float(np.max(v_star - value))
            break
    dominance_ok = d_star is not None
    if d_star is None:
        gaps = [float(np.max(v_star - value)) for _, value in entries]
        best = int(np.argmin(gaps))
        d_star = entries[best][0]
        max_gap = gaps[best]
        log.warning(
            "no single rule attains the componentwise maximum; best shortfall %.3e",
            max_gap,
        )
    return OracleResult(
        v_star=v_star,
        d_star=d_star,
        dominance_ok=dominance_ok,
        max_dominance_gap=max_gap,
        settled=settled,
    )
