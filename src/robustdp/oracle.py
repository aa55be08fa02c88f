"""Exhaustive maximin ground truth for small instances.

Enumerates every decision rule, evaluates each against its worst-case model,
and takes the componentwise maximum.  Meant as an independent reference for
the iterative solvers, not as a production path; the ``oracle`` CLI command
and the benchmark's paper workload run it.  The slower references the tests
check the robust evaluation and epsilon-optimality against (enumeration of
every admissible model of a rule) live in ``tests/conftest.py``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    TeamDecisionRule,
    TeamMarkovGame,
    enumerate_decision_rules,
)
from .solvers import evaluate_policy_robust

log = logging.getLogger("robustdp.oracle")

#: Slack within which one rule attains the maximum in every component.
DOMINANCE_ATOL = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive maximin value and the rule attaining it.

    ``v_star`` is the componentwise maximum over rules of the robust value.
    ``dominance_ok`` records whether a single rule attains that maximum in
    every component simultaneously; when none does, ``d_star`` is the rule
    with the smallest worst-component shortfall and ``max_dominance_gap``
    reports that shortfall.
    """

    v_star: np.ndarray
    d_star: TeamDecisionRule
    dominance_ok: bool
    max_dominance_gap: float


def brute_force_maximin(
    game: TeamMarkovGame,
    lam: float,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> OracleResult:
    """Componentwise max over all rules of the robust (worst-case) value.

    Each rule is evaluated with :func:`evaluate_policy_robust`; a rule
    attains the maximum everywhere when it is within ``DOMINANCE_ATOL`` of
    it.  Raises BudgetExceededError when the rule count exceeds ``budget``.
    """
    entries: list[tuple[TeamDecisionRule, np.ndarray]] = []
    for rule in enumerate_decision_rules(game, budget):
        value, _ = evaluate_policy_robust(game, rule, lam)
        entries.append((rule, value))
    v_star = entries[0][1].copy()
    for _, value in entries[1:]:
        np.maximum(v_star, value, out=v_star)
    d_star = None
    for rule, value in entries:
        if np.all(value >= v_star - DOMINANCE_ATOL):
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
    )
