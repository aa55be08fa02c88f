"""Exhaustive maximin ground truth for small instances.

Enumerates every decision rule, evaluates each against its worst-case model,
and takes the componentwise maximum.  Meant as an independent reference for
the iterative solvers, not as a production path.
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
    enumerate_policy_models,
)
from .solvers import evaluate_policy_robust

log = logging.getLogger("robustdp.oracle")


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
    tol: float = 1e-12,
    atol: float = 1e-9,
) -> OracleResult:
    """Componentwise max over all rules of the robust (worst-case) value.

    Each rule is evaluated with :func:`evaluate_policy_robust` at ``tol``;
    ``atol`` is the comparison slack when testing whether one rule attains
    the maximum everywhere.  Raises BudgetExceededError when the rule count
    exceeds ``budget``.
    """
    entries: list[tuple[TeamDecisionRule, np.ndarray]] = []
    for rule in enumerate_decision_rules(game, budget):
        value, _ = evaluate_policy_robust(game, rule, lam, tol)
        entries.append((rule, value))
    v_star = entries[0][1].copy()
    for _, value in entries[1:]:
        np.maximum(v_star, value, out=v_star)
    d_star = None
    for rule, value in entries:
        if np.all(value >= v_star - atol):
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


def robust_value_by_model_enumeration(
    game: TeamMarkovGame,
    rule: TeamDecisionRule,
    lam: float,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> np.ndarray:
    """Componentwise min over every enumerated model of the dense evaluation.

    Cross-check for the fixed-point robust evaluation; cost is the product
    of per-state candidate counts.
    """
    m = game.m
    eye = np.eye(m)
    acts = rule.joint_actions
    best = np.full(m, np.inf)
    for P in enumerate_policy_models(game, rule, budget):
        r = np.array([P[k] @ game.payoff[k, acts[k]] for k in range(m)])
        value = np.linalg.solve(eye - lam * P, r)
        np.minimum(best, value, out=best)
    return best


def verify_epsilon_optimal(
    game: TeamMarkovGame,
    rule: TeamDecisionRule,
    lam: float,
    epsilon: float,
    oracle_result: OracleResult | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    tol: float = 1e-12,
    slack: float = 1e-9,
) -> tuple[bool, dict]:
    """Check that a rule's worst-case value is within epsilon of the
    exhaustive maximin value in every component.

    Returns (ok, report); the report carries the componentwise shortfall
    v_star - epsilon - value and its maximum.  ``slack`` absorbs the
    numerical tolerance of the two evaluations.
    """
    value, _ = evaluate_policy_robust(game, rule, lam, tol)
    if oracle_result is None:
        oracle_result = brute_force_maximin(game, lam, budget, tol)
    shortfall = oracle_result.v_star - epsilon - value
    ok = bool(np.all(value >= oracle_result.v_star - epsilon - slack))
    report = {
        "ok": ok,
        "epsilon": float(epsilon),
        "slack": float(slack),
        "max_violation": float(np.max(shortfall)),
        "per_state": shortfall,
    }
    return ok, report
