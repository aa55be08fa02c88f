"""Sequential social dilemma benchmark with uncertain state transitions.

Three states chain three stage games: a public goods game, a threshold stag
hunt, and a snowdrift game.  Every player picks C (cooperate) or D (defect);
payoffs depend on the cooperator count h and on the destination state
through that state's synergy factor.  With h cooperators the transition row
out of a state keeps mass 1 - mu*h on the current state and spreads mu*h
evenly over the other states; one candidate row per magnitude mu in a finite
set, which makes the transition model uncertain whenever h > 0.

Stage payoffs (a for a cooperator, b for a defector, cost c, n players,
synergy factor r and snowdrift benefit theta of the destination state):

* public goods:  a = h*r*c/n - c,  b = h*r*c/n
* stag hunt:     public-goods payoffs if h >= threshold, else a = -c, b = 0
* snowdrift:     a = theta - c/h, b = theta if h > 0, else a = b = 0

The team payoff stored in the game is the per-capita average
(h*a + (n-h)*b) / n.

Joint actions are {C, D}^n (C = 0) in the game's C order.  Payoffs and rows
depend on a joint action only through h, so :func:`build_rssd` computes them
once per cooperator count and maps each joint action to its h.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .model import TeamMarkovGame, _count, _real, build_game

N_STATES = 3
STATE_NAMES = ("s1", "s2", "s3")
PUBLIC_GOODS, STAG_HUNT, SNOWDRIFT = range(N_STATES)


@dataclass(frozen=True)
class RssdParams:
    """Benchmark parameters.

    ``synergy[j]`` is the synergy factor of destination state j and must lie
    strictly between the cooperation cost and the player count for the
    public goods stage to be a dilemma.  ``snowdrift_benefit`` defaults to
    the synergy factors and must be finite.  ``mu_set`` magnitudes must
    keep every row stochastic: mu * n_players <= 1.  ``n_players`` and
    ``stag_threshold`` must be integers, with 2**n_players within numpy's
    index type, and ``cost`` and the entries of ``synergy``,
    ``snowdrift_benefit`` and ``mu_set`` real numbers, stored as floats; a
    bool, a str or any other type raises ``TypeError``.
    """

    n_players: int = 3
    cost: float = 1.0
    synergy: tuple[float, float, float] = (1.5, 1.8, 2.2)
    snowdrift_benefit: tuple[float, float, float] | None = None
    stag_threshold: int = 2
    mu_set: tuple[float, ...] = (0.1, 0.2, 0.3)

    def __post_init__(self):
        for name in ("n_players", "stag_threshold"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        object.__setattr__(self, "cost", _real(self.cost, "cost"))
        for name in ("synergy", "snowdrift_benefit", "mu_set"):
            values = getattr(self, name)
            if values is None:
                continue
            # A str is iterable, but "123" is no tuple of numbers.
            if isinstance(values, str) or not np.iterable(values):
                raise TypeError(f"{name} must be a sequence of real numbers, got {values!r}")
            object.__setattr__(
                self, name, tuple(_real(x, f"{name} entry") for x in values)
            )
        if self.n_players < 1:
            raise ValueError("n_players must be positive")
        if self.n_players > np.iinfo(np.intp).bits - 2:
            raise ValueError("n_players is too large: numpy cannot index its "
                             "2**n_players joint actions")
        if len(self.synergy) != N_STATES:
            raise ValueError(f"synergy must give one factor per state ({N_STATES})")
        for r in self.synergy:
            if not self.cost < r < self.n_players:
                raise ValueError(
                    f"synergy factor {r} must lie in (cost, n_players) = "
                    f"({self.cost}, {self.n_players})"
                )
        if self.snowdrift_benefit is None:
            object.__setattr__(self, "snowdrift_benefit", tuple(self.synergy))
        elif len(self.snowdrift_benefit) != N_STATES:
            raise ValueError("snowdrift_benefit must give one value per state")
        elif not np.isfinite(self.snowdrift_benefit).all():
            raise ValueError(f"snowdrift_benefit {self.snowdrift_benefit} must be finite")
        if not 1 <= self.stag_threshold <= self.n_players:
            raise ValueError("stag_threshold must be in [1, n_players]")
        if not self.mu_set:
            raise ValueError("mu_set must be nonempty")
        for mu in self.mu_set:
            if not (0.0 <= mu and mu * self.n_players <= 1.0):
                raise ValueError(
                    f"mu {mu} must satisfy 0 <= mu and mu * n_players <= 1"
                )


def stage_payoffs(
    params: RssdParams, state: int, n_cooperators: int, next_state: int
) -> tuple[float, float]:
    """Cooperator and defector payoffs in ``state`` with ``n_cooperators``
    of the n players choosing C, as a function of the destination state."""
    if not 0 <= n_cooperators <= params.n_players:
        raise ValueError("n_cooperators out of range")
    c = params.cost
    n = params.n_players
    h = n_cooperators
    if state == SNOWDRIFT:
        theta = params.snowdrift_benefit[next_state]
        if h > 0:
            return theta - c / h, theta
        return 0.0, 0.0
    r = params.synergy[next_state]
    if state == STAG_HUNT and h < params.stag_threshold:
        return -c, 0.0
    return h * r * c / n - c, h * r * c / n


def team_payoff(
    params: RssdParams, state: int, n_cooperators: int, next_state: int
) -> float:
    """Per-capita team-average payoff for a cooperator count."""
    a, b = stage_payoffs(params, state, n_cooperators, next_state)
    h = n_cooperators
    n = params.n_players
    return (h * a + (n - h) * b) / n


def transition_row_candidates(params: RssdParams, state: int, n_cooperators: int) -> np.ndarray:
    """Candidate transition rows out of ``state`` for a cooperator count.

    One row per magnitude mu: 1 - mu*h stays, mu*h/(N_STATES-1) goes to each
    other state.  Each entry is one correctly rounded division of exact
    integers, with mu read as the decimal it prints as, so the float entries
    are the nearest representations of the intended values; duplicate rows
    (all of them, when h = 0) collapse to one candidate.
    """
    h = n_cooperators
    rows: list[tuple[float, ...]] = []
    for mu in params.mu_set:
        p, q = Decimal(str(mu)).as_integer_ratio()
        stay, off = (q - p * h) / q, p * h / (q * (N_STATES - 1))
        row = tuple(stay if l == state else off for l in range(N_STATES))
        if row not in rows:
            rows.append(row)
    return np.array(rows)


def cooperator_counts(n_players: int) -> np.ndarray:
    """The cooperator count of every joint action of {C, D}^n, in C order.

    D is action 1, so the count is n minus the number of set bits of the
    index.  The 2**n array is requested in one allocation and filled in
    place, each block of 2**i from the one before it, so a player count
    too large to build fails at once, before the rest of the build."""
    counts = np.empty(2**n_players, dtype=np.min_scalar_type(n_players))
    counts[0] = n_players
    for i in range(n_players):
        np.subtract(counts[: 2**i], 1, out=counts[2**i : 2 ** (i + 1)])
    return counts


def build_rssd(params: RssdParams | None = None) -> TeamMarkovGame:
    """Assemble the benchmark game: 3 states, {C, D}^n joint actions,
    per-capita team payoffs, and one candidate transition row per mu.
    Each state passes one payoff row and row set per cooperator count, and
    each joint action is mapped to its count."""
    params = params or RssdParams()
    n = params.n_players
    counts = range(n + 1)
    payoff_by_count = np.array([[[team_payoff(params, k, h, l) for l in range(N_STATES)]
                                 for h in counts] for k in range(N_STATES)])
    rows_by_count = [[transition_row_candidates(params, k, h) for h in counts]
                     for k in range(N_STATES)]
    cooperators = np.broadcast_to(cooperator_counts(n), (N_STATES, 2**n))
    return build_game(n, list(STATE_NAMES), [["C", "D"]] * n, payoff_by_count,
                      rows_by_count, action_entry=cooperators)
