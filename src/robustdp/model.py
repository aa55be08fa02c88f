"""Finite team Markov games with rectangular transition uncertainty.

A game couples a finite state set, per-player finite action sets, a
team-average payoff tensor r(s, a, s'), and, for every (state, joint action)
pair, a finite set of candidate transition rows.  Under a fixed decision rule
the admissible transition matrices are the Cartesian product of the per-state
row sets (row-rectangular uncertainty), so the adversary may pick each row
independently.

Joint actions are indexed lexicographically over per-player action indices
with player 0 most significant; state order is the order given at
construction and fixes the Gauss-Seidel sweep order used by the solvers.

Instances are immutable after validation and safe to share across concurrent
solver runs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

#: Absolute tolerance on |row sum - 1| for candidate transition rows.
STOCHASTIC_ATOL = 1e-12
#: Entries in [NEGATIVE_CLAMP, 0) are treated as rounding noise and clamped.
NEGATIVE_CLAMP = -1e-15
#: Default guard for exhaustive enumerations.
DEFAULT_ENUMERATION_BUDGET = 10_000_000


class GameValidationError(ValueError):
    """A game description violates one or more structural invariants."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__(
            "invalid game description:\n" + "\n".join(f"  - {e}" for e in self.errors)
        )


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the caller-supplied budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"enumeration needs {required} items, budget is {budget}")


def sup_norm(v) -> float:
    """Sup norm max_s |v(s)| of a value function."""
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


@dataclass(frozen=True)
class TeamDecisionRule:
    """Deterministic map from state index to joint-action index."""

    joint_actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "joint_actions", tuple(int(a) for a in self.joint_actions)
        )


@dataclass(frozen=True, eq=False)
class TeamMarkovGame:
    """Validated, immutable robust team Markov game in one packed layout.

    With m states, A joint actions and Kmax the largest candidate count of
    any (state, joint action) pair:

    * ``payoff``, shape (m, A, m): the team-average payoff r(s, a, s').
    * ``candidates``, shape (m, A, Kmax, m): ``candidates[k, a, j]`` is the
      j-th candidate transition row out of state k under joint action a.
      Only the first ``n_rows[k, a]`` rows are real; padded rows are zero.
    * ``n_rows``, integer shape (m, A): the candidate count of each pair.
    * ``payoff_exp``, shape (m, A, Kmax): the expected immediate payoff
      ``candidates[k, a, j] @ payoff[k, a]`` of every real row, and ``+inf``
      in every padded slot, so a padded slot never wins the adversary's min.

    All arrays are read-only.  :func:`build_game` checks the rows before
    they reach this class.
    """

    n_players: int
    states: tuple[str, ...]
    player_actions: tuple[tuple[str, ...], ...]
    payoff: np.ndarray = field(repr=False)
    candidates: np.ndarray = field(repr=False)
    n_rows: np.ndarray = field(repr=False)
    r_max: float
    payoff_exp: np.ndarray = field(init=False, repr=False)
    joint_action_tuples: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        payoff = np.array(self.payoff, dtype=float)
        cand = np.array(self.candidates, dtype=float)
        n_rows = np.array(self.n_rows, dtype=np.intp)
        pexp = (cand @ payoff[..., None])[..., 0]
        pexp[np.arange(cand.shape[2]) >= n_rows[..., None]] = np.inf
        for name, arr in (
            ("payoff", payoff), ("candidates", cand), ("n_rows", n_rows),
            ("payoff_exp", pexp),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "player_actions", tuple(tuple(a) for a in self.player_actions)
        )
        object.__setattr__(
            self,
            "joint_action_tuples",
            tuple(
                itertools.product(*[range(len(a)) for a in self.player_actions])
            ),
        )

    @property
    def m(self) -> int:
        return len(self.states)

    @property
    def n_joint_actions(self) -> int:
        return len(self.joint_action_tuples)

    def joint_index(self, per_player: Sequence[int]) -> int:
        """Joint-action index of a per-player action index tuple."""
        idx = 0
        for i, ai in enumerate(per_player):
            idx = idx * len(self.player_actions[i]) + int(ai)
        return idx

    def action_names(self, joint_action: int) -> tuple[str, ...]:
        """Per-player action names of a joint-action index."""
        per = self.joint_action_tuples[joint_action]
        return tuple(self.player_actions[i][ai] for i, ai in enumerate(per))

    def validate_rule(self, rule: TeamDecisionRule) -> None:
        if len(rule.joint_actions) != self.m:
            raise ValueError(
                f"rule covers {len(rule.joint_actions)} states, game has {self.m}"
            )
        for k, a in enumerate(rule.joint_actions):
            if not 0 <= a < self.n_joint_actions:
                raise ValueError(f"rule maps state {k} to invalid joint action {a}")


def build_game(
    n_players: int,
    states: Sequence[str],
    player_actions: Sequence[Sequence[str]],
    payoff,
    uncertainty_rows,
    r_max: float | None = None,
) -> TeamMarkovGame:
    """Construct and validate a game from in-memory parts.

    Every game is checked here, whatever its source: a positive integer
    ``n_players`` with one nonempty action set per player, nonempty states,
    no duplicate state or action names, a payoff of shape (m, A, m) with
    finite entries, one row set per (state, joint action) pair, and
    ``r_max`` (computed as max |payoff| when omitted) no smaller than any
    payoff.  ``uncertainty_rows[k][a]`` is an array-like of raw candidate
    rows, or ``None`` for a pair the input does not list; each set is
    checked and cleaned by :func:`_clean_rows` and packed into
    ``TeamMarkovGame.candidates``.  Raises :class:`GameValidationError`
    listing every problem found; problems with the header (players, states,
    action sets) are reported without the row checks that depend on it.
    """
    errors: list[str] = []
    if not isinstance(n_players, int) or n_players < 1:
        errors.append("n_players must be a positive integer")
    states = list(states)
    if not states:
        errors.append("states must be nonempty")
    if len(set(states)) != len(states):
        errors.append("states contains duplicate names")
    player_actions = [list(a) for a in player_actions]
    if isinstance(n_players, int) and len(player_actions) != max(n_players, 1):
        errors.append(
            f"player_actions lists {len(player_actions)} action sets "
            f"for {n_players} players"
        )
    for i, acts in enumerate(player_actions):
        if not acts:
            errors.append(f"player {i}: empty action set")
        elif len(set(acts)) != len(acts):
            errors.append(f"player {i}: duplicate action names")
    if errors:
        raise GameValidationError(errors)

    m = len(states)
    n_joint = math.prod(len(a) for a in player_actions)
    joint_tuples = list(itertools.product(*[range(len(a)) for a in player_actions]))
    payoff = np.asarray(payoff, dtype=float)
    if payoff.shape != (m, n_joint, m):
        raise GameValidationError(
            [f"payoff shape {payoff.shape} != {(m, n_joint, m)}"]
        )
    if not np.all(np.isfinite(payoff)):
        errors.append("payoff contains non-finite entries")

    cleaned: dict[tuple[int, int], np.ndarray] = {}
    if len(uncertainty_rows) != m or any(len(per) != n_joint for per in uncertainty_rows):
        errors.append("uncertainty must provide one row set per (state, joint action)")
    else:
        for k in range(m):
            for a in range(n_joint):
                try:
                    cleaned[k, a] = _clean_rows(uncertainty_rows[k][a], m)
                except ValueError as e:
                    ctx = f"uncertainty[state={states[k]!r}, action={joint_tuples[a]}]"
                    errors.append(f"{ctx}: {e}")

    computed_r_max = float(np.max(np.abs(payoff))) if payoff.size else 0.0
    if r_max is None:
        r_max = computed_r_max
    elif float(r_max) + 1e-12 < computed_r_max:
        errors.append(f"r_max {r_max} < max |payoff| {computed_r_max}")
    if errors:
        raise GameValidationError(errors)
    n_rows = np.zeros((m, n_joint), dtype=np.intp)
    candidates = np.zeros((m, n_joint, max(map(len, cleaned.values())), m))
    for (k, a), rows in cleaned.items():
        n_rows[k, a] = len(rows)
        candidates[k, a, : len(rows)] = rows
    return TeamMarkovGame(
        n_players=n_players,
        states=tuple(states),
        player_actions=tuple(tuple(a) for a in player_actions),
        payoff=payoff,
        candidates=candidates,
        n_rows=n_rows,
        r_max=float(r_max),
    )


def _clean_rows(raw, m: int) -> np.ndarray:
    """One (state, joint action) pair's candidate rows as an (n, m) array.

    Rows must form a nonempty 2-D array of finite entries, each row of
    length m.  Entries in [NEGATIVE_CLAMP, 0) are clamped to 0; rows are
    renormalised only when their sum is already within ``STOCHASTIC_ATOL``,
    and rejected otherwise (silent renormalisation would mask data errors).
    """
    if raw is None:
        raise ValueError("missing entry")
    try:
        arr = np.array(raw, dtype=float)
    except TypeError as e:
        raise ValueError(str(e)) from e
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty list of rows")
    if arr.shape[1] != m:
        raise ValueError(f"rows have length {arr.shape[1]}, expected {m}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("rows must be finite")
    if np.any(arr < NEGATIVE_CLAMP):
        j = int(np.nonzero((arr < NEGATIVE_CLAMP).any(axis=1))[0][0])
        raise ValueError(f"row {j} entry {float(arr[j].min())!r} is negative")
    arr[arr < 0.0] = 0.0
    sums = arr.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > STOCHASTIC_ATOL)[0]
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"row {j} sum {float(sums[j])!r} != 1")
    arr /= sums[:, None]
    return arr


def validate_game(raw: Mapping) -> TeamMarkovGame:
    """Translate a parsed game description (the JSON document shape) into
    the arguments of :func:`build_game` and build the game.

    This function checks only what exists in the JSON form alone: that
    ``states`` is an array of names and ``player_actions`` an array of
    arrays of names, that entries name known states and give one in-range
    action index per player, per-player ``r`` lists, duplicate entries,
    unlisted payoff triples when ``default_payoff`` is absent, and the type
    of ``r_max``.  Every other check (player count, duplicate or empty
    names, candidate rows, missing uncertainty entries, ``r_max`` against
    the payoffs) is :func:`build_game`'s.  One
    :class:`GameValidationError` lists this function's errors followed by
    those of :func:`build_game`.

    Payoff entries may give ``r`` either as the team payoff (scalar) or as
    one payoff per player (averaged once at load).  Unlisted payoff triples
    default to ``default_payoff`` only when that field is present.
    """
    if not isinstance(raw, Mapping):
        raise GameValidationError(["top level must be a JSON object"])
    errors: list[str] = []
    states = raw.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        errors.append("states must be an array of state names")
    player_actions = raw.get("player_actions")
    if not isinstance(player_actions, list) or not all(
        isinstance(acts, list) and all(isinstance(x, str) for x in acts)
        for acts in player_actions
    ):
        errors.append("player_actions must be an array of arrays of action names")
    if errors:
        # Entries are indexed by the header, so they cannot be read without it.
        raise GameValidationError(errors)

    m = len(states)
    sizes = [len(a) for a in player_actions]
    n_joint = math.prod(sizes)
    state_idx = {s: i for i, s in enumerate(states)}

    def parse_state(name, where):
        if name not in state_idx:
            errors.append(f"{where}: unknown state {name!r}")
            return None
        return state_idx[name]

    def parse_action(a, where):
        if not isinstance(a, list) or len(a) != len(sizes):
            errors.append(f"{where}: 'a' must list one action index per player")
            return None
        idx = 0
        for i, ai in enumerate(a):
            if not isinstance(ai, int) or not 0 <= ai < sizes[i]:
                errors.append(f"{where}: action index {ai!r} out of range for player {i}")
                return None
            idx = idx * sizes[i] + ai
        return idx

    default = raw.get("default_payoff")
    if default is not None and not isinstance(default, (int, float)):
        errors.append("default_payoff must be a number")
        default = 0.0
    pay = np.full((m, n_joint, m), np.nan if default is None else float(default))
    seen: set[tuple[int, int, int]] = set()
    payoffs = raw.get("payoffs", [])
    if not isinstance(payoffs, list):
        errors.append("payoffs must be an array of entries")
        payoffs = []
    for i, ent in enumerate(payoffs):
        where = f"payoffs[{i}]"
        if not isinstance(ent, Mapping):
            errors.append(f"{where}: entry must be an object")
            continue
        si = parse_state(ent.get("s"), where)
        ai = parse_action(ent.get("a"), where)
        sj = parse_state(ent.get("s_next"), where)
        r = ent.get("r")
        if isinstance(r, list):
            if not r or len(r) != len(sizes) or not all(
                isinstance(x, (int, float)) for x in r
            ):
                errors.append(f"{where}: 'r' list must give one payoff per player")
                r = None
            else:
                r = sum(float(x) for x in r) / len(sizes)
        elif not isinstance(r, (int, float)):
            errors.append(f"{where}: 'r' must be a number or per-player list")
            r = None
        if si is None or ai is None or sj is None or r is None:
            continue
        if (si, ai, sj) in seen:
            errors.append(f"{where}: duplicate entry for this (s, a, s_next)")
            continue
        seen.add((si, ai, sj))
        pay[si, ai, sj] = float(r)
    missing = np.isnan(pay)
    if default is None and missing.any():
        k, a, l = (int(x) for x in np.argwhere(missing)[0])
        errors.append(
            f"payoffs: {int(missing.sum())} triples unlisted and no default_payoff "
            f"set (first missing: s={states[k]!r}, "
            f"a={[int(x) for x in np.unravel_index(a, sizes)]}, "
            f"s_next={states[l]!r})"
        )
        pay[missing] = 0.0  # reported here, not again as non-finite payoffs

    # A pair no entry lists stays None; build_game reports it as missing.
    grid: list[list[object | None]] = [[None] * n_joint for _ in range(m)]
    listed: set[tuple[int, int]] = set()
    unc = raw.get("uncertainty")
    if not isinstance(unc, list):
        errors.append("uncertainty must be an array of entries")
        unc = []
    for i, ent in enumerate(unc):
        where = f"uncertainty[{i}]"
        if not isinstance(ent, Mapping):
            errors.append(f"{where}: entry must be an object")
            continue
        si = parse_state(ent.get("s"), where)
        ai = parse_action(ent.get("a"), where)
        if si is None or ai is None:
            continue
        if (si, ai) in listed:
            errors.append(f"{where}: duplicate entry for this (s, a)")
            continue
        listed.add((si, ai))
        grid[si][ai] = ent.get("rows")
    r_max = raw.get("r_max")
    if r_max is not None and not isinstance(r_max, (int, float)):
        errors.append("r_max must be a number")
        r_max = None
    try:
        game = build_game(raw.get("n_players"), states, player_actions, pay, grid, r_max)
    except GameValidationError as e:
        errors.extend(e.errors)
    if errors:
        raise GameValidationError(errors)
    return game


def game_to_dict(game: TeamMarkovGame) -> dict:
    """Canonical JSON-shaped dict: fixed key order, entries sorted by index.

    Only nonzero payoffs are listed (with ``default_payoff`` 0.0), so the
    writer output round-trips bit-identically through :func:`validate_game`.
    """
    payoffs = []
    for k in range(game.m):
        for a in range(game.n_joint_actions):
            for l in range(game.m):
                r = float(game.payoff[k, a, l])
                if r != 0.0:
                    payoffs.append(
                        {
                            "s": game.states[k],
                            "a": list(game.joint_action_tuples[a]),
                            "s_next": game.states[l],
                            "r": r,
                        }
                    )
    uncertainty = []
    for k in range(game.m):
        for a in range(game.n_joint_actions):
            uncertainty.append(
                {
                    "s": game.states[k],
                    "a": list(game.joint_action_tuples[a]),
                    "rows": [[float(x) for x in row] for row in
                             game.candidates[k, a, : game.n_rows[k, a]]],
                }
            )
    return {
        "n_players": game.n_players,
        "states": list(game.states),
        "player_actions": [list(a) for a in game.player_actions],
        "default_payoff": 0.0,
        "payoffs": payoffs,
        "uncertainty": uncertainty,
        "r_max": float(game.r_max),
    }


def load_game(path) -> TeamMarkovGame:
    """Load and validate a game JSON file."""
    raw = json.loads(Path(path).read_text())
    return validate_game(raw)


def save_game(game: TeamMarkovGame, path) -> None:
    """Write a game as canonical JSON (stable key order, sorted entries)."""
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def count_decision_rules(game: TeamMarkovGame) -> int:
    return game.n_joint_actions ** game.m


def enumerate_decision_rules(
    game: TeamMarkovGame, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[TeamDecisionRule]:
    """All decision rules, lexicographic over (state index, joint-action index).

    Raises :class:`BudgetExceededError` up front when the count
    ``n_joint_actions ** m`` exceeds ``budget``.
    """
    total = count_decision_rules(game)
    if total > budget:
        raise BudgetExceededError(total, budget)

    def gen():
        for combo in itertools.product(range(game.n_joint_actions), repeat=game.m):
            yield TeamDecisionRule(combo)

    return gen()


def count_policy_models(game: TeamMarkovGame, rule: TeamDecisionRule) -> int:
    return math.prod(
        int(game.n_rows[k, a]) for k, a in enumerate(rule.joint_actions)
    )


def enumerate_policy_models(
    game: TeamMarkovGame,
    rule: TeamDecisionRule,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[np.ndarray]:
    """Every admissible transition matrix for a rule, row k drawn from
    the candidate set at (state k, rule(k)); the yield count equals the
    product of per-row candidate counts.
    """
    game.validate_rule(rule)
    total = count_policy_models(game, rule)
    if total > budget:
        raise BudgetExceededError(total, budget)
    states, acts = np.arange(game.m), list(rule.joint_actions)
    cand, counts = game.candidates[states, acts], game.n_rows[states, acts]

    def gen():
        for combo in itertools.product(*map(range, counts)):
            yield cand[states, combo]

    return gen()
