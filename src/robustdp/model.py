"""Finite team Markov games with rectangular transition uncertainty.

A game couples a finite state set, per-player finite action sets, a
team-average payoff tensor r(s, a, s'), and, for every (state, joint action)
pair, a finite set of candidate transition rows.  Under a fixed decision rule
the admissible transition matrices are the Cartesian product of the per-state
row sets (row-rectangular uncertainty), so the adversary may pick each row
independently.

Joint actions are indexed in C order over the per-player action counts
(``TeamMarkovGame.action_shape``), player 0 most significant; state order is
the order given at construction and fixes the solvers' Gauss-Seidel order.

The game is packed per group: joint actions of a state with the same payoff
and candidate rows share one stored copy and one backup.  In games where
payoffs and rows depend only on how many players take each action (the
social-dilemma benchmark), a state has n + 1 groups out of 2**n joint
actions.  States with fewer groups than the widest state are padded with
groups that never win a maximum (see :class:`TeamMarkovGame`).

Instances are immutable after validation and safe to share across concurrent
solver runs.
"""

from __future__ import annotations

import functools
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


def _is_number(x, kind=(int, float)) -> bool:
    """Whether ``x`` is a number of ``kind``; JSON ``true`` (an ``int``) is not."""
    return type(x) is not bool and isinstance(x, kind)


def _holds_bool(rows) -> bool:
    """Whether JSON candidate rows (a list of lists) hold ``true``/``false``.
    Anything else is left to :func:`_clean_rows`, which reports its shape."""
    try:
        return bool in set(map(type, itertools.chain.from_iterable(rows)))
    except TypeError:
        return False


def sup_norm(v) -> float:
    """Sup norm max_s |v(s)| of a value function."""
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


@dataclass(frozen=True)
class TeamDecisionRule:
    """Deterministic map from state index to joint-action index."""

    joint_actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "joint_actions", tuple(map(int, self.joint_actions)))


@dataclass(frozen=True, eq=False)
class TeamMarkovGame:
    """Validated, immutable robust team Markov game in one packed layout.

    ``player_actions`` alone fixes the action structure: ``n_players``,
    ``action_shape`` and every index <-> tuple conversion derive from it.

    Joint actions of a state whose payoff rows and candidate rows are the
    same bytes back up to the same value, so the game stores each such
    group once.  Groups are numbered per state in order of their lowest
    member.  With m states, A joint actions, G the largest group count of
    any state and Kmax the largest candidate count of any group:

    * ``action_group``, integer shape (m, A): the group of each joint action.
    * ``group_action``, integer shape (m, G): the lowest member of each group.
    * ``group_payoff``, shape (m, G, m): the team-average payoff r(s, a, s')
      of the group's actions.
    * ``group_candidates``, shape (m, G, Kmax, m): ``group_candidates[k, g, j]``
      is the j-th candidate transition row out of state k under the group's
      actions.  Only the first ``group_n_rows[k, g]`` rows are real; padded
      rows are zero.
    * ``group_n_rows``, integer shape (m, G): the candidate count of each group.
    * ``group_payoff_exp``, shape (m, G, Kmax): the expected immediate payoff
      ``group_candidates[k, g, j] @ group_payoff[k, g]`` of every real row,
      and ``+inf`` in every padded row, so a padded row never wins the
      adversary's min.

    A state with fewer than G groups is padded with copies of its group 0
    whose ``group_payoff_exp`` is ``-inf``: a padded group never wins the
    max over groups, and a reduction over the other arrays sees only real
    data.  ``payoff``, ``candidates``, ``n_rows`` and ``payoff_exp`` gather
    the per-action form through ``action_group`` on each access.

    All arrays are read-only.  :func:`build_game` checks the rows and forms
    the groups before they reach this class.
    """

    states: tuple[str, ...]
    player_actions: tuple[tuple[str, ...], ...]
    action_group: np.ndarray = field(repr=False)
    group_action: np.ndarray = field(repr=False)
    group_payoff: np.ndarray = field(repr=False)
    group_candidates: np.ndarray = field(repr=False)
    group_n_rows: np.ndarray = field(repr=False)
    r_max: float
    group_payoff_exp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        action_group = np.array(self.action_group, dtype=np.intp)
        group_action = np.array(self.group_action, dtype=np.intp)
        payoff = np.array(self.group_payoff, dtype=float)
        cand = np.array(self.group_candidates, dtype=float)
        n_rows = np.array(self.group_n_rows, dtype=np.intp)
        pexp = (cand @ payoff[..., None])[..., 0]
        pexp[np.arange(cand.shape[2]) >= n_rows[..., None]] = np.inf
        n_groups = action_group.max(axis=1) + 1
        pexp[np.arange(cand.shape[1]) >= n_groups[:, None]] = -np.inf
        for name, arr in (
            ("action_group", action_group), ("group_action", group_action),
            ("group_payoff", payoff), ("group_candidates", cand),
            ("group_n_rows", n_rows), ("group_payoff_exp", pexp),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _per_action(self, group_array: np.ndarray) -> np.ndarray:
        """``group_array`` gathered to one entry per joint action, read-only
        like the arrays it comes from."""
        out = group_array[np.arange(self.m)[:, None], self.action_group]
        out.setflags(write=False)
        return out

    @property
    def payoff(self) -> np.ndarray:
        """Per-action payoff, shape (m, A, m)."""
        return self._per_action(self.group_payoff)

    @property
    def candidates(self) -> np.ndarray:
        """Per-action candidate rows, shape (m, A, Kmax, m)."""
        return self._per_action(self.group_candidates)

    @property
    def n_rows(self) -> np.ndarray:
        """Per-action candidate counts, shape (m, A)."""
        return self._per_action(self.group_n_rows)

    @property
    def payoff_exp(self) -> np.ndarray:
        """Per-action expected immediate payoffs, shape (m, A, Kmax)."""
        return self._per_action(self.group_payoff_exp)

    @property
    def m(self) -> int:
        return len(self.states)

    @property
    def n_players(self) -> int:
        return len(self.player_actions)

    @property
    def action_shape(self) -> tuple[int, ...]:
        """Per-player action counts."""
        return tuple(len(a) for a in self.player_actions)

    @property
    def n_joint_actions(self) -> int:
        return self.action_group.shape[1]

    def joint_index(self, per_player: Sequence[int]) -> int:
        """Joint-action index of a per-player action index tuple.  Raises
        ``ValueError`` unless it gives one in-range index per player."""
        return int(np.ravel_multi_index(tuple(per_player), self.action_shape))

    def action_names(self, joint_action: int) -> tuple[str, ...]:
        """Per-player action names of a joint-action index.  Raises
        ``ValueError`` for an index outside [0, n_joint_actions)."""
        per = np.unravel_index(joint_action, self.action_shape)
        return tuple(acts[i] for acts, i in zip(self.player_actions, per))

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
    finite entries, one row set per (state, joint action) pair, and a
    finite ``r_max`` (computed as max |payoff| when omitted) no smaller
    than any payoff.  ``uncertainty_rows[k][a]`` is an array-like of raw
    candidate rows, or ``None`` for a pair the input does not list; each set is
    checked and cleaned by :func:`_clean_rows`.  Actions of a state whose
    payoff and cleaned rows are the same bytes are packed as one group of
    ``TeamMarkovGame.group_candidates``.  Raises :class:`GameValidationError`
    listing every problem found; problems with the header (players, states,
    action sets) are reported without the row checks that depend on it.
    """
    errors: list[str] = []
    n_players_ok = _is_number(n_players, int)
    if not n_players_ok or n_players < 1:
        errors.append("n_players must be a positive integer")
    states = tuple(states)
    if not states:
        errors.append("states must be nonempty")
    if len(set(states)) != len(states):
        errors.append("states contains duplicate names")
    player_actions = tuple(tuple(a) for a in player_actions)
    if n_players_ok and len(player_actions) != max(n_players, 1):
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
    shape = tuple(len(a) for a in player_actions)
    n_joint = math.prod(shape)
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
                    action = tuple(int(i) for i in np.unravel_index(a, shape))
                    ctx = f"uncertainty[state={states[k]!r}, action={action}]"
                    errors.append(f"{ctx}: {e}")

    computed_r_max = float(np.max(np.abs(payoff))) if payoff.size else 0.0
    if r_max is None:
        r_max = computed_r_max
    elif not math.isfinite(r_max):
        errors.append("r_max must be finite")
    elif float(r_max) + 1e-12 < computed_r_max:
        errors.append(f"r_max {r_max} < max |payoff| {computed_r_max}")
    if errors:
        raise GameValidationError(errors)
    # Actions whose payoff and cleaned rows are the same bytes form a group;
    # walking actions in order numbers the groups by their lowest member.
    action_group = np.empty((m, n_joint), dtype=np.intp)
    firsts: list[list[int]] = []
    for k in range(m):
        groups: dict[tuple[bytes, bytes], int] = {}
        first: list[int] = []
        for a in range(n_joint):
            key = (payoff[k, a].tobytes(), cleaned[k, a].tobytes())
            g = action_group[k, a] = groups.setdefault(key, len(groups))
            if g == len(first):
                first.append(a)
        firsts.append(first)
    n_groups = max(map(len, firsts))
    # Padded groups copy group 0, whose lowest member is action 0.
    group_action = np.array([f + [0] * (n_groups - len(f)) for f in firsts], dtype=np.intp)
    group_rows = [[cleaned[k, a] for a in ga] for k, ga in enumerate(group_action.tolist())]
    n_rows = np.array([list(map(len, per_state)) for per_state in group_rows], dtype=np.intp)
    candidates = np.zeros((m, n_groups, int(n_rows.max()), m))
    for k, per_state in enumerate(group_rows):
        for g, rows in enumerate(per_state):
            candidates[k, g, : len(rows)] = rows
    return TeamMarkovGame(
        states=states,
        player_actions=player_actions,
        action_group=action_group,
        group_action=group_action,
        group_payoff=payoff[np.arange(m)[:, None], group_action],
        group_candidates=candidates,
        group_n_rows=n_rows,
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
    unlisted payoff triples when ``default_payoff`` is absent, ``true`` or
    ``false`` inside candidate ``rows``, and the type of ``r_max``.  Every
    other check (player count, duplicate or empty names, candidate rows,
    missing uncertainty entries, ``r_max`` against the payoffs) is
    :func:`build_game`'s.  One
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
    sizes = tuple(len(a) for a in player_actions)
    n_joint = math.prod(sizes)
    state_idx = {s: i for i, s in enumerate(states)}

    def parse_state(name, where):
        try:
            return state_idx[name]
        except (KeyError, TypeError):  # TypeError: a JSON array or object
            errors.append(f"{where}: unknown state {name!r}")
            return None

    # numpy's ~2 us per call would dominate a large file: ravel each action once.
    joint = functools.cache(lambda a: int(np.ravel_multi_index(a, sizes)))

    def parse_action(a, where):
        if not isinstance(a, list) or len(a) != len(sizes):
            errors.append(f"{where}: 'a' must list one action index per player")
            return None
        for i, ai in enumerate(a):
            if not _is_number(ai, int) or not 0 <= ai < sizes[i]:
                errors.append(f"{where}: action index {ai!r} out of range for player {i}")
                return None
        return joint(tuple(a))

    default = raw.get("default_payoff")
    if default is not None and not _is_number(default):
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
                _is_number(x) for x in r
            ):
                errors.append(f"{where}: 'r' list must give one payoff per player")
                r = None
            else:
                r = sum(float(x) for x in r) / len(sizes)
        elif not _is_number(r):
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
        rows = grid[si][ai] = ent.get("rows")
        if _holds_bool(rows):
            errors.append(
                f"uncertainty[state={states[si]!r}, action={tuple(ent['a'])}]: "
                "rows must hold numbers, not true/false"
            )
    r_max = raw.get("r_max")
    if r_max is not None and not _is_number(r_max):
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
    actions = list(np.ndindex(*game.action_shape))
    states = game.states
    payoff = game.payoff
    payoffs = [
        {"s": states[k], "a": list(actions[a]), "s_next": states[l],
         "r": float(payoff[k, a, l])}
        for k, a, l in zip(*np.nonzero(payoff))
    ]
    cand, n_rows = game.group_candidates, game.group_n_rows
    uncertainty = [
        {"s": states[k], "a": list(actions[a]), "rows": cand[k, g, : n_rows[k, g]].tolist()}
        for k, per_state in enumerate(game.action_group.tolist())
        for a, g in enumerate(per_state)
    ]
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


def enumerate_decision_rules(
    game: TeamMarkovGame, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[TeamDecisionRule]:
    """All decision rules, lexicographic over (state index, joint-action index).

    Raises :class:`BudgetExceededError` up front when the count
    ``n_joint_actions ** m`` exceeds ``budget``.
    """
    total = game.n_joint_actions ** game.m
    if total > budget:
        raise BudgetExceededError(total, budget)

    combos = itertools.product(range(game.n_joint_actions), repeat=game.m)
    return (TeamDecisionRule(combo) for combo in combos)
