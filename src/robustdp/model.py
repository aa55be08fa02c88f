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

The game is stored in one form, packed per group: joint actions of a state
with the same payoff and candidate rows share one stored copy and one
backup.  In games where payoffs and rows depend only on how many players
take each action (the social-dilemma benchmark), a state has n + 1 groups
out of 2**n joint actions.  States with fewer groups than the widest state
are padded with groups that never win a maximum (see
:class:`TeamMarkovGame`).  The builder takes payoffs and row sets per
entry, with a map from each joint action to its entry, and checks each
distinct row-set object of a state once.  ``build_rssd`` passes n + 1
entries per state and maps each of the 2**n joint actions to its
cooperator count, so it pays for n + 1 checks and a few array passes over
the map, not a Python step per joint action.

Instances are immutable after validation and safe to share across concurrent
solver runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

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


def _fits_double(x) -> bool:
    """Whether ``float(x)`` gives a double: False for an integer beyond
    double range, which JSON can spell but ``float`` cannot convert."""
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _non_numbers(rows) -> list[str]:
    """What JSON candidate rows (a list of lists) hold that
    ``np.array(..., dtype=float)`` would read as numbers: ``"true/false"``,
    ``"strings"``, both or neither.  Anything else is left to
    :func:`_clean_rows`, which reports its shape."""
    try:
        types = set(map(type, itertools.chain.from_iterable(rows)))
    except TypeError:
        return []
    return [what for kind, what in ((bool, "true/false"), (str, "strings")) if kind in types]


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
    data.

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
        # ``action_group`` is the one (m, A) array, and :func:`build_game`
        # hands over a fresh one, so it is not copied; the game freezes a
        # view of it, which leaves a caller's own array writable.
        action_group = np.asarray(self.action_group, dtype=np.intp).view()
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
    action_entry=None,
) -> TeamMarkovGame:
    """Construct and validate a game from in-memory parts.

    Payoffs and candidate rows are given per *entry*: ``action_entry``, an
    integer array of shape (m, A), maps each (state, joint action) pair to
    one of E entries of its state; ``payoff`` has shape (m, E, m), and
    ``uncertainty_rows[k][e]`` is the raw row set of entry e of state k.
    Without ``action_entry`` each pair is its own entry (E = A), so
    ``payoff`` is r(s, a, s') and ``uncertainty_rows[k][a]`` holds the rows
    of pair (k, a).  A game whose pairs share few distinct payoffs and row
    sets passes each once, and then costs per entry, not per pair, but for
    a few array passes over the map: ``build_rssd`` passes n + 1 entries
    per state for 2**n joint actions.

    Every game is checked here, whatever its source: a positive integer
    ``n_players`` with one nonempty action set per player, nonempty states,
    no duplicate state or action names, a payoff of shape (m, E, m) with
    finite entries, an ``action_entry`` of shape (m, A) and integer dtype
    whose indices lie in [0, E) and use every entry, one row set per
    (state, entry), and a finite ``r_max`` (computed as max |payoff| when
    omitted) no smaller than any payoff.  A row set is an array-like of raw
    candidate rows, or ``None`` for a pair the input does not list; each
    set is checked and cleaned by :func:`_clean_rows`, once per state for
    each distinct object: entries of a state given the same object share
    one check, and a bad set gets one error line per pair that maps to it.
    Actions of a state whose payoff and cleaned rows are the same bytes are
    packed as one group of ``TeamMarkovGame.group_candidates``.  Raises
    :class:`GameValidationError` listing every problem found; problems with
    the header (players, states, action sets) or with the shapes and
    indices of ``payoff`` and ``action_entry`` are reported without the
    checks that depend on them.
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
    if action_entry is None:
        n_entries, unit = n_joint, "joint action"
        entry = np.broadcast_to(np.arange(n_joint), (m, n_joint))
        if payoff.shape != (m, n_joint, m):
            errors.append(f"payoff shape {payoff.shape} != {(m, n_joint, m)}")
    else:
        n_entries, unit = (payoff.shape[1] if payoff.ndim == 3 else 0), "entry"
        if payoff.shape != (m, n_entries, m):
            errors.append(f"payoff shape {payoff.shape} != ({m}, E, {m})")
        entry = np.asarray(action_entry)
        if entry.shape != (m, n_joint):
            errors.append(f"action_entry shape {entry.shape} != {(m, n_joint)}")
        elif entry.dtype.kind not in "iu":
            errors.append(f"action_entry must hold integers, not {entry.dtype}")
        elif payoff.ndim == 3 and (entry.min() < 0 or entry.max() >= n_entries):
            errors.append(f"action_entry holds an entry outside [0, {n_entries})")
    if errors:
        raise GameValidationError(errors)
    at_state = np.arange(m)[:, None]
    if action_entry is not None:
        # An unused entry would still count towards r_max, and its rows
        # would have no pair to report an error against.
        used = np.zeros((m, n_entries), dtype=bool)
        used[at_state, entry] = True
        for k in np.flatnonzero(~used.all(axis=1)):
            errors.append(
                f"action_entry[state={states[k]!r}]: no joint action uses "
                f"entries {np.flatnonzero(~used[k]).tolist()}"
            )
    if not np.all(np.isfinite(payoff)):
        errors.append("payoff contains non-finite entries")

    # Entries whose payoff and cleaned rows are the same bytes share a
    # group, numbered here in order of the first such entry.
    entry_group = np.zeros((m, n_entries), dtype=np.intp)
    group_rows: list[list[np.ndarray]] = []
    if len(uncertainty_rows) != m or any(len(per) != n_entries for per in uncertainty_rows):
        errors.append(f"uncertainty must provide one row set per (state, {unit})")
    else:
        for k in range(m):
            # Inputs often pass one row-set object to many entries of a
            # state, so each object is cleaned once per state, and equal
            # cleaned sets share one array, whose id stands for its bytes.
            # The memo holds each object, so the id of a temporary (a view
            # of an array, say) is not reused while the state is built.
            checked: dict[int, tuple[object, np.ndarray | str]] = {}
            distinct: dict[bytes, np.ndarray] = {}
            groups: dict[tuple[bytes, int], int] = {}
            bad: dict[int, str] = {}
            per_group: list[np.ndarray] = []
            for e, raw in enumerate(uncertainty_rows[k]):
                memo = checked.get(id(raw))
                if memo is None:
                    try:
                        rows = _clean_rows(raw, m)
                    except ValueError as exc:
                        rows = str(exc)
                    else:
                        rows = distinct.setdefault(rows.tobytes(), rows)
                    memo = checked[id(raw)] = raw, rows
                rows = memo[1]
                if isinstance(rows, str):
                    bad[e] = rows
                    continue
                key = (payoff[k, e].tobytes(), id(rows))
                g = entry_group[k, e] = groups.setdefault(key, len(groups))
                if g == len(per_group):
                    per_group.append(rows)
            group_rows.append(per_group)
            if bad:
                # One line per pair that maps to a bad set, in action order.
                for a in np.flatnonzero(np.isin(entry[k], list(bad))):
                    action = tuple(int(i) for i in np.unravel_index(a, shape))
                    errors.append(
                        f"uncertainty[state={states[k]!r}, action={action}]: "
                        f"{bad[int(entry[k, a])]}"
                    )

    computed_r_max = float(np.max(np.abs(payoff))) if payoff.size else 0.0
    if r_max is None:
        r_max = computed_r_max
    elif not _fits_double(r_max):
        errors.append("r_max is beyond double range")
    elif not math.isfinite(r_max):
        errors.append("r_max must be finite")
    elif float(r_max) + 1e-12 < computed_r_max:
        errors.append(f"r_max {r_max} < max |payoff| {computed_r_max}")
    if errors:
        raise GameValidationError(errors)

    # Actions take their entry's group through the map.  The sweeps rely on
    # groups numbered per state in order of their lowest member, so each
    # state's groups are sorted by it; an id no action takes sorts last.
    provisional = entry_group[at_state, entry]
    lowest = np.full((m, n_entries), n_joint)
    np.minimum.at(lowest, (at_state, provisional), np.arange(n_joint))
    order = np.argsort(lowest, axis=1)
    number = np.empty_like(order)
    number[at_state, order] = np.arange(n_entries)
    n_groups = np.count_nonzero(lowest < n_joint, axis=1)
    # Padded groups copy group 0, whose lowest member is action 0.
    pad = np.arange(n_groups.max()) >= n_groups[:, None]
    order = np.where(pad, order[:, :1], order[:, : pad.shape[1]])
    group_action = np.where(pad, 0, np.take_along_axis(lowest, order, axis=1))
    group_rows = [[per_group[p] for p in ids] for per_group, ids in zip(group_rows, order.tolist())]
    n_rows = np.array([list(map(len, per_state)) for per_state in group_rows], dtype=np.intp)
    candidates = np.zeros((*pad.shape, int(n_rows.max()), m))
    for k, per_state in enumerate(group_rows):
        for g, rows in enumerate(per_state):
            candidates[k, g, : len(rows)] = rows
    return TeamMarkovGame(
        states=states,
        player_actions=player_actions,
        action_group=number[at_state, provisional],
        group_action=group_action,
        group_payoff=payoff[at_state, entry[at_state, group_action]],
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
    except OverflowError as e:
        raise ValueError("rows hold a number beyond double range") from e
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


def _payoff_cells(payoffs: list, state_idx: dict, sizes: tuple, m: int):
    """Flat indices into the (m, A, m) payoff tensor, and the payoffs, of a
    list of plainly well-formed payoff entries; ``None`` for any other list.

    Plainly well formed means: every entry is a ``dict`` whose ``s`` and
    ``s_next`` name known states, whose ``a`` is a ``list`` of one in-range
    ``int`` per player, and whose ``r`` is an ``int`` or ``float`` (not
    ``bool``) within double range, and no two entries share an (s, a, s')
    triple.  Each check is one C-level pass over a column of the entries,
    so no per-entry objects are made, and a few index arrays are the only
    temporaries.  :func:`validate_game` reads any other list with its
    per-entry loop, which words the errors and reads per-player ``r``
    lists; the two agree on every list this function reads.
    """
    get_s, get_a, get_next, get_r = map(operator.itemgetter, ("s", "a", "s_next", "r"))
    chain, index = itertools.chain.from_iterable, state_idx.__getitem__
    n = len(payoffs)
    try:
        if not (
            set(map(type, payoffs)) <= {dict}
            and set(map(type, map(get_a, payoffs))) <= {list}
            and set(map(len, map(get_a, payoffs))) <= {len(sizes)}
            and set(map(type, chain(map(get_a, payoffs)))) <= {int}
            and set(map(type, map(get_r, payoffs))) <= {int, float}
        ):
            return None
        s = np.fromiter(map(index, map(get_s, payoffs)), np.intp, n)
        s_next = np.fromiter(map(index, map(get_next, payoffs)), np.intp, n)
        acts = np.fromiter(chain(map(get_a, payoffs)), np.intp, n * len(sizes))
        acts = acts.reshape(n, len(sizes))
        # C order over (m, *sizes, m) is the payoff tensor's flat order.
        flat = np.ravel_multi_index((s, *acts.T, s_next), (m, *sizes, m))
        values = np.fromiter(map(get_r, payoffs), float, n)
    except (KeyError, TypeError, ValueError, OverflowError):
        # A missing key, an unknown or unhashable state name, an action
        # index out of range, or an int too large for intp (in 'a') or for
        # a double (in 'r').
        return None
    listed = np.zeros(m * math.prod(sizes) * m, dtype=bool)
    listed[flat] = True
    if np.count_nonzero(listed) != n:
        return None
    return flat, values


def validate_game(raw: Mapping) -> TeamMarkovGame:
    """Translate a parsed game description (the JSON document shape) into
    the arguments of :func:`build_game` and build the game.

    This function checks only what exists in the JSON form alone: that
    ``states`` is an array of names and ``player_actions`` an array of
    arrays of names, that entries name known states and give one in-range
    action index per player, per-player ``r`` lists, duplicate entries,
    unlisted payoff triples when ``default_payoff`` is absent, ``true``,
    ``false`` or strings inside candidate ``rows``, and the type of
    ``r_max``.  Every other check (player count, duplicate or empty names,
    candidate rows, missing uncertainty entries, ``r_max`` against the
    payoffs) is :func:`build_game`'s.  One
    :class:`GameValidationError` lists this function's errors followed by
    those of :func:`build_game`.

    Payoff entries may give ``r`` either as the team payoff (scalar) or as
    one payoff per player (averaged once at load).  Unlisted payoff triples
    default to ``default_payoff`` only when that field is present.  An integer
    beyond double range, which JSON can spell, is an error in ``r``,
    ``default_payoff``, ``r_max`` and candidate ``rows``.

    A large file is mostly payoff entries, so they are read in one of two
    ways.  When every entry is plainly well formed (see
    :func:`_payoff_cells`), they are checked column by column and written
    into the payoff tensor in one scatter, as ``save_game`` and
    ``rssd-gen`` files are.  Otherwise a per-entry loop reads them, which
    accepts per-player ``r`` lists and words every error.  Both build the
    same tensor.
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
    elif default is not None and not _fits_double(default):
        errors.append("default_payoff is beyond double range")
        default = 0.0
    pay = np.full((m, n_joint, m), np.nan if default is None else float(default))
    seen: set[tuple[int, int, int]] = set()
    payoffs = raw.get("payoffs", [])
    if not isinstance(payoffs, list):
        errors.append("payoffs must be an array of entries")
        payoffs = []
    cells = _payoff_cells(payoffs, state_idx, sizes, m)
    if cells is not None:
        flat, values = cells
        pay.reshape(-1)[flat] = values
    for i, ent in enumerate(payoffs if cells is None else ()):
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
            elif not all(map(_fits_double, r)):
                errors.append(f"{where}: 'r' is beyond double range")
                r = None
            else:
                r = sum(float(x) for x in r) / len(sizes)
        elif not _is_number(r):
            errors.append(f"{where}: 'r' must be a number or per-player list")
            r = None
        elif not _fits_double(r):
            errors.append(f"{where}: 'r' is beyond double range")
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
        for what in _non_numbers(rows):
            errors.append(
                f"uncertainty[state={states[si]!r}, action={tuple(ent['a'])}]: "
                f"rows must hold numbers, not {what}"
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
    payoff = game.group_payoff[np.arange(game.m)[:, None], game.action_group]
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

