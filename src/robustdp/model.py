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
state's row sets once, as one stack of rows (:func:`_clean_rows`).
``build_rssd`` passes n + 1 entries per state and maps each of the 2**n
joint actions to its cooperator count, so it pays for one check of n + 1
sets per state and a few array passes over the map, not a Python step per
joint action.

This module is also the program's one JSON boundary.  :func:`read_json`
reads every JSON file the program takes, game files and ``--v0`` files
alike, and turns every failure but a file-system ``OSError`` into one
``ValueError`` line that starts with the path; :func:`write_json` writes
every JSON document in one text form.  The lists of state and action
names pass one check, :func:`_name_lists`, whether they come from a file
(:func:`validate_game`) or from Python (:func:`build_game`): they must be
ordered, because their order numbers the states and the joint actions.
A game document comes in one of two forms, which :func:`validate_game`
tells apart by their keys and never takes mixed.  The entry form, which
:func:`save_game` writes, lists each state's groups once, as the builder
takes them, with an ``action_entry`` map, and goes to :func:`build_game`
as it is, so a fault in an entry is named by its entry.  The sparse
form, which :func:`game_to_dict` returns and which suits files written by
hand, lists one item per payoff triple and per (state, joint action)
pair; its two lists, ``payoffs`` and ``uncertainty``, are read by one
per-item loop in :func:`validate_game`, which words every error.

Instances are immutable after validation and safe to share across concurrent
solver runs.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from numbers import Real
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


def _count(x, name: str) -> int:
    """``x`` read with ``operator.index``; ``TypeError`` naming ``name`` for
    a bool, which ``operator.index`` would read as 0 or 1, and for anything
    else that is not an integer, such as a float or a str."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {x!r}")


def _ordered(seq) -> bool:
    """Whether ``seq`` is a list, a tuple or an array of at least one
    dimension, whose order is the caller's: not a set, whose order is the
    hash order, nor a bare str, whose characters are no names."""
    return isinstance(seq, (list, tuple)) or (isinstance(seq, np.ndarray) and seq.ndim > 0)


def _names(seq) -> tuple[str, ...] | None:
    """``seq`` as a tuple of names if it is an :func:`_ordered` sequence of
    str (a list, a tuple or a 1-D array); ``None`` otherwise."""
    return tuple(seq) if _ordered(seq) and all(isinstance(x, str) for x in seq) else None


def _name_lists(states, player_actions) -> tuple[tuple | None, tuple | None, list[str]]:
    """``states`` as a tuple of names and ``player_actions`` as a tuple of
    tuples of names, with one error for each that is not one, which is then
    ``None``.  Their order numbers the states and the joint actions."""
    states = _names(states)
    acts = tuple(map(_names, player_actions)) if _ordered(player_actions) else (None,)
    player_actions = None if None in acts else acts
    errors = ["states must be an array of state names"] if states is None else []
    if player_actions is None:
        errors.append("player_actions must be an array of arrays of action names")
    return states, player_actions, errors


def _real(x, name: str) -> float:
    """``x`` as a float; ``TypeError`` naming ``name`` for a bool, which
    would be read as 0 or 1, and for anything else that is not a real
    number, such as a str; ``ValueError`` for one beyond double range."""
    if not _is_number(x, Real):
        raise TypeError(f"{name} must be a real number, got {x!r}")
    if not _fits_double(x):
        raise ValueError(f"{name} is beyond double range")
    return float(x)


def _fits_double(x) -> bool:
    """Whether ``float(x)`` gives a double: False for an integer beyond
    double range, which JSON can spell but ``float`` cannot convert."""
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _non_numbers(x) -> str:
    """What raw numbers ``x`` hold that ``np.array(..., dtype=float)`` would
    read as numbers: ``"true/false"``, ``"strings"``, ``"null"``, those
    found joined by ``" or "``, or ``""``.  Lists, tuples and object arrays
    are scanned element by element at every depth, other arrays by dtype,
    and anything else (a row given as an object, say) is left to numpy."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "fiu":  # the common case
        return ""
    sequences, chain = (list, tuple, np.ndarray), itertools.chain.from_iterable
    types, level = {type(x)}, [x]
    while level:
        nested = []
        for y in level:
            if isinstance(y, np.ndarray) and y.dtype.kind != "O":
                types.add(y.dtype.type)
            elif isinstance(y, sequences):
                nested.append(y.ravel() if isinstance(y, np.ndarray) else y)
        # The next level is listed only if it holds sequences: not the leaves.
        found = set(map(type, chain(nested)))
        types |= found
        deeper = any(issubclass(t, sequences) for t in found)
        level = list(chain(nested)) if deeper else []
    kinds = (((bool, np.bool_), "true/false"), ((str, bytes), "strings"),
             ((type(None),), "null"))
    return " or ".join(what for of, what in kinds if any(issubclass(t, of) for t in types))


def sup_norm(v) -> float:
    """Sup norm max_s |v(s)| of a value function."""
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


@dataclass(frozen=True)
class TeamDecisionRule:
    """Deterministic map from state index to joint-action index (no bools)."""

    joint_actions: tuple[int, ...]

    def __post_init__(self):
        actions = tuple(_count(a, "joint action") for a in self.joint_actions)
        object.__setattr__(self, "joint_actions", actions)


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
      actions.  The real rows come first, and each sums to 1; the rows that
      pad a group to Kmax are all zero.  No field counts the real rows.
    * ``group_payoff_exp``, shape (m, G, Kmax): the expected immediate payoff
      ``group_candidates[k, g, j] @ group_payoff[k, g]`` of every real row,
      and ``+inf`` in every padded row, so a padded row never wins the
      adversary's min.

    A state with fewer than G groups is padded with copies of its group 0
    whose ``group_payoff_exp`` is ``-inf``: a padded group never wins the
    max over groups, and a reduction over the other arrays sees only real
    data.

    The game freezes a read-only view of each array it is handed, not a
    copy, so the arrays are shared with the caller, whose own references
    stay writable.  :func:`build_game`, which allocates them, checks the
    rows and forms the groups before they reach this class.
    """

    states: tuple[str, ...]
    player_actions: tuple[tuple[str, ...], ...]
    action_group: np.ndarray = field(repr=False)
    group_action: np.ndarray = field(repr=False)
    group_payoff: np.ndarray = field(repr=False)
    group_candidates: np.ndarray = field(repr=False)
    r_max: float
    group_payoff_exp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # A real row sums to 1, so only padded rows are all zero.
        cand = self.group_candidates
        pexp = (cand @ self.group_payoff[..., None])[..., 0]
        pexp[~cand.any(axis=-1)] = np.inf
        n_groups = self.action_group.max(axis=1) + 1
        pexp[np.arange(cand.shape[1]) >= n_groups[:, None]] = -np.inf
        object.__setattr__(self, "group_payoff_exp", pexp)
        for name in ("action_group", "group_action", "group_payoff",
                     "group_candidates", "group_payoff_exp"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

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


def _payoff_array(payoff) -> np.ndarray:
    """``payoff`` as a new array of doubles, with -0.0 read as 0.0, so that
    groups key on values; a one-line :class:`GameValidationError` if it
    holds anything but numbers in double range."""
    what = _non_numbers(payoff)
    if what:
        raise GameValidationError([f"payoff must hold numbers, not {what}"])
    try:
        return np.asarray(payoff, dtype=float) + 0.0
    except OverflowError:
        raise GameValidationError(["payoff holds a number beyond double range"]) from None
    except (TypeError, ValueError) as e:
        raise GameValidationError([f"payoff is not an array of numbers: {e}"]) from None


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
    one of the entries of its state; ``payoff`` has shape (m, E, m), and
    ``uncertainty_rows[k][e]`` is the raw row set of entry e of state k.
    State k has as many entries as it lists row sets, from 1 to E, so
    states may differ in their entry counts (a saved game lists one entry
    per group); its payoff rows past that count are not read.
    Without ``action_entry`` each pair is its own entry (E = A), so
    ``payoff`` is r(s, a, s') and ``uncertainty_rows[k][a]`` holds the rows
    of pair (k, a).  A game whose pairs share few distinct payoffs and row
    sets passes each once, and then costs per entry, not per pair, but for
    a few array passes over the map: ``build_rssd`` passes n + 1 entries
    per state for 2**n joint actions.

    Every game is checked here, whatever its source: a positive integer
    ``n_players`` with one nonempty action set per player, nonempty states,
    states and each player's actions given as ordered sequences of str (a
    list, a tuple or a 1-D array, not a set; see :func:`_name_lists`), no
    duplicate state or action names, a payoff of shape (m, E, m) of finite
    numbers (not bools, strings or ``None``; see :func:`_non_numbers`), an
    ``action_entry`` of shape (m, A) and integer dtype, without ``true``
    or ``false``, whose indices lie in [0, E) and use every entry of their
    state and no other, one row set per (state, entry), and a
    finite real ``r_max``, not a bool (computed as max |payoff| when
    omitted), no smaller than any payoff.  A row set is an array-like of
    raw candidate rows, or ``None`` for a pair the input does not list.  A
    state's sets are read by :func:`_read_rows`, which also rejects
    ``true``/``false`` and strings inside them, and checked and cleaned
    once, as one stack of rows, by :func:`_clean_rows`.  Given a map, a bad
    set gets one error line, as ``entries[state=…][e]: 'rows': …``, and so
    does an entry with a non-finite payoff (``'r'``); without one, a bad
    set is named by its pair, as ``uncertainty[state=…, action=…]``.
    Actions of a state whose payoff and cleaned rows are the same bytes,
    with -0.0 read as 0.0, are packed as one group of
    ``TeamMarkovGame.group_candidates``.  Raises
    :class:`GameValidationError` listing every problem found; problems with
    the header (players, states, action sets) or with the shapes and
    indices of ``payoff`` and ``action_entry`` are reported without the
    checks that depend on them.
    """
    n_players_ok = _is_number(n_players, int)
    states, player_actions, errors = _name_lists(states, player_actions)
    if not n_players_ok or n_players < 1:
        errors.insert(0, "n_players must be a positive integer")
    if states == ():
        errors.append("states must be nonempty")
    elif states is not None and len(set(states)) != len(states):
        errors.append("states contains duplicate names")
    if player_actions is not None:
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
    payoff = _payoff_array(payoff)
    if action_entry is None:
        n_entries, unit = n_joint, "joint action"
        entry = np.broadcast_to(np.arange(n_joint), (m, n_joint))
        if payoff.shape != (m, n_joint, m):
            errors.append(f"payoff shape {payoff.shape} != {(m, n_joint, m)}")
    else:
        n_entries, unit = (payoff.shape[1] if payoff.ndim == 3 else 0), "entry"
        if payoff.shape != (m, n_entries, m):
            errors.append(f"payoff shape {payoff.shape} != ({m}, E, {m})")
        try:
            entry = np.asarray(action_entry)
        except ValueError:  # nested lists of different lengths
            raise GameValidationError(
                [*errors, f"action_entry is not an array of shape {(m, n_joint)}"]
            ) from None
        if entry.shape != (m, n_joint):
            errors.append(f"action_entry shape {entry.shape} != {(m, n_joint)}")
        elif entry.dtype.kind not in "iu":
            errors.append(f"action_entry must hold integers, not {entry.dtype}")
        elif what := _non_numbers(action_entry):  # true/false among integers
            errors.append(f"action_entry must hold integers, not {what}")
        elif payoff.ndim == 3 and (entry.min() < 0 or entry.max() >= n_entries):
            errors.append(f"action_entry holds an entry outside [0, {n_entries})")
    if errors:
        raise GameValidationError(errors)
    # Each state's entry count is the number of row sets it lists: E, or
    # with a map as few as one, so that states may differ in their entry
    # counts.  Payoff rows past a state's count are padding and not read.
    count = list(map(len, uncertainty_rows))
    sets_ok = len(count) == m and all(
        c == n_entries if action_entry is None else 0 < c <= n_entries for c in count
    )
    if not sets_ok:
        count = [n_entries] * m
    at_state = np.arange(m)[:, None]
    # The lowest joint action of each entry, n_joint for an unused one.
    lowest = np.full((m, n_entries), n_joint)
    np.minimum.at(lowest, (at_state, entry), np.arange(n_joint))
    if action_entry is not None:
        real = np.arange(n_entries) < np.array(count)[:, None]
        payoff[~real] = 0.0
        # An unused entry would still count towards r_max, and its rows
        # would have no pair to report an error against.
        unused, past = (lowest == n_joint) & real, (lowest < n_joint) & ~real
        for k in np.flatnonzero(unused.any(axis=1)):
            errors.append(
                f"action_entry[state={states[k]!r}]: no joint action uses "
                f"entries {np.flatnonzero(unused[k]).tolist()}"
            )
        for k in np.flatnonzero(past.any(axis=1)):
            errors.append(
                f"action_entry[state={states[k]!r}]: entries "
                f"{np.flatnonzero(past[k]).tolist()} have no row set"
            )
        for k, e in np.argwhere(~np.isfinite(payoff).all(axis=2)).tolist():
            errors.append(f"entries[state={states[k]!r}][{e}]: 'r' contains non-finite entries")
    elif not np.all(np.isfinite(payoff)):
        errors.append("payoff contains non-finite entries")

    # Entries whose payoff and cleaned rows are the same bytes share a
    # group.  Each state's entries are visited in order of their lowest
    # joint action, so its groups are numbered in order of their lowest
    # member, which the sweeps rely on, and each group records that member
    # as it forms.
    entry_group = np.zeros((m, n_entries), dtype=np.intp)
    group_rows: list[list[tuple[int, np.ndarray]]] = []
    if not sets_ok:
        errors.append(f"uncertainty must provide one row set per (state, {unit})")
    else:
        for k in range(m):
            groups: dict[tuple[bytes, bytes], int] = {}
            per_group: list[tuple[int, np.ndarray]] = []
            cleaned, bad = _clean_rows(uncertainty_rows[k], m)
            first = lowest[k].tolist()
            for e in np.argsort(lowest[k, : count[k]], kind="stable").tolist():
                if e in bad:
                    continue
                rows = cleaned[e]
                key = (payoff[k, e].tobytes(), rows.tobytes())
                g = entry_group[k, e] = groups.setdefault(key, len(groups))
                if g == len(per_group):
                    per_group.append((first[e], rows))
            group_rows.append(per_group)
            # One line per bad set, in entry order; without a map each
            # entry is one pair, named by its joint action.
            for e, fault in sorted(bad.items()):
                if action_entry is None:
                    action = tuple(int(i) for i in np.unravel_index(e, shape))
                    errors.append(f"uncertainty[state={states[k]!r}, action={action}]: {fault}")
                else:
                    errors.append(f"entries[state={states[k]!r}][{e}]: 'rows': {fault}")

    computed_r_max = float(np.max(np.abs(payoff))) if payoff.size else 0.0
    if r_max is None:
        r_max = computed_r_max
    elif not _is_number(r_max, Real):
        errors.append("r_max must be a number")
    elif not _fits_double(r_max):
        errors.append("r_max is beyond double range")
    elif not math.isfinite(r_max):
        errors.append("r_max must be finite")
    elif float(r_max) + 1e-12 < computed_r_max:
        errors.append(f"r_max {r_max} < max |payoff| {computed_r_max}")
    if errors:
        raise GameValidationError(errors)

    # Padded groups copy group 0, whose lowest member is action 0.
    n_groups = max(map(len, group_rows))
    group_rows = [per + per[:1] * (n_groups - len(per)) for per in group_rows]
    k_max = max(len(rows) for per in group_rows for _, rows in per)
    candidates = np.zeros((m, n_groups, k_max, m))
    for k, per_state in enumerate(group_rows):
        for g, (_, rows) in enumerate(per_state):
            candidates[k, g, : len(rows)] = rows
    group_action = np.array([[a for a, _ in per] for per in group_rows], dtype=np.intp)
    return TeamMarkovGame(
        states=states,
        player_actions=player_actions,
        action_group=entry_group[at_state, entry],
        group_action=group_action,
        group_payoff=payoff[at_state, entry[at_state, group_action]],
        group_candidates=candidates,
        r_max=float(r_max),
    )


def _read_rows(raw, m: int) -> np.ndarray:
    """A raw row set as a new (n, m) float array, n >= 1, its values not yet
    checked; ``ValueError`` for a missing set, non-numbers or a bad shape."""
    if raw is None:
        raise ValueError("missing entry")
    what = _non_numbers(raw)
    if what:
        raise ValueError(f"rows must hold numbers, not {what}")
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
    return arr


def _clean_rows(row_sets, m: int) -> tuple[dict[int, np.ndarray], dict[int, str]]:
    """One state's candidate row sets, cleaned, and the bad sets' errors, by
    entry.  The sets are read by :func:`_read_rows` and checked as one (rows,
    m) stack: finite, no entry below NEGATIVE_CLAMP (entries in
    [NEGATIVE_CLAMP, 0], -0.0 among them, are set to 0.0), each row summing
    to 1 within STOCHASTIC_ATOL, then divided by its sum (silent
    renormalisation would mask data errors).  A bad set's error is its
    first failure in that order, at its first row that fails it."""
    errors, arr = {}, None
    if all(type(raw) is list and raw for raw in row_sets):  # as in a parsed file
        with contextlib.suppress(ValueError):
            arr = _read_rows(list(itertools.chain.from_iterable(row_sets)), m)
    if arr is not None:
        n_rows = dict(enumerate(map(len, row_sets)))
    else:
        read = {}
        for e, raw in enumerate(row_sets):
            try:
                read[e] = _read_rows(raw, m)
            except ValueError as exc:
                errors[e] = str(exc)
        if not read:
            return {}, errors
        arr, n_rows = np.concatenate(list(read.values())), {e: len(x) for e, x in read.items()}
    starts = np.cumsum([0, *n_rows.values()])
    low, finite = arr.min(axis=1), np.isfinite(arr).all(axis=1)
    negative = low < NEGATIVE_CLAMP
    arr[arr <= 0.0] = 0.0  # -0.0 too, so that groups key on values
    with np.errstate(over="ignore"):  # a finite row may sum to inf: an error below
        sums = arr.sum(axis=1)
    off = np.abs(sums - 1.0) > STOCHASTIC_ATOL
    ok = finite & ~negative & ~off
    np.divide(arr, sums[:, None], out=arr, where=ok[:, None])
    cleaned = {}
    for e, a, b, good in zip(n_rows, starts.tolist(), starts[1:].tolist(),
                             np.logical_and.reduceat(ok, starts[:-1]).tolist()):
        if good:
            cleaned[e] = arr[a:b]
        elif not finite[a:b].all():
            errors[e] = "rows must be finite"
        elif negative[a:b].any():
            j = a + negative[a:b].argmax()
            errors[e] = f"row {j - a} entry {float(low[j])!r} is negative"
        else:
            j = a + off[a:b].argmax()
            errors[e] = f"row {j - a} sum {float(sums[j])!r} != 1"
    return cleaned, errors


def _team_payoff(r, n_players: int) -> float:
    """``r``, a number or one per player (averaged); ``ValueError`` if not."""
    per_player = isinstance(r, list)
    if per_player and (not r or len(r) != n_players or not all(map(_is_number, r))):
        raise ValueError("'r' list must give one payoff per player")
    if not per_player and not _is_number(r):
        raise ValueError("'r' must be a number or per-player list")
    if not all(map(_fits_double, r if per_player else [r])):
        raise ValueError("'r' is beyond double range")
    return sum(map(float, r)) / n_players if per_player else float(r)


#: The keys of a game document's two forms, which one document cannot mix.
ENTRY_FORM_KEYS = ("entries", "action_entry")
SPARSE_FORM_KEYS = ("payoffs", "uncertainty", "default_payoff")


def _entry_form_game(raw: Mapping, states: tuple, player_actions: tuple) -> TeamMarkovGame:
    """The game of a document in the entry form, whose names passed
    :func:`_name_lists`: ``raw["entries"][k]`` lists state k's entries,
    each ``{"r": [m payoffs], "rows": [candidate rows]}``, and
    ``raw["action_entry"][k][a]`` is the entry of joint action a.

    Only the lists' layout is checked here, so that the payoffs can be
    padded into one (m, E, m) array: ``entries`` holds one nonempty list of
    objects per state, each ``r`` a list of m items, and ``action_entry``
    is given.  Everything else, the numbers, rows, map and ``r_max``
    among it, is checked by :func:`build_game`, which takes the entries as
    they are."""
    m = len(states)
    entries = raw.get("entries")
    if not (
        isinstance(entries, list) and len(entries) == m
        and all(isinstance(per, list) and per for per in entries)
        and all(isinstance(e, Mapping) for per in entries for e in per)
    ):
        raise GameValidationError(
            [f"entries must be an array of {m} nonempty arrays of entry objects, one per state"]
        )
    errors = [] if raw.get("action_entry") is not None else [
        "action_entry must map every (state, joint action) to an entry"]
    payoff, width = [], max(map(len, entries))
    for k, per in enumerate(entries):
        r = [e.get("r") for e in per]
        for i, x in enumerate(r):
            if not isinstance(x, list) or len(x) != m:
                errors.append(f"entries[state={states[k]!r}][{i}]: 'r' must list {m} payoffs, "
                              f"one per state")
        payoff.append(r + [[0.0] * m] * (width - len(r)))
    if errors:
        raise GameValidationError(errors)
    try:
        return build_game(
            raw.get("n_players"), states, player_actions, payoff,
            [[e.get("rows") for e in per] for per in entries], raw.get("r_max"),
            action_entry=raw["action_entry"],
        )
    except GameValidationError as e:
        # build_game reads every 'r' as one array; name the entries at fault.
        if not e.errors[0].startswith("payoff "):
            raise
        named = []
        for k, per in enumerate(entries):
            for i, x in enumerate(per):
                try:
                    _payoff_array(x["r"])
                except GameValidationError as fault:
                    where = f"entries[state={states[k]!r}][{i}]: 'r'"
                    named.append(fault.errors[0].replace("payoff", where, 1))
        raise GameValidationError(named or e.errors) from None


def validate_game(raw: Mapping) -> TeamMarkovGame:
    """Translate a parsed game description (the JSON document shape) into
    the arguments of :func:`build_game` and build the game.

    A document is in the entry form if it has ``entries`` or
    ``action_entry``, and then goes to :func:`_entry_form_game`, and in
    the sparse form otherwise; one that has keys of both forms (``entries``
    or ``action_entry`` with ``payoffs``, ``uncertainty`` or
    ``default_payoff``) is one error.  The rest of this docstring is about
    the sparse form.

    The entries are indexed by ``states`` and ``player_actions``, so these
    pass :func:`_name_lists` first, the check :func:`build_game` makes of
    them too, and a failure there is raised alone, in either form.
    Beyond that this function checks only what exists in the JSON form
    alone: that entries name known states and give one in-range action
    index per player, per-player ``r`` lists, duplicate entries, and
    unlisted payoff triples when ``default_payoff`` is absent.  Every
    other check (player count, duplicate or empty names, candidate rows
    and the numbers in them, missing uncertainty entries, the type of
    ``r_max`` and its value against the payoffs, non-finite payoffs) is
    :func:`build_game`'s.  One :class:`GameValidationError` lists this
    function's errors followed by those of :func:`build_game`.

    Payoff entries may give ``r`` either as the team payoff (scalar) or as
    one payoff per player (averaged once at load).  Unlisted payoff triples
    default to ``default_payoff``, a finite number, only when that field is
    present; a listed triple is listed whatever its ``r``, so a ``NaN`` is a
    non-finite payoff.  An integer beyond double range, which JSON can
    spell, is an error in ``r``, ``default_payoff``, ``r_max`` and
    candidate ``rows``.

    A sparse file is mostly payoff and uncertainty entries.  Both lists
    are read by one per-entry loop, each with its own value reader (``r``
    for payoffs, ``rows`` for uncertainty), which words every error.  The
    listed cells are kept in a mask, and payoffs and row sets are each
    scattered into their grid at once; :func:`build_game` reads a state's
    row sets, which are lists here, as one set and checks them as one
    stack (see :func:`_clean_rows`).  A large game loads faster from the
    entry form, which lists each group once and takes no per-item loop.
    """
    if not isinstance(raw, Mapping):
        raise GameValidationError(["top level must be a JSON object"])
    entry_keys = [key for key in ENTRY_FORM_KEYS if key in raw]
    sparse_keys = [key for key in SPARSE_FORM_KEYS if key in raw]
    if entry_keys and sparse_keys:
        raise GameValidationError([
            "a game gives entries and action_entry or payoffs, uncertainty and "
            f"default_payoff, not keys of both (found {', '.join(entry_keys + sparse_keys)})"
        ])
    states, player_actions, errors = _name_lists(
        raw.get("states"), raw.get("player_actions")
    )
    if errors:
        raise GameValidationError(errors)
    if entry_keys:
        return _entry_form_game(raw, states, player_actions)

    m = len(states)
    sizes = tuple(len(a) for a in player_actions)
    n_joint = math.prod(sizes)
    state_idx = {s: i for i, s in enumerate(states)}

    def read(name, entries, keys, value):
        # Entry by entry: a bad entry is left out, a cell's first wins.
        listed = np.zeros(math.prod(n_joint if key == "a" else m for key in keys), dtype=bool)
        flat, values = [], []
        for i, ent in enumerate(entries):
            where, n_errors, cell = f"{name}[{i}]", len(errors), 0
            if not isinstance(ent, Mapping):
                errors.append(f"{where}: entry must be an object")
                continue
            for key in keys:
                x = ent.get(key)
                if key != "a":
                    if isinstance(x, str) and x in state_idx:
                        cell = cell * m + state_idx[x]
                    else:
                        errors.append(f"{where}: unknown state {x!r}")
                elif not isinstance(x, list) or len(x) != len(sizes):
                    errors.append(f"{where}: 'a' must list one action index per player")
                else:
                    for p, (ai, size) in enumerate(zip(x, sizes)):
                        if not _is_number(ai, int) or not 0 <= ai < size:
                            errors.append(f"{where}: action index {ai!r} out of range "
                                          f"for player {p}")
                            break
                        cell = cell * size + ai
            try:
                v = value(ent)
            except ValueError as e:
                errors.append(f"{where}: {e}")
            if len(errors) > n_errors:
                continue
            if listed[cell]:
                errors.append(f"{where}: duplicate entry for this ({', '.join(keys)})")
                continue
            listed[cell] = True
            flat.append(cell)
            values.append(v)
        return listed, flat, values

    default = raw.get("default_payoff")
    if default is not None and not _is_number(default):
        errors.append("default_payoff must be a number")
        default = 0.0
    elif default is not None and not _fits_double(default):
        errors.append("default_payoff is beyond double range")
        default = 0.0
    elif default is not None and not math.isfinite(default):
        errors.append("default_payoff must be finite")
        default = 0.0
    payoffs = raw.get("payoffs", [])
    if not isinstance(payoffs, list):
        errors.append("payoffs must be an array of entries")
        payoffs = []
    listed, flat, r = read("payoffs", payoffs, ("s", "a", "s_next"),
                           lambda ent: _team_payoff(ent.get("r"), len(sizes)))
    # Unlisted triples without a default are reported here, not as non-finite.
    pay = np.full(listed.size, 0.0 if default is None else float(default))
    pay[flat] = r
    if default is None and not listed.all():
        k, *a, l = map(int, np.unravel_index(np.argmin(listed), (m, *sizes, m)))
        errors.append(
            f"payoffs: {listed.size - np.count_nonzero(listed)} triples unlisted and no "
            f"default_payoff set (first missing: s={states[k]!r}, a={a}, "
            f"s_next={states[l]!r})"
        )

    unc = raw.get("uncertainty")
    if not isinstance(unc, list):
        errors.append("uncertainty must be an array of entries")
        unc = []
    _, flat, rows = read("uncertainty", unc, ("s", "a"), operator.methodcaller("get", "rows"))
    # A pair no entry lists stays None; build_game reports it as missing.
    grid = np.full(m * n_joint, None, dtype=object)
    grid[flat] = np.fromiter(rows, object, len(rows))
    try:
        game = build_game(
            raw.get("n_players"), states, player_actions, pay.reshape(m, n_joint, m),
            grid.reshape(m, n_joint).tolist(), raw.get("r_max")
        )
    except GameValidationError as e:
        errors.extend(e.errors)
    if errors:
        raise GameValidationError(errors)
    return game


def game_to_dict(game: TeamMarkovGame) -> dict:
    """The game as a document in the sparse form: one ``payoffs`` item per
    (s, a, s') triple and one ``uncertainty`` item per (state, joint
    action) pair, in a fixed key order, sorted by index.  :func:`save_game`
    writes the smaller entry form instead (see :func:`_entry_document`).

    Only nonzero payoffs are listed (with ``default_payoff`` 0.0).  Loaded
    back through :func:`validate_game`, the game has the same names,
    ``n_players``, ``r_max``, payoffs and groups, byte for byte.  Its
    candidate rows come back within a few ulps, not always bit for bit: the
    load divides every row by its float sum, which for a row that was
    normalised before need not be exactly 1.0.  So the expected payoffs can
    move by as much, and the loaded game can save to different text.
    """
    actions = list(np.ndindex(*game.action_shape))
    states = game.states
    payoff = game.group_payoff[np.arange(game.m)[:, None], game.action_group]
    payoffs = [
        {"s": states[k], "a": list(actions[a]), "s_next": states[l],
         "r": float(payoff[k, a, l])}
        for k, a, l in zip(*np.nonzero(payoff))
    ]
    # Real rows come first and are nonzero; padded rows are all zero.
    cand = game.group_candidates
    n_rows = np.count_nonzero(cand.any(axis=-1), axis=-1)
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


def _entry_document(game: TeamMarkovGame) -> dict:
    """The game as a document in the entry form, which :func:`save_game`
    writes: per state, one ``{"r": [...], "rows": [...]}`` entry per group,
    in group order (``group_payoff`` and the real rows of
    ``group_candidates``), and ``action_entry``, which is ``action_group``.
    A state lists only its own groups, not the padded ones, so states may
    list different counts.  Loaded back through :func:`validate_game`, the
    game is the one :func:`game_to_dict`'s document loads as, byte for
    byte."""
    cand = game.group_candidates
    # Real rows come first and are nonzero; padded rows are all zero.
    n_rows = np.count_nonzero(cand.any(axis=-1), axis=-1).tolist()
    n_groups = (game.action_group.max(axis=1) + 1).tolist()
    entries = [
        [{"r": game.group_payoff[k, g].tolist(), "rows": cand[k, g, : n_rows[k][g]].tolist()}
         for g in range(n_groups[k])]
        for k in range(game.m)
    ]
    return {
        "n_players": game.n_players,
        "states": list(game.states),
        "player_actions": [list(a) for a in game.player_actions],
        "entries": entries,
        "action_entry": game.action_group.tolist(),
        "r_max": float(game.r_max),
    }


def read_json(path):
    """The JSON document in the file at ``path``, read as UTF-8: a game
    file of either form, which :func:`validate_game` tells apart, or a
    ``--v0`` array.

    Every failure but the file system's ``OSError`` is one ``ValueError``
    line that starts with the path: a syntax error as ``path:line:col:
    msg``, bytes that are not UTF-8, nesting deeper than the parser's
    recursion allows, and an integer longer than Python converts.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except (RecursionError, ValueError) as e:  # too deep, not UTF-8, too many digits
        raise ValueError(f"{path}: {e}") from e


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON text indented by 2, with a final newline, to
    the file at ``path``, or to standard output when ``path`` is None.
    Equal documents give equal bytes."""
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def load_game(path) -> TeamMarkovGame:
    """Load and validate a game JSON file (see :func:`read_json`), with the
    cyclic collector paused until the game is built and then put back as
    the caller had it: the parsed document is a tree, which reference
    counting frees alone, so the collector's passes over it find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return validate_game(read_json(path))
    finally:
        if enabled:
            gc.enable()


def save_game(game: TeamMarkovGame, path) -> None:
    """Write a game as JSON in the entry form (see :func:`_entry_document`),
    in which each state lists each group's payoffs and rows once."""
    write_json(path, _entry_document(game))

