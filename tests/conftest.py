"""Shared games and the slow references the tests hold the package to.

The references are deliberately naive: exhaustive enumeration of rules and
models, dense solves, per-(state, action) loops, the solvers' step loop
with a fresh gather and one call per evaluation sweep, and the
social-dilemma payoff conditions of the ``rssd`` benchmark.  Every model is gathered
through ``fixed_model_arrays``, the same gather the solvers use, and every
enumeration raises ``BudgetExceededError`` up front when it would exceed
its budget.  A rule is a tuple of per-state joint actions, the form the
sweeps return; only results wrap it in a ``TeamDecisionRule``.
``per_action`` reads the packed game per joint action, and ``row_counts``
counts each group's real candidate rows.  ``clean_row_sets`` cleans a
state's candidate row sets one set at a time, each with its own reads
and checks, where ``model._clean_rows`` checks them as one stack.
"""

import functools
import hashlib
import itertools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

import robustdp as r
from robustdp.model import (
    DEFAULT_ENUMERATION_BUDGET,
    NEGATIVE_CLAMP,
    STOCHASTIC_ATOL,
    _non_numbers,
)
from robustdp.oracle import OracleResult, dominance_tolerance
from robustdp.rssd import (
    N_STATES,
    STATE_NAMES,
    stage_payoffs,
    team_payoff,
    transition_row_candidates,
)
from robustdp.sweeps import evaluation_operator, fixed_model_arrays


def per_action(game, group_array):
    """A packed ``group_*`` array of ``game`` gathered through
    ``action_group`` to one entry per (state, joint action)."""
    return group_array[np.arange(game.m)[:, None], game.action_group]


def row_counts(game):
    """The (m, G) count of real candidate rows of each group of ``game``:
    its rows that are not all zero, as every real row sums to 1."""
    return np.count_nonzero(game.group_candidates.any(axis=-1), axis=-1)


def clean_row_set(raw, m):
    """One (state, joint action) pair's candidate rows as an (n, m) array.

    Rows must form a nonempty 2-D array of finite numbers, not bools,
    strings or ``None``, each row of length m.  Entries in
    [NEGATIVE_CLAMP, 0], -0.0 among them, are set to 0.0; rows are
    renormalised only when their sum is already within ``STOCHASTIC_ATOL``,
    and rejected otherwise.
    Raises ``ValueError`` with the wording ``model._clean_rows`` gives.
    """
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("rows must be finite")
    if np.any(arr < NEGATIVE_CLAMP):
        j = int(np.nonzero((arr < NEGATIVE_CLAMP).any(axis=1))[0][0])
        raise ValueError(f"row {j} entry {float(arr[j].min())!r} is negative")
    arr[arr <= 0.0] = 0.0
    sums = arr.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > STOCHASTIC_ATOL)[0]
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"row {j} sum {float(sums[j])!r} != 1")
    arr /= sums[:, None]
    return arr


def clean_row_sets(row_sets, m):
    """What ``model._clean_rows`` returns for one state's row sets, made
    set by set with :func:`clean_row_set`: the cleaned rows and the
    errors, each keyed by entry."""
    cleaned, errors = {}, {}
    for e, raw in enumerate(row_sets):
        try:
            cleaned[e] = clean_row_set(raw, m)
        except ValueError as exc:
            errors[e] = str(exc)
    return cleaned, errors


def singleton_game(payoff: float = 1.0) -> r.TeamMarkovGame:
    """1 state, 1 player, 1 action, constant payoff."""
    return r.build_game(
        1, ["s1"], [["a0"]], np.full((1, 1, 1), payoff), [[[[1.0]]]]
    )


def reference_noise(oracle: r.PerturbationOracle, tag) -> float:
    """One query's noise, by its definition: +/-bound by the parity of the
    tag sum, or bound * (2u - 1) with u the first 8 bytes of the blake2b
    digest of the packed (seed, tag), little-endian, over 2**64."""
    if oracle.mode == "adversarial_extremes":
        return oracle.bound if sum(tag) % 2 == 0 else -oracle.bound
    payload = struct.pack("<5q", oracle.seed, *tag)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return oracle.bound * (2.0 * (int.from_bytes(digest, "little") / 2.0**64) - 1.0)


def random_game(
    seed: int,
    *,
    max_states: int = 4,
    n_players: int = 2,
    max_actions: int = 2,
    max_rows: int = 3,
    payoff_scale: float = 1.0,
) -> r.TeamMarkovGame:
    """Random small game, deterministic in ``seed``.

    States are drawn in [2, max_states], per-player action counts in
    [1, max_actions], candidate rows per (state, action) in [1, max_rows]
    from a flat Dirichlet, and payoffs uniformly from
    [-payoff_scale, payoff_scale].
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, max_states + 1))
    sizes = [int(rng.integers(1, max_actions + 1)) for _ in range(n_players)]
    states = [f"s{i + 1}" for i in range(m)]
    actions = [[f"a{j}" for j in range(size)] for size in sizes]
    n_joint = math.prod(sizes)
    payoff = rng.uniform(-payoff_scale, payoff_scale, size=(m, n_joint, m))
    rows = [
        [
            rng.dirichlet(np.ones(m), size=int(rng.integers(1, max_rows + 1)))
            for _ in range(n_joint)
        ]
        for _ in range(m)
    ]
    return r.build_game(n_players, states, actions, payoff, rows)


def two_state_chain() -> r.TeamMarkovGame:
    """2 states, single action; s1 rows {(1,0),(0,1)}, s2 stays put.

    Payoffs: r(s1,a,s2)=1, everything else 0.  The adversary in s1 chooses
    between staying (payoff 0) and moving to s2 (payoff 1 once).
    """
    pay = np.zeros((2, 1, 2))
    pay[0, 0, 1] = 1.0
    rows = [[[[1.0, 0.0], [0.0, 1.0]]], [[[0.0, 1.0]]]]
    return r.build_game(1, ["s1", "s2"], [["a0"]], pay, rows)


def chain_game(m: int, seed: int) -> r.TeamMarkovGame:
    """The chain family: m states, 2 players x 2 actions, 3 candidate rows
    per pair, each with Dirichlet(1) weights on 3 successors drawn from
    k - 2 .. k + 2, shifted by (a - 1) and clipped to [0, m - 1].  The
    payoff is 1 for entering state m - 1, plus uniform noise on [-0.01, 0],
    so planning toward the absorbing goal matters."""
    rng = np.random.default_rng(seed)
    payoff = np.zeros((m, 4, m))
    payoff[:, :, m - 1] = 1.0
    payoff += rng.uniform(-0.01, 0.0, payoff.shape)
    rows = []
    for k in range(m):
        per_state = []
        for a in range(4):
            cand = np.zeros((3, m))
            for row in cand:
                succ = np.clip(rng.integers(k - 2, k + 3, size=3) + (a - 1), 0, m - 1)
                np.add.at(row, succ, rng.dirichlet(np.ones(3)))
            per_state.append(cand)
        rows.append(per_state)
    return r.build_game(2, [f"s{k}" for k in range(m)], [["a0", "a1"]] * 2, payoff, rows)


def dirichlet_game(m, seed=2105):
    """Seeded random game: 2 players x 2 actions, 4 Dirichlet candidate rows
    per (state, joint action), payoffs uniform on [-1, 1]; no two joint
    actions alike, so every sweep scores 4 groups of 4 rows per state."""
    rng = np.random.default_rng(seed)
    payoff = rng.uniform(-1, 1, (m, 4, m))
    rows = [[rng.dirichlet(np.ones(m), 4) for _ in range(4)] for _ in range(m)]
    states = [f"s{k}" for k in range(m)]
    return r.build_game(2, states, [["a0", "a1"], ["a0", "a1"]], payoff, rows)


def huge_payoff_game() -> r.TeamMarkovGame:
    """Valid 2-state game whose payoff -1e307 overflows r_max / (1 - lam)
    for lam >= 0.9."""
    pay = np.zeros((2, 1, 2))
    pay[0, 0, 1] = -1e307
    rows = [[[[0.5, 0.5]]], [[[0.0, 1.0]]]]
    return r.build_game(1, ["s1", "s2"], [["a0"]], pay, rows)


def mdp_game(seed: int = 5, m: int = 3, n_actions: int = 2) -> r.TeamMarkovGame:
    """Singleton-uncertainty game: a plain MDP wrapped in the robust model."""
    rng = np.random.default_rng(seed)
    pay = rng.uniform(-1, 1, (m, n_actions, m))
    rows = [
        [rng.dirichlet(np.ones(m), 1) for _ in range(n_actions)] for _ in range(m)
    ]
    states = [f"s{i + 1}" for i in range(m)]
    return r.build_game(1, states, [[f"a{j}" for j in range(n_actions)]], pay, rows)


@st.composite
def game_parts(draw, max_states=4, max_actions=3, min_states=1):
    """``build_game`` arguments of a small game with ``min_states`` to
    ``max_states`` states, 1-2 players of 1 to ``max_actions`` actions, 1-4 rows per
    (state, joint action); optionally every set's last row repeats its
    first, and optionally each joint action of a state copies the payoff,
    the rows, or both, of any earlier joint action of that state.  So a
    state's groups of identical actions can have many members, members need
    not be adjacent, states can differ in their group counts, and some
    actions share their payoff or their rows but not both."""
    m = draw(st.integers(min_states, max_states))
    sizes = draw(st.lists(st.integers(1, max_actions), min_size=1, max_size=2))
    n_joint = math.prod(sizes)
    counts = draw(
        st.lists(st.integers(1, 4), min_size=m * n_joint, max_size=m * n_joint)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payoff = rng.uniform(-1, 1, (m, n_joint, m))
    rows = [
        [rng.dirichlet(np.ones(m), size=counts[k * n_joint + a]) for a in range(n_joint)]
        for k in range(m)
    ]
    if draw(st.booleans()):
        for per_state in rows:
            for cand in per_state:
                cand[-1] = cand[0]
    if n_joint > 1 and draw(st.booleans()):
        size = m * n_joint
        sources = draw(st.lists(st.integers(0, n_joint - 1), min_size=size, max_size=size))
        # What a copy takes: both parts (a duplicate) or one (a near miss).
        parts = draw(st.lists(st.sampled_from("bpr"), min_size=size, max_size=size))
        for k, per_state in enumerate(rows):
            for a in range(n_joint):
                src, part = sources[k * n_joint + a], parts[k * n_joint + a]
                if src < a and part in "bp":
                    payoff[k, a] = payoff[k, src]
                if src < a and part in "br":
                    per_state[a] = per_state[src].copy()
    actions = [[f"a{j}" for j in range(size)] for size in sizes]
    states = [f"s{k}" for k in range(m)]
    return len(sizes), states, actions, payoff, rows


@st.composite
def entry_game_parts(draw, max_states=3, max_actions=3):
    """``build_game`` arguments of a small game given per entry, with the
    ``action_entry`` map appended: 1 to ``max_states`` states, 1-2 players
    of 1 to ``max_actions`` actions, and 1 to A entries per state, each
    used by some joint action.  An entry may copy the payoff, a copy of the
    rows, or both, of any other entry of its state, or take the same
    row-set object; so some entries merge into one group and some only
    nearly.  The map names the entries in any order, so their first uses
    need not follow their numbers.  The rows of up to two entries of one
    state may sum to 1.1, which ``build_game`` rejects."""
    m = draw(st.integers(1, max_states))
    sizes = draw(st.lists(st.integers(1, max_actions), min_size=1, max_size=2))
    n_joint = math.prod(sizes)
    n_entries = draw(st.integers(1, n_joint))
    n_cells = m * n_entries
    sources = draw(
        st.lists(st.integers(0, n_entries - 1), min_size=n_cells, max_size=n_cells)
    )
    # What an entry takes from its source: both parts (so it merges), the
    # payoff, a copy of the rows, the same row-set object, or nothing.
    parts = draw(st.lists(st.sampled_from("bbprs-"), min_size=n_cells, max_size=n_cells))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payoff = rng.uniform(-1, 1, (m, n_entries, m))
    rows = [[rng.dirichlet(np.ones(m), size=int(rng.integers(1, 4)))
             for _ in range(n_entries)] for _ in range(m)]
    for k, per_state in enumerate(rows):
        for e in range(n_entries):
            src, part = sources[k * n_entries + e], parts[k * n_entries + e]
            if part in "bp":
                payoff[k, e] = payoff[k, src]
            if part in "br":
                per_state[e] = per_state[src].copy()
            if part == "s":
                per_state[e] = per_state[src]
    action_entry = np.array([
        rng.permutation(np.concatenate(
            [np.arange(n_entries), rng.integers(0, n_entries, n_joint - n_entries)]))
        for _ in range(m)
    ])
    k = int(rng.integers(m))
    for e in rng.permutation(n_entries)[: draw(st.integers(0, 2))]:
        rows[k][e] = rows[k][e] * 1.1
    actions = [[f"a{j}" for j in range(size)] for size in sizes]
    states = [f"s{k}" for k in range(m)]
    return len(sizes), states, actions, payoff, rows, action_entry


def per_pair_parts(parts):
    """The per-pair ``build_game`` arguments of :func:`entry_game_parts`
    output: each pair gets its entry's payoff row and row-set object."""
    *head, payoff, rows, action_entry = parts
    m = len(rows)
    return (*head, payoff[np.arange(m)[:, None], action_entry],
            [[rows[k][e] for e in action_entry[k]] for k in range(m)])


def rssd_by_count(params):
    """The ``build_rssd`` parts computed here: the payoff rows (3, n + 1, 3)
    and row sets ``[k][h]`` of each cooperator count h, and each joint
    action's count, n minus the D players of ``np.unravel_index``."""
    n = params.n_players
    counts = range(n + 1)
    payoff_by_count = np.array([[[team_payoff(params, k, h, l) for l in range(N_STATES)]
                                 for h in counts] for k in range(N_STATES)])
    rows_by_count = [[transition_row_candidates(params, k, h) for h in counts]
                     for k in range(N_STATES)]
    cooperators = n - np.sum(np.unravel_index(np.arange(2**n), (2,) * n), axis=0)
    return payoff_by_count, rows_by_count, cooperators


def rssd_per_pair(params):
    """The ``build_rssd`` game built pair by pair, with no entry map: each
    pair gets the payoff row of its cooperator count and its own copy of
    the count's row set."""
    n = params.n_players
    payoff_by_count, rows_by_count, cooperators = rssd_by_count(params)
    rows = [[per_state[h].copy() for h in cooperators] for per_state in rows_by_count]
    return r.build_game(n, list(STATE_NAMES), [["C", "D"]] * n,
                        payoff_by_count[:, cooperators], rows)


def rssd_through_map(params):
    """The ``build_rssd`` game built from :func:`rssd_by_count`'s n + 1
    entries per state and its map of joint actions to counts."""
    n = params.n_players
    payoff_by_count, rows_by_count, cooperators = rssd_by_count(params)
    return r.build_game(n, list(STATE_NAMES), [["C", "D"]] * n, payoff_by_count,
                        rows_by_count, action_entry=np.tile(cooperators, (N_STATES, 1)))


def games(max_states=4, max_actions=3, min_states=1):
    """Games built from :func:`game_parts`."""
    return game_parts(max_states, max_actions, min_states).map(
        lambda parts: r.build_game(*parts)
    )


def gs_backup(game, v, u_partial, k, a, lam):
    """Slow per-(state, joint action) reference for the backup kernel.

    Worst-case Gauss-Seidel backup of state k under joint action a: the
    continuation uses ``u_partial`` for states before k (already updated
    this sweep) and ``v`` from k onward.  Returns the minimum over the real
    candidate rows of payoff_exp + lam * row @ continuation, and the first
    minimising row index.  Row products are taken over the whole padded
    (Kmax, m) block, as the kernel takes them, because BLAS rounds a row's
    product differently depending on how many rows it is given.
    """
    w = np.concatenate([np.asarray(u_partial, float)[:k], np.asarray(v, float)[k:]])
    g = game.action_group[k, a]
    n = row_counts(game)[k, g]
    q = game.group_payoff_exp[k, g, :n] + lam * (game.group_candidates[k, g] @ w)[:n]
    j = int(np.argmin(q))
    return float(q[j]), j


def gs_splitting(P, lam):
    """Gauss-Seidel regular splitting (Q, R) of I - lam*P:
    Q = I - lam * strict lower part of P, R = lam * upper part incl. diagonal."""
    P = np.asarray(P, dtype=float)
    return np.eye(P.shape[0]) - lam * np.tril(P, -1), lam * np.triu(P, 0)


def enumerate_decision_rules(game, budget=DEFAULT_ENUMERATION_BUDGET):
    """All decision rules as joint-action tuples, lexicographic over (state
    index, joint-action index).  Raises BudgetExceededError up front when
    the count ``n_joint_actions ** m`` exceeds ``budget``."""
    total = game.n_joint_actions ** game.m
    if total > budget:
        raise r.BudgetExceededError(total, budget)
    return itertools.product(range(game.n_joint_actions), repeat=game.m)


def is_int_tuple(rule):
    """Whether ``rule`` is in the sweeps' rule form, a tuple of plain ints."""
    return type(rule) is tuple and all(type(a) is int for a in rule)


def evaluate_one(game, rule, lam):
    """``evaluate_policy_robust`` of one rule as a stack of one: its (m,)
    value, its worst-case rows as a tuple, and whether it settled."""
    value, rows, settled = r.evaluate_policy_robust(game, [rule], lam)
    return value[0], tuple(rows[0].tolist()), bool(settled[0])


def maximin_over_every_rule(game, lam, budget=DEFAULT_ENUMERATION_BUDGET):
    """``brute_force_maximin`` by the robust evaluation of all A**m rules:
    the componentwise maximum of their values, the first rule within
    ``dominance_tolerance(game, lam)`` of it everywhere, and failing that
    the first rule with the smallest shortfall."""
    evaluated = [
        (rule, evaluate_one(game, rule, lam))
        for rule in enumerate_decision_rules(game, budget)
    ]
    entries = [(rule, value) for rule, (value, _, _) in evaluated]
    settled = all(ok for _, (_, _, ok) in evaluated)
    v_star = np.max([value for _, value in entries], axis=0)
    gaps = [float(np.max(v_star - value)) for _, value in entries]
    for (rule, value), gap in zip(entries, gaps):
        if np.all(value >= v_star - dominance_tolerance(game, lam)):
            return OracleResult(v_star, r.TeamDecisionRule(rule), True, gap, settled)
    best = int(np.argmin(gaps))
    d_star = r.TeamDecisionRule(entries[best][0])
    return OracleResult(v_star, d_star, False, gaps[best], settled)


def model_rows(game, rule, budget=DEFAULT_ENUMERATION_BUDGET):
    """Every per-state candidate-row choice of a rule, lexicographic.
    Raises BudgetExceededError up front when the product of the per-state
    candidate counts exceeds ``budget``."""
    r.solvers._rule_stack(game, [rule])
    counts = per_action(game, row_counts(game))[np.arange(game.m), list(rule)].tolist()
    total = math.prod(counts)
    if total > budget:
        raise r.BudgetExceededError(total, budget)
    return itertools.product(*map(range, counts))


def enumerate_policy_models(game, rule, budget=DEFAULT_ENUMERATION_BUDGET):
    """Every admissible transition matrix of a rule, in ``model_rows`` order."""
    return (
        fixed_model_arrays(game, rule, rows)[0]
        for rows in model_rows(game, rule, budget)
    )


def evaluate_policy_exact(game, rule, rows, lam):
    """Value of a fixed rule under one fixed admissible model (dense solve)."""
    P, rew = fixed_model_arrays(game, rule, rows)
    return np.linalg.solve(np.eye(game.m) - lam * P, rew)


def robust_value_by_model_enumeration(
    game, rule, lam, budget=DEFAULT_ENUMERATION_BUDGET
):
    """Componentwise min over every admissible model of the dense evaluation."""
    return np.min(
        [evaluate_policy_exact(game, rule, rows, lam)
         for rows in model_rows(game, rule, budget)],
        axis=0,
    )


def verify_epsilon_optimal(game, rule, lam, epsilon, oracle_result=None,
                           slack=1e-9):
    """Check that a rule's worst-case value is within epsilon of the
    exhaustive maximin value in every component.

    Returns (ok, report); ``report["max_violation"]`` is the largest
    componentwise shortfall v_star - epsilon - value.  ``slack`` absorbs the
    numerical tolerance of the two evaluations.
    """
    value, _, _ = evaluate_one(game, rule, lam)
    if oracle_result is None:
        oracle_result = r.brute_force_maximin(game, lam)
    ok = bool(np.all(value >= oracle_result.v_star - epsilon - slack))
    shortfall = oracle_result.v_star - epsilon - value
    return ok, {"max_violation": float(np.max(shortfall))}


def greedy_multistep(game, v, extra_sweeps, lam):
    """One exact improvement sweep, then ``extra_sweeps`` evaluation sweeps
    under the rule and rows the improvement recorded."""
    sweep = r.improvement_sweep(game, v, lam)
    op = evaluation_operator(*fixed_model_arrays(game, sweep.rule, sweep.worst_model), lam)
    u = sweep.u0
    for _ in range(int(extra_sweeps)):
        u = r.evaluation_sweep(op, u)
    return u


def reference_run(game, params, approx=None, gauss_seidel=True, algo="ratpi"):
    """The solvers' step loop in its plainest form, as a ``SolverResult``:
    every step gathers its (P, r) and forms its sweep operator afresh, and
    runs each evaluation sweep, Gauss-Seidel or Jacobi, as its own one-sweep
    ``evaluation_sweep`` call with that sweep's noise drawn just before it.
    The improvement sweeps are the package's, which ``test_kernel.py`` holds
    to per-action loops, as it holds the evaluation sweeps to per-state
    loops.  After a step that ran evaluation sweeps, a step whose
    improvement output falls below its start by more than the solvers'
    rollback tol goes back to that step's improvement output and sweeps
    again, as the solvers' does.  ``ratvi`` and ``rvi`` are this with
    ``mt_schedule=0``."""
    lam = params.lam
    delta = params.delta if gauss_seidel else 0.0
    threshold = r.solvers.termination_threshold(lam, params.epsilon, delta)
    v = r.solvers.initial_value(game, params)
    trace = r.solvers.SolverTrace()

    def improve(v):
        if gauss_seidel:
            return r.improvement_sweep(game, v, lam, approx, t)[:3]
        return r.jacobi_improvement_sweep(game, v, lam)[:3]

    back = None
    for t in range(params.max_iterations):
        u, rule, rows = improve(v)
        tol = r.solvers._rollback_tol(game.m, lam, approx, v, u)
        if back is not None and np.min(u - v) < -tol:
            v, back = back, None
            u, rule, rows = improve(v)
        residual = float(np.max(np.abs(u - v)))
        trace.residuals.append(residual)
        trace.values.append(v)
        if residual < threshold:
            value, worst, settled = evaluate_one(game, rule, lam)
            return r.SolverResult(
                algo, r.TeamDecisionRule(rule), worst, value, t, True, settled, trace
            )
        mt = r.solvers._mt_at(params.mt_schedule, t)
        back = u if mt else None
        if mt:
            op = evaluation_operator(
                *fixed_model_arrays(game, rule, rows), lam, gauss_seidel, approx is not None
            )
        for s in range(1, mt + 1):
            noise = None
            if approx is not None:
                noise = approx.perturb(t, s, enumerate(rule))
            u = r.evaluation_sweep(op, u, noise)
        v = u
    value, worst, settled = evaluate_one(game, rule, lam)
    return r.SolverResult(
        algo, r.TeamDecisionRule(rule), worst, value, params.max_iterations, False,
        settled, trace
    )


@functools.cache
def _rule_model_stacks(game, budget):
    """Transition matrices (N, m, m) and expected one-step payoffs (N, m) of
    every (rule, model) pair, cached per game."""
    pairs = [
        fixed_model_arrays(game, rule, rows)
        for rule in enumerate_decision_rules(game, budget)
        for rows in model_rows(game, rule, budget)
    ]
    return np.stack([P for P, _ in pairs]), np.stack([pe for _, pe in pairs])


def best_case_multistep(game, v, extra_sweeps, lam, budget=DEFAULT_ENUMERATION_BUDGET):
    """Componentwise best (extra_sweeps + 1)-sweep Gauss-Seidel update over
    every decision rule and every admissible model."""
    P, pe = _rule_model_stacks(game, budget)
    X = np.tile(np.asarray(v, dtype=float), (len(P), 1))
    for _ in range(int(extra_sweeps) + 1):
        prev = X.copy()
        for k in range(game.m):
            lower = np.einsum("nl,nl->n", P[:, k, :k], X[:, :k])
            upper = np.einsum("nl,nl->n", P[:, k, k:], prev[:, k:])
            X[:, k] = pe[:, k] + lam * (lower + upper)
    return X.max(axis=0)


class DilemmaViolation(NamedTuple):
    condition: str
    state: int
    n_cooperators: int
    next_state: int
    detail: str


@dataclass(frozen=True)
class DilemmaReport:
    ok: bool
    violations: tuple[DilemmaViolation, ...]


def check_dilemma_conditions(params: r.RssdParams) -> DilemmaReport:
    """Verify the social-dilemma payoff ordering of ``stage_payoffs`` in
    every state, for every cooperator count and destination state:

    (i)   a and b are nondecreasing in the cooperator count;
    (ii)  defectors strictly out-earn cooperators in every mixed group;
    (iii) full cooperation beats full defection (a_n > b_0).
    """
    n = params.n_players
    violations: list[DilemmaViolation] = []
    for k in range(N_STATES):
        for l in range(N_STATES):
            pay = [stage_payoffs(params, k, h, l) for h in range(n + 1)]
            for h in range(n):
                if pay[h + 1][0] < pay[h][0]:
                    violations.append(
                        DilemmaViolation(
                            "monotone_a", k, h, l,
                            f"a_{h + 1}={pay[h + 1][0]} < a_{h}={pay[h][0]}",
                        )
                    )
                if pay[h + 1][1] < pay[h][1]:
                    violations.append(
                        DilemmaViolation(
                            "monotone_b", k, h, l,
                            f"b_{h + 1}={pay[h + 1][1]} < b_{h}={pay[h][1]}",
                        )
                    )
            for h in range(1, n):
                if not pay[h][1] > pay[h][0]:
                    violations.append(
                        DilemmaViolation(
                            "mixed_defector_advantage", k, h, l,
                            f"b_{h}={pay[h][1]} <= a_{h}={pay[h][0]}",
                        )
                    )
            if not pay[n][0] > pay[0][1]:
                violations.append(
                    DilemmaViolation(
                        "cooperation_beats_defection", k, n, l,
                        f"a_{n}={pay[n][0]} <= b_0={pay[0][1]}",
                    )
                )
    return DilemmaReport(ok=not violations, violations=tuple(violations))


@pytest.fixture(scope="session")
def rssd_game():
    return r.build_rssd()


@pytest.fixture(scope="session")
def rssd_oracle(rssd_game):
    return r.brute_force_maximin(rssd_game, 0.97)
