"""The improvement sweep's tail check against the per-state loop.

Given the (rule, rows) of a previous step and their Gauss-Seidel operator,
an exact sweep of a game of at least ``TAIL_CHECK_MIN_STATES`` states first
scores every (state, group, row) in one batched product.  It must either
return the loop's rule and rows exactly, with values within ``tail_tol`` of
the loop's, or fall back to the loop bit for bit: a near tie, a wrong or
stale guess, or a duplicate row must never slip through.  Whole exact
``ratpi`` runs must make the plain step loop's choices at every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import chain_game, dirichlet_game, games, reference_run, row_counts
from robustdp import sweeps
from robustdp.sweeps import TAIL_CHECK_MIN_STATES, evaluation_operator, fixed_model_arrays

LAMS = st.sampled_from([0.0, 0.5, 0.9, 0.999])


def tail_tol(m, lam, v, w):
    """The check's margin, as ``sweeps._tail_check`` derives it: twice the
    largest gap between a score of the check and one of the loop."""
    scale = max(np.max(np.abs(v)), np.max(np.abs(w)))
    return 2 * np.finfo(float).eps * scale * (m + 2 + 24 * m * lam / (1.0 - lam))


def guess_of(game, rule, rows, lam):
    """``(rule, rows, op)``, the ``tail`` argument of a guess."""
    op = evaluation_operator(*fixed_model_arrays(game, rule, rows), lam)
    return rule, rows, op


def assert_fell_back(game, v, lam, tail):
    """The check declines ``tail`` and the sweep returns the loop's result."""
    assert sweeps._tail_check(game, v, lam, *tail) is None
    got = r.improvement_sweep(game, v, lam, tail=tail)
    loop = r.improvement_sweep(game, v, lam)
    assert got.u0.tobytes() == loop.u0.tobytes()
    assert (got.rule, got.worst_model) == (loop.rule, loop.worst_model)


def random_guess(game, rng):
    """A rule and real rows drawn at random."""
    rule = tuple(rng.integers(0, game.n_joint_actions, game.m).tolist())
    counts = row_counts(game)[np.arange(game.m), game.action_group[np.arange(game.m), rule]]
    return rule, tuple(int(rng.integers(0, n)) for n in counts)


@given(
    games(max_states=12, min_states=TAIL_CHECK_MIN_STATES),
    LAMS,
    st.sampled_from(["same", "nearby", "random"]),
    st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_check_returns_the_loop_or_falls_back(game, lam, source, seed):
    """Guesses are the loop's own record at v, its record at a nearby start
    (often the same, sometimes stale), or a random rule and rows."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-20, 20, game.m)
    loop = r.improvement_sweep(game, v, lam)
    if source == "same":
        rule, rows = loop.rule, loop.worst_model
    elif source == "nearby":
        near = r.improvement_sweep(game, v + rng.uniform(-1, 1, game.m), lam)
        rule, rows = near.rule, near.worst_model
    else:
        rule, rows = random_guess(game, rng)
    tail = guess_of(game, rule, rows, lam)
    checked = sweeps._tail_check(game, v, lam, *tail)
    got = r.improvement_sweep(game, v, lam, tail=tail)
    if checked is None:
        assert got.u0.tobytes() == loop.u0.tobytes()
    else:
        A, b, _ = tail[2]
        tol = tail_tol(game.m, lam, v, A @ v + b)
        assert got.u0.tobytes() == checked.u0.tobytes()
        assert np.max(np.abs(got.u0 - loop.u0)) <= tol / 2
    assert (got.rule, got.worst_model) == (loop.rule, loop.worst_model)


def tie_game(m, target, seed=7):
    """States 0..m-2: 2 actions of 2 Dirichlet rows each over those states
    only.  The last state: action 0 moves to state ``target`` and action 1
    stays put, each with payoff 0.5, one row each; so at a start whose last
    entry is the loop's value of ``target``, the two tie exactly."""
    rng = np.random.default_rng(seed)
    payoff = rng.uniform(-1, 1, (m, 2, m))
    payoff[:, :, m - 1] = 0.0
    payoff[m - 1] = 0.5
    rows = [[np.pad(rng.dirichlet(np.ones(m - 1), 2), ((0, 0), (0, 1)))
             for _ in range(2)] for _ in range(m - 1)]
    rows.append([np.eye(m)[[target]], np.eye(m)[[m - 1]]])
    states = [f"s{k}" for k in range(m)]
    return r.build_game(1, states, [["a0", "a1"]], payoff, rows)


def test_exact_tie_between_groups_falls_back():
    """The loop breaks the tie at the last state to action 0.  The target is
    a state whose value the operator rounds below the loop's, so the check
    scores action 1 above action 0 by a rounding error: a guess of action 1
    there must still fall back."""
    m, lam = 10, 0.9
    v = np.random.default_rng(1).uniform(-5, 5, m)
    probe = tie_game(m, 0)
    loop = r.improvement_sweep(probe, v, lam)
    A, b, _ = guess_of(probe, loop.rule, loop.worst_model, lam)[2]
    below = np.flatnonzero((A @ v + b)[: m - 1] < loop.u0[: m - 1])
    assert below.size
    target = int(below[0])
    game = tie_game(m, target)
    v[m - 1] = loop.u0[target]
    loop = r.improvement_sweep(game, v, lam)
    assert loop.rule[-1] == 0 and loop.u0[target] == v[m - 1]
    rule, rows = loop.rule[:-1] + (1,), loop.worst_model
    tail = guess_of(game, rule, rows, lam)
    w = tail[2][0] @ v + tail[2][1]
    # The trap: without its margin the check would take action 1.
    assert lam * w[target] < lam * v[m - 1]
    assert_fell_back(game, v, lam, tail)
    assert_fell_back(game, v, lam, guess_of(game, loop.rule, rows, lam))


@pytest.fixture(scope="module")
def settled_start():
    """A 12-state game and the value an exact ``ratpi`` run ends at, where
    the loop's record is one the check certifies."""
    game = dirichlet_game(12)
    result = r.solve_ratpi(game, r.SolverParams(lam=0.9, epsilon=1e-6, mt_schedule=5))
    v = result.trace.values[-1]
    loop = r.improvement_sweep(game, v, 0.9)
    assert sweeps._tail_check(game, v, 0.9, *guess_of(game, loop.rule, loop.worst_model, 0.9))
    return game, v, loop


def test_wrong_row_falls_back(settled_start):
    """The loop's rule with one state's row replaced by another real row."""
    game, v, loop = settled_start
    for k in (0, 5, game.m - 1):
        rows = list(loop.worst_model)
        rows[k] = (rows[k] + 1) % 4
        assert_fell_back(game, v, 0.9, guess_of(game, loop.rule, tuple(rows), 0.9))


def test_wrong_rule_falls_back(settled_start):
    """The loop's rows with one state's action replaced by another."""
    game, v, loop = settled_start
    for k in (0, 5, game.m - 1):
        rule = list(loop.rule)
        rule[k] = (rule[k] + 1) % 4
        assert_fell_back(game, v, 0.9, guess_of(game, tuple(rule), loop.worst_model, 0.9))


def test_guess_of_a_later_group_member_falls_back():
    """Joint actions 0 and 1 are alike at every state, so they form one
    group, and the loop records its lowest member, 0: a guess of 1 where the
    loop chose 0 names the same group, rows and operator, and must still
    fall back."""
    game = dirichlet_game(12)
    # Its joint actions are all distinct, so action a is group a.
    acts = [0, 0, 2, 3]
    twin = r.build_game(2, game.states, game.player_actions, game.group_payoff[:, acts],
                        list(game.group_candidates[:, acts]))
    v = np.random.default_rng(3).uniform(-5, 5, game.m)
    loop = r.improvement_sweep(twin, v, 0.9)
    at = [k for k, a in enumerate(loop.rule) if a == 0]
    assert at
    assert sweeps._tail_check(twin, v, 0.9, *guess_of(twin, loop.rule, loop.worst_model, 0.9))
    rule = tuple(1 if k == at[0] else a for k, a in enumerate(loop.rule))
    assert_fell_back(twin, v, 0.9, guess_of(twin, rule, loop.worst_model, 0.9))


def test_stale_guess_falls_back(settled_start):
    """The record of the run's first step, where the rule differs."""
    game, v, loop = settled_start
    first = r.improvement_sweep(game, r.solvers.initial_value(
        game, r.SolverParams(lam=0.9, epsilon=1e-6)), 0.9)
    assert first.rule != loop.rule
    assert_fell_back(game, v, 0.9, guess_of(game, first.rule, first.worst_model, 0.9))


def test_small_games_and_perturbed_runs_keep_the_loop(settled_start, monkeypatch):
    """The solvers hand perturbed runs, and runs on games below
    ``TAIL_CHECK_MIN_STATES`` states, an operator after every step with
    evaluation sweeps, as they hand any run; the sweep declines it, so
    neither run ever tries the check."""
    game, v, loop = settled_start
    tail = guess_of(game, loop.rule, loop.worst_model, 0.9)
    monkeypatch.setattr(sweeps, "_tail_check", None)
    oracle = r.PerturbationOracle("adversarial_extremes", 1e-9)
    r.improvement_sweep(game, v, 0.9, oracle, 0, tail)
    params = r.SolverParams(
        lam=0.9, epsilon=1e-6, delta=0.5 * r.max_delta(0.9, 1e-6), mt_schedule=5)
    r.solve_ratpi(game, params, r.PerturbationOracle("uniform_noise", 0.9 * params.delta))
    r.solve_ratpi(dirichlet_game(TAIL_CHECK_MIN_STATES - 1), params)


#: Games of the run test, and whether some improvement sweep of the run
#: takes the check.  The chain run's evaluation sweeps stop at step 1, its
#: residual having risen, and with them the gathers the check needs.
RUN_GAMES = {
    "dirichlet8": (dirichlet_game(TAIL_CHECK_MIN_STATES), True),
    "dirichlet30": (dirichlet_game(30), True),
    "chain20": (chain_game(20, 10), False),
}


@pytest.mark.parametrize("name", list(RUN_GAMES))
@pytest.mark.parametrize("lam", [0.9, 0.99])
@pytest.mark.parametrize("mt", [1, 10, (10, 0, 10), (0, 10)])
def test_ratpi_makes_the_reference_runs_choices(name, lam, mt, monkeypatch):
    """Exact ``ratpi`` against ``reference_run``, whose sweeps run the loop:
    equal iterations, policy, rows, final value and flags, and residuals and
    trace values within the rounding the checks let in.  Each checked sweep
    is within tol / 2 of the loop at its start, and the rest of a step
    contracts by lam, so the runs stay within tol / (2 (1 - lam)) of each
    other, with tol at the run's largest value scale; twice that is
    allowed."""
    game, takes_check = RUN_GAMES[name]
    passed = []
    check = sweeps._tail_check

    def counted(*args):
        result = check(*args)
        passed.append(result is not None)
        return result

    monkeypatch.setattr(sweeps, "_tail_check", counted)
    params = r.SolverParams(lam=lam, epsilon=1e-6, mt_schedule=mt, max_iterations=5000)
    result = r.solve_ratpi(game, params)
    ref = reference_run(game, params)
    assert any(passed) == takes_check
    assert (result.iterations, result.terminated, result.settled) == (
        ref.iterations, ref.terminated, ref.settled)
    assert result.policy == ref.policy
    assert result.worst_model == ref.worst_model
    assert result.value.tobytes() == ref.value.tobytes()
    values, ref_values = np.array(result.trace.values), np.array(ref.trace.values)
    scale = np.max(np.abs(ref_values))
    bound = tail_tol(game.m, lam, scale, scale) / (1.0 - lam)
    assert np.max(np.abs(values - ref_values)) <= bound
    gaps = np.abs(np.array(result.trace.residuals) - ref.trace.residuals)
    assert np.max(gaps) <= 2 * bound


@pytest.mark.parametrize("schedule", [(10, 0, 10), (0, 10, 0, 10), 10])
def test_a_step_hands_on_the_operator_its_evaluation_ran_under(schedule, monkeypatch):
    """After a step that ran evaluation sweeps, the next improvement sweep
    is handed the very (rule, rows, op) whose op those sweeps ran under,
    with the rule and rows that step recorded; at step 0, and after a step
    without evaluation sweeps, it is handed None."""
    steps = []
    improve, evaluate = r.solvers.improvement_sweep, r.solvers.evaluation_sweep

    def improvement_sweep(game, v, lam, approx, step, tail):
        sweep = improve(game, v, lam, approx, step, tail)
        steps.append({"tail": tail, "record": (sweep.rule, sweep.worst_model), "op": None})
        return sweep

    def evaluation_sweep(op, *args):
        steps[-1]["op"] = op
        return evaluate(op, *args)

    monkeypatch.setattr(r.solvers, "improvement_sweep", improvement_sweep)
    monkeypatch.setattr(r.solvers, "evaluation_sweep", evaluation_sweep)
    params = r.SolverParams(lam=0.99, epsilon=1e-5, mt_schedule=schedule)
    r.solve_ratpi(dirichlet_game(30), params)
    assert steps[0]["tail"] is None
    for last, step in zip(steps, steps[1:]):
        if last["op"] is None:
            assert step["tail"] is None
        else:
            assert step["tail"][2] is last["op"]
            assert step["tail"][:2] == last["record"]
    handed = [step["tail"] is not None for step in steps[1:]]
    assert any(handed) and all(handed) == (schedule == 10)
