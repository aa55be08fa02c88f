"""The improvement sweep's tail check and carried certificates against
the plain sweeps.

Given the (rule, rows) of a previous step and their Gauss-Seidel operator,
an exact sweep of a game of at least ``TAIL_CHECK_MIN_STATES`` states first
scores every (state, group, row) in one batched product.  It must either
return the loop's rule and rows exactly, with values within ``tail_tol`` of
the loop's, or fall back to the loop bit for bit: a near tie, a wrong or
stale guess, or a duplicate row must never slip through.  A full scoring
that certifies its choices by a margin lets the solver keep them at later
steps, Gauss-Seidel or Jacobi, without an improvement sweep while the value
moves by less than that margin in span; a certificate that carries must
only ever prove the plain sweep's choices.  Whole exact ``ratpi`` and
``rmpi`` runs must make the plain step loop's choices at every step.
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


def carry_tol(m, lam, scale, gauss_seidel):
    """The rounding a carried certificate must clear, as ``sweeps._tail_check``
    derives it, with ``scale`` the largest of |v|, |w| at the scoring and
    now."""
    terms = 3 * (m + 2) + (24 * m * lam / (1.0 - lam) if gauss_seidel else 0.0)
    return 2 * np.finfo(float).eps * scale * terms


def guess_of(game, rule, rows, lam, gauss_seidel=True):
    """``(rule, rows, op)``, the ``tail`` argument of a guess."""
    op = evaluation_operator(*fixed_model_arrays(game, rule, rows), lam, gauss_seidel)
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


def certified(game, v, lam, gauss_seidel):
    """The ``Tail`` a step hands on after a full scoring at ``v`` certified
    its choices: the sweep's rule and rows, their operator and the
    scoring's certificate.  None when the scoring does not certify, as a
    tail check can decline."""
    if gauss_seidel:
        loop = r.improvement_sweep(game, v, lam)
        scored = sweeps._tail_check(game, v, lam, *guess_of(game, loop.rule, loop.worst_model, lam))
        if scored is None:
            return None
    else:
        plain = r.jacobi_improvement_sweep(game, v, lam)
        handed = guess_of(game, plain.rule, plain.worst_model, lam, False)
        scored = r.jacobi_improvement_sweep(game, v, lam, handed)
    op = guess_of(game, scored.rule, scored.worst_model, lam, gauss_seidel)[2]
    return sweeps.Tail(scored.rule, scored.worst_model, op, scored.certificate)


def carries(tail, v, lam, gauss_seidel):
    """Whether a step at ``v`` that holds ``tail`` carries its certificate,
    as ``solvers._run`` decides it: with ``w = A @ v + b`` of the tail's
    operator."""
    w = r.evaluation_sweep(tail.op, v)
    return sweeps._carries(tail.certificate, v, w, lam, gauss_seidel)


def plain(game, v, lam, gauss_seidel):
    """The exact sweep of each kind at ``v``, handed nothing."""
    if gauss_seidel:
        return r.improvement_sweep(game, v, lam)
    return r.jacobi_improvement_sweep(game, v, lam)


@given(
    st.one_of(
        games(max_states=12, min_states=TAIL_CHECK_MIN_STATES),
        st.builds(dirichlet_game, st.integers(TAIL_CHECK_MIN_STATES, 12), st.integers(0, 2**16)),
    ),
    LAMS,
    st.booleans(),
    st.sampled_from([1e-9, 1e-3, 0.3, 1.0, 3.0, 30.0]),
    st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_a_certificate_carries_only_to_the_plain_sweeps_choices(
    game, lam, gauss_seidel, size, seed
):
    """From a certified scoring at v, with margin M, a certificate that
    carries to a random v' = v + size * (M / lam) * d, |d| <= 1, proves the
    plain sweep's choices at v'.  Half the games have no two actions or
    rows alike, so their scorings certify a margin more often."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-20, 20, game.m)
    tail = certified(game, v, lam, gauss_seidel)
    if tail is None or not 0.0 < lam * tail.certificate.margin < np.inf:
        return
    step = size * tail.certificate.margin / lam
    v1 = v + step * rng.uniform(-1, 1, game.m)
    if carries(tail, v1, lam, gauss_seidel):
        got = plain(game, v1, lam, gauss_seidel)
        assert (got.rule, got.worst_model) == (tail.rule, tail.rows)


@given(
    games(max_states=12, min_states=TAIL_CHECK_MIN_STATES),
    LAMS,
    st.floats(-1e3, 1e3),
    st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_a_shift_carries_a_jacobi_certificate(game, lam, c, seed):
    """A Jacobi sweep at v + c * 1 scores every row c * lam higher, so a
    certificate whose margin is twice its rounding tol always carries, and
    one that carries proves the plain sweep's choices.  (A Gauss-Seidel
    continuation (w[:k], v[k:]) does not move by a multiple of 1 when v
    does.)"""
    v = np.random.default_rng(seed).uniform(-20, 20, game.m)
    tail = certified(game, v, lam, False)
    v1 = v + c
    A, b, _ = tail.op
    scale = np.max(np.abs([v, tail.certificate.w, v1, A @ v1 + b]))
    carried = carries(tail, v1, lam, False)
    if tail.certificate.margin > 2 * carry_tol(game.m, lam, scale, False):
        assert carried
    if carried:
        got = r.jacobi_improvement_sweep(game, v1, lam)
        assert (got.rule, got.worst_model) == (tail.rule, tail.rows)


@given(
    games(max_states=12, min_states=TAIL_CHECK_MIN_STATES),
    LAMS,
    st.booleans(),
    st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_a_zero_margin_never_carries(game, lam, gauss_seidel, seed):
    """Not even at the scoring's own v, where nothing has moved, nor at a
    shift of it."""
    v = np.random.default_rng(seed).uniform(-20, 20, game.m)
    sweep = plain(game, v, lam, gauss_seidel)
    rule, rows, op = guess_of(game, sweep.rule, sweep.worst_model, lam, gauss_seidel)
    zero = sweeps.Tail(rule, rows, op, sweeps.Certificate(v, op[0] @ v + op[1], 0.0))
    for v1 in (v, v + 1.0):
        assert not carries(zero, v1, lam, gauss_seidel)


def test_an_exact_tie_certifies_nothing():
    """At the last state of ``tie_game`` with v[m - 1] = v[target], both
    actions score 0.5 + lam * v[target] in a Jacobi sweep: the scoring's
    margin is 0, so the tail it hands on never carries, neither at v nor at
    a shift of it, where the tie stands."""
    m, lam, target = 10, 0.9, 3
    game = tie_game(m, target)
    v = np.random.default_rng(1).uniform(-5, 5, m)
    v[m - 1] = v[target]
    tail = certified(game, v, lam, False)
    assert tail.certificate.margin == 0.0
    for v1 in (v, v + 1.0):
        assert not carries(tail, v1, lam, False)


#: Games of the run tests, and whether some step of the run
#: takes the check (``ratpi``) or carries a certificate (``rmpi``).  The
#: chain runs do neither: duplicate rows tie at the goal state, so no full
#: scoring wins by a positive margin.  At mt = 10 they roll back some
#: steps' evaluation sweeps, as ``reference_run`` does.
RUN_GAMES = {
    "dirichlet8": (dirichlet_game(TAIL_CHECK_MIN_STATES), True),
    "dirichlet30": (dirichlet_game(30), True),
    "chain20": (chain_game(20, 10), False),
}


def recorded(monkeypatch, name):
    """Wrap ``sweeps.<name>`` and return the list its results go to."""
    inner, results = getattr(sweeps, name), []

    def record(*args):
        results.append(inner(*args))
        return results[-1]

    monkeypatch.setattr(sweeps, name, record)
    return results


def assert_replays(result, ref, bound):
    """Equal iterations, flags, policy, rows and final value bytes, trace
    values within ``bound`` and residuals within twice that."""
    assert (result.iterations, result.terminated, result.settled) == (
        ref.iterations, ref.terminated, ref.settled)
    assert result.policy == ref.policy
    assert result.worst_model == ref.worst_model
    assert result.value.tobytes() == ref.value.tobytes()
    values, ref_values = np.array(result.trace.values), np.array(ref.trace.values)
    assert np.max(np.abs(values - ref_values)) <= bound
    gaps = np.abs(np.array(result.trace.residuals) - ref.trace.residuals)
    assert np.max(gaps) <= 2 * bound


@pytest.mark.parametrize("name", list(RUN_GAMES))
@pytest.mark.parametrize("lam", [0.9, 0.99])
@pytest.mark.parametrize("mt", [1, 10, (10, 0, 10), (0, 10)])
def test_ratpi_makes_the_reference_runs_choices(name, lam, mt, monkeypatch):
    """Exact ``ratpi`` against ``reference_run``, whose sweeps run the loop:
    equal iterations, policy, rows, final value and flags, and residuals and
    trace values within the rounding the checks and carries let in.  Each
    checked sweep is within tol / 2 of the loop at its start; a carried step
    returns A @ v + b, within an evaluation sweep's rounding of the loop,
    24 * m * eps * S / (1 - lam), which is at most tol for lam >= 1/2.  The
    rest of a step contracts by lam, so the runs stay within
    tol / (1 - lam) of each other, with tol at the run's largest value
    scale S."""
    game, takes_check = RUN_GAMES[name]
    checks = recorded(monkeypatch, "_tail_check")
    params = r.SolverParams(lam=lam, epsilon=1e-6, mt_schedule=mt, max_iterations=5000)
    result = r.solve_ratpi(game, params)
    ref = reference_run(game, params)
    assert any(check is not None for check in checks) == takes_check
    scale = np.max(np.abs(ref.trace.values))
    assert_replays(result, ref, tail_tol(game.m, lam, scale, scale) / (1.0 - lam))


@pytest.mark.parametrize("name", list(RUN_GAMES))
@pytest.mark.parametrize("lam", [0.9, 0.99])
@pytest.mark.parametrize("mt", [1, 10, (10, 0, 10)])
def test_rmpi_makes_the_reference_runs_choices(name, lam, mt, monkeypatch):
    """Exact ``rmpi`` against ``reference_run``'s Jacobi loop, whose every
    improvement sweep scores in full: the same equalities as for ``ratpi``.
    A carried step returns A @ v + b = lam * P @ v + r, and the kernel
    scores pe + lam * (c @ v): each is within half of (m + 2) * eps * S of
    the exact value, S the largest value scale.  The rest of a step
    contracts by lam, so the runs stay within (m + 2) * eps * S / (1 - lam);
    twice that is allowed."""
    game, carries = RUN_GAMES[name]
    carried = recorded(monkeypatch, "_carries")
    params = r.SolverParams(lam=lam, epsilon=1e-6, mt_schedule=mt, max_iterations=5000)
    result = r.solve_rmpi(game, params)
    ref = reference_run(game, params, gauss_seidel=False, algo="rmpi")
    assert any(carried) == carries
    scale = np.max(np.abs(ref.trace.values))
    eps = np.finfo(float).eps
    assert_replays(result, ref, 2 * (game.m + 2) * eps * scale / (1.0 - lam))


@pytest.mark.parametrize("schedule", [(10, 0, 10), (0, 10, 0, 10), 10])
def test_a_step_hands_on_the_operator_its_evaluation_ran_under(schedule, monkeypatch):
    """After a step that ran evaluation sweeps, the next step holds the very
    op those sweeps ran under, with the rule, rows and certificate that step
    recorded: it tries to carry that certificate, if there is one, at
    ``A @ v + b`` under that op, the bits of one evaluation sweep, and an
    improvement sweep that it calls is handed that record.  A step that
    carries runs no improvement sweep and hands on the record it carried.
    At step 0, and after a step without evaluation sweeps, a step holds
    None: it tries no carry, and its sweep is handed None."""
    steps = []
    improve, evaluate = r.solvers.improvement_sweep, r.solvers.evaluation_sweep
    carries = sweeps._carries

    def evaluation_sweep(op, u, *rest):
        steps[-1]["op"] = op
        return evaluate(op, u, *rest)

    def _carries(certificate, v, w, *rest):
        # The carry test at A @ v + b opens a step.
        carried = carries(certificate, v, w, *rest)
        steps.append({"probe": (v, w), "held": certificate, "carried": carried})
        return carried

    def improvement_sweep(game, v, lam, approx, step, tail):
        if len(steps) == step:
            steps.append({})
        sweep = improve(game, v, lam, approx, step, tail)
        steps[step].update(tail=tail, record=(sweep.rule, sweep.worst_model),
                           certificate=sweep.certificate)
        return sweep

    monkeypatch.setattr(r.solvers, "improvement_sweep", improvement_sweep)
    monkeypatch.setattr(r.solvers, "evaluation_sweep", evaluation_sweep)
    monkeypatch.setattr(sweeps, "_carries", _carries)
    params = r.SolverParams(lam=0.99, epsilon=1e-5, mt_schedule=schedule)
    result = r.solve_ratpi(dirichlet_game(30), params)
    assert len(steps) == result.iterations + 1
    assert "probe" not in steps[0] and steps[0]["tail"] is None
    for last, step in zip(steps, steps[1:]):
        if last.get("op") is None:
            assert "probe" not in step and step["tail"] is None
            continue
        if last["certificate"] is None:
            assert "probe" not in step
        else:
            v, w = step["probe"]
            assert w.tobytes() == evaluate(last["op"], v).tobytes()
            assert step["held"] is last["certificate"]
        if step.get("carried"):
            assert "tail" not in step
            assert step.get("op", last["op"]) is last["op"]
            step.update(record=last["record"], certificate=last["certificate"])
        else:
            assert step["tail"][2] is last["op"]
            assert step["tail"][:2] == last["record"]
            assert step["tail"].certificate is last["certificate"]
    handed = [step.get("tail") is not None or "probe" in step for step in steps[1:]]
    assert any(handed) and all(handed) == (schedule == 10)
    assert any(step.get("carried") for step in steps)
