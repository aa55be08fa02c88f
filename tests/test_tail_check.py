"""The tail check and carried certificates against the plain sweeps.

Given the (rule, rows) of a previous step and w = A v + b under their
Gauss-Seidel operator, the tail check scores every (state, group, row) in
one batched product.  It must either return the loop's rule and rows
exactly, with values within ``tail_tol`` of the loop's, or decline, so that
the solver runs the loop: a near tie, a wrong or stale guess, or a
duplicate row must never slip through.  A check that declines may propose
the record its scores prefer; the solver takes it only after a check under
that record's own operator passes, so a proved step too returns the loop's
rule and rows, and ties and duplicate rows propose nothing.  A full scoring
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
from hypothesis.extra.numpy import arrays

import robustdp as r
from conftest import chain_game, dirichlet_game, games, reference_run, row_counts
from robustdp import sweeps
from robustdp.solvers import TAIL_CHECK_MIN_STATES
from robustdp.sweeps import evaluation_operator, fixed_model_arrays

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


def operator_of(game, rule, rows, lam, gauss_seidel=True):
    """The evaluation operator ``(A, b, N)`` of a rule and its rows."""
    return evaluation_operator(*fixed_model_arrays(game, rule, rows), lam, gauss_seidel)


def tail_check(game, v, lam, rule, rows):
    """``sweeps._tail_check`` of the guess (``rule``, ``rows``) at ``v``, with
    ``w = A @ v + b`` under their Gauss-Seidel operator, as ``solvers._run``
    forms it: the pair of the checked sweep and the proposed record."""
    A, b, _ = operator_of(game, rule, rows, lam)
    below = np.tri(game.m, game.m, -1, dtype=bool)
    return sweeps._tail_check(game, v, A @ v + b, lam, rule, rows, below)


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
    checked, _ = tail_check(game, v, lam, rule, rows)
    if checked is not None:
        tol = tail_tol(game.m, lam, v, checked.certificate.w)
        assert np.max(np.abs(checked.u0 - loop.u0)) <= tol / 2
        assert (checked.rule, checked.worst_model) == (loop.rule, loop.worst_model)


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
    A, b, _ = operator_of(probe, loop.rule, loop.worst_model, lam)
    below = np.flatnonzero((A @ v + b)[: m - 1] < loop.u0[: m - 1])
    assert below.size
    target = int(below[0])
    game = tie_game(m, target)
    v[m - 1] = loop.u0[target]
    loop = r.improvement_sweep(game, v, lam)
    assert loop.rule[-1] == 0 and loop.u0[target] == v[m - 1]
    rule, rows = loop.rule[:-1] + (1,), loop.worst_model
    A, b, _ = operator_of(game, rule, rows, lam)
    w = A @ v + b
    # The trap: without its margin the check would take action 1.
    assert lam * w[target] < lam * v[m - 1]
    assert tail_check(game, v, lam, rule, rows)[0] is None
    assert tail_check(game, v, lam, loop.rule, rows)[0] is None


@pytest.fixture(scope="module")
def settled_start():
    """A 12-state game and the value an exact ``ratpi`` run ends at, where
    the loop's record is one the check certifies."""
    game = dirichlet_game(12)
    result = r.solve_ratpi(game, r.SolverParams(lam=0.9, epsilon=1e-6, mt_schedule=5))
    v = result.trace.values[-1]
    loop = r.improvement_sweep(game, v, 0.9)
    assert tail_check(game, v, 0.9, loop.rule, loop.worst_model)[0]
    return game, v, loop


def test_wrong_row_falls_back(settled_start):
    """The loop's rule with one state's row replaced by another real row."""
    game, v, loop = settled_start
    for k in (0, 5, game.m - 1):
        rows = list(loop.worst_model)
        rows[k] = (rows[k] + 1) % 4
        assert tail_check(game, v, 0.9, loop.rule, tuple(rows))[0] is None


def test_wrong_rule_falls_back(settled_start):
    """The loop's rows with one state's action replaced by another."""
    game, v, loop = settled_start
    for k in (0, 5, game.m - 1):
        rule = list(loop.rule)
        rule[k] = (rule[k] + 1) % 4
        assert tail_check(game, v, 0.9, tuple(rule), loop.worst_model)[0] is None


def test_guess_of_a_later_group_member_falls_back():
    """Joint actions 0 and 1 are alike at every state, so they form one
    group, and the loop records its lowest member, 0: a guess of 1 where the
    loop chose 0 names the same group, rows and operator, and must still
    fall back, proposing the loop's record."""
    game = dirichlet_game(12)
    # Its joint actions are all distinct, so action a is group a.
    acts = [0, 0, 2, 3]
    twin = r.build_game(2, game.states, game.player_actions, game.group_payoff[:, acts],
                        list(game.group_candidates[:, acts]))
    v = np.random.default_rng(3).uniform(-5, 5, game.m)
    loop = r.improvement_sweep(twin, v, 0.9)
    at = [k for k, a in enumerate(loop.rule) if a == 0]
    assert at
    assert tail_check(twin, v, 0.9, loop.rule, loop.worst_model)[0]
    rule = tuple(1 if k == at[0] else a for k, a in enumerate(loop.rule))
    assert tail_check(twin, v, 0.9, rule, loop.worst_model) == (
        None, (loop.rule, loop.worst_model))


def test_stale_guess_falls_back(settled_start):
    """The record of the run's first step, where the rule differs."""
    game, v, loop = settled_start
    first = r.improvement_sweep(game, r.solvers.initial_value(
        game, r.SolverParams(lam=0.9, epsilon=1e-6)), 0.9)
    assert first.rule != loop.rule
    assert tail_check(game, v, 0.9, first.rule, first.worst_model)[0] is None


@given(
    st.one_of(
        games(max_states=12, min_states=TAIL_CHECK_MIN_STATES),
        st.builds(dirichlet_game, st.integers(TAIL_CHECK_MIN_STATES, 12), st.integers(0, 2**16)),
    ),
    LAMS,
    st.sampled_from([0.3, 3.0, 30.0]),
    st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_a_proved_step_makes_the_loops_choices(game, lam, size, seed):
    """A step that holds a stale record, the loop's record at a start up to
    ``size`` away in each state, and proves its sweep by a tail check, of
    that record or of one a check proposed, returns the loop's rule and
    rows, with values within tol / 2 of the loop's at the w of the check
    that proved it; an operator it formed is that of its record.  Half the
    games have no two actions or rows alike, so their checks propose
    records more often; the other half may repeat rows or actions."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-20, 20, game.m)
    stale = r.improvement_sweep(game, v + size * rng.uniform(-1, 1, game.m), lam)
    A, b, _ = operator_of(game, stale.rule, stale.worst_model, lam)
    proved, formed = r.solvers._proved_sweep(
        game, v, A @ v + b, lam, stale.rule, stale.worst_model,
        np.tri(game.m, game.m, -1, dtype=bool),
    )
    if proved is None:
        return
    loop = r.improvement_sweep(game, v, lam)
    assert (proved.rule, proved.worst_model) == (loop.rule, loop.worst_model)
    tol = tail_tol(game.m, lam, v, proved.certificate.w)
    assert np.max(np.abs(proved.u0 - loop.u0)) <= tol / 2
    if formed is not None:
        own = operator_of(game, proved.rule, proved.worst_model, lam)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(formed[:2], own[:2]))


def test_a_tie_or_a_duplicate_row_proposes_nothing(monkeypatch):
    """In ``tie_game``, with v[m - 1] the check's own w[target], the two
    actions of the last state score alike for any record: the check
    proposes nothing, whichever it holds there.  In exact ``ratpi`` runs on
    a chain game, whose goal state's rows are all alike, no check proposes
    a record, so no step forms an operator to prove one."""
    m, lam, target = 10, 0.9, 3
    game = tie_game(m, target)
    v = np.random.default_rng(1).uniform(-5, 5, m)
    loop = r.improvement_sweep(game, v, lam)
    for last in (0, 1):
        rule = loop.rule[:-1] + (last,)
        A, b, _ = operator_of(game, rule, loop.worst_model, lam)
        # States before the last never move to it, so w[target] is free of v[m - 1].
        v[m - 1] = (A @ v + b)[target]
        assert tail_check(game, v, lam, rule, loop.worst_model) == (None, None)
    checks = recorded(monkeypatch, "_tail_check")
    for lam in (0.9, 0.99):
        params = r.SolverParams(lam=lam, epsilon=1e-6, mt_schedule=10)
        r.solve_ratpi(chain_game(20, 10), params)
    assert checks and all(guess is None for _, guess in checks)


def test_only_steps_without_a_held_record_run_the_loop(monkeypatch):
    """On ``dirichlet_game(30)`` at lam 0.99 and mt 10 every step after the
    first holds a record, and each one that does not carry it has its sweep
    proved: by the tail check of the held record, or of a record a check
    proposed.  So the per-state loop runs once, at step 0, and some step's
    record is a proved proposal.  Every check takes the one mask the run
    formed."""
    loops, checks, masks = [], [], []
    loop, check = r.solvers.improvement_sweep, sweeps._tail_check

    def improvement_sweep(*args):
        loops.append(args)
        return loop(*args)

    def _tail_check(*args):
        checks.append((args[4:6], check(*args)))
        masks.append(args[6])
        return checks[-1][1]

    monkeypatch.setattr(r.solvers, "improvement_sweep", improvement_sweep)
    monkeypatch.setattr(sweeps, "_tail_check", _tail_check)
    params = r.SolverParams(lam=0.99, epsilon=1e-5, mt_schedule=10)
    result = r.solve_ratpi(dirichlet_game(30), params)
    assert result.terminated and len(loops) == 1
    assert all(mask is masks[0] for mask in masks)
    proved = [
        record for (_, (_, proposed)), (record, (checked, _)) in zip(checks, checks[1:])
        if checked is not None and record == proposed
    ]
    assert proved


@given(
    st.integers(1, 12).flatmap(
        lambda n: arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 3), st.just(n)),
            elements=st.one_of(
                st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]),
                st.floats(-4, 4),
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_the_fold_is_the_reduction(x):
    """``sweeps._fold`` against ``ufunc.reduce`` over the last axis, on
    stacks that hold NaN, +-inf and +-0.0: NaN at the same entries, and
    the same bits elsewhere on an axis of at most 8 entries.  Beyond 8 the
    reduction accumulates in another order, which can return the other
    zero of a +-0.0 tie; the values are still equal.  A NaN's sign is the
    reduction's own choice and is not compared."""
    for ufunc in (np.minimum, np.maximum):
        got, ref = sweeps._fold(ufunc, x), ufunc.reduce(x, axis=-1)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        if x.shape[-1] <= 8:
            assert got[~nan].tobytes() == ref[~nan].tobytes()
        else:
            assert np.array_equal(got[~nan], ref[~nan])


def test_small_games_and_perturbed_runs_keep_the_loop(monkeypatch):
    """Perturbed runs, and runs on games below ``TAIL_CHECK_MIN_STATES``
    states, hold an operator after every step with evaluation sweeps, as
    any run does; the solver's gate keeps them from scoring in full, so no
    such run tries the check, certifies a Jacobi sweep's margin or tests a
    carry."""
    for name in ("_tail_check", "_margin", "_carries"):
        monkeypatch.setattr(sweeps, name, None)
    params = r.SolverParams(
        lam=0.9, epsilon=1e-6, delta=0.5 * r.max_delta(0.9, 1e-6), mt_schedule=5)
    oracle = r.PerturbationOracle("uniform_noise", 0.9 * params.delta)
    r.solve_ratpi(dirichlet_game(12), params, oracle)
    small = dirichlet_game(TAIL_CHECK_MIN_STATES - 1)
    r.solve_ratpi(small, params)
    r.solve_rmpi(small, params)


def certified(game, v, lam, gauss_seidel):
    """What a step holds after a full scoring at ``v`` certified its
    choices: ``(held, op)``, the scoring's sweep with its certificate and
    the operator of its rule and rows.  None when the scoring does not
    certify, as a tail check can decline."""
    if gauss_seidel:
        loop = r.improvement_sweep(game, v, lam)
        held = tail_check(game, v, lam, loop.rule, loop.worst_model)[0]
        if held is None:
            return None
    else:
        held = r.jacobi_improvement_sweep(game, v, lam, certify=True)
    return held, operator_of(game, held.rule, held.worst_model, lam, gauss_seidel)


def carries(held, op, v, lam, gauss_seidel):
    """Whether a step at ``v`` that holds ``held`` and ``op`` carries the
    certificate, as ``solvers._run`` decides it: with ``w = A @ v + b``."""
    w = r.evaluation_sweep(op, v)
    return sweeps._carries(held.certificate, v, w, lam, gauss_seidel)


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
    scored = certified(game, v, lam, gauss_seidel)
    if scored is None or not 0.0 < lam * scored[0].certificate.margin < np.inf:
        return
    held, op = scored
    step = size * held.certificate.margin / lam
    v1 = v + step * rng.uniform(-1, 1, game.m)
    if carries(held, op, v1, lam, gauss_seidel):
        got = plain(game, v1, lam, gauss_seidel)
        assert (got.rule, got.worst_model) == (held.rule, held.worst_model)


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
    held, op = certified(game, v, lam, False)
    v1 = v + c
    A, b, _ = op
    scale = np.max(np.abs([v, held.certificate.w, v1, A @ v1 + b]))
    carried = carries(held, op, v1, lam, False)
    if held.certificate.margin > 2 * carry_tol(game.m, lam, scale, False):
        assert carried
    if carried:
        got = r.jacobi_improvement_sweep(game, v1, lam)
        assert (got.rule, got.worst_model) == (held.rule, held.worst_model)


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
    op = operator_of(game, sweep.rule, sweep.worst_model, lam, gauss_seidel)
    zero = sweep._replace(certificate=sweeps.Certificate(v, op[0] @ v + op[1], 0.0))
    for v1 in (v, v + 1.0):
        assert not carries(zero, op, v1, lam, gauss_seidel)


def test_an_exact_tie_certifies_nothing():
    """At the last state of ``tie_game`` with v[m - 1] = v[target], both
    actions score 0.5 + lam * v[target] in a Jacobi sweep: the scoring's
    margin is 0, so the record it leaves never carries, neither at v nor at
    a shift of it, where the tie stands."""
    m, lam, target = 10, 0.9, 3
    game = tie_game(m, target)
    v = np.random.default_rng(1).uniform(-5, 5, m)
    v[m - 1] = v[target]
    held, op = certified(game, v, lam, False)
    assert held.certificate.margin == 0.0
    for v1 in (v, v + 1.0):
        assert not carries(held, op, v1, lam, False)


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
    assert any(checked is not None for checked, _ in checks) == takes_check
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
    """After a step that ran evaluation sweeps, the next step holds the
    record that step's improvement made, with its certificate, and the very
    op its evaluation sweeps ran under.  It forms ``A @ v + b`` under that
    op once, the bits of one evaluation sweep, and hands that same array to
    the carry test, if it holds a certificate, and to the tail check of the
    held rule and rows, if it does not carry.  Where that check declines
    and proposes a record, the step forms the record's operator and checks
    the record at its own ``A @ v + b``; a record proved so hands on that
    operator, which its evaluation sweeps run under without forming
    another.  A step that carries runs neither the check nor the loop and
    hands on the record it carried.  At step 0, and after a step without
    evaluation sweeps, a step holds None: it tries neither, and runs the
    loop."""
    steps, current = [], {}
    carries, check = sweeps._carries, sweeps._tail_check
    improve, evaluate = r.solvers.improvement_sweep, r.solvers.evaluation_sweep
    form = r.solvers.evaluation_operator

    def close(record, certificate):
        # The call that settles a step's improvement ends it.
        current.update(record=record, certificate=certificate)
        steps.append(current.copy())
        current.clear()

    def _carries(certificate, v, w, *rest):
        carried = carries(certificate, v, w, *rest)
        current.update(probe=(v, w), held=certificate, carried=carried)
        if carried:
            close(steps[-1]["record"], certificate)
        return carried

    def _tail_check(game, v, w, lam, rule, rows, below):
        checked, guess = check(game, v, w, lam, rule, rows, below)
        if "check" in current:
            current["guesses"].append((v, w, (rule, rows)))
        else:
            current.update(check=(v, w, (rule, rows)), guesses=[], proposed=[])
        current["proposed"].append(guess)
        if checked is not None:
            close((checked.rule, checked.worst_model), checked.certificate)
        return checked, guess

    def improvement_sweep(*args):
        sweep = improve(*args)
        current["loop"] = True
        close((sweep.rule, sweep.worst_model), sweep.certificate)
        return sweep

    def evaluation_operator(*args):
        op = form(*args)
        if current:  # a step proving a proposed record
            current.setdefault("formed", []).append(op)
        else:  # between steps: for the last step's evaluation sweeps
            steps[-1]["formed_after"] = op
        return op

    def evaluation_sweep(op, u, *rest):
        steps[-1]["op"] = op
        return evaluate(op, u, *rest)

    monkeypatch.setattr(sweeps, "_carries", _carries)
    monkeypatch.setattr(sweeps, "_tail_check", _tail_check)
    monkeypatch.setattr(r.solvers, "improvement_sweep", improvement_sweep)
    monkeypatch.setattr(r.solvers, "evaluation_operator", evaluation_operator)
    monkeypatch.setattr(r.solvers, "evaluation_sweep", evaluation_sweep)
    game = dirichlet_game(30)
    params = r.SolverParams(lam=0.99, epsilon=1e-5, mt_schedule=schedule)
    result = r.solve_ratpi(game, params)
    assert len(steps) == result.iterations + 1 and not current
    assert "probe" not in steps[0] and "check" not in steps[0]
    for last, step in zip(steps, steps[1:]):
        if last.get("op") is None:
            assert "probe" not in step and "check" not in step and step["loop"]
            continue
        if last["certificate"] is None:
            assert "probe" not in step
        else:
            assert step["held"] is last["certificate"]
        probes = [step[key] for key in ("probe", "check") if key in step]
        v, w = probes[0][:2]
        assert w.tobytes() == evaluate(last["op"], v).tobytes()
        assert all(probe[0] is v and probe[1] is w for probe in probes)
        if step.get("carried"):
            assert "check" not in step and "loop" not in step
            assert step.get("op", last["op"]) is last["op"]
            continue
        assert step["check"][2] == last["record"]
        guesses, formed = step["guesses"], step.get("formed", [])
        assert len(guesses) == len(formed) <= r.solvers.TAIL_GUESSES
        for (u, x, record), proposed, op in zip(guesses, step["proposed"], formed):
            assert u is v and record == proposed
            assert op[0].tobytes() == operator_of(game, *record, 0.99)[0].tobytes()
            assert x.tobytes() == evaluate(op, v).tobytes()
        if guesses and "loop" not in step and "op" in step:
            assert step["op"] is formed[-1] and "formed_after" not in step
    held = [step for step in steps[1:] if "probe" in step or "check" in step]
    assert held and (len(held) == len(steps) - 1) == (schedule == 10)
    assert any(step.get("carried") for step in steps)
    assert any("probe" in step and "check" in step for step in steps)
    assert any(step.get("guesses") and "loop" not in step for step in steps)
