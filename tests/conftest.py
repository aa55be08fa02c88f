import numpy as np
import pytest

import robustdp as r


def singleton_game(payoff: float = 1.0) -> r.TeamMarkovGame:
    """1 state, 1 player, 1 action, constant payoff."""
    return r.build_game(
        1, ["s1"], [["a0"]], np.full((1, 1, 1), payoff), [[[[1.0]]]]
    )


def two_state_chain() -> r.TeamMarkovGame:
    """2 states, single action; s1 rows {(1,0),(0,1)}, s2 stays put.

    Payoffs: r(s1,a,s2)=1, everything else 0.  The adversary in s1 chooses
    between staying (payoff 0) and moving to s2 (payoff 1 once).
    """
    pay = np.zeros((2, 1, 2))
    pay[0, 0, 1] = 1.0
    rows = [[[[1.0, 0.0], [0.0, 1.0]]], [[[0.0, 1.0]]]]
    return r.build_game(1, ["s1", "s2"], [["a0"]], pay, rows)


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
    n = game.n_rows[k, a]
    q = game.payoff_exp[k, a, :n] + lam * (game.candidates[k, a] @ w)[:n]
    j = int(np.argmin(q))
    return float(q[j]), j


@pytest.fixture(scope="session")
def rssd_game():
    return r.build_rssd()


@pytest.fixture(scope="session")
def rssd_oracle(rssd_game):
    return r.brute_force_maximin(rssd_game, 0.97)
