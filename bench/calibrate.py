"""Machine-speed probe, to scale measured times to a fixed reference speed.

The host this benchmark runs on is shared, and its speed drifts by 20-30 %
over tens of seconds, for pure-Python code as much as for numpy.  Wall times
of the same work taken minutes apart therefore differ by as much as a real
regression would.  So the benchmark runs a fixed probe kernel, which does not
touch the program, right before and right after every timed phase (each
solver cell, each set-up), and scales the phase's wall time by the
reference kernel time over the mean of those two probe times:

    scaled = wall * REFERENCE_KERNEL_S / mean(probe_before, probe_after)

A scaled time is in seconds at the reference speed, the speed at which one
kernel takes ``REFERENCE_KERNEL_S``.  A change to the program moves the wall
time and leaves the probe alone, so it moves the scaled time by the same
factor.  The kernel mixes the operations the solvers spend their time on: a
Python loop of small-array robust backups and dense matrix-vector products.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one :func:`kernel` at the reference speed (about its median on a
#: 2-vCPU x86-64 host with numpy 2.4 and single-threaded OpenBLAS 0.3).
REFERENCE_KERNEL_S = 0.004
#: A probe times at least this many kernels, and reports their mean time.
MIN_KERNELS = 2
#: The probe after a phase lasts at least this share of the phase's wall
#: time, so that a long phase is scaled by a speed measured as steadily.
PROBE_SHARE = 0.1

_RNG = np.random.default_rng(12345)


def _game(actions: int) -> list:
    """3 states x ``actions`` actions, each with its own small arrays (3
    candidate rows, expected payoffs), as the program keeps them."""
    return [
        [(_RNG.dirichlet(np.ones(3), size=3), _RNG.uniform(-1.0, 1.0, size=3))
         for _ in range(actions)]
        for _ in range(3)
    ]


#: The paper's game size, and a wide game's.
_SMALL_GAME = _game(8)
_WIDE_GAME = _game(256)
_MATRIX = _RNG.uniform(0.0, 1.0, size=(150, 150)) / 150.0


def _sweep(game, v: np.ndarray) -> np.ndarray:
    """One robust Bellman sweep in a Python loop over per-action arrays."""
    new = np.empty(len(game))
    for s, actions in enumerate(game):
        best = -np.inf
        for rows, payoff in actions:
            q = payoff + 0.97 * (rows @ v)
            val = float(q[int(np.argmin(q))])
            if val > best:
                best = val
        new[s] = best
    return new


def kernel() -> float:
    """About 4 ms of the operations the solvers spend their time on: robust
    backups in a Python loop over small per-action arrays (8 sweeps of a
    3-state, 8-action game and one of a 3-state, 256-action game), then 20
    products of a 150x150 matrix with a vector."""
    v = np.zeros(3)
    for _ in range(8):
        v = _sweep(_SMALL_GAME, v)
    w = _sweep(_WIDE_GAME, v)
    u = np.ones(150)
    for _ in range(20):
        u = 0.5 * (_MATRIX @ u) + 1.0
    return float(v.sum() + w.sum() + u.sum())


def probe(after_s: float = 0.0) -> float:
    """Mean wall time of one kernel, in seconds, over at least
    ``MIN_KERNELS`` kernels and at least ``PROBE_SHARE * after_s`` seconds
    (``after_s`` is the wall time of the phase just timed, if any)."""
    kernels = 0
    start = time.perf_counter()
    while True:
        kernel()
        kernels += 1
        elapsed = time.perf_counter() - start
        if kernels >= MIN_KERNELS and elapsed >= PROBE_SHARE * after_s:
            return elapsed / kernels


def scale(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` in seconds at the reference speed, given the probes taken
    right before and right after it."""
    return wall_s * REFERENCE_KERNEL_S * 2.0 / (before + after)
