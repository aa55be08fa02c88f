"""Deterministic bounded-perturbation oracles for inexact backups.

Models approximate backup computation: every queried backup value is offset
by a noise term eta with |eta| <= bound.  A query is the backup of state k
under joint action a in sweep ``phase`` of solver step ``step``; its tag is
(step, phase, k, a).  Phase 0 is the improvement sweep; phases 1..M label
the partial-evaluation sweeps of a step.  Noise is a pure function of
(seed, tag), so replays and concurrently evaluated sweeps see identical
values regardless of evaluation order.

Uniform noise is a counter-based draw (Salmon et al. 2011; Steele, Lea &
Flood 2014): the SplitMix64 finaliser chained over the tag in 64-bit
unsigned arithmetic.  :meth:`PerturbationOracle.perturb` broadcasts its four
tag arguments against each other and hashes every tag of the result in one
pass of numpy ``uint64`` operations, so a solver draws the noise of many
steps, every phase and every (state, column) in one call (see
:mod:`robustdp.solvers`).  An exact run has no oracle (``approx=None``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _count, _real

MODES = ("uniform_noise", "adversarial_extremes")

#: The SplitMix64 increment, 2**64 over the golden ratio, and the two
#: multipliers of its finaliser.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser of every entry of the ``uint64`` array
    ``z``, in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class PerturbationOracle:
    """Injectable bounded error source for backup values.

    * ``uniform_noise`` adds a deterministic uniform draw from
      [-bound, bound] keyed on (seed, tag): the SplitMix64 hash of the tag
      that :meth:`perturb` defines, on a grid of 2**53 points.
    * ``adversarial_extremes`` adds +/-bound, sign alternating with the
      parity of the tag component sum.

    :meth:`perturb` is the only draw: a solver calls it once per block of
    steps, with broadcast index arrays, never once per query.

    ``bound`` must be a positive real number, not a bool, and is stored as
    a float; ``seed`` must be a signed 64-bit integer, read with
    ``operator.index`` (a bool, a float or a str is a ``ValueError``).  With
    ``argmax_lock`` the improvement sweep selects the maximising action
    from the exact backup values and perturbs only the selected value, so a
    perturbed run and an exact twin pick identical actions; unlocked noise
    may flip near-ties (only the terminal epsilon-guarantee covers that).
    """

    mode: str
    bound: float
    seed: int = 0
    argmax_lock: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "bound", _real(self.bound, "bound"))
        if not self.bound > 0.0:
            raise ValueError(f"bound must be positive, got {self.bound!r}")
        try:
            seed = _count(self.seed, "seed")
        except TypeError:
            seed = None
        if seed is None or not -(2**63) <= seed < 2**63:
            raise ValueError(f"seed must be a signed 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)

    def perturb(self, step, phase, k, a) -> np.ndarray:
        """Noise of the tags (step, phase, k, a), one per entry of the
        broadcast of the four integer arguments, an array of that shape;
        the caller adds it to the exact values.

        Uniform noise is bound * (2u - 1) with u = (z >> 11) * 2**-53, where
        z starts at seed mod 2**64 and takes z = mix(z + gamma * (c + 1))
        for each tag component c in turn, all mod 2**64: ``mix`` is the
        SplitMix64 finaliser and gamma = 0x9E3779B97F4A7C15."""
        shape = np.broadcast_shapes(*map(np.shape, (step, phase, k, a)))
        # At least one axis throughout, so numpy's wrapping array arithmetic
        # runs rather than its scalar arithmetic, which warns on overflow.
        tag = [np.atleast_1d(c).astype(np.uint64) for c in (step, phase, k, a)]
        if self.mode == "adversarial_extremes":
            odd = sum(tag) & np.uint64(1)
            return np.where(odd == 0, self.bound, -self.bound).reshape(shape)
        z = np.array([self.seed % 2**64], dtype=np.uint64)
        for c in tag:
            c += np.uint64(1)
            c *= _GAMMA
            z = _mix(z + c)
        u = (z >> np.uint64(11)).astype(float)
        u *= 2.0**-53
        return (self.bound * (2.0 * u - 1.0)).reshape(shape)
