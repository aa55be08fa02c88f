"""Deterministic bounded-perturbation oracles for inexact backups.

Models approximate backup computation: every queried backup value is offset
by a noise term eta with |eta| <= bound.  A query is the backup of state k
under joint action a in sweep ``phase`` of solver step ``step``; its tag is
(step, phase, k, a).  Phase 0 is the improvement sweep; phases 1..M label
the partial-evaluation sweeps of a step.  Noise is a pure function of
(seed, tag), so replays and concurrently evaluated sweeps see identical
values regardless of evaluation order, and one
:meth:`PerturbationOracle.perturb` call draws the noise of a whole sweep's
queries.  An exact run has no oracle (``approx=None``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .model import _count, _real

MODES = ("uniform_noise", "adversarial_extremes")


#: Hash input of one query: the seed and the four tag components.
_KEY = struct.Struct("<5q")


@dataclass(frozen=True)
class PerturbationOracle:
    """Injectable bounded error source for backup values.

    * ``uniform_noise`` adds a deterministic uniform draw from
      [-bound, bound] keyed on (seed, tag).
    * ``adversarial_extremes`` adds +/-bound, sign alternating with the
      parity of the tag component sum.

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

    def perturb(self, step: int, phase: int, queries) -> np.ndarray:
        """Noise of the tags (step, phase, k, a) for the (k, a) pairs in
        ``queries``, drawn in one call; the caller adds it to the exact
        values.  Uniform noise is bound * (2u - 1), where u in [0, 1) is the
        first 8 bytes of the blake2b digest of (seed, tag), read as a
        little-endian integer and divided by 2**64."""
        bound = self.bound
        if self.mode == "adversarial_extremes":
            return np.array([
                bound if (step + phase + k + a) % 2 == 0 else -bound
                for k, a in queries
            ])
        pack, seed = _KEY.pack, self.seed
        digests = [
            blake2b(pack(seed, step, phase, k, a), digest_size=8).digest()
            for k, a in queries
        ]
        return np.array([
            bound * (2.0 * (int.from_bytes(d, "little") / 2.0**64) - 1.0)
            for d in digests
        ])
