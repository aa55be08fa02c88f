"""Deterministic bounded-perturbation oracles for inexact backups.

Models approximate backup computation: every queried backup value may be
offset by a noise term eta with |eta| <= bound.  Noise is a pure function of
(seed, query tag) where the tag is (step, sweep_phase, state, action), so
replays and concurrently evaluated sweeps see identical values regardless of
evaluation order.  Sweep phase 0 is the improvement sweep; phases 1..M label
the partial-evaluation sweeps of a step.  Because the noise depends on the
tag alone, one :meth:`PerturbationOracle.perturb` call draws the noise of
a whole sweep's queries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

MODES = ("identity", "uniform_noise", "adversarial_extremes")


#: Hash input of one query: the seed and the four tag components.
_KEY = struct.Struct("<5q")


@dataclass(frozen=True)
class PerturbationOracle:
    """Injectable bounded error source for backup values.

    * ``identity`` returns values unchanged.
    * ``uniform_noise`` adds a deterministic uniform draw from
      [-bound, bound] keyed on (seed, tag).
    * ``adversarial_extremes`` adds +/-bound, sign alternating with the
      parity of the tag component sum.

    With ``argmax_lock`` the improvement sweep selects the maximising action
    from the exact backup values and perturbs only the selected value, so a
    perturbed run and an exact twin pick identical actions; unlocked noise
    may flip near-ties (only the terminal epsilon-guarantee covers that).
    """

    mode: str = "identity"
    bound: float = 0.0
    seed: int = 0
    argmax_lock: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.bound >= 0.0:
            raise ValueError("bound must be nonnegative")

    @property
    def is_identity(self) -> bool:
        return self.mode == "identity" or self.bound == 0.0

    def noise(self, tags) -> list[float]:
        """Noise of each query in ``tags``, tuples of four ints.  Uniform
        noise is bound * (2u - 1), where u in [0, 1) is the first 8 bytes of
        the blake2b digest of (seed, tag), read as a little-endian integer
        and divided by 2**64."""
        bound = self.bound
        if self.is_identity:
            return [0.0] * len(tags)
        if self.mode == "adversarial_extremes":
            return [bound if sum(tag) % 2 == 0 else -bound for tag in tags]
        pack, seed = _KEY.pack, self.seed
        digests = [blake2b(pack(seed, *tag), digest_size=8).digest() for tag in tags]
        return [
            bound * (2.0 * (int.from_bytes(d, "little") / 2.0**64) - 1.0)
            for d in digests
        ]

    def perturb(self, exact_values, tags) -> np.ndarray:
        """``exact_values + noise(tags)``, drawn in one call;
        |result - exact_values| <= bound.  ``exact_values`` holds one value
        per tag, or one value for every tag."""
        return np.add(exact_values, self.noise(tags))
