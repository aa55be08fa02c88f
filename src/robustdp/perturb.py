"""Deterministic bounded-perturbation oracles for inexact backups.

Models approximate backup computation: every queried backup value may be
offset by a noise term eta with |eta| <= bound.  Noise is a pure function of
(seed, query tag) where the tag is (step, sweep_phase, state, action), so
replays and concurrently evaluated sweeps see identical values regardless of
evaluation order.  Sweep phase 0 is the improvement sweep; phases 1..M label
the partial-evaluation sweeps of a step.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

MODES = ("identity", "uniform_noise", "adversarial_extremes")


def _unit(seed: int, tag) -> float:
    """Deterministic u in [0, 1) keyed on (seed, tag)."""
    payload = struct.pack("<5q", int(seed), *(int(x) for x in tag))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


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

    def noise(self, tag) -> float:
        if self.is_identity:
            return 0.0
        if self.mode == "adversarial_extremes":
            return self.bound if sum(int(x) for x in tag) % 2 == 0 else -self.bound
        return self.bound * (2.0 * _unit(self.seed, tag) - 1.0)

    def perturb(self, exact_value: float, tag) -> float:
        """Perturbed value; |result - exact_value| <= bound."""
        return float(exact_value) + self.noise(tag)
