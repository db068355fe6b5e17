"""Reproducible random frameworks.

The attack relation is drawn from the stdlib Mersenne Twister
(``random.Random(seed)``): the ordered pairs are scanned in row-major
order (1,1), (1,2), ..., (n,n) and each pair becomes an attack exactly
when the next draw of ``random()`` falls below ``p``. Self-attacks are
included in the scan. ``random.Random`` is specified to produce the same
stream for the same seed on every platform, so a config pins a framework
bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Framework


@dataclass(frozen=True)
class GeneratorConfig:
    """Size, ordered-pair attack probability and seed of a random framework."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"argument count must be a non-negative integer, got {self.n!r}")
        if type(self.p) not in (int, float) or not 0.0 <= self.p <= 1.0:  # True == 1
            raise ValueError(f"attack probability must lie in [0, 1], got {self.p!r}")
        if type(self.seed) is not int:  # random.Random(None) seeds from the OS
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


def generate(cfg: GeneratorConfig) -> Framework:
    """The framework pinned by ``cfg``."""
    rng = random.Random(cfg.seed)
    attacks = [
        (i, j)
        for i in range(1, cfg.n + 1)
        for j in range(1, cfg.n + 1)
        if rng.random() < cfg.p
    ]
    return Framework._checked(cfg.n, frozenset(attacks))
