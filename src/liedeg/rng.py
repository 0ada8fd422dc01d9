"""Deterministic random-number plumbing.

Every stochastic routine in the package draws from an `RngHandle`, a
(seed, stream) pair mapped to an independent PCG64 stream.  Identical
handles replay identical draws on any platform, which is what makes the
report files byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class RngHandle:
    """Seeded RNG handle; `stream` separates independent consumers."""

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an integer in [0, 2^64)")

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
            self._gen = np.random.default_rng(ss)
        return self._gen


def as_generator(rng) -> np.random.Generator:
    """Accept an RngHandle, a Generator, or an int seed."""
    if isinstance(rng, RngHandle):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    return RngHandle(int(rng)).generator()
