"""Named deterministic random streams.

Every stochastic term in the simulation (startup jitter, allocator slack)
draws from a stream named after the component that uses it. Streams are
derived from a root seed with SeedSequence spawning, so adding a new
consumer never perturbs the draws of existing ones — experiments stay
reproducible across library versions as long as stream names are stable.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

from repro.errors import SimulationError


class RngStreams:
    """Factory of independent, seeded :class:`numpy.random.Generator`\\ s."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        if self._seed < 0:
            # SeedSequence would raise a bare ValueError on first use.
            raise SimulationError(f"seed must be non-negative, got {seed}")
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical sequence.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Stable 32-bit hash of the name; Python's hash() is salted per
            # process and would break determinism.
            name_key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self._seed, name_key])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def jitter(self, name: str, scale: float) -> float:
        """One absolute half-normal jitter draw with std ``scale``."""
        return abs(float(self.stream(name).normal(0.0, scale)))

    def fork(self, salt: int) -> "RngStreams":
        """Derive an independent stream family (e.g. one per repetition)."""
        return RngStreams(seed=(self._seed * 1_000_003 + salt) & 0x7FFFFFFF)
