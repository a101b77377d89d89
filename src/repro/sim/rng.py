"""Named deterministic random streams.

Every stochastic term in the simulation (startup jitter, allocator slack)
draws from a stream named after the component that uses it. Streams are
derived from a root seed with SeedSequence spawning, so adding a new
consumer never perturbs the draws of existing ones — experiments stay
reproducible across library versions as long as stream names are stable.

Most names are drawn once: a deployment's ``pipeline/<pod>``,
``startup/<container>`` and ``wamrmem/<container>`` jitters. So
:meth:`RngStreams.jitter` draws a new name from a generator it then
drops, and records only that the name was drawn once. A generator is
kept from a name's second draw on, or from the first
:meth:`RngStreams.stream` call: it is rebuilt from the same SeedSequence
and advanced past the dropped draw (a scalar ``normal`` consumes exactly
one standard-normal draw, whatever its scale), so a name yields one
sequence whichever way it is drawn.
"""

from __future__ import annotations

import zlib
from typing import Dict, Set

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
        #: names jitter drew once, from a generator it did not keep
        self._drawn_once: Set[str] = set()

    @property
    def seed(self) -> int:
        return self._seed

    def _new_generator(self, name: str) -> np.random.Generator:
        # Stable 32-bit hash of the name; Python's hash() is salted per
        # process and would break determinism.
        name_key = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence([self._seed, name_key]))

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical sequence,
        continuing after any draws :meth:`jitter` already made.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._new_generator(name)
            if name in self._drawn_once:
                self._drawn_once.discard(name)
                gen.standard_normal()
            self._streams[name] = gen
        return gen

    def jitter(self, name: str, scale: float) -> float:
        """One absolute half-normal jitter draw with std ``scale``."""
        if name in self._streams or name in self._drawn_once:
            gen = self.stream(name)
        else:
            self._drawn_once.add(name)
            gen = self._new_generator(name)
        return abs(float(gen.normal(0.0, scale)))

    def fork(self, salt: int) -> "RngStreams":
        """Derive an independent stream family (e.g. one per repetition)."""
        return RngStreams(seed=(self._seed * 1_000_003 + salt) & 0x7FFFFFFF)
