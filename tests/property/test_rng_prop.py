"""Property: a named stream yields one sequence, however it is drawn.

``RngStreams.jitter`` keeps no generator for a name it has drawn once,
and rebuilds it, past that draw, when the name is drawn again. The
reference below keeps every generator from its first use, as
``RngStreams`` did before. Any interleaving of jitters (zero scales
included) and direct stream draws on repeated names must give the same
numbers from both. And the module's contract holds: adding a consumer
never moves another consumer's draws.
"""

import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngStreams

NAMES = ("pipeline/p1", "startup/c1", "wamrmem/c1", "backoff/p1")

seeds = st.one_of(st.just(0), st.integers(min_value=2**32, max_value=2**70))

#: (kind, name, jitter scale)
draws = st.lists(
    st.tuples(
        st.sampled_from(("jitter", "random", "normal")),
        st.sampled_from(NAMES),
        st.sampled_from((0.0, 0.25, 3.0)),
    ),
    max_size=30,
)


class KeepEveryGenerator:
    """Reference streams: one generator per name, kept from its first use."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.streams = {}

    def stream(self, name: str) -> np.random.Generator:
        if name not in self.streams:
            key = zlib.crc32(name.encode("utf-8"))
            self.streams[name] = np.random.default_rng(
                np.random.SeedSequence([self.seed, key])
            )
        return self.streams[name]

    def jitter(self, name: str, scale: float) -> float:
        return abs(float(self.stream(name).normal(0.0, scale)))


def draw(rng, kind: str, name: str, scale: float) -> float:
    if kind == "jitter":
        return rng.jitter(name, scale)
    if kind == "random":
        return float(rng.stream(name).random())
    return float(rng.stream(name).normal())


@settings(max_examples=150, deadline=None)
@given(seed=seeds, sequence=draws)
def test_draws_equal_a_reference_that_keeps_every_generator(seed, sequence):
    rng, reference = RngStreams(seed), KeepEveryGenerator(seed)
    for kind, name, scale in sequence:
        assert draw(rng, kind, name, scale) == draw(reference, kind, name, scale)


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    sequence=draws,
    added=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # where it draws
            st.sampled_from(("jitter", "random", "normal")),
            st.sampled_from((0.0, 0.25, 3.0)),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_adding_a_consumer_never_moves_another_consumers_draws(seed, sequence, added):
    merged = list(sequence)
    for at, kind, scale in added:
        merged.insert(at % (len(merged) + 1), (kind, "added/consumer", scale))

    def existing_draws(steps):
        rng = RngStreams(seed)
        out = [(name, draw(rng, kind, name, scale)) for kind, name, scale in steps]
        return [pair for pair in out if pair[0] != "added/consumer"]

    assert existing_draws(merged) == existing_draws(sequence)
