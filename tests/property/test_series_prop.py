"""Property tests: every shipped series' cells are deduped and seed-stable."""

from hypothesis import given, settings, strategies as st

from repro.measure.series import SHIPPED_SERIES, series_cells

NAMES = st.sampled_from(sorted(SHIPPED_SERIES))
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(NAMES, SEEDS)
def test_expansion_never_duplicates_cells(name, seed):
    cells = series_cells(name, seed)
    keys = [cell.key for cell in cells]
    assert len(keys) == len(set(keys))
    assert len(cells) == len(series_cells(name))


@settings(max_examples=60, deadline=None)
@given(NAMES, SEEDS)
def test_expansion_is_deterministic(name, seed):
    first = series_cells(name, seed)
    assert first == series_cells(name, seed)
    assert {cell.seed for cell in first} == {seed}
