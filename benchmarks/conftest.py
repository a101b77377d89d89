"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark regenerates one table/figure of the paper: it runs the
deployments behind it (through the full simulated stack), prints the
series the paper plots, writes it to ``benchmarks/output/``, and asserts
the paper's qualitative relations. Timings reported by pytest-benchmark
measure the regeneration harness itself.

Experiments are memoized process-wide by the campaign engine
(`repro.measure.series.execute_cells`), so figures sharing bars (e.g.
crun-wamr appears in Figs 3-7 and 10) don't re-simulate identical
deployments.
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Seed for the whole benchmark campaign.
SEED = 1


def emit(name: str, text: str) -> None:
    """Print a figure's rows and persist them under benchmarks/output/."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def seed() -> int:
    return SEED
