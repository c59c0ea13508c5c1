"""Oracle matrix for the engine's incrementally maintained structures.

The dependency tracker's conflict adjacency and the pending index are
updated by delta at every lifecycle event instead of being rebuilt.  Every
bundled scheduler runs here in four workload regimes and three seeds under
the independent oracle of ``tests/test_dependency.py``
(:func:`run_under_oracle`): each constraint query is compared with the
full scan, the pending index with its definition after every step, and
plain greedy's commits with a fresh Algorithm 1 coloring.
"""

from __future__ import annotations

import pytest

from repro.cli import SCHEDULER_NAMES
from test_dependency import run_under_oracle

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_closed_runs_identical(name, seed):
    run_under_oracle(name, seed=seed, mode="closed")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_streaming_runs_identical(name, seed):
    run_under_oracle(name, seed=seed, mode="streaming")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_faulty_runs_identical(name, seed):
    run_under_oracle(name, seed=seed, mode="faulty")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_service_runs_identical(name, seed):
    run_under_oracle(name, seed=seed, mode="service")
