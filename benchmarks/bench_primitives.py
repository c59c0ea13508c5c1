"""E19 — Microbenchmarks of the core primitives.

Real timing benchmarks (multiple rounds, pytest-benchmark statistics) for
the operations every scheduler leans on: the coloring interval sweep,
cached shortest-path queries, metric MSTs, padded decompositions, and a
full greedy scheduling step.  These guard against performance regressions
in the hot paths the guides told us to keep lean.
"""

import numpy as np
import pytest

from repro.core.coloring import min_valid_color, min_valid_color_multiple
from repro.cover.decomposition import padded_decomposition
from repro.network import topologies


@pytest.fixture(scope="module")
def big_constraints():
    rng = np.random.default_rng(0)
    return [(int(c), int(w)) for c, w in zip(rng.integers(0, 500, 200), rng.integers(1, 20, 200))]


@pytest.mark.benchmark(group="E19-primitives")
def test_perf_min_valid_color(benchmark, big_constraints):
    result = benchmark(min_valid_color, big_constraints)
    assert result >= 1


@pytest.mark.benchmark(group="E19-primitives")
def test_perf_min_valid_color_multiple(benchmark, big_constraints):
    result = benchmark(min_valid_color_multiple, big_constraints, 4)
    assert result % 4 == 0


@pytest.mark.benchmark(group="E19-primitives")
def test_perf_distance_cached(benchmark):
    g = topologies.grid([16, 16])
    g.distances_from(0)  # warm the cache

    def query():
        total = 0
        for v in range(0, 256, 5):
            total += g.distance(0, v)
        return total

    assert benchmark(query) > 0


@pytest.mark.benchmark(group="E19-primitives")
def test_perf_metric_mst(benchmark):
    g = topologies.grid([12, 12])
    nodes = list(range(0, 144, 7))
    result = benchmark(g.metric_mst_weight, nodes)
    assert result > 0


@pytest.mark.benchmark(group="E19-primitives")
def test_perf_metric_mst_huge_grid(benchmark):
    # Nine points on n = 10^4 nodes: the cost must follow the points, not
    # n.  Each round gets a fresh graph, so no distance row is warm from
    # an earlier round (the 12x12 case above fits every row in the oracle
    # row cache and would hide a per-row cost).
    nodes = list(range(17, 10_000, 1_237))
    graphs = []

    def fresh():
        graphs.append(topologies.grid([100, 100]))
        return (graphs[-1], nodes), {}

    result = benchmark.pedantic(
        lambda g, pts: g.metric_mst_weight(pts), setup=fresh, rounds=20, iterations=1
    )
    assert result > 0
    assert not any(g._oracle_rows for g in graphs), "metric MST built an O(n) row"


@pytest.mark.benchmark(group="E19-primitives")
def test_perf_padded_decomposition(benchmark):
    g = topologies.grid([8, 8])

    def decompose():
        rng = np.random.default_rng(1)
        return padded_decomposition(g, radius=10, pad=1, rng=rng)

    clusters, padded, _ = benchmark(decompose)
    assert clusters


@pytest.mark.benchmark(group="E19-primitives")
def test_perf_greedy_batch_step(benchmark):
    from repro.analysis import run_experiment
    from repro.core import GreedyScheduler
    from repro.workloads import BatchWorkload

    g = topologies.clique(64)

    def run():
        wl = BatchWorkload.uniform(g, num_objects=32, k=3, seed=2)
        return run_experiment(g, GreedyScheduler(), wl, compute_ratios=False)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.trace.num_txns == 64
