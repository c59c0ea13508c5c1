"""Property tests: closed-form distance oracles vs the Dijkstra fallback.

For every structured topology, at a sweep of sizes and dimension shapes,
the attached oracle must return *exactly* the same distance as the cached
Dijkstra path for every node pair — the byte-identity of golden traces
rests on it.  ``diameter`` and ``eccentricity`` must agree too (the
closed forms replaced a max-over-rows scan that was O(n^2) even on a
clique).

``Graph.metric_mst_weight`` is checked against two independent
references: Kruskal over the pairwise distances of the oracle-free copy
(exact for integer weights), and the row-based Prim it replaced (bit for
bit, which matters for float weights).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import topologies
from repro.network.graph import Graph
from repro.network.oracles import OracleRow, estimate_matrix_bytes


def strip_oracle(g: Graph) -> Graph:
    """A same-structure graph forced onto the explicit Dijkstra path."""
    bare = Graph(g.num_nodes, g.edges(), name=g.name)
    assert bare.oracle is None
    return bare


def assert_oracle_exact(g: Graph) -> None:
    assert g.oracle is not None, f"{g.name}: expected an oracle"
    bare = strip_oracle(g)
    n = g.num_nodes
    for u in range(n):
        row = bare.distances_from(u)
        fast = g.distances_from(u)
        for v in range(n):
            assert g.distance(u, v) == row[v], (g.name, u, v)
            assert fast[v] == row[v], (g.name, u, v)
        assert g.eccentricity(u) == bare.eccentricity(u), (g.name, u)
    assert g.diameter() == bare.diameter(), g.name


CASES = [
    *[topologies.clique(n, w) for n in (1, 2, 3, 7) for w in (1, 3)],
    *[topologies.line(n, w) for n in (1, 2, 9) for w in (1, 2)],
    *[topologies.ring(n, w) for n in (3, 4, 8, 9) for w in (1, 4)],
    *[topologies.grid(dims, w) for dims in ([5], [1, 4], [3, 4], [2, 3, 2]) for w in (1, 2)],
    *[topologies.torus(dims, w) for dims in ([3], [3, 5], [4, 4], [3, 3, 4]) for w in (1, 3)],
    *[topologies.hypercube(d, w) for d in (1, 2, 4) for w in (1, 2)],
    *[
        topologies.cluster_graph(a, b, c)
        for a, b, c in ((1, 5, 7), (2, 2, 9), (3, 4, 6), (4, 1, 2), (5, 3, 3))
    ],
    *[
        topologies.star_graph(a, b, w)
        for a, b, w in ((1, 5, 1), (3, 4, 2), (5, 1, 1), (2, 3, 3))
    ],
    *[
        topologies.tree(b, d, w)
        for b, d, w in ((1, 5, 1), (2, 0, 1), (2, 3, 2), (3, 2, 1), (4, 2, 3))
    ],
]


@pytest.mark.parametrize("g", CASES, ids=lambda g: g.name)
def test_oracle_matches_dijkstra_exactly(g):
    assert_oracle_exact(g)


def test_float_weights_get_no_oracle():
    assert topologies.clique(5, 1.5).oracle is None
    assert topologies.line(5, 0.25).oracle is None
    assert topologies.grid([3, 3], 2.0).oracle is None
    assert topologies.torus([3, 3], 0.5).oracle is None
    assert topologies.hypercube(3, 1.5).oracle is None
    assert topologies.star_graph(2, 2, 2.5).oracle is None
    assert topologies.tree(2, 2, 1.5).oracle is None
    assert topologies.cluster_graph(2, 2, 2.5).oracle is None


def test_unstructured_topologies_get_no_oracle():
    assert topologies.butterfly(2).oracle is None
    assert topologies.random_geometric(12, 0.6, seed=1).oracle is None


def test_bool_weight_is_not_exact():
    # bools are ints in Python; weights of True would be legal but weird —
    # the exactness gate deliberately excludes them.
    assert topologies.clique(4, True).oracle is None


def test_oracle_graph_never_runs_dijkstra():
    g = topologies.torus([30, 30])
    g.distance(0, 550)
    g.distances_from(17)
    g.eccentricity(3)
    g.diameter()
    assert not g._dist, "oracle graph materialised a Dijkstra row"


def test_oracle_row_cache_is_bounded():
    g = topologies.grid([20, 20])
    for src in range(g.num_nodes):
        g.distances_from(src)
    assert len(g._oracle_rows) <= Graph.ORACLE_ROW_CACHE_MAX


def test_oracle_row_view_matches_row():
    g = topologies.cluster_graph(3, 4, 5)
    view = OracleRow(g.oracle, 7)
    row = g.distances_from(7)
    assert [view[v] for v in range(g.num_nodes)] == list(row)


def test_distance_avoiding_ignores_oracle():
    # Cut-aware queries must keep the explicit path: cutting the direct
    # ring edge (0,1) forces the long way round regardless of the oracle.
    g = topologies.ring(6)
    cut = frozenset({(0, 1)})
    assert g.distance(0, 1) == 1
    assert g.distance_avoiding(0, 1, cut) == 5


def test_neighborhood_alias():
    g = topologies.line(9)
    assert g.neighborhood(4, 2) == g.ball(4, 2)


def test_estimate_matrix_bytes_monotone():
    assert estimate_matrix_bytes(10_000) > estimate_matrix_bytes(1_000) > 0


def test_distances_match_distance_for_every_oracle():
    for g in CASES:
        orc = g.oracle
        targets = [v for v in range(g.num_nodes) for _ in range(2)][::-1]
        for src in range(g.num_nodes):
            assert orc.distances(src, targets) == [orc.distance(src, v) for v in targets]
            assert orc.row(src) == orc.distances(src, range(g.num_nodes))


# ---------------------------------------------------------------------------
# metric MST: subset Prim vs independent references
# ---------------------------------------------------------------------------

MST_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def kruskal_mst_weight(g: Graph, subset) -> float:
    """Kruskal over every pairwise distance of the subset."""
    pts = sorted(set(subset))
    pairs = sorted(
        (g.distance(u, v), u, v) for i, u in enumerate(pts) for v in pts[i + 1:]
    )
    parent = {p: p for p in pts}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    total = 0
    for w, u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


def row_prim_mst_weight(self: Graph, subset) -> float:
    """``Graph.metric_mst_weight`` as it was before it ran over the subset
    alone (one full ``distances_from`` row per tree node), verbatim."""
    pts = sorted(set(subset))
    for p in pts:
        self._check_node(p)
    if len(pts) <= 1:
        return 0
    # Prim's algorithm on the metric closure; O(s^2) distance lookups.
    in_tree = {pts[0]}
    best = {}
    d0 = self.distances_from(pts[0])
    for p in pts[1:]:
        best[p] = d0[p]
    total = 0
    while best:
        nxt = min(best, key=lambda p: best[p])
        total += best.pop(nxt)
        in_tree.add(nxt)
        dn = self.distances_from(nxt)
        for p in list(best):
            if dn[p] < best[p]:
                best[p] = dn[p]
    return total


@st.composite
def oracle_graphs(draw):
    """Every topology that attaches a closed-form oracle, small sizes."""
    kind = draw(st.sampled_from(
        ["clique", "line", "ring", "grid", "torus", "hypercube", "cluster", "star", "tree"]
    ))
    w = draw(st.integers(1, 3))
    if kind == "clique":
        g = topologies.clique(draw(st.integers(1, 9)), w)
    elif kind == "line":
        g = topologies.line(draw(st.integers(1, 12)), w)
    elif kind == "ring":
        g = topologies.ring(draw(st.integers(3, 12)), w)
    elif kind == "grid":
        g = topologies.grid(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), w)
    elif kind == "torus":
        g = topologies.torus(draw(st.lists(st.integers(3, 5), min_size=1, max_size=2)), w)
    elif kind == "hypercube":
        g = topologies.hypercube(draw(st.integers(1, 4)), w)
    elif kind == "cluster":
        beta = draw(st.integers(1, 4))
        g = topologies.cluster_graph(
            draw(st.integers(1, 4)), beta, draw(st.integers(beta, beta + 4))
        )
    elif kind == "star":
        g = topologies.star_graph(draw(st.integers(1, 4)), draw(st.integers(1, 4)), w)
    else:
        g = topologies.tree(draw(st.integers(1, 3)), draw(st.integers(0, 3)), w)
    assert g.oracle is not None, g.name
    return g


@st.composite
def oracle_free_graphs(draw):
    """Graphs on the Dijkstra path: random geometric (integer weights)
    and float-weighted cliques, lines and grids.  Grid distances tie a
    lot, so the order Prim adds its edges in shows in the float sum."""
    kind = draw(st.sampled_from(["random_geometric", "clique", "line", "grid"]))
    n = draw(st.integers(1, 12))
    w = draw(st.sampled_from([0.1, 0.3, 0.7, 1 / 3, 2.5]))
    if kind == "random_geometric":
        g = topologies.random_geometric(n, 0.5, seed=draw(st.integers(0, 10_000)))
    elif kind == "clique":
        g = topologies.clique(n, w)
    elif kind == "line":
        g = topologies.line(n, w)
    else:
        g = topologies.grid([draw(st.integers(1, 4)), draw(st.integers(1, 4))], w)
    assert g.oracle is None, g.name
    return g


def subsets(g: Graph):
    return st.lists(st.integers(0, g.num_nodes - 1), max_size=10)


@given(data=st.data())
@MST_SETTINGS
def test_metric_mst_exact_on_oracle_topologies(data):
    g = data.draw(oracle_graphs())
    pts = data.draw(subsets(g))
    got = g.metric_mst_weight(pts)
    assert not g._oracle_rows and not g._dist, "MST built a distance row"
    assert got == kruskal_mst_weight(g.copy(oracle=False), pts)
    ref = row_prim_mst_weight(g, pts)
    assert got == ref and type(got) is type(ref)


@given(data=st.data())
@MST_SETTINGS
def test_metric_mst_bit_identical_without_oracle(data):
    g = data.draw(oracle_free_graphs())
    pts = data.draw(subsets(g))
    got = g.metric_mst_weight(pts)
    ref = row_prim_mst_weight(g.copy(), pts)
    assert got == ref and type(got) is type(ref), (got, ref)
    if all(isinstance(w, int) for _, _, w in g.edges()):
        assert got == kruskal_mst_weight(g, pts)


@pytest.mark.parametrize(
    "dims, w, pts",
    [([3, 3], 0.1, [1, 2, 3, 7, 8]), ([4, 3], 0.7, [1, 3, 5, 8, 9]), ([4, 4], 1 / 3, [0, 1, 6, 8, 9])],
)
def test_metric_mst_float_edge_order_is_pinned(dims, w, pts):
    # Several candidates tie at the minimum here; which one Prim takes
    # first fixes the order of the float additions, so the last bits.
    g = topologies.grid(dims, w)
    assert g.metric_mst_weight(pts) == row_prim_mst_weight(g.copy(), pts)


def test_metric_mst_builds_no_row_at_scale():
    g = topologies.grid([100, 100])
    pts = [0, 9_999, 5_050, 123, 7_777, 4_242, 8_080, 31]
    assert g.metric_mst_weight(pts) == kruskal_mst_weight(g, pts)
    assert not g._oracle_rows and not g._dist
