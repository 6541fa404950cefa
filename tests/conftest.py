import numpy as np
import pytest

from ran_topo.graph import FeatureMatrix, build_graph


def make_features(coords, extra=None):
    """FeatureMatrix from (lat, lon) pairs plus optional extra columns."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    if extra is None:
        values = coords
        columns = ("lat", "lon")
    else:
        extra = np.asarray(extra, dtype=float).reshape(len(coords), -1)
        values = np.hstack([coords, extra])
        columns = ("lat", "lon") + tuple(f"f{i}" for i in range(extra.shape[1]))
    return FeatureMatrix(columns, values)


def make_graph(n, edges, coords=None, extra=None):
    """Small test graph with string ids n0..n{N-1}."""
    ids = [f"n{i}" for i in range(n)]
    if coords is None:
        coords = [(0.0, 0.001 * i) for i in range(n)]
    named_edges = [(ids[a], ids[b]) for a, b in edges]
    return build_graph(ids, named_edges, make_features(coords, extra))


def random_graph(rng, max_nodes=12, edge_prob=0.3):
    n = int(rng.integers(3, max_nodes + 1))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    coords = [
        (float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180))) for _ in range(n)
    ]
    return make_graph(n, edges, coords)


def edge_set(graph):
    """The graph's edges as a set of (i, j) index pairs with i < j."""
    return set(map(tuple, graph.edge_array.tolist()))


def adjacency_sets(n, edges):
    """Each of n nodes' neighbor indices as a set, from (i, j) index pairs."""
    adjacency = [set() for _ in range(n)]
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def csr_neighbors(graph):
    """Each node's neighbor indices as a set, read from the CSR arrays."""
    return [set(graph.indices[graph.indptr[v] : graph.indptr[v + 1]].tolist()) for v in range(graph.n)]


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return make_graph(3, [(0, 1), (1, 2)])
