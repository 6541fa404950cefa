"""The array-native graph against the set-based code it replaced.

The oracles below are the earlier implementations, kept verbatim in logic:
neighbor sums by ``np.add.at`` over the sorted edge set, and pair sampling
over Python sets of index tuples. The array code must reproduce them
exactly (bit for bit for the neighbor mean, element for element for the
pairs), because trained parameters and report bundles depend on both.
"""

import numpy as np
import pytest

from conftest import adjacency_sets, edge_set, make_graph, random_graph
from ran_topo import models
from ran_topo.candidate import CandidateConfig, candidates
from ran_topo.errors import ValidationError
from ran_topo.pipeline import (
    predict_new_node,
    sample_pairs,
)
from ran_topo.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def network():
    cfg = SynthConfig(
        sites=40, cells_per_site=(2, 4), bbox=(57.0, 57.1, 11.5, 11.7),
        radius_km=3.0, bands=3, seed=5,
    )
    return generate(cfg).graph


def oracle_neighbor_mean(graph, x):
    n = graph.n
    sums = np.zeros((n, x.shape[1]))
    deg = np.zeros(n)
    if graph.num_edges:
        edge_arr = np.array(sorted(edge_set(graph)))
        i, j = edge_arr[:, 0], edge_arr[:, 1]
        np.add.at(sums, i, x[j])
        np.add.at(sums, j, x[i])
        np.add.at(deg, i, 1.0)
        np.add.at(deg, j, 1.0)
    return sums / np.maximum(deg, 1.0)[:, None]


def oracle_sample_pairs(graph, eval_nodes, mode, seed=0):
    eval_idx = sorted(graph.rows_of(eval_nodes).tolist())
    eval_set = set(eval_idx)
    n = graph.n
    edges = edge_set(graph)

    def labeled(chosen):
        pairs = np.array(chosen, dtype=np.int64).reshape(-1, 2)
        labels = np.array([1 if (i, j) in edges else 0 for i, j in chosen], dtype=np.int64)
        return pairs, labels

    def incident():
        out = []
        for e in eval_idx:
            for j in range(n):
                if j == e or (j in eval_set and j < e):
                    continue
                out.append((min(e, j), max(e, j)))
        return out

    if isinstance(mode, CandidateConfig):
        seen = set()
        for e in eval_idx:
            for cand_id, _ in candidates(graph, graph.ids[e], mode):
                j = graph.index_of(cand_id)
                seen.add((min(e, j), max(e, j)))
        return labeled(sorted(seen))
    if mode == "all_pairs":
        return labeled(sorted(incident()))

    adjacency = adjacency_sets(n, edges)
    positives = sorted(
        {(min(e, nb), max(e, nb)) for e in eval_idx for nb in adjacency[e]}
    )
    needed = len(positives)
    n_eval = len(eval_idx)
    available = n_eval * (n - n_eval) + n_eval * (n_eval - 1) // 2 - needed
    if needed > available:
        raise ValidationError("oracle")
    rng = np.random.default_rng(seed)
    negatives = set()
    if needed > available // 2:
        pool = sorted({pair for pair in incident() if pair not in edges})
        negatives = {pool[i] for i in rng.choice(len(pool), size=needed, replace=False)}
    else:
        eval_arr = np.array(eval_idx)
        while len(negatives) < needed:
            batch = max(64, 2 * (needed - len(negatives)))
            es = eval_arr[rng.integers(0, n_eval, size=batch)]
            js = rng.integers(0, n, size=batch)
            for e, j in zip(es.tolist(), js.tolist()):
                if j == e:
                    continue
                pair = (min(e, j), max(e, j))
                if pair in edges or pair in negatives:
                    continue
                negatives.add(pair)
                if len(negatives) == needed:
                    break
    pairs = np.array(positives + sorted(negatives), dtype=np.int64).reshape(-1, 2)
    labels = np.concatenate([np.ones(needed, dtype=np.int64), np.zeros(needed, dtype=np.int64)])
    return pairs, labels


def assert_same_pairs(graph, eval_nodes, mode, seed):
    got = sample_pairs(graph, eval_nodes, mode, seed=seed)
    pairs, labels = oracle_sample_pairs(graph, eval_nodes, mode, seed=seed)
    assert got.pairs.dtype == np.int64 and got.labels.dtype == np.int64
    assert np.array_equal(got.pairs, pairs)
    assert np.array_equal(got.labels, labels)


class TestNeighborMean:
    def test_random_graphs_bit_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            g = random_graph(rng, max_nodes=30, edge_prob=float(rng.uniform(0.05, 0.6)))
            x = rng.normal(size=(g.n, 5))
            assert np.array_equal(models.neighbor_mean(g, x), oracle_neighbor_mean(g, x))

    def test_edgeless_graph(self):
        g = make_graph(4, [])
        x = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(models.neighbor_mean(g, x), np.zeros((4, 2)))

    def test_isolated_nodes(self):
        g = make_graph(6, [(0, 3), (3, 5), (0, 5)])
        x = np.random.default_rng(1).normal(size=(6, 3))
        got = models.neighbor_mean(g, x)
        assert np.array_equal(got, oracle_neighbor_mean(g, x))
        assert np.array_equal(got[[1, 2, 4]], np.zeros((3, 3)))

    def test_network_scale_bit_identical(self, network):
        g = network
        x = np.random.default_rng(2).normal(size=(g.n, 8))
        assert np.array_equal(models.neighbor_mean(g, x), oracle_neighbor_mean(g, x))

    def test_row_subset_matches_full(self, network):
        g = network
        x = np.random.default_rng(3).normal(size=(g.n, 8))
        rows = np.array([5, 0, 17, 5, g.n - 1])
        assert np.array_equal(models.neighbor_mean(g, x, rows), models.neighbor_mean(g, x)[rows])


class TestCsr:
    def test_csr_agrees_with_adjacency_and_edges(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 26))
            # each edge listed in a random direction, some twice; the reference
            # edge set and adjacency come from this list, not from the graph
            listed = [
                (i, j) if rng.random() < 0.5 else (j, i)
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
            ]
            listed += listed[: len(listed) // 3]
            edges = {(min(a, b), max(a, b)) for a, b in listed}
            adjacency = adjacency_sets(n, edges)
            g = make_graph(n, listed)
            assert g.indptr[0] == 0 and g.indptr[-1] == 2 * g.num_edges
            for v in range(g.n):
                row = g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()
                assert sorted(row) == sorted(adjacency[v])
                assert g.degree[v] == len(row)
                # summation order: neighbors above v ascending, then below v ascending
                above = [u for u in row if u > v]
                below = [u for u in row if u < v]
                assert row == above + below and above == sorted(above) and below == sorted(below)
            assert np.array_equal(g.edge_array, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))

    def test_has_edges_matches_set(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, max_nodes=20, edge_prob=0.3)
        i, j = np.meshgrid(np.arange(g.n), np.arange(g.n), indexing="ij")
        got = g.has_edges(i.ravel(), j.ravel())
        edges = edge_set(g)
        expected = [(min(a, b), max(a, b)) in edges for a, b in zip(i.ravel().tolist(), j.ravel().tolist())]
        assert got.tolist() == expected

    def test_arrays_are_read_only(self, triangle):
        for arr in (triangle.edge_array, triangle.indptr, triangle.indices, triangle.degree):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestSamplePairs:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_balanced_sparse_case(self, seed, network):
        g = network
        eval_nodes = g.ids[seed::9]
        assert_same_pairs(g, eval_nodes, "balanced", seed=seed)
        assert_same_pairs(g, g.ids, "balanced", seed=seed)  # how training draws

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_balanced_dense_case(self, seed):
        rng = np.random.default_rng(seed)
        g = make_graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.45])
        assert_same_pairs(g, g.ids, "balanced", seed=seed)
        assert_same_pairs(g, g.ids[:4], "balanced", seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_pairs(self, seed):
        g = random_graph(np.random.default_rng(seed), max_nodes=25)
        assert_same_pairs(g, g.ids[::3], "all_pairs", seed=seed)

    @pytest.mark.parametrize("seed,k,max_dist", [(0, 5, 1.0), (1, 12, 2.5), (2, 40, np.inf)])
    def test_candidate_filtered(self, seed, k, max_dist, network):
        mode = CandidateConfig(k=k, max_dist=max_dist)
        assert_same_pairs(network, network.ids[seed::7], mode, seed=seed)


class TestCandidateOnlyEmbedding:
    @pytest.mark.parametrize("k", [1, 2, 7, 60])
    def test_scores_match_full_embedding(self, k, network):
        g = network
        x = np.random.default_rng(k).normal(size=(g.n, g.features.values.shape[1]))
        params = models.init_params("gnn", k=x.shape[1], hidden=16, embed=16, seed=k)
        new_x = x[3] + 0.1
        coords = tuple(g.features.coords()[3])
        pred = predict_new_node(params, g, x, new_x, coords, CandidateConfig(k=k), cutoff=0.0)
        embedded = models.sage_embed(params, models.model_input(params, x, g))
        full = np.vstack([embedded, models.new_node_row(params, new_x)[None, :]])
        got = dict(pred.neighbors)
        assert len(got) == k
        cand = np.array([g.index_of(c) for c in got])
        expected = models.symmetric_score_batch(params, full, np.column_stack([np.full(k, g.n), cand]))
        np.testing.assert_allclose([got[c] for c in got], expected, rtol=0, atol=1e-12)
