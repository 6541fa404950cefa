import numpy as np
import pytest

from conftest import csr_neighbors, edge_set, make_features, make_graph, random_graph
from ran_topo.errors import ValidationError
from ran_topo.graph import RanGraph, build_graph, key_pairs, pair_keys, remove_nodes, split_nodes, unique_keys


class TestBuildGraph:
    def test_undirected_dedup(self):
        fm = make_features([(0, 0), (0, 1), (0, 2)])
        g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "a")], fm)
        assert g.num_edges == 1
        assert g.has_edges(g.index_of("a"), g.index_of("b"))

    def test_self_loop_rejected(self):
        fm = make_features([(0, 0)])
        with pytest.raises(ValidationError, match="self-loop on node 'a'"):
            build_graph(["a"], [("a", "a")], fm)

    def test_unknown_endpoint(self):
        fm = make_features([(0, 0), (0, 1)])
        with pytest.raises(ValidationError, match="edge endpoint 'c' is not a node"):
            build_graph(["a", "b"], [("a", "c")], fm)

    def test_feature_row_mismatch(self):
        fm = make_features([(0, 0)])
        with pytest.raises(ValidationError, match="1 feature rows for 2 nodes"):
            build_graph(["a", "b"], [], fm)

    def test_integer_ids_round_trip(self):
        fm = make_features([(0, 0), (0, 1)])
        g = build_graph([10, 20], [(10, 20)], fm)
        assert edge_set(g) == {(g.index_of(10), g.index_of(20))}
        assert g.ids[g.index_of(20)] == 20

    @pytest.mark.parametrize(
        "ids, node",
        [([10, 20], 1), ([10, 20], 0), (["a", "b"], True), (["a", "b"], 0)],
        ids=["int_ids_index_1", "int_ids_index_0", "str_ids_true", "str_ids_index_0"],
    )
    def test_an_index_is_not_an_id(self, ids, node):
        g = build_graph(ids, [tuple(ids)], make_features([(0, 0), (0, 1)]))
        with pytest.raises(ValidationError, match="unknown cell id"):
            g.index_of(node)
        with pytest.raises(ValidationError, match="unknown cell id"):
            g.rows_of([ids[0], node])

    def test_holds_the_id_map_it_checked_the_edges_with(self):
        # the map is built once, while the ids are checked, not again on first lookup
        g = build_graph(["c", "a", "b"], [("a", "c")], make_features([(0, 0), (0, 1), (0, 2)]))
        assert g.__dict__["_index"] == {"c": 0, "a": 1, "b": 2}

    def test_rows_of_keeps_order_and_repeats(self):
        """Also on a graph built from index pairs, as remove_nodes and the
        generator build theirs: its id map is derived on first lookup."""
        fm = make_features([(0, 0), (0, 1), (0, 2)])
        for g in (
            build_graph(["a", "b", "c"], [], fm),
            RanGraph(("a", "b", "c"), np.array([[0, 2]], dtype=np.int64), fm),
        ):
            rows = g.rows_of(["c", "a", "c"])
            assert rows.dtype == np.int64 and rows.tolist() == [2, 0, 2]
            assert g.rows_of(()).dtype == np.int64 and g.rows_of(()).shape == (0,)
            assert [g.index_of(node) for node in g.ids] == [0, 1, 2]
            with pytest.raises(ValidationError, match="unknown cell id"):
                g.rows_of(["a", 1])


class TestPairKeys:
    def test_one_key_per_unordered_pair_and_back(self):
        n = 7
        i, j = np.divmod(np.arange(n * n, dtype=np.int64), n)
        keys = pair_keys(i, j, n)
        assert np.array_equal(keys, pair_keys(j, i, n))
        pairs = key_pairs(keys, n)
        assert np.array_equal(pairs, np.column_stack([np.minimum(i, j), np.maximum(i, j)]))
        # (min, max) order is key order, and distinct pairs get distinct keys
        lower = i < j
        assert np.array_equal(np.argsort(keys[lower]), np.lexsort((j[lower], i[lower])))
        assert len(np.unique(keys)) == n * (n + 1) // 2

    @pytest.mark.parametrize("keys", [
        np.empty(0, dtype=np.int64),
        np.full(9, 41, dtype=np.int64),
        np.random.default_rng(3).integers(0, 500, size=2_000),
        np.random.default_rng(4).integers(0, 2**40, size=2_000),
    ], ids=["empty", "all_duplicates", "random_dense", "random_sparse"])
    def test_unique_keys_is_np_unique(self, keys):
        got, want = unique_keys(keys), np.unique(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRemoveNodes:
    def test_path_disconnection(self, path3):
        g = remove_nodes(path3, {"n1"})
        assert set(g.ids) == {"n0", "n2"}
        assert g.num_edges == 0

    def test_identity_case(self, triangle):
        g = remove_nodes(triangle, set())
        assert g.ids == triangle.ids
        assert np.array_equal(g.edge_array, triangle.edge_array)

    def test_single_removal(self, triangle):
        g = remove_nodes(triangle, {"n2"})
        assert set(g.ids) == {"n0", "n1"}
        assert g.num_edges == 1

    def test_input_unchanged(self, triangle):
        remove_nodes(triangle, {"n0"})
        assert triangle.n == 3
        assert triangle.num_edges == 3

    def test_unknown_node(self, triangle):
        with pytest.raises(ValidationError, match="unknown cell id 'zz'"):
            remove_nodes(triangle, {"zz"})


class TestSplitNodes:
    def test_floor_arithmetic(self):
        g = make_graph(20, [(0, 1)])
        s = split_nodes(g, (0.9, 0.05, 0.05), seed=0)
        assert (len(s.train_nodes), len(s.val_nodes), len(s.test_nodes)) == (18, 1, 1)

    def test_determinism(self):
        g = make_graph(20, [(0, 1), (2, 3)])
        a = split_nodes(g, (0.9, 0.05, 0.05), seed=5)
        b = split_nodes(g, (0.9, 0.05, 0.05), seed=5)
        assert a.train_nodes == b.train_nodes
        assert a.val_nodes == b.val_nodes
        assert a.test_nodes == b.test_nodes

    def test_alternate_ratios(self):
        g = make_graph(100, [(0, 1)])
        s = split_nodes(g, (0.8, 0.1, 0.1), seed=0)
        assert (len(s.train_nodes), len(s.val_nodes), len(s.test_nodes)) == (80, 10, 10)

    def test_bad_ratios(self, triangle):
        with pytest.raises(ValidationError, match="split ratios sum to"):
            split_nodes(triangle, (0.5, 0.4, 0.2), seed=0)
        with pytest.raises(ValidationError, match="split ratios must be positive"):
            split_nodes(triangle, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ValidationError, match="need 3 split ratios"):
            split_nodes(triangle, (0.9, 0.1), seed=0)
        with pytest.raises(ValidationError, match="need 3 split ratios"):
            split_nodes(triangle, (0.9, 0.05, 0.05, 0.0), seed=0)
        with pytest.raises(ValidationError, match="split ratios must be positive"):
            split_nodes(triangle, (float("nan"), 0.5, 0.5), seed=0)

    def test_too_small(self):
        g = make_graph(2, [])
        with pytest.raises(ValidationError, match="cannot split a graph with 2 nodes"):
            split_nodes(g, (0.4, 0.3, 0.3), seed=0)

    def test_no_validation_cell_refused(self):
        g = make_graph(8, [(0, 1)])
        with pytest.raises(ValidationError, match="validation ratio of 0.01 leaves no validation cell among 8 cells"):
            split_nodes(g, (0.98, 0.01, 0.01), seed=0)

    def test_empty_test_split_allowed(self):
        g = make_graph(10, [(0, 1)])
        s = split_nodes(g, (0.8, 0.15, 0.05), seed=0)
        assert (len(s.train_nodes), len(s.val_nodes), len(s.test_nodes)) == (9, 1, 0)

    @staticmethod
    def three_list_rule(graph, ratios, seed):
        """The split as three separately sliced and sorted lists: the reference."""
        n_val = int(np.floor(graph.n * ratios[1]))
        n_test = int(np.floor(graph.n * ratios[2]))
        n_train = graph.n - n_val - n_test
        order = np.random.default_rng(seed).permutation(graph.n)
        train_idx = sorted(order[:n_train].tolist())
        val_idx = sorted(order[n_train : n_train + n_val].tolist())
        test_idx = sorted(order[n_train + n_val :].tolist())
        return tuple(tuple(graph.ids[i] for i in idx) for idx in (train_idx, val_idx, test_idx))

    @pytest.mark.parametrize("n, ratios", [
        (101, (0.9, 0.05, 0.05)),
        (101, (0.8, 0.1, 0.1)),
        (37, (0.9, 0.05, 0.05)),
        (37, (0.8, 0.1, 0.1)),
        (10, (0.85, 0.1, 0.05)),  # an empty test part
    ])
    def test_equals_the_three_list_rule(self, n, ratios):
        g = make_graph(n, [(0, 1)])  # ids n0, n1, ..., n10: graph order is not id order
        for seed in range(10):
            s = split_nodes(g, ratios, seed=seed)
            assert (s.train_nodes, s.val_nodes, s.test_nodes) == self.three_list_rule(g, ratios, seed)


class TestProperties:
    def test_neighbor_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = random_graph(rng)
            rows = csr_neighbors(g)
            for v in range(g.n):
                for nb in rows[v]:
                    assert v in rows[nb]

    def test_remove_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = random_graph(rng)
            nodes = list(g.ids)
            s1 = set(rng.choice(nodes, size=rng.integers(0, len(nodes) // 2 + 1), replace=False))
            rest = [x for x in nodes if x not in s1]
            s2 = set(rng.choice(rest, size=rng.integers(0, len(rest) // 2 + 1), replace=False)) if rest else set()
            two_step = remove_nodes(remove_nodes(g, s1), s2)
            one_step = remove_nodes(g, s1 | s2)
            assert set(two_step.ids) == set(one_step.ids)
            assert {frozenset((two_step.ids[i], two_step.ids[j])) for i, j in edge_set(two_step)} == {
                frozenset((one_step.ids[i], one_step.ids[j])) for i, j in edge_set(one_step)
            }

    def test_split_partition_and_masking(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_graph(rng)
            seed = int(rng.integers(1 << 30))
            if g.n < 5:  # floor(N * 0.2) = 0: a split with no validation cell is refused
                with pytest.raises(ValidationError, match="no validation cell among"):
                    split_nodes(g, (0.6, 0.2, 0.2), seed=seed)
                continue
            s = split_nodes(g, (0.6, 0.2, 0.2), seed=seed)
            all_nodes = set(s.train_nodes) | set(s.val_nodes) | set(s.test_nodes)
            assert all_nodes == set(g.ids)
            assert not (set(s.train_nodes) & set(s.val_nodes))
            assert not (set(s.train_nodes) & set(s.test_nodes))
            assert not (set(s.val_nodes) & set(s.test_nodes))

    def test_build_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_graph(rng)
            rebuilt = build_graph(list(g.ids), g.edge_list(), g.features)
            assert rebuilt.ids == g.ids
            assert edge_set(rebuilt) == edge_set(g)
            assert np.array_equal(rebuilt.indptr, g.indptr)
            assert np.array_equal(rebuilt.indices, g.indices)
