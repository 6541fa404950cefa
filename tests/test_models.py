import math

import numpy as np
import pytest

from conftest import make_graph
from ran_topo import models
from ran_topo.errors import BadDims, IndexOutOfRange, ShapeMismatch
from ran_topo.neural import LinearLayer, sigmoid


def tiny_mlp(w1, w2, w3, b1=None, b2=None, b3=None):
    w1 = np.atleast_2d(np.asarray(w1, dtype=float))
    w2 = np.atleast_2d(np.asarray(w2, dtype=float))
    w3 = np.atleast_2d(np.asarray(w3, dtype=float))
    return models.MlpParams(
        LinearLayer(w1, np.zeros(w1.shape[0]) if b1 is None else np.asarray(b1, float)),
        LinearLayer(w2, np.zeros(w2.shape[0]) if b2 is None else np.asarray(b2, float)),
        LinearLayer(w3, np.zeros(w3.shape[0]) if b3 is None else np.asarray(b3, float)),
    )


def zero_mlp(k=2, h=3):
    return models.MlpParams(
        LinearLayer(np.zeros((h, 2 * k)), np.zeros(h)),
        LinearLayer(np.zeros((h, h)), np.zeros(h)),
        LinearLayer(np.zeros((1, h)), np.zeros(1)),
    )


class TestMlpScore:
    def test_zero_params_give_half(self):
        params = zero_mlp()
        assert models.mlp_score(params, [1.0, -2.0], [0.3, 4.0]) == 0.5

    def test_hand_composition(self):
        # k=1, h=1: W1=[[1,1]], W2=[[1]], W3=[[1]] -> sigmoid(1 + 2)
        params = tiny_mlp([[1.0, 1.0]], [[1.0]], [[1.0]])
        score = models.mlp_score(params, [1.0], [2.0])
        assert score == pytest.approx(sigmoid(3.0), rel=1e-15)
        assert score == pytest.approx(0.952574, abs=1e-6)

    def test_relu_kills_negative_signal(self):
        # negative first-layer weights and positive inputs: everything dies
        # at the first relu, so the output is sigmoid(b3)
        params = tiny_mlp([[-1.0, -1.0]], [[1.0]], [[1.0]], b3=[0.7])
        score = models.mlp_score(params, [2.0], [3.0])
        assert score == pytest.approx(sigmoid(0.7), rel=1e-15)

    def test_shape_mismatch(self):
        params = zero_mlp(k=2)
        with pytest.raises(ShapeMismatch):
            models.mlp_score(params, [1.0], [2.0])

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            params = models.init_params("mlp", k=3, hidden=4, seed=seed)
            x_i, x_j = rng.normal(size=3) * 100, rng.normal(size=3) * 100
            s = models.mlp_score(params, x_i, x_j)
            assert 0.0 < s < 1.0


class TestSageEmbed:
    def test_isolated_node_zero_neighborhood(self):
        g = make_graph(1, [])
        sage = LinearLayer(np.array([[1.0, 1.0, 2.0, 2.0]]), np.zeros(1))
        params = models.GnnParams(sage, zero_mlp(k=1, h=2))
        x = np.array([[3.0, 4.0]])
        emb = models.sage_embed(params, x, g)
        # concat(x, 0): 1*3 + 1*4 + 0 + 0
        assert emb.tolist() == [[7.0]]

    def test_identical_features_symmetric(self):
        g = make_graph(2, [(0, 1)])
        params = models.init_params("gnn", k=2, hidden=3, embed=3, seed=1)
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        emb = models.sage_embed(params, x, g)
        assert np.array_equal(emb[0], emb[1])

    def test_path_mean_aggregation(self):
        # 3-node path, k=1 features [1,2,3], W=[[1,1]]:
        # node0: 1 + 2 = 3, node1: 2 + (1+3)/2 = 4, node2: 3 + 2 = 5
        g = make_graph(3, [(0, 1), (1, 2)])
        sage = LinearLayer(np.array([[1.0, 1.0]]), np.zeros(1))
        params = models.GnnParams(sage, zero_mlp(k=1, h=2))
        emb = models.sage_embed(params, np.array([[1.0], [2.0], [3.0]]), g)
        assert emb[:, 0].tolist() == [3.0, 4.0, 5.0]

    def test_embeddings_nonnegative(self):
        rng = np.random.default_rng(2)
        g = make_graph(6, [(0, 1), (1, 2), (3, 4)])
        params = models.init_params("gnn", k=4, hidden=3, embed=5, seed=3)
        emb = models.sage_embed(params, rng.normal(size=(6, 4)), g)
        assert np.all(emb >= 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = 6
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            x = rng.normal(size=(n, 3))
            params = models.init_params("gnn", k=3, hidden=4, embed=4, seed=trial)
            perm = rng.permutation(n)
            g = make_graph(n, edges)
            g_perm = make_graph(n, [(int(perm[i]), int(perm[j])) for i, j in edges])
            emb = models.sage_embed(params, x, g)
            x_perm = np.empty_like(x)
            x_perm[perm] = x
            emb_perm = models.sage_embed(params, x_perm, g_perm)
            assert np.allclose(emb_perm[perm], emb, atol=1e-12)

    def test_one_hop_locality(self):
        # changing features two hops away leaves an embedding unchanged
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        params = models.init_params("gnn", k=2, hidden=3, embed=3, seed=4)
        x = np.arange(8.0).reshape(4, 2)
        x2 = x.copy()
        x2[3] = [100.0, -50.0]  # node 3 is 2+ hops from node 0 and 1
        a = models.sage_embed(params, x, g)
        b = models.sage_embed(params, x2, g)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[3], b[3])


class TestGnnScore:
    def test_zero_head_gives_half(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = models.GnnParams(
            LinearLayer(np.zeros((2, 4)), np.zeros(2)), zero_mlp(k=2, h=3)
        )
        assert models.gnn_score(params, emb, 0, 1) == 0.5

    def test_tiny_hand_value(self):
        # d=1, h=1 head: sigmoid(e_i + e_j)
        params = models.GnnParams(
            LinearLayer(np.zeros((1, 2)), np.zeros(1)),
            tiny_mlp([[1.0, 1.0]], [[1.0]], [[1.0]]),
        )
        emb = np.array([[0.5], [1.5]])
        assert models.gnn_score(params, emb, 0, 1) == pytest.approx(
            sigmoid(2.0), rel=1e-15
        )

    def test_index_out_of_range(self):
        params = models.GnnParams(
            LinearLayer(np.zeros((1, 2)), np.zeros(1)), zero_mlp(k=1, h=2)
        )
        with pytest.raises(IndexOutOfRange):
            models.gnn_score(params, np.zeros((2, 1)), 0, 5)

    def test_no_edges_degenerates_to_feature_mlp(self):
        # with every edge removed the embedding uses only own features
        g_empty = make_graph(3, [])
        params = models.init_params("gnn", k=2, hidden=3, embed=3, seed=5)
        x = np.array([[1.0, -1.0], [0.5, 2.0], [3.0, 0.0]])
        emb = models.sage_embed(params, x, g_empty)
        for v in range(3):
            expected = models.new_node_embedding(params, x[v])
            assert np.array_equal(emb[v], expected)


class TestSymmetricScore:
    def test_symmetry_by_construction(self):
        params = models.init_params("mlp", k=3, hidden=4, seed=6)
        x = np.random.default_rng(7).normal(size=(5, 3))
        for i in range(5):
            for j in range(5):
                a = models.symmetric_score_batch(params, x, np.array([[i, j]]))[0]
                b = models.symmetric_score_batch(params, x, np.array([[j, i]]))[0]
                assert a == b

    def test_mean_of_both_orders(self):
        params = tiny_mlp([[1.0, 2.0]], [[1.0]], [[1.0]])  # asymmetric in inputs
        x = np.array([[1.0], [3.0]])
        raw_ij = models.mlp_score(params, x[0], x[1])
        raw_ji = models.mlp_score(params, x[1], x[0])
        sym = models.symmetric_score_batch(params, x, np.array([[0, 1]]))[0]
        assert sym == pytest.approx((raw_ij + raw_ji) / 2.0, rel=1e-15)
        assert raw_ij != raw_ji

    def test_generic_helper(self):
        calls = []

        def score(a, b):
            calls.append((a, b))
            return 0.25 if (a, b) == (0, 1) else 0.75

        assert models.symmetric_score(score, 0, 1) == 0.5
        assert calls == [(0, 1), (1, 0)]


class TestInitParams:
    def test_same_seed_identical(self):
        a = models.init_params("gnn", seed=11)
        b = models.init_params("gnn", seed=11)
        for name, arr in models.params_to_dict(a).items():
            assert np.array_equal(arr, models.params_to_dict(b)[name])

    def test_different_seeds_differ(self):
        a = models.init_params("mlp", seed=1)
        b = models.init_params("mlp", seed=2)
        assert not np.array_equal(a.layer1.w, b.layer1.w)

    def test_glorot_bounds(self):
        params = models.init_params("mlp", k=8, hidden=64, seed=3)
        for layer in (params.layer1, params.layer2, params.layer3):
            bound = math.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            assert np.all(np.abs(layer.w) <= bound)
            assert np.all(layer.b == 0.0)

    def test_default_paper_shapes(self):
        mlp = models.init_params("mlp")
        assert mlp.layer1.w.shape == (64, 16)
        assert mlp.layer2.w.shape == (64, 64)
        assert mlp.layer3.w.shape == (1, 64)
        gnn = models.init_params("gnn")
        assert gnn.sage.w.shape == (64, 16)
        # concat of two 64-dim embeddings: the head widens to 128 inputs
        assert gnn.head.layer1.w.shape == (64, 128)

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            models.init_params("mlp", k=0)
        with pytest.raises(BadDims):
            models.init_params("vae")


class TestConstructionEquivalence:
    def test_identity_sage_reproduces_mlp(self):
        # W_sage = [I | 0], b = 0 on nonnegative features: e_v = x_v, so the
        # GNN head IS the MLP
        k = 3
        mlp = models.init_params("mlp", k=k, hidden=4, seed=8)
        sage = LinearLayer(
            np.hstack([np.eye(k), np.zeros((k, k))]), np.zeros(k)
        )
        gnn = models.GnnParams(sage, mlp)
        g = make_graph(5, [(0, 1), (2, 3)])
        x = np.abs(np.random.default_rng(9).normal(size=(5, k)))
        emb = models.sage_embed(gnn, x, make_graph(5, []))  # no edges: e = x
        for i, j in [(0, 1), (2, 4), (3, 0)]:
            assert models.gnn_score(gnn, emb, i, j) == pytest.approx(
                models.mlp_score(mlp, x[i], x[j]), rel=1e-15
            )
        _ = g


class TestSerialization:
    def test_round_trip_exact(self):
        for kind in ("mlp", "gnn"):
            params = models.init_params(kind, k=3, hidden=5, embed=4, seed=12)
            back = models.params_from_json(models.params_to_json(params))
            assert models.kind_of(back) == kind
            for name, arr in models.params_to_dict(params).items():
                assert np.array_equal(arr, models.params_to_dict(back)[name])


class TestLossFn:
    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_coordinate_losses_match_one_at_a_time(self, kind):
        # the batched perturbation path of the gradient checker against the
        # scalar loss with each coordinate actually moved
        rng = np.random.default_rng(8)
        graph = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        x = rng.normal(size=(5, 3))
        pairs = np.array([[0, 1], [2, 4], [3, 0]])
        labels = np.array([1.0, 0.0, 1.0])
        loss_fn = models.make_loss_fn(kind, x, pairs, labels, graph=graph if kind == "gnn" else None)
        init = models.init_params(kind, k=3, hidden=4, embed=4, seed=2)
        d = {name: arr + rng.normal(scale=0.1, size=arr.shape) for name, arr in models.params_to_dict(init).items()}
        for name, arr in d.items():
            for delta in (1e-3, -1e-3):
                batched = loss_fn.coordinate_losses(d, name, delta)
                one_at_a_time = []
                for idx in range(arr.size):
                    moved = arr.copy()
                    moved.flat[idx] += delta
                    one_at_a_time.append(loss_fn({**d, name: moved}))
                np.testing.assert_allclose(batched, one_at_a_time, rtol=0, atol=1e-12)
