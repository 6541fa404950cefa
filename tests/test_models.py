import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_graph
from grad_oracle import make_loss_fn
from ran_topo import models
from ran_topo.errors import ValidationError
from ran_topo.neural import sigmoid
from ran_topo.pipeline import make_scorer


def tiny_mlp(w1, w2, w3, b1=None, b2=None, b3=None):
    arrays = {}
    for layer, w, b in (("1", w1, b1), ("2", w2, b2), ("3", w3, b3)):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        arrays["w" + layer] = w
        arrays["b" + layer] = np.zeros(w.shape[0]) if b is None else np.asarray(b, float)
    return models.params_from_dict("mlp", arrays)


def zero_mlp(k=2, h=3):
    return tiny_mlp(np.zeros((h, 2 * k)), np.zeros((h, h)), np.zeros((1, h)))


def with_sage(ws, head):
    """GNN params: SAGE weights ``ws`` (zero bias) in front of an MLP head."""
    ws = np.asarray(ws, dtype=float)
    return models.params_from_dict("gnn", {"ws": ws, "bs": np.zeros(ws.shape[0]), **head})


def embed(params, x, g):
    """The GNN's SAGE embeddings of features ``x`` over graph ``g``."""
    return models.sage_embed(params, models.model_input(params, x, g))


def pair_score(params, a, b):
    """Symmetric score of one pair of rows."""
    return models.symmetric_score_batch(params, np.array([a, b], dtype=float), np.array([[0, 1]]))[0]


class TestMlpScore:
    def test_zero_params_give_half(self):
        params = zero_mlp()
        assert pair_score(params, [1.0, -2.0], [0.3, 4.0]) == 0.5

    def test_hand_composition(self):
        # k=1, h=1: W1=[[1,1]], W2=[[1]], W3=[[1]] -> sigmoid((1 + 2) + |1 - 2|)
        params = tiny_mlp([[1.0, 1.0]], [[1.0]], [[1.0]])
        score = pair_score(params, [1.0], [2.0])
        assert score == pytest.approx(sigmoid(4.0), rel=1e-15)
        assert score == pytest.approx(0.982014, abs=1e-6)

    def test_relu_kills_negative_signal(self):
        # negative first-layer weights and positive inputs: everything dies
        # at the first relu, so the output is sigmoid(b3)
        params = tiny_mlp([[-1.0, -1.0]], [[1.0]], [[1.0]], b3=[0.7])
        score = pair_score(params, [2.0], [3.0])
        assert score == pytest.approx(sigmoid(0.7), rel=1e-15)

    def test_shape_mismatch(self):
        # params for 2 features per cell, data with 1: refused before scoring
        params = zero_mlp(k=2)
        with pytest.raises(ValidationError, match=re.escape("take features as an (N, 2) array, got shape (2, 1)")):
            make_scorer(params, models.model_input(params, np.array([[1.0], [2.0]])))

    @pytest.mark.parametrize("shape", [(8,), (1, 1, 8), (5, 7)])
    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_misshapen_features_name_both_shapes(self, kind, shape):
        # the message names the (N, k) shape the params take and the one given,
        # not a width the data may well have
        params = models.init_params(kind, k=8, hidden=4, embed=4)
        with pytest.raises(ValidationError, match=re.escape(f"an (N, 8) array, got shape {shape}")):
            models.model_input(params, np.zeros(shape), make_graph(5, []))

    @pytest.mark.parametrize("shape", [(1, 8), (7,), ()])
    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_misshapen_new_cell_names_both_shapes(self, kind, shape):
        params = models.init_params(kind, k=8, hidden=4, embed=4)
        with pytest.raises(ValidationError, match=re.escape(f"must have shape (8,), got {shape}")):
            models.new_node_row(params, np.zeros(shape))

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            params = models.init_params("mlp", k=3, hidden=4, seed=seed)
            x_i, x_j = rng.normal(size=3) * 100, rng.normal(size=3) * 100
            s = pair_score(params, x_i, x_j)
            assert 0.0 < s < 1.0


class TestSageEmbed:
    def test_isolated_node_zero_neighborhood(self):
        g = make_graph(1, [])
        params = with_sage([[1.0, 1.0, 2.0, 2.0]], zero_mlp(k=1, h=2))
        x = np.array([[3.0, 4.0]])
        emb = embed(params, x, g)
        # concat(x, 0): 1*3 + 1*4 + 0 + 0
        assert emb.tolist() == [[7.0]]

    def test_identical_features_symmetric(self):
        g = make_graph(2, [(0, 1)])
        params = models.init_params("gnn", k=2, hidden=3, embed=3, seed=1)
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        emb = embed(params, x, g)
        assert np.array_equal(emb[0], emb[1])

    def test_path_mean_aggregation(self):
        # 3-node path, k=1 features [1,2,3], W=[[1,1]]:
        # node0: 1 + 2 = 3, node1: 2 + (1+3)/2 = 4, node2: 3 + 2 = 5
        g = make_graph(3, [(0, 1), (1, 2)])
        params = with_sage([[1.0, 1.0]], zero_mlp(k=1, h=2))
        emb = embed(params, np.array([[1.0], [2.0], [3.0]]), g)
        assert emb[:, 0].tolist() == [3.0, 4.0, 5.0]

    def test_embeddings_nonnegative(self):
        rng = np.random.default_rng(2)
        g = make_graph(6, [(0, 1), (1, 2), (3, 4)])
        params = models.init_params("gnn", k=4, hidden=3, embed=5, seed=3)
        emb = embed(params, rng.normal(size=(6, 4)), g)
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
            emb = embed(params, x, g)
            x_perm = np.empty_like(x)
            x_perm[perm] = x
            emb_perm = embed(params, x_perm, g_perm)
            assert np.allclose(emb_perm[perm], emb, atol=1e-12)

    def test_one_hop_locality(self):
        # changing features two hops away leaves an embedding unchanged
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        params = models.init_params("gnn", k=2, hidden=3, embed=3, seed=4)
        x = np.arange(8.0).reshape(4, 2)
        x2 = x.copy()
        x2[3] = [100.0, -50.0]  # node 3 is 2+ hops from node 0 and 1
        a = embed(params, x, g)
        b = embed(params, x2, g)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[3], b[3])


class TestGnnScore:
    def test_zero_head_gives_half(self):
        params = with_sage(np.zeros((2, 4)), zero_mlp(k=2, h=3))
        assert pair_score(params, [1.0, 2.0], [3.0, 4.0]) == 0.5

    def test_tiny_hand_value(self):
        # d=1, h=1 head: sigmoid((e_i + e_j) + |e_i - e_j|)
        params = with_sage(np.zeros((1, 2)), tiny_mlp([[1.0, 1.0]], [[1.0]], [[1.0]]))
        assert pair_score(params, [0.5], [1.5]) == pytest.approx(sigmoid(3.0), rel=1e-15)

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_no_edges_degenerates_to_feature_mlp(self, kind):
        # with every edge removed the embedding uses only own features, as a
        # new cell's row does
        g_empty = make_graph(3, [])
        params = models.init_params(kind, k=2, hidden=3, embed=3, seed=5)
        x = np.array([[1.0, -1.0], [0.5, 2.0], [3.0, 0.0]])
        rows = models.node_rows(params, models.model_input(params, x, g_empty))
        for v in range(3):
            assert np.array_equal(rows[v], models.new_node_row(params, x[v]))


class TestSymmetricScore:
    def test_symmetry_by_construction(self):
        params = models.init_params("mlp", k=3, hidden=4, seed=6)
        x = np.random.default_rng(7).normal(size=(5, 3))
        for i in range(5):
            for j in range(5):
                a = models.symmetric_score_batch(params, x, np.array([[i, j]]))[0]
                b = models.symmetric_score_batch(params, x, np.array([[j, i]]))[0]
                assert a == b

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_identical_rows_have_no_difference_gradient(self, kind):
        # sign(0) = 0: a pair of identical rows puts no gradient into w1's
        # |r_a - r_b| columns and sends both endpoints the same input gradient
        rng = np.random.default_rng(3)
        init = models.init_params(kind, k=2, hidden=4, embed=3, seed=3)
        params = {name: arr + rng.normal(scale=0.1, size=arr.shape) for name, arr in init.items()}
        if kind == "gnn":
            # the inputs differ only in the columns the SAGE layer ignores, so
            # they embed alike, and ws's gradient there is each endpoint's own
            params["ws"][:, 2:] = 0.0
            params["bs"] += 1.0  # every embedding entry positive: every input gradient reaches ws
            inputs = np.array([[0.3, -0.7, 1.0, 0.0], [0.3, -0.7, 0.0, 1.0]])
        else:
            inputs = np.array([[0.3, -0.7], [0.3, -0.7]])
        _, grads = models.loss_and_grads(params, inputs, np.array([[0, 1]]), np.array([1.0]))
        half = params["w1"].shape[1] // 2
        assert np.any(grads["w1"][:, :half])
        assert not np.any(grads["w1"][:, half:])
        if kind == "gnn":
            assert np.any(grads["ws"][:, 2])
            assert np.array_equal(grads["ws"][:, 2], grads["ws"][:, 3])


class TestScoreBlocks:
    @pytest.mark.parametrize("n_pairs", [1, 2, 5, 9, 17])
    def test_blocks_match_one_pass(self, monkeypatch, n_pairs):
        rng = np.random.default_rng(4)
        params = models.init_params("mlp", k=3, hidden=5, seed=1)
        x = rng.normal(size=(6, 3))
        pairs = rng.integers(0, 6, size=(n_pairs, 2))
        one_pass = models.symmetric_score_batch(params, x, pairs)
        sizes = []
        head_tail = models._head_tail  # every block passes here

        def recording(d, a1):
            sizes.append(len(a1))
            return head_tail(d, a1)

        monkeypatch.setattr(models, "SCORE_BLOCK", 4)
        monkeypatch.setattr(models, "_head_tail", recording)
        blocked = models.symmetric_score_batch(params, x, pairs)
        np.testing.assert_allclose(blocked, one_pass, rtol=0, atol=1e-15)
        assert sum(sizes) == n_pairs  # every pair once
        assert max(sizes) <= 4
        # no block of one pair unless the batch is one pair
        assert min(sizes) >= min(2, n_pairs)

    @pytest.mark.parametrize("n_pairs", [6, 7, 9, 17])
    def test_decomposed_blocks_are_the_pair_input_blocks(self, monkeypatch, n_pairs):
        """Over 6 rows, a batch of either kind decomposes its first layer
        whatever its size: it never builds a pair input, gathers each
        block's pairs once, in ``np.array_split`` blocks, and runs the
        layers above on each."""
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 6, size=(n_pairs, 2))
        ends, tail = models._ends, models._head_tail

        def no_pair_input(r, block):
            raise AssertionError("scoring built a pair input")

        for params, width in (
            (models.init_params("mlp", k=3, hidden=5, seed=1), 3),
            (models.init_params("gnn", k=3, hidden=5, embed=4, seed=1), 4),
        ):
            rows = rng.normal(size=(6, width))
            gathered, sizes = [], []

            def recording_ends(r, block):
                gathered.append(block)
                return ends(r, block)

            def recording_tail(d, a1):
                sizes.append(len(a1))
                return tail(d, a1)

            with monkeypatch.context() as patch:
                patch.setattr(models, "SCORE_BLOCK", 4)
                patch.setattr(models, "_ends", recording_ends)
                patch.setattr(models, "_head_tail", recording_tail)
                patch.setattr(models, "_pair_input", no_pair_input)
                scores = models.symmetric_score_batch(params, rows, pairs)
            assert np.array_equal(np.concatenate(gathered), pairs)  # every pair once, in order
            assert sizes == [len(block) for block in gathered]
            assert sizes == [len(block) for block in np.array_split(pairs, -(-n_pairs // 4))]
            one_at_a_time = [models.symmetric_score_batch(params, rows, pairs[i : i + 1])[0] for i in range(n_pairs)]
            np.testing.assert_allclose(scores, one_at_a_time, rtol=0, atol=1e-15)

    def test_memory_is_a_few_block_buffers_beyond_the_scores(self):
        width = 64
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(500, width))
        pairs = rng.integers(0, len(rows), size=(100_000, 2))
        block_input = models.SCORE_BLOCK * 2 * width * 8  # two rows a pair, a block's, in bytes
        # both kinds decompose: the GNN over 64-wide embeddings, the MLP over
        # 64 features a cell
        for params in (
            models.init_params("gnn", k=8, embed=width, hidden=width, seed=2),
            models.init_params("mlp", k=width, hidden=width, seed=2),
        ):
            tracemalloc.start()
            try:
                scores = models.symmetric_score_batch(params, rows, pairs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one block's arrays, whatever the batch: the rows' gathers and
            # the projection's (the 500 x 64 projection beside them), and
            # two hidden layers, each half as wide
            assert peak <= scores.nbytes + 3 * block_input, peak
            # and a block is cache-sized, so they are a few MB
            assert peak <= scores.nbytes + 4 * 2**20, peak

    @pytest.mark.parametrize("pair", [[0, 6], [6, 0], [-7, 1], [-1, 1]])
    def test_pair_out_of_range_raises(self, pair):
        pairs = np.array([[1, 2], pair])
        params = models.init_params("mlp", k=3, hidden=5, seed=1)
        x = np.random.default_rng(4).normal(size=(6, 3))
        with pytest.raises(IndexError):
            models.symmetric_score_batch(params, x, pairs)
        # training gathers its pairs the same way, for either kind
        for kind in ("mlp", "gnn"):
            params = models.init_params(kind, k=3, hidden=5, embed=4, seed=1)
            inputs = x if kind == "mlp" else np.concatenate([x, x], axis=1)
            with pytest.raises(IndexError):
                models.loss_and_grads(params, inputs, pairs, np.array([1.0, 0.0]))


class TestInitParams:
    def test_same_seed_identical(self):
        a = models.init_params("gnn", k=8, seed=11)
        b = models.init_params("gnn", k=8, seed=11)
        for name, arr in a.items():
            assert np.array_equal(arr, b[name])

    def test_different_seeds_differ(self):
        a = models.init_params("mlp", k=8, seed=1)
        b = models.init_params("mlp", k=8, seed=2)
        assert not np.array_equal(a["w1"], b["w1"])

    def test_glorot_bounds(self):
        params = models.init_params("mlp", k=8, hidden=64, seed=3)
        for layer in "123":
            w = params["w" + layer]
            bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.all(np.abs(w) <= bound)
            assert np.all(params["b" + layer] == 0.0)

    def test_default_paper_shapes(self):
        mlp = models.init_params("mlp", k=8)
        assert mlp["w1"].shape == (64, 16)
        assert mlp["w2"].shape == (64, 64)
        assert mlp["w3"].shape == (1, 64)
        gnn = models.init_params("gnn", k=8)
        assert gnn["ws"].shape == (64, 16)
        # concat of two 64-dim embeddings: the head widens to 128 inputs
        assert gnn["w1"].shape == (64, 128)

    def test_bad_dims(self):
        with pytest.raises(ValidationError, match="dims must be positive, got k=0"):
            models.init_params("mlp", k=0)
        with pytest.raises(ValidationError, match="unknown model kind 'vae'"):
            models.init_params("vae", k=8)


class TestConstructionEquivalence:
    def test_identity_sage_reproduces_mlp(self):
        # W_sage = [I | 0], b = 0 on nonnegative features: e_v = x_v, so the
        # GNN head IS the MLP
        k = 3
        mlp = models.init_params("mlp", k=k, hidden=4, seed=8)
        gnn = with_sage(np.hstack([np.eye(k), np.zeros((k, k))]), mlp)
        x = np.abs(np.random.default_rng(9).normal(size=(5, k)))
        emb = embed(gnn, x, make_graph(5, []))  # no edges: e = x
        pairs = np.array([(0, 1), (2, 4), (3, 0)])
        np.testing.assert_allclose(
            models.symmetric_score_batch(gnn, emb, pairs),
            models.symmetric_score_batch(mlp, x, pairs),
            rtol=1e-15,
        )


def _wide_w2(d):
    d["w2"] = np.zeros((d["w2"].shape[0], d["w2"].shape[1] + 1))


def _two_logits(d):
    d["w3"], d["b3"] = np.zeros((2, d["w3"].shape[1])), np.zeros(2)


def _short_bias(d):
    d["b1"] = d["b1"][:-1]


def _odd_first_layer(d):
    d["w1"] = np.zeros((d["w1"].shape[0], 3))


def _flat_weight(d):
    d["w2"] = d["w2"].ravel()


def _head_not_embedding_pair(d):
    d["ws"], d["bs"] = np.zeros((5, d["ws"].shape[1])), np.zeros(5)


def _missing_array(d):
    del d["b3"]


def _extra_array(d):
    d["w4"] = np.zeros((1, 1))


BROKEN_CHAINS = {
    "mlp": [_wide_w2, _two_logits, _short_bias, _odd_first_layer, _flat_weight, _missing_array, _extra_array],
    "gnn": [_wide_w2, _head_not_embedding_pair, _missing_array],
}
REFUSAL = {
    _wide_w2: "params array 'w2' has shape",
    _two_logits: "params array 'w3' has shape",
    _short_bias: "params array 'b1' has shape",
    _odd_first_layer: "params array 'w1' has shape",
    _flat_weight: "params array 'w2' has shape",
    _head_not_embedding_pair: "params array 'w1' has shape",
    _missing_array: "params need arrays",
    _extra_array: "params need arrays",
}


def _wrong_arrays(kind):
    """(name, array) for each array of ``kind``: its last dimension one too
    long, a weight flattened to 1-D and a bias made 2-D."""
    for name, arr in models.init_params(kind, k=3, hidden=4, embed=2, seed=0).items():
        shape = arr.shape[:-1] + (arr.shape[-1] + 1,)
        yield name, np.zeros(shape)
        yield name, arr.ravel() if arr.ndim == 2 else arr[None]


class TestParamsFromDict:
    @pytest.mark.parametrize(
        "kind,defect",
        [(kind, defect) for kind, defects in BROKEN_CHAINS.items() for defect in defects],
        ids=lambda v: v if isinstance(v, str) else v.__name__.strip("_"),
    )
    def test_broken_layer_chain(self, kind, defect):
        d = dict(models.init_params(kind, k=3, hidden=4, embed=2, seed=0))
        defect(d)
        with pytest.raises(ValidationError, match=REFUSAL[defect]):
            models.params_from_dict(kind, d)

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_every_array_has_its_table_shape(self, kind):
        for name, wrong in _wrong_arrays(kind):
            d = dict(models.init_params(kind, k=3, hidden=4, embed=2, seed=0), **{name: wrong})
            with pytest.raises(ValidationError, match=f"{kind} params array '{name}'"):
                models.params_from_dict(kind, d)

    def test_gnn_arrays_are_not_mlp_params(self):
        gnn = models.init_params("gnn", k=3, hidden=4, embed=2, seed=0)
        with pytest.raises(ValidationError, match="mlp params need arrays"):
            models.params_from_dict("mlp", gnn)

    def test_cast_and_ordered(self):
        d = models.init_params("gnn", k=1, hidden=1, embed=1, seed=0)
        ints = {name: arr.astype(np.int64) for name, arr in reversed(list(d.items()))}
        params = models.params_from_dict("gnn", ints)
        assert list(params) == ["ws", "bs", "w1", "b1", "w2", "b2", "w3", "b3"]
        assert all(arr.dtype == np.float64 for arr in params.values())

    def test_kind_is_read_from_the_keys(self):
        assert models.kind_of(models.init_params("mlp", k=8, seed=0)) == "mlp"
        assert models.kind_of(models.init_params("gnn", k=8, seed=0)) == "gnn"


class TestSerialization:
    def test_round_trip_exact(self):
        for kind in ("mlp", "gnn"):
            params = models.init_params(kind, k=3, hidden=5, embed=4, seed=12)
            back = models.params_from_json(models.params_to_json(params))
            assert models.kind_of(back) == kind
            for name, arr in params.items():
                assert np.array_equal(arr, back[name])


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
        loss_fn = make_loss_fn(kind, x, pairs, labels, graph=graph if kind == "gnn" else None)
        init = models.init_params(kind, k=3, hidden=4, embed=4, seed=2)
        d = {name: arr + rng.normal(scale=0.1, size=arr.shape) for name, arr in init.items()}
        for name, arr in d.items():
            for delta in (1e-3, -1e-3):
                batched = loss_fn.coordinate_losses(d, name, delta)
                one_at_a_time = []
                for idx in range(arr.size):
                    moved = arr.copy()
                    moved.flat[idx] += delta
                    one_at_a_time.append(loss_fn({**d, name: moved}))
                np.testing.assert_allclose(batched, one_at_a_time, rtol=0, atol=1e-12)
