"""The training and scoring kernels against the plain formulas they replace, bit for bit.

Trained parameters and report bundles are byte-identical across changes to
these kernels only if every float they produce is, so each comparison here
is ``np.array_equal`` or ``==``, never a tolerance. The one exception
compares scoring, which decomposes the head's first layer, with the pair
input's head pass that training runs, not a kernel with its reference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.stats import rankdata

import ran_topo
from ran_topo import models, pipeline
from ran_topo.config import ExperimentConfig
from ran_topo.neural import AdamState, adam_step, bce_loss, sigmoid
from ran_topo.synth import SynthConfig, generate

from conftest import make_graph, random_graph


def reference_pair_input(rows, pairs):
    a, b = rows[pairs[:, 0]], rows[pairs[:, 1]]
    return np.concatenate([a + b, np.abs(a - b)], axis=1)


def reference_head_tail(d, a1):
    """The head above its first layer, from first-layer activations ``a1``."""
    z2 = a1 @ d["w2"].T + d["b2"]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ d["w3"].T + d["b3"]
    return np.clip(sigmoid(z3[:, 0]), 1e-12, 1.0 - 1e-12), (z2, a2)


def reference_head(d, pair_input):
    """The head's probabilities and activations as fresh arrays, one expression a layer."""
    z1 = pair_input @ d["w1"].T + d["b1"]
    a1 = np.maximum(z1, 0.0)
    probs, (z2, a2) = reference_head_tail(d, a1)
    return probs, (z1, a1, z2, a2)


def reference_blocks(pairs, block):
    """``pairs`` in ``np.array_split`` blocks of at most ``block`` pairs."""
    n_blocks = -(-len(pairs) // block)
    return np.array_split(pairs, n_blocks) if n_blocks > 1 else [pairs]


def reference_symmetric_scores(params, rows, pairs, block):
    """Symmetric scores in ``np.array_split`` blocks of at most ``block``
    pairs, each block through a fresh head pass."""
    return np.concatenate(
        [reference_head(params, reference_pair_input(rows, p))[0] for p in reference_blocks(pairs, block)]
    )


def reference_decomposed_scores(params, rows, pairs, block):
    """Symmetric scores with the first layer split at its two halves: every
    row's product with the sum half once, then in each block
    relu(proj[a] + proj[b] + |r_a - r_b| @ W1d.T + b1) under a fresh pass
    of the layers above."""
    width = rows.shape[1]
    proj = rows @ params["w1"][:, :width].T
    scores = []
    for p in reference_blocks(pairs, block):
        a, b = p[:, 0], p[:, 1]
        z1 = proj[a] + proj[b] + np.abs(rows[a] - rows[b]) @ params["w1"][:, width:].T + params["b1"]
        scores.append(reference_head_tail(params, np.maximum(z1, 0.0))[0])
    return np.concatenate(scores)


def reference_loss_and_grads(params, x, pairs, labels, graph=None):
    """Mean BCE and gradients as two gathers, a concatenate and two
    sequential ``np.add.at`` scatters compute them."""
    d = params
    rows = x
    if models.kind_of(d) == models.GNN_KIND:
        h = np.concatenate([x, models.neighbor_mean(graph, x)], axis=1)
        pre = h @ d["ws"].T + d["bs"]
        rows = np.maximum(pre, 0.0)
    pair_input = reference_pair_input(rows, pairs)
    probs, (z1, a1, z2, a2) = reference_head(d, pair_input)
    loss = float(np.mean(bce_loss(probs, labels)))
    dz3 = ((probs - labels) / labels.size)[:, None]
    grads = {"w3": dz3.T @ a2, "b3": dz3.sum(axis=0)}
    dz2 = (dz3 @ d["w3"]) * (z2 > 0)
    grads["w2"], grads["b2"] = dz2.T @ a1, dz2.sum(axis=0)
    dz1 = (dz2 @ d["w2"]) * (z1 > 0)
    grads["w1"], grads["b1"] = dz1.T @ pair_input, dz1.sum(axis=0)
    if models.kind_of(d) == models.GNN_KIND:
        dinput = dz1 @ d["w1"]
        width = rows.shape[1]
        g_sum, g_diff = dinput[:, :width], dinput[:, width:]
        sign = np.sign(rows[pairs[:, 0]] - rows[pairs[:, 1]])
        dembed = np.zeros_like(rows)
        np.add.at(dembed, pairs[:, 0], g_sum + sign * g_diff)
        np.add.at(dembed, pairs[:, 1], g_sum - sign * g_diff)
        delta = dembed * (pre > 0)
        grads["ws"], grads["bs"] = delta.T @ h, delta.sum(axis=0)
    return loss, grads


def reference_neighbor_mean(graph, x, rows=None):
    """The sparse product the gather-sum replaced: the given rows of the 0/1
    adjacency matrix, each listing its neighbors in CSR order, times ``x``,
    divided by max(degree, 1)."""
    rows = np.arange(graph.n) if rows is None else np.asarray(rows, dtype=np.int64)
    starts, counts = graph.indptr[rows], graph.degree[rows]
    sub_indptr = np.concatenate([[0], np.cumsum(counts)])
    positions = np.repeat(starts - sub_indptr[:-1], counts) + np.arange(sub_indptr[-1])
    operator = sparse.csr_array(
        (np.ones(len(positions)), graph.indices[positions], sub_indptr), shape=(len(rows), graph.n)
    )
    return (operator @ x) / np.maximum(counts, 1.0)[:, None]


def padded_neighbor_mean(graph, x, rows=None):
    """The gather the slot zeroing replaced: a copy of ``x`` with a zero row
    N appended, gathered at N for every slot past a row's degree."""
    rows = np.arange(graph.n) if rows is None else np.asarray(rows, dtype=np.int64)
    starts, deg = graph.indptr[rows], graph.degree[rows]
    slots = np.arange(deg.max(initial=0))[:, None]
    table = np.where(slots < deg, graph.indices[np.minimum(starts + slots, len(graph.indices) - 1)], graph.n)
    padded = np.concatenate([x, np.zeros((1, x.shape[1]))])
    return padded[table].sum(axis=0) / np.maximum(deg, 1.0)[:, None]


def slot_zeroed_neighbor_mean(graph, x):
    """The whole-graph gather the degree buckets replaced: every row's
    slots up to the maximum degree, the slots past its own degree zeroed."""
    starts, deg = graph.indptr, graph.degree
    slots = np.arange(deg.max(initial=0))[:, None]
    gathered = x[graph.indices[np.minimum(starts[:-1] + slots, len(graph.indices) - 1)]]
    gathered[slots >= deg] = 0.0
    return gathered.sum(axis=0) / np.maximum(deg, 1.0)[:, None]


def masked_sigmoid(x):
    """The sigmoid as two masked assignments, one per sign of the logit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_adam_step(params, grads, state):
    """Adam one parameter array at a time, moments in per-name dicts."""
    state["step"] += 1
    t, lr, b1, b2, eps = state["step"], state["lr"], 0.9, 0.999, 1e-8
    new = {}
    for name, value in params.items():
        g = grads[name]
        m = b1 * state["m"].get(name, np.zeros_like(value)) + (1.0 - b1) * g
        v = b2 * state["v"].get(name, np.zeros_like(value)) + (1.0 - b2) * g * g
        state["m"][name], state["v"][name] = m, v
        new[name] = value - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return new


def reference_auc(scores, labels):
    pos, neg = int((labels == 1).sum()), int((labels == 0).sum())
    ranks = rankdata(scores, method="average")
    return (float(ranks[labels == 1].sum()) - pos * (pos + 1) / 2.0) / (pos * neg)


def jittered_params(kind, rng, **dims):
    init = models.init_params(kind, seed=int(rng.integers(1 << 30)), **dims)
    return {name: value + rng.normal(scale=0.1, size=value.shape) for name, value in init.items()}


@pytest.mark.parametrize("kind", [models.MLP_KIND, models.GNN_KIND])
@pytest.mark.parametrize("seed", range(6))
def test_loss_and_grads_bit_equal_to_the_add_at_reference(kind, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, max_nodes=30, edge_prob=0.3)
    k, n = 5, graph.n
    x = rng.normal(size=(n, k))
    params = jittered_params(kind, rng, k=k, hidden=16, embed=8)
    # few nodes, many pairs: every node is an endpoint many times, on both sides
    pairs = rng.integers(0, n, size=(int(rng.integers(40, 200)), 2))
    labels = rng.integers(0, 2, size=len(pairs)).astype(np.float64)
    graph_arg = graph if kind == models.GNN_KIND else None
    want_loss, want = reference_loss_and_grads(params, x, pairs, labels, graph_arg)
    got_loss, got = models.loss_and_grads(params, models.model_input(params, x, graph_arg), pairs, labels)
    assert got_loss == want_loss
    assert set(got) == set(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def neighbor_mean_graphs():
    rng = np.random.default_rng(11)
    yield from (random_graph(rng, max_nodes=40, edge_prob=p) for p in (0.1, 0.3, 0.6) for _ in range(3))
    yield make_graph(7, [])  # edgeless
    yield make_graph(9, [(0, 1), (1, 2), (0, 2), (4, 5)])  # nodes 3, 6, 7 and 8 isolated
    yield make_graph(25, [(0, j) for j in range(1, 21)])  # a hub of degree 20, four isolated nodes


@pytest.mark.parametrize("graph", neighbor_mean_graphs())
@pytest.mark.parametrize("width", [2, 5])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_neighbor_mean_bit_equal_to_the_sparse_product(graph, width, scale):
    rng = np.random.default_rng(width)
    x = rng.normal(size=(graph.n, width)) * scale
    x[::3, 0] = -0.0  # the sparse product's sums start at +0.0
    assert_bits_equal(models.neighbor_mean(graph, x), reference_neighbor_mean(graph, x))
    subsets = [
        [],
        [0],
        [int(np.argmax(graph.degree))],
        [graph.n - 1, 0, graph.n - 1, 0],  # repeated and out of order
        rng.integers(0, graph.n, size=60),
        rng.permutation(graph.n),
    ]
    for rows in subsets:
        assert_bits_equal(models.neighbor_mean(graph, x, rows), reference_neighbor_mean(graph, x, rows))


@pytest.mark.parametrize("graph", neighbor_mean_graphs())
def test_neighbor_mean_bit_equal_to_the_padded_gather(graph):
    rng = np.random.default_rng(graph.n)
    x = rng.normal(size=(graph.n, 3))
    x[::4, 1] = -0.0
    x[1::5, 2] = np.inf  # a clamped gather past a row's degree must not leak into its sum
    isolated = np.flatnonzero(graph.degree == 0)
    subsets = [
        None,
        [],
        isolated,
        [int(np.argmax(graph.degree))] * 3,
        [graph.n - 1, 0, graph.n - 1, 0],
        rng.integers(0, graph.n, size=50),
    ]
    for rows in subsets:
        assert_bits_equal(models.neighbor_mean(graph, x, rows), padded_neighbor_mean(graph, x, rows))


@pytest.mark.parametrize("rows", [[-1], [-4], [0, -1], [2, -5], [4], [1, 4]])
def test_rows_outside_the_graph_raise(rows):
    """A negative row is refused like one past the end: numpy would read
    row -1 as row 3, whose neighbor mean is [30, 40], not [40, 50]."""
    graph = make_graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    x = np.arange(8.0).reshape(4, 2) * 10
    assert np.array_equal(models.neighbor_mean(graph, x, [3, 0]), [[30.0, 40.0], [20.0, 30.0]])
    with pytest.raises(IndexError):
        models.neighbor_mean(graph, x, rows)
    for kind in (models.MLP_KIND, models.GNN_KIND):
        params = models.init_params(kind, k=2, hidden=3, embed=2)
        with pytest.raises(IndexError):
            models.model_input(params, x, graph, rows)
        with pytest.raises(IndexError):
            models.node_rows(params, models.model_input(params, x, graph, rows))


def shipped_network(name):
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs" / name).read_text())
    return generate(SynthConfig.from_dict(cfg["data"]["synthetic"])).graph


@pytest.mark.parametrize("name", ["default.json", "site-mean-variant.json"])
def test_whole_graph_neighbor_mean_of_the_shipped_networks_bit_equal_to_the_slot_zeroed_gather(name):
    graph = shipped_network(name)
    rng = np.random.default_rng(len(name))
    x = np.concatenate([graph.features.values, rng.normal(size=(graph.n, 3))], axis=1)
    signed_zeros = x.copy()
    signed_zeros[rng.random(x.shape) < 0.2] = -0.0
    # the training graph's view: every cell kept, a tenth of them with no edge left
    isolated = pipeline.mask_to_train_edges(graph, graph.ids[: graph.n * 9 // 10])
    assert (isolated.degree == 0).sum() >= graph.n // 10
    for g in (graph, isolated):
        for features in (x, signed_zeros):
            assert_bits_equal(models.neighbor_mean(g, features), slot_zeroed_neighbor_mean(g, features))


def test_sigmoid_bit_equal_to_the_masked_assignments():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64)
    specials = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0, 710.0, -746.0, 1e-300, -1e-300],
        nans.view(np.float64),
    ])
    rng = np.random.default_rng(8)
    logits = np.concatenate([specials, rng.normal(scale=30.0, size=5000), rng.normal(size=7)])
    for x in (specials, logits, logits[::-1], logits[3:], np.repeat(specials, 9)):
        assert_bits_equal(sigmoid(x), masked_sigmoid(x))
    assert_bits_equal(sigmoid(np.float64(-0.0)), masked_sigmoid(np.float64(-0.0)))


def scored_rows(kind, rng, n):
    """Params of a kind with the rows its head scores: features or embeddings."""
    params = jittered_params(kind, rng, k=8, hidden=64, embed=64)
    rows = rng.normal(size=(n, models.feature_width(params)))
    if kind == models.GNN_KIND:
        rows = models.sage_embed(params, np.concatenate([rows, rng.normal(size=rows.shape)], axis=1))
    return params, rows


@pytest.mark.parametrize("kind", [models.MLP_KIND, models.GNN_KIND])
@pytest.mark.parametrize(
    "n_pairs", [0, 1, 2, 19, 300, 301, models.SCORE_BLOCK, models.SCORE_BLOCK + 1, 3 * models.SCORE_BLOCK + 7]
)
def test_symmetric_scores_bit_equal_to_fresh_blocks(kind, n_pairs):
    """Over 300 rows, every batch of either kind decomposes the first layer,
    with fewer pairs than rows (0-300) or more (301 up)."""
    rng = np.random.default_rng(n_pairs)
    params, rows = scored_rows(kind, rng, 300)
    pairs = rng.integers(0, len(rows), size=(n_pairs, 2))
    want = reference_decomposed_scores(params, rows, pairs, models.SCORE_BLOCK)
    assert_bits_equal(models.symmetric_score_batch(params, rows, pairs), want)


@pytest.mark.parametrize("kind", [models.MLP_KIND, models.GNN_KIND])
def test_decomposed_all_pairs_of_the_default_network_agree_with_the_pair_input_pass(kind):
    """The default experiment's all-pairs (113,582 pairs, 1,533 rows) of
    either kind. The scores stay within 1e-12 of the pair input's head
    pass, and the report is the same."""
    cfg = ExperimentConfig()
    data = pipeline.prepare_experiment(cfg)
    params = pipeline.train(kind, data, cfg).params
    rows = models.node_rows(params, models.model_input(params, data.features_norm, data.graph))
    pairs = pipeline.sample_pairs(data.graph, data.split.val_nodes, "all_pairs").pairs
    got = models.symmetric_score_batch(params, rows, pairs)
    assert_bits_equal(got, reference_decomposed_scores(params, rows, pairs, models.SCORE_BLOCK))
    pair_input_pass = reference_symmetric_scores(params, rows, pairs, models.SCORE_BLOCK)
    assert np.max(np.abs(got - pair_input_pass)) <= 1e-12
    reports = [
        pipeline.evaluate(scorer, data.graph, data.split.val_nodes, "all_pairs", cutoff=cfg.cutoff)
        for scorer in (pipeline.make_scorer(params, models.model_input(params, data.features_norm, data.graph)),
                       lambda p: reference_symmetric_scores(params, rows, p, models.SCORE_BLOCK))
    ]
    assert reports[0] == reports[1]
    assert reports[0] == pipeline.evaluate_model(params, data, cfg)[(kind, "all_pairs")]


@pytest.mark.parametrize("kind", [models.MLP_KIND, models.GNN_KIND])
@pytest.mark.parametrize("n_candidates", [1, 2, 7, 60])
def test_prediction_batches_bit_equal_to_one_pass(kind, n_candidates):
    """A ``predict`` batch, a new cell's row against each candidate's, is one
    block over the projection of its K + 1 rows."""
    params, rows = scored_rows(kind, np.random.default_rng(n_candidates), n_candidates + 1)
    pairs = np.column_stack([np.zeros(n_candidates, dtype=np.int64), np.arange(1, n_candidates + 1)])
    want = reference_decomposed_scores(params, rows, pairs, len(pairs))
    assert_bits_equal(models.symmetric_score_batch(params, rows, pairs), want)


def test_pair_input_is_the_concatenated_gather():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(9, 4))
    pairs = rng.integers(0, 9, size=(50, 2))
    for p in (pairs, pairs[:, ::-1], pairs[:0]):
        want = reference_pair_input(rows, p)
        got = models._pair_input(rows, p)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_adam_steps_bit_equal_to_the_per_name_reference():
    rng = np.random.default_rng(5)
    params = jittered_params(models.GNN_KIND, rng, k=3, hidden=6, embed=4)
    state = AdamState(lr=0.01)
    want_params = {name: value.copy() for name, value in params.items()}
    ref_state = {"step": 0, "lr": 0.01, "m": {}, "v": {}}
    returned = []
    for _ in range(7):
        grads = {name: rng.normal(size=value.shape) for name, value in params.items()}
        params, state = adam_step(params, grads, state)
        want_params = reference_adam_step(want_params, grads, ref_state)
        returned.append((params, {name: value.copy() for name, value in params.items()}))
        assert list(params) == list(want_params)
        for name in want_params:
            assert params[name].shape == want_params[name].shape
            assert np.array_equal(params[name], want_params[name]), name
    assert state.step == 7
    # every earlier returned dict still holds what it held when returned
    for got, snapshot in returned:
        assert all(np.array_equal(got[name], snapshot[name]) for name in snapshot)


@pytest.mark.parametrize("seed", range(5))
def test_auc_bit_equal_to_the_rankdata_reference(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 3000))
    # scores from a handful of levels: long tie groups, some spanning both classes
    scores = rng.integers(0, int(rng.integers(2, 12)), size=size) / 7.0
    labels = rng.integers(0, 2, size=size)
    labels[:2] = [0, 1]
    assert pipeline.auc(scores, labels) == reference_auc(scores, labels)
    continuous = rng.random(size)
    assert pipeline.auc(continuous, labels) == reference_auc(continuous, labels)


def test_auc_of_a_nan_score_is_nan_as_with_rankdata():
    scores, labels = np.array([0.2, np.nan, 0.7]), np.array([0, 1, 1])
    assert np.isnan(reference_auc(scores, labels))
    assert np.isnan(pipeline.auc(scores, labels))


def test_package_imports_load_no_scipy():
    src = os.path.dirname(os.path.dirname(ran_topo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, ran_topo.cli, ran_topo.pipeline, ran_topo.synth; "
        "loaded = sorted(name for name in sys.modules if name.startswith('scipy')); "
        "print(loaded); sys.exit(bool(loaded))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stdout + run.stderr
