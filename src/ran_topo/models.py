"""The two link predictors: an MLP baseline and a GNN that feeds
single-layer SAGE mean-aggregation embeddings into the same MLP head.

Both score an unordered cell pair with a probability in (0, 1):

    MLP:  sigmoid(W3 relu(W2 relu(W1 pair(x_i, x_j) + b1) + b2) + b3)
    GNN:  the same head over pair(e_i, e_j), where
          e_v = relu(W_s concat(x_v, mean of neighbor features) + b_s)

and pair(a, b) = concat(a + b, |a - b|) (Conneau et al., EMNLP 2017): as
wide as concat(a, b), but symmetric, so each pair is trained and scored once.

A node with no neighbors aggregates the zero vector, which is also how a
brand-new cell (edges unknown) is embedded.

The neighbor mean adds each row's CSR neighbors in the order the original
per-edge summation visited them, so trained parameters and report bundles
are bit-for-bit what they were. A whole-graph mean gathers one degree's
rows at a time. An embedding reads only its node's 1-hop neighborhood, so
scoring a few cells embeds only those rows.

Scoring splits ``w1`` at its halves: W1s (r_a + r_b) = W1s r_a + W1s r_b,
so W1s r is computed once per row and a pair adds two of them to
W1d |r_a - r_b|. Every scoring batch does this, of either kind: evaluation,
training's validation and each ``predict`` request. Only training builds
the pair input; its scores differ from scoring's in the last bits (up to
1.8e-15 on the default GNN's all-pairs).

Every difference between the kinds lives in this module, and every row
the head scores takes one path. ``model_input`` turns normalized features
into the kind's input: the features (MLP) or concat(x_v, neighbor mean)
(GNN). ``node_rows`` turns that input into rows: the input itself (MLP) or
its SAGE embeddings (GNN). The loss, training's validation, evaluation,
``predict`` and ``new_node_row`` (a zero neighbor mean) all call it. The
input does not depend on the parameters, so it is computed once per graph
(as SIGN does): ``train()`` builds the training graph's and the deployed
graph's before the first epoch, and each step or epoch runs only ``W_s``
and the head on them.

Parameters are one plain dict of float64 arrays: ``w1, b1, w2, b2, w3, b3``
for the head, plus ``ws, bs`` for the GNN's SAGE layer, so the key set names
the kind; ``_shapes`` is each kind's one table of array shapes, in
params-file order. ``params_from_dict`` is the one constructor and
validator. Scoring, the loss, the optimizer and the params file all take
the same dict.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import ExperimentConfig
from .data_io import decode_json, finite_vector
from .errors import ValidationError
from .graph import RanGraph
from .neural import BCE_EPS, bce_loss, glorot_uniform, sigmoid

MLP_KIND = "mlp"
GNN_KIND = "gnn"

# pairs scored at a time. Scoring holds one block's arrays at a time, about 2 MB
# beyond its pairs and scores at 64-wide rows, which stays in cache, plus the
# N x h projection of its rows. The default network's 113,582 GNN all-pairs
# score in 0.08-0.10 s at 512 or 1,024 pairs a block and in 0.10-0.11 s at
# 4,096 (2-core VM, one OpenBLAS thread).
#
# The blocks are part of the bits. A hidden-layer row has
# the same bits whatever the rows beside it, from 19 rows up: OpenBLAS
# computes products of up to 18 rows by another kernel, whose last bits
# differ, so no product goes that small unless the batch is. The logit is
# not like that: its product with the single output row is a matrix-vector
# product, and the last (block length mod 4) rows of a block take another
# kernel path, so a score's bits depend on where its block ends: at 512-pair
# blocks, 234 of the default GNN's 113,582 all-pairs scores differ, by up
# to 1.1e-16 (measured before the decomposition). So the blocks stay
# exactly where they are.
SCORE_BLOCK = 1024

KINDS = (MLP_KIND, GNN_KIND)  # the order of bundles and summaries


def _shapes(kind: str, k: int, hidden: int, embed: int) -> dict[str, tuple[int, ...]]:
    """Every array's shape, in params-file order, for ``k`` features per
    cell: the first layer (the GNN's SAGE layer feeds the head a 2d-wide
    pair), then the head's hidden layers and its single logit."""
    if kind not in KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    if kind == GNN_KIND:
        first = {"ws": (embed, 2 * k), "bs": (embed,), "w1": (hidden, 2 * embed)}
    else:
        first = {"w1": (hidden, 2 * k)}
    return {**first, "b1": (hidden,), "w2": (hidden, hidden), "b2": (hidden,), "w3": (1, hidden), "b3": (1,)}


def kind_of(params: dict[str, np.ndarray]) -> str:
    """The key set names the kind: only GNN params hold the SAGE layer."""
    return GNN_KIND if "ws" in params else MLP_KIND


def feature_width(params: dict[str, np.ndarray]) -> int:
    """Features per cell the params take: half the first layer's input."""
    return params["ws" if kind_of(params) == GNN_KIND else "w1"].shape[1] // 2


def params_from_dict(kind: str, arrays: dict) -> dict[str, np.ndarray]:
    """Validated parameters of a model kind, in ``_shapes`` order.

    The names must be exactly the kind's. Arrays are cast to float64. The
    first layer (``ws`` or ``w1``) and ``w1`` must be 2-D; they declare the
    widths: k = half the first layer's input, d = its rows, h = ``w1``'s
    rows. Every array must then have the shape ``_shapes`` gives for them.
    """
    names = list(_shapes(kind, 0, 0, 0))
    if set(arrays) != set(names):
        raise ValidationError(f"{kind} params need arrays {names}, got {sorted(arrays)}")
    params = {name: np.asarray(arrays[name], dtype=np.float64) for name in names}
    for name in (names[0], "w1"):
        if params[name].ndim != 2:
            raise ValidationError(f"{kind} params array {name!r} must be 2-D, got shape {params[name].shape}")
    (d, pair_width), h = params[names[0]].shape, params["w1"].shape[0]
    for name, shape in _shapes(kind, pair_width // 2, h, d).items():
        if params[name].shape != shape:
            raise ValidationError(f"{kind} params array {name!r} has shape {params[name].shape}, expected {shape}")
    return params


def init_params(
    kind: str,
    k: int,
    hidden: int = ExperimentConfig.hidden,
    embed: int = ExperimentConfig.embed,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, deterministic per seed; ``k`` is the data's width."""
    if min(k, hidden, embed) <= 0:
        raise ValidationError(f"dims must be positive, got k={k} h={hidden} d={embed}")
    rng = np.random.default_rng(seed)
    arrays = {
        name: glorot_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in _shapes(kind, k, hidden, embed).items()
    }
    return params_from_dict(kind, arrays)


# ---------------------------------------------------------------------------
# forward / backward on raw arrays

def _head_tail(d: dict[str, np.ndarray], a1: np.ndarray):
    """The head above its first layer: probabilities of first-layer
    activations ``a1``, and the second layer's activations."""
    a2 = _dense_relu(a1, d["w2"], d["b2"])
    z3 = a2 @ d["w3"].T
    z3 += d["b3"]
    # clamp away from exactly 0/1 so scores stay strictly inside (0, 1)
    # even when the sigmoid saturates in float64: np.clip's floats, in place
    probs = sigmoid(z3[:, 0])
    np.maximum(probs, BCE_EPS, out=probs)
    return np.minimum(probs, 1.0 - BCE_EPS, out=probs), a2


def _dense_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(x @ w.T + b): the bias add and the ReLU run in place on the
    fresh product, the same floats as the expression."""
    out = x @ w.T
    out += b
    return np.maximum(out, 0.0, out=out)


def _head_backward(d: dict[str, np.ndarray], pair_input, a1, a2, dlogit: np.ndarray):
    """Gradients of sum(dlogit * logit) w.r.t. the head params, and ``dz1``,
    the gradient of the first pre-activation, from the pair input and the
    hidden layers' activations. Only the GNN carries ``dz1`` on to its pair
    input (``dz1 @ w1``); the MLP's input is the data. A ReLU's output is
    positive exactly where its pre-activation is, so the masks read the
    activations."""
    dz3 = dlogit[:, None]  # (B, 1)
    grads = {"w3": dz3.T @ a2, "b3": dz3.sum(axis=0)}
    da2 = dz3 @ d["w3"]
    dz2 = da2 * (a2 > 0)
    grads["w2"] = dz2.T @ a1
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ d["w2"]
    dz1 = da1 * (a1 > 0)
    grads["w1"] = dz1.T @ pair_input
    grads["b1"] = dz1.sum(axis=0)
    return grads, dz1


def _row_index(rows, n: int) -> np.ndarray:
    """``rows`` as int64 indices of ``n`` rows. A negative one raises
    ``IndexError``, as one past the end does: numpy would read it from the end."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and rows.min() < 0:
        raise IndexError(f"row index {rows.min()} is out of range for {n} rows")
    return rows


def neighbor_mean(graph: RanGraph | None, x: np.ndarray, rows=None) -> np.ndarray:
    """Row v = mean of x over v's neighbors; zero vector if none.

    For every node or, given ``rows``, only for those nodes (their 1-hop
    neighborhood is all the mean reads); a row outside the graph, negative
    or not, raises ``IndexError``. Every SAGE pass aggregates here, so this
    is where a GNN without a graph is refused.
    """
    if graph is None:
        raise ValidationError("the GNN needs the graph its SAGE layer aggregates over")
    if rows is None:
        # the whole graph, one degree at a time, so no row gathers a padding
        # slot. Padding to the maximum degree, as one gather of every row
        # would, adds + 0.0 to each row below it, which turns a -0.0 sum into
        # +0.0 where numpy's sum starts from the first slot (numpy 2.4's
        # starts from +0.0): those rows add it here, for the padded bits
        deg = graph.degree
        order = np.argsort(deg, kind="stable")
        sums = np.empty((graph.n, x.shape[1]))
        for bucket in np.split(order, np.flatnonzero(np.diff(deg[order])) + 1):
            slots = np.arange(deg[bucket].max(initial=0))[:, None]
            sums[bucket] = x[graph.indices[graph.indptr[bucket] + slots]].sum(axis=0)
        np.add(sums, 0.0, out=sums, where=(deg < deg.max(initial=0))[:, None])
    else:
        rows = _row_index(rows, graph.n)
        starts, deg = graph.indptr[rows], graph.degree[rows]
        # slot s of each row: its s-th CSR neighbor's features; a slot past the
        # row's degree gathers a clamped index and is zeroed, so no copy of x is made
        slots = np.arange(deg.max(initial=0))[:, None]
        gathered = x[graph.indices[np.minimum(starts + slots, len(graph.indices) - 1)]]
        gathered[slots >= deg] = 0.0
        sums = gathered.sum(axis=0)
    # with two or more columns (every feature matrix has lat and lon) numpy
    # adds the slots one after another, elementwise, never one column pairwise
    return sums / np.maximum(deg, 1.0)[:, None]


def _features(params: dict[str, np.ndarray], x) -> np.ndarray:
    """``x`` as float64 rows, once it is an (N, k) array of the k features the params take."""
    x, width = np.asarray(x, dtype=np.float64), feature_width(params)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValidationError(f"the params take features as an (N, {width}) array, got shape {x.shape}")
    return x


def model_input(params: dict[str, np.ndarray], x, graph: RanGraph | None = None, rows=None) -> np.ndarray:
    """The input ``node_rows`` takes, from normalized features ``x``: the
    features (MLP) or concat(x_v, neighbor mean over ``graph``) (GNN); every
    node's or, given ``rows``, those nodes' in that order. It does not
    depend on the parameters' values, so a caller computes it once per
    graph and passes it to every ``node_rows`` call on that graph."""
    x = _features(params, x)
    own = x if rows is None else x[_row_index(rows, len(x))]
    if kind_of(params) == MLP_KIND:
        return own
    return np.concatenate([own, neighbor_mean(graph, x, rows)], axis=1)


def sage_embed(params: dict[str, np.ndarray], h: np.ndarray) -> np.ndarray:
    """Embeddings relu(W_s h + b_s) of ``model_input``'s GNN rows ``h``."""
    return _dense_relu(h, params["ws"], params["bs"])


def node_rows(params: dict[str, np.ndarray], inputs: np.ndarray) -> np.ndarray:
    """The rows the head scores, from ``model_input``'s array: the input
    itself (MLP) or its SAGE embeddings (GNN). The loss, training's
    validation, evaluation, ``predict`` and ``new_node_row`` all take their
    rows here."""
    return sage_embed(params, inputs) if kind_of(params) == GNN_KIND else inputs


def new_node_row(params: dict[str, np.ndarray], features_vec) -> np.ndarray:
    """The row the head scores for a cell whose edges are not yet known: its
    ``node_rows`` row over a zero neighbor mean. It stays a one-row product:
    stacked with other rows, the product's last bits can differ."""
    vec, width = np.asarray(features_vec, dtype=np.float64), feature_width(params)
    if vec.shape != (width,):
        raise ValidationError(f"a new cell's features must have shape ({width},), got {vec.shape}")
    own = vec[None]
    inputs = own if kind_of(params) == MLP_KIND else np.concatenate([own, np.zeros_like(own)], axis=1)
    return node_rows(params, inputs)[0]


# ---------------------------------------------------------------------------
# scoring

def _ends(rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """r_a and r_b of each pair (a, b) of ``rows``, each contiguous, from
    one gather. A pair index outside the rows, negative or not, raises
    ``IndexError``: ``_row_index`` refuses a negative one."""
    return np.take(rows, _row_index(pairs, len(rows)).T, axis=0)


def _pair_input(rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """concat(r_a + r_b, |r_a - r_b|) for each pair (a, b) of ``rows``, the
    same either way round. An out-of-range pair raises ``IndexError``."""
    (r_a, r_b), width = _ends(rows, pairs), rows.shape[1]
    out = np.empty((len(pairs), 2 * width))
    np.add(r_a, r_b, out=out[:, :width])
    np.abs(np.subtract(r_a, r_b, out=r_a), out=out[:, width:])
    return out


def _decomposed_first_layer(
    d: dict[str, np.ndarray], rows: np.ndarray, proj: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """The head's first layer on pairs of ``rows`` given ``proj``, every
    row's product with the sum half W1s of ``w1``: the floats of
    relu(proj[a] + proj[b] + |r_a - r_b| @ W1d.T + b1), W1d the other half."""
    r_a, r_b = _ends(rows, pairs)
    diff = np.abs(np.subtract(r_a, r_b, out=r_a), out=r_a)
    proj_a, proj_b = np.take(proj, pairs.T, axis=0)
    z1 = np.add(proj_a, proj_b, out=proj_a)
    z1 += diff @ d["w1"][:, rows.shape[1] :].T
    z1 += d["b1"]
    return np.maximum(z1, 0.0, out=z1)


def _parts(a: np.ndarray, most: int) -> list[np.ndarray]:
    """``a`` in near-equal ``np.array_split`` parts of at most ``most`` rows."""
    n_parts = -(-len(a) // most)
    return np.array_split(a, n_parts) if n_parts > 1 else [a]


def symmetric_score_batch(
    params: dict[str, np.ndarray], rows: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Probabilities of index pairs into ``rows`` (normalized features for
    the MLP, embeddings for the GNN). The head's input is symmetric, so
    score(a, b) = score(b, a) exactly. Evaluation and prediction use this.

    The first layer decomposes (the module docstring): every row's
    product with W1s once, as an N x h projection. Pairs are then scored
    in near-equal blocks of at most ``SCORE_BLOCK``, each once, so scoring
    holds the projection and one block's arrays beyond its pairs and
    scores. A block never holds a single pair unless the batch is one
    pair: a one-row product takes numpy's matrix-vector path, whose last
    bits can differ from the matrix-matrix one.
    """
    pairs = np.asarray(pairs)
    scores = np.empty(len(pairs))
    proj = rows @ params["w1"][:, : rows.shape[1]].T
    for block, out in zip(_parts(pairs, SCORE_BLOCK), _parts(scores, SCORE_BLOCK)):
        out[:] = _head_tail(params, _decomposed_first_layer(params, rows, proj, block))[0]
    return scores


# ---------------------------------------------------------------------------
# loss and gradients (mean BCE over a batch of labeled pairs)

def loss_and_grads(
    params: dict[str, np.ndarray],
    inputs: np.ndarray,
    pairs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean BCE over pairs and its exact gradients.

    ``inputs`` is ``model_input``'s array. ``node_rows`` turns it into rows
    as part of the pass, so the GNN's gradients flow into the SAGE layer.
    """
    pairs = np.asarray(pairs)
    labels = np.asarray(labels, dtype=np.float64)
    rows = node_rows(params, inputs)
    pair_input = _pair_input(rows, pairs)
    a1 = _dense_relu(pair_input, params["w1"], params["b1"])
    probs, a2 = _head_tail(params, a1)
    loss = float(np.mean(bce_loss(probs, labels)))
    # d(mean BCE)/d(logit) with the sigmoid folded in; clamping almost never
    # binds and is ignored in the gradient
    dlogit = (probs - labels) / labels.size
    grads, dz1 = _head_backward(params, pair_input, a1, a2, dlogit)
    if kind_of(params) == GNN_KIND:
        # a pair's input gradient (g_sum, g_diff) reaches its endpoints as
        # g_sum + s*g_diff and g_sum - s*g_diff, s = sign(r_a - r_b), sign(0) = 0.
        # One bincount over (node, column) cells adds every first endpoint's,
        # then every second one's, in batch order, as two np.add.at calls would
        n, width = rows.shape
        ends = pairs.T.ravel()
        cells = (ends[:, None] * width + np.arange(width)).ravel()
        g_sum, g_diff = (dz1 @ params["w1"]).reshape(len(pairs), 2, width).transpose(1, 0, 2)
        step = np.sign(rows[pairs[:, 0]] - rows[pairs[:, 1]]) * g_diff
        halves = np.concatenate([g_sum + step, g_sum - step]).ravel()
        dembed = np.bincount(cells, halves, minlength=n * width).reshape(n, width)
        delta = dembed * (rows > 0)
        grads["ws"] = delta.T @ inputs
        grads["bs"] = delta.sum(axis=0)
    return loss, grads


def params_to_json(params: dict[str, np.ndarray]) -> str:
    """JSON with shape metadata and row-major arrays; exact round-trip."""
    kind = kind_of(params)
    dims = {"k": feature_width(params)}
    if kind == GNN_KIND:
        dims["d"] = params["ws"].shape[0]
    dims["h"] = params["w1"].shape[0]
    arrays = {
        name: {"shape": list(params[name].shape), "data": params[name].ravel().tolist()}
        for name in _shapes(kind, 0, 0, 0)
    }
    return json.dumps({"kind": kind, "dims": dims, "arrays": arrays}, indent=2)


def _array_from_spec(name: str, spec) -> np.ndarray:
    shape = spec.get("shape") if isinstance(spec, dict) else None
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValidationError(f"params array {name!r} needs a shape of non-negative ints")
    data = finite_vector(spec.get("data"), f"params array {name!r} data")
    if data.size != math.prod(shape):
        raise ValidationError(f"params array {name!r} declares shape {shape} but holds {data.size} values")
    return data.reshape(shape)


def params_from_json(text: str) -> dict[str, np.ndarray]:
    """Inverse of params_to_json; a malformed file raises ValidationError.

    Checks the kind, that each declared shape matches its data and that the
    values are finite; ``params_from_dict`` then checks that the arrays are
    exactly the kind's and have its shapes.
    """
    obj = decode_json(text, "params file")
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in KINDS:
        raise ValidationError(f"params kind must be {' or '.join(map(repr, KINDS))}, got {kind!r}")
    specs = obj.get("arrays")
    if not isinstance(specs, dict):
        raise ValidationError("params file needs an 'arrays' object")
    arrays = {name: _array_from_spec(name, spec) for name, spec in specs.items()}
    return params_from_dict(kind, arrays)
