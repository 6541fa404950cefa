"""The two link predictors: a concat-MLP baseline and a GNN that feeds
single-layer SAGE mean-aggregation embeddings into the same MLP head.

Both score an ordered cell pair with a probability in (0, 1):

    MLP:  sigmoid(W3 relu(W2 relu(W1 concat(x_i, x_j) + b1) + b2) + b3)
    GNN:  the same head over concat(e_i, e_j), where
          e_v = relu(W_s concat(x_v, mean of neighbor features) + b_s)

A node with no neighbors aggregates the zero vector, which is also how a
brand-new cell (edges unknown) is embedded.

The neighbor mean is one sparse product with the graph's cached adjacency
operator, divided by max(degree, 1). The operator's rows list neighbors in
the order the original per-edge summation visited them, so the sums, and
with them trained parameters and report bundles, are bit-for-bit what they
were. An embedding reads only its node's 1-hop neighborhood, so scoring a
few cells embeds only those rows.

Parameters live in dataclasses for the public API and in flat name->array
dicts for the optimizer and gradient checker.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDims, IndexOutOfRange, ShapeMismatch, ValidationError
from .graph import FeatureMatrix, RanGraph
from .neural import LinearLayer, bce_loss, glorot_uniform, relu, sigmoid

MLP_KIND = "mlp"
GNN_KIND = "gnn"

DEFAULT_K = 8
DEFAULT_HIDDEN = 64
DEFAULT_EMBED = 64


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Three-layer head: (h x 2k) -> (h x h) -> (1 x h)."""

    layer1: LinearLayer
    layer2: LinearLayer
    layer3: LinearLayer

    def __post_init__(self):
        if self.layer1.in_dim % 2 != 0:
            raise ShapeMismatch("first layer input must be a concatenated pair")
        if self.layer2.in_dim != self.layer1.out_dim:
            raise ShapeMismatch("layer1 -> layer2 shape chain broken")
        if self.layer3.in_dim != self.layer2.out_dim or self.layer3.out_dim != 1:
            raise ShapeMismatch("layer3 must map hidden dim to a single logit")

    @property
    def input_dim(self) -> int:
        """Per-node input size (half the concatenated pair)."""
        return self.layer1.in_dim // 2

    @property
    def hidden_dim(self) -> int:
        return self.layer1.out_dim


@dataclass(frozen=True, eq=False)
class GnnParams:
    """SAGE layer (d x 2k) plus an MLP head over concatenated embeddings."""

    sage: LinearLayer
    head: MlpParams

    def __post_init__(self):
        if self.sage.in_dim % 2 != 0:
            raise ShapeMismatch("SAGE input must be concat(own, neighbor mean)")
        if self.head.input_dim != self.sage.out_dim:
            raise ShapeMismatch("head input dim must equal embedding dim")

    @property
    def feature_dim(self) -> int:
        return self.sage.in_dim // 2

    @property
    def embed_dim(self) -> int:
        return self.sage.out_dim


ModelParams = MlpParams | GnnParams


def init_params(
    kind: str,
    k: int = DEFAULT_K,
    hidden: int = DEFAULT_HIDDEN,
    embed: int = DEFAULT_EMBED,
    seed: int = 0,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    if min(k, hidden, embed) <= 0:
        raise BadDims(f"dims must be positive, got k={k} h={hidden} d={embed}")
    rng = np.random.default_rng(seed)

    def linear(out_dim, in_dim):
        return LinearLayer(glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim))

    if kind == MLP_KIND:
        return MlpParams(linear(hidden, 2 * k), linear(hidden, hidden), linear(1, hidden))
    if kind == GNN_KIND:
        sage = linear(embed, 2 * k)
        head = MlpParams(
            linear(hidden, 2 * embed), linear(hidden, hidden), linear(1, hidden)
        )
        return GnnParams(sage, head)
    raise BadDims(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# flat dict representation (optimizer / gradient-checker currency)

def params_to_dict(params: ModelParams) -> dict[str, np.ndarray]:
    if isinstance(params, MlpParams):
        return {
            "w1": params.layer1.w, "b1": params.layer1.b,
            "w2": params.layer2.w, "b2": params.layer2.b,
            "w3": params.layer3.w, "b3": params.layer3.b,
        }
    return {
        "ws": params.sage.w, "bs": params.sage.b,
        **params_to_dict(params.head),
    }


def params_from_dict(kind: str, arrays: dict[str, np.ndarray]) -> ModelParams:
    head = MlpParams(
        LinearLayer(arrays["w1"], arrays["b1"]),
        LinearLayer(arrays["w2"], arrays["b2"]),
        LinearLayer(arrays["w3"], arrays["b3"]),
    )
    if kind == MLP_KIND:
        return head
    if kind == GNN_KIND:
        return GnnParams(LinearLayer(arrays["ws"], arrays["bs"]), head)
    raise BadDims(f"unknown model kind {kind!r}")


def kind_of(params: ModelParams) -> str:
    return GNN_KIND if isinstance(params, GnnParams) else MLP_KIND


# ---------------------------------------------------------------------------
# forward / backward on raw arrays

def _head_forward(d: dict[str, np.ndarray], pair_input: np.ndarray):
    z1 = pair_input @ d["w1"].T + d["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ d["w2"].T + d["b2"]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ d["w3"].T + d["b3"]
    # clamp away from exactly 0/1 so scores stay strictly inside (0, 1)
    # even when the sigmoid saturates in float64
    probs = np.clip(sigmoid(z3[:, 0]), 1e-12, 1.0 - 1e-12)
    return probs, (pair_input, z1, a1, z2, a2)


def _head_backward(d: dict[str, np.ndarray], cache, dlogit: np.ndarray):
    """Gradients of sum(dlogit * logit) w.r.t. head params and pair input."""
    pair_input, z1, a1, z2, a2 = cache
    dz3 = dlogit[:, None]  # (B, 1)
    grads = {"w3": dz3.T @ a2, "b3": dz3.sum(axis=0)}
    da2 = dz3 @ d["w3"]
    dz2 = da2 * (z2 > 0)
    grads["w2"] = dz2.T @ a1
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ d["w2"]
    dz1 = da1 * (z1 > 0)
    grads["w1"] = dz1.T @ pair_input
    grads["b1"] = dz1.sum(axis=0)
    dinput = dz1 @ d["w1"]
    return grads, dinput


def neighbor_mean(graph: RanGraph, x: np.ndarray, rows=None) -> np.ndarray:
    """Row v = mean of x over v's neighbors; zero vector if none.

    One sparse product with the graph's cached adjacency operator, for every
    node or, given ``rows``, only for those nodes (their 1-hop neighborhood
    is all the mean reads).
    """
    if rows is None:
        sums, deg = graph.neighbor_operator @ x, graph.degree
    else:
        sums, deg = graph.neighbor_rows(rows) @ x, graph.degree[rows]
    return sums / np.maximum(deg, 1.0)[:, None]


def _sage_forward(d: dict[str, np.ndarray], x: np.ndarray, graph: RanGraph, rows=None):
    own = x if rows is None else x[rows]
    h = np.concatenate([own, neighbor_mean(graph, x, rows)], axis=1)
    pre = h @ d["ws"].T + d["bs"]
    return np.maximum(pre, 0.0), (h, pre)


def sage_embed(
    params: GnnParams, features: FeatureMatrix | np.ndarray, graph: RanGraph, rows=None
) -> np.ndarray:
    """Embeddings relu(W_s concat(x, nbr mean) + b_s) for every graph node,
    or, given ``rows``, for those nodes only, in that order."""
    x = features.values if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    if x.shape[0] != graph.n:
        raise ShapeMismatch(f"{x.shape[0]} feature rows for {graph.n} nodes")
    if x.shape[1] != params.feature_dim:
        raise ShapeMismatch(
            f"feature dim {x.shape[1]} != SAGE feature dim {params.feature_dim}"
        )
    embeddings, _ = _sage_forward(params_to_dict(params), x, graph, rows)
    return embeddings


def new_node_embedding(params: GnnParams, features_vec: np.ndarray) -> np.ndarray:
    """Embedding of a cell whose edges are not yet known (empty neighborhood)."""
    x = np.asarray(features_vec, dtype=np.float64)
    if x.shape != (params.feature_dim,):
        raise ShapeMismatch(f"expected feature vector of length {params.feature_dim}")
    h = np.concatenate([x, np.zeros_like(x)])
    return relu(params.sage.w @ h + params.sage.b)


# ---------------------------------------------------------------------------
# scoring

def _pair_input(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    return np.concatenate([x[pairs[:, 0]], x[pairs[:, 1]]], axis=1)


def mlp_score_batch(params: MlpParams, x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Raw ordered-pair probabilities for index pairs into feature rows x."""
    pairs = np.asarray(pairs)
    probs, _ = _head_forward(params_to_dict(params), _pair_input(x, pairs))
    return probs


def mlp_score(params: MlpParams, x_i, x_j) -> float:
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != (params.input_dim,) or x_j.shape != (params.input_dim,):
        raise ShapeMismatch(
            f"expected two vectors of length {params.input_dim}"
        )
    probs, _ = _head_forward(
        params_to_dict(params), np.concatenate([x_i, x_j])[None, :]
    )
    return float(probs[0])


def gnn_score_batch(params: GnnParams, embeddings: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    pairs = np.asarray(pairs)
    probs, _ = _head_forward(params_to_dict(params.head), _pair_input(embeddings, pairs))
    return probs


def gnn_score(params: GnnParams, embeddings: np.ndarray, i: int, j: int) -> float:
    n = embeddings.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"pair ({i}, {j}) outside [0, {n})")
    return float(gnn_score_batch(params, embeddings, np.array([[i, j]]))[0])


def symmetric_score(score_fn, a, b) -> float:
    """Average of the two concat orders; evaluation always uses this."""
    return 0.5 * (score_fn(a, b) + score_fn(b, a))


def symmetric_score_batch(params: ModelParams, x_or_e: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    pairs = np.asarray(pairs)
    flipped = pairs[:, ::-1]
    if isinstance(params, GnnParams):
        return 0.5 * (
            gnn_score_batch(params, x_or_e, pairs)
            + gnn_score_batch(params, x_or_e, flipped)
        )
    return 0.5 * (
        mlp_score_batch(params, x_or_e, pairs) + mlp_score_batch(params, x_or_e, flipped)
    )


# ---------------------------------------------------------------------------
# loss and gradients (mean BCE over a batch of ordered labeled pairs)

def _mean_bce_from_dict(
    kind: str,
    d: dict[str, np.ndarray],
    x: np.ndarray,
    pairs: np.ndarray,
    labels: np.ndarray,
    graph: RanGraph | None,
):
    if kind == GNN_KIND:
        embeddings, sage_cache = _sage_forward(d, x, graph)
        rows = embeddings
    else:
        sage_cache = None
        rows = x
    probs, head_cache = _head_forward(d, _pair_input(rows, pairs))
    loss = float(np.mean(bce_loss(probs, labels)))
    return loss, probs, rows, sage_cache, head_cache


def loss_and_grads(
    params: ModelParams,
    x: np.ndarray,
    pairs: np.ndarray,
    labels: np.ndarray,
    graph: RanGraph | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean BCE over ordered pairs and its exact gradients.

    For the GNN, embeddings are recomputed from the given graph as part of
    the pass, so gradients flow into the SAGE layer.
    """
    kind = kind_of(params)
    if kind == GNN_KIND and graph is None:
        raise ValidationError("GNN loss needs the graph for the SAGE layer")
    d = params_to_dict(params)
    pairs = np.asarray(pairs)
    labels = np.asarray(labels, dtype=np.float64)
    loss, probs, rows, sage_cache, head_cache = _mean_bce_from_dict(
        kind, d, x, pairs, labels, graph
    )
    # d(mean BCE)/d(logit) with the sigmoid folded in; clamping almost never
    # binds and is ignored in the gradient
    dlogit = (probs - labels) / labels.size
    grads, dinput = _head_backward(d, head_cache, dlogit)
    if kind == GNN_KIND:
        embed_dim = rows.shape[1]
        dembed = np.zeros_like(rows)
        np.add.at(dembed, pairs[:, 0], dinput[:, :embed_dim])
        np.add.at(dembed, pairs[:, 1], dinput[:, embed_dim:])
        h, pre = sage_cache
        delta = dembed * (pre > 0)
        grads["ws"] = delta.T @ h
        grads["bs"] = delta.sum(axis=0)
    return loss, grads


def params_to_json(params: ModelParams) -> str:
    """JSON with shape metadata and row-major arrays; exact round-trip."""
    kind = kind_of(params)
    if kind == MLP_KIND:
        dims = {"k": params.input_dim, "h": params.hidden_dim}
    else:
        dims = {
            "k": params.feature_dim,
            "d": params.embed_dim,
            "h": params.head.hidden_dim,
        }
    arrays = {
        name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
        for name, arr in params_to_dict(params).items()
    }
    return json.dumps({"kind": kind, "dims": dims, "arrays": arrays}, indent=2)


# array names each kind's params file must hold
_PARAM_ARRAYS = {
    MLP_KIND: ("w1", "b1", "w2", "b2", "w3", "b3"),
    GNN_KIND: ("ws", "bs", "w1", "b1", "w2", "b2", "w3", "b3"),
}


def _array_from_spec(name: str, spec) -> np.ndarray:
    shape = spec.get("shape") if isinstance(spec, dict) else None
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValidationError(f"params array {name!r} needs a shape of non-negative ints")
    try:
        data = np.asarray(spec.get("data"), dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"params array {name!r} data is not a list of numbers") from None
    if data.ndim != 1:
        raise ValidationError(f"params array {name!r} data must be a flat list")
    if data.size != math.prod(shape):
        raise ValidationError(
            f"params array {name!r} declares shape {shape} but holds {data.size} values"
        )
    if not np.isfinite(data).all():
        raise ValidationError(f"params array {name!r} has non-finite values")
    return data.reshape(shape)


def params_from_json(text: str) -> ModelParams:
    """Inverse of params_to_json; a malformed file raises ValidationError.

    Checks the kind, that every array the kind needs is present, that each
    declared shape matches its data, that the values are finite, and that
    the layer shapes chain.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"params file is not valid JSON: {exc}") from None
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in _PARAM_ARRAYS:
        raise ValidationError(f"params kind must be {MLP_KIND!r} or {GNN_KIND!r}, got {kind!r}")
    specs = obj.get("arrays")
    if not isinstance(specs, dict):
        raise ValidationError("params file needs an 'arrays' object")
    missing = [name for name in _PARAM_ARRAYS[kind] if name not in specs]
    if missing:
        raise ValidationError(f"{kind} params file is missing arrays {missing}")
    arrays = {name: _array_from_spec(name, specs[name]) for name in _PARAM_ARRAYS[kind]}
    return params_from_dict(kind, arrays)


def make_loss_fn(
    kind: str,
    x: np.ndarray,
    pairs: np.ndarray,
    labels: np.ndarray,
    graph: RanGraph | None = None,
):
    """Dict -> scalar loss closure for the finite-difference gradient checker.

    The parts that do not depend on the parameters (neighbor means, pair
    gathers) are precomputed here. The closure also carries
    ``coordinate_losses(d, name, delta)``: the losses with each coordinate of
    ``d[name]`` moved by ``delta``, one coordinate at a time. Moving weight
    W[r, c] of a layer adds ``delta * input[:, c]`` to that layer's output
    column r (a bias entry adds ``delta``), so the layers below it run once
    and only the layers above run per coordinate, as batched products.
    """
    pairs = np.asarray(pairs)
    labels = np.asarray(labels, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)

    # sign trick: BCE(sigmoid(z), y) = softplus((1-2y) z), and the 1e-12
    # probability clamp caps each term at -log(1e-12)
    sign = 1.0 - 2.0 * labels
    cap = -math.log(1e-12)

    if kind == GNN_KIND:
        if graph is None:
            raise ValidationError("GNN loss needs the graph for the SAGE layer")
        layers = ("s", "1", "2", "3")
        first_input = np.concatenate([x, neighbor_mean(graph, x)], axis=1)
    else:
        layers = ("1", "2", "3")
        first_input = _pair_input(x, pairs)
    left, right = pairs[:, 0], pairs[:, 1]

    def affine(d, layer, a):
        """Layer pre-activation for inputs (..., M, in), as one matrix product."""
        w, b = d["w" + layer], d["b" + layer]
        return (a.reshape(-1, a.shape[-1]) @ w.T + b).reshape(*a.shape[:-1], w.shape[0])

    def activate(layer, z):
        a = np.maximum(z, 0.0)
        if layer == "s":  # node embeddings -> concatenated pair rows
            a = np.concatenate([a[..., left, :], a[..., right, :]], axis=-1)
        return a

    def mean_bce_from(d, i, z):
        """Mean BCE from layer i's pre-activation; leading batch axes are kept."""
        for lower, upper in zip(layers[i:], layers[i + 1 :]):
            z = affine(d, upper, activate(lower, z))
        return np.minimum(np.logaddexp(0.0, sign * z[..., 0]), cap).mean(axis=-1)

    def loss_fn(d: dict[str, np.ndarray]) -> float:
        return float(mean_bce_from(d, 0, affine(d, layers[0], first_input)))

    def coordinate_losses(d: dict[str, np.ndarray], name: str, delta: float) -> np.ndarray:
        i = layers.index(name[1:])
        a = first_input
        for layer in layers[:i]:
            a = activate(layer, affine(d, layer, a))
        z = affine(d, layers[i], a)
        if name[0] == "w":
            rows, cols = np.divmod(np.arange(d[name].size), d[name].shape[1])
            shifts = delta * a[:, cols].T  # (coordinates, M)
        else:
            rows, shifts = np.arange(z.shape[1]), np.full((z.shape[1], 1), delta)
        losses = np.empty(len(rows))
        chunk = max(1, 2**20 // max(z.size, 1))  # bounds the batched activations' memory
        for lo in range(0, len(rows), chunk):
            part = slice(lo, lo + chunk)
            zs = np.repeat(z[None], len(rows[part]), axis=0)
            zs[np.arange(len(rows[part])), :, rows[part]] += shifts[part]
            losses[part] = mean_bce_from(d, i, zs)
        return losses

    loss_fn.coordinate_losses = coordinate_losses
    return loss_fn
