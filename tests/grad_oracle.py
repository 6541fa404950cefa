"""The finite-difference gradient oracle the tests check ``loss_and_grads``
against: ``grad_check`` compares analytic gradients with central
differences, and ``make_loss_fn`` is the loss of either model kind as a
function of its parameter dict, with a batched per-coordinate path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ran_topo.graph import RanGraph
from ran_topo.models import GNN_KIND, _pair_input, neighbor_mean

FD_STEP = 1e-5


def sage_input(graph: RanGraph | None, x: np.ndarray) -> np.ndarray:
    """The GNN's input concat(x_v, neighbor mean of v) for every node."""
    return np.concatenate([x, neighbor_mean(graph, x)], axis=1)


@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    worst_rel_error: float
    worst_param: str


def grad_check(
    loss_fn,
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    tolerance: float = 1e-4,
    step: float = FD_STEP,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    loss_fn maps a parameter dict to a scalar. Every coordinate of every
    parameter is perturbed; relative error is |a - n| / max(1, |a|, |n|),
    and a coordinate whose error is NaN fails. A model with no parameters
    passes vacuously. When loss_fn has a ``coordinate_losses(params, name,
    delta)`` method (``make_loss_fn`` closures do), the losses for all
    of a parameter's perturbed coordinates come from one call to it instead
    of two loss_fn calls per coordinate.
    """
    worst = 0.0
    worst_name = ""
    batched = getattr(loss_fn, "coordinate_losses", None)
    working = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    for name in params:
        flat = working[name].ravel()
        if batched is not None:
            numeric = (batched(working, name, step) - batched(working, name, -step)) / (2.0 * step)
        else:
            numeric = np.empty(flat.size)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_fn(working)
                flat[idx] = orig - step
                down = loss_fn(working)
                flat[idx] = orig
                numeric[idx] = (up - down) / (2.0 * step)
        a = np.asarray(analytic[name], dtype=np.float64).ravel()
        rel = np.abs(a - numeric) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
        rel[np.isnan(rel)] = np.inf
        if rel.size and rel.max() > worst:
            idx = int(np.argmax(rel))
            worst = float(rel[idx])
            worst_name = f"{name}[{idx}]"
    return GradCheckReport(passed=worst <= tolerance, worst_rel_error=worst, worst_param=worst_name)


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
        layers = ("s", "1", "2", "3")
        first_input = sage_input(graph, x)
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
        if layer == "s":  # node embeddings -> pair rows concat(e_a + e_b, |e_a - e_b|)
            ea, eb = a[..., left, :], a[..., right, :]
            a = np.concatenate([ea + eb, np.abs(ea - eb)], axis=-1)
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
