"""Minimal dense neural-network engine.

Everything is float64 numpy: sigmoid, binary cross-entropy, Adam and
Glorot initialization. The two model architectures in ran_topo.models own
their forward and backward passes; this module provides the shared pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BCE_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sigmoid(x):
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    so exp never overflows. Branch-free: min(x, -x) is -|x| for numbers and
    x itself for a NaN (numpy's minimum returns the first NaN), so a NaN
    keeps its sign bit through exp as on the x < 0 side."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def bce_loss(p, y):
    """Binary cross-entropy with probabilities clamped to [eps, 1-eps]."""
    y_arr = np.asarray(y, dtype=np.float64)
    if not np.all((y_arr == 0) | (y_arr == 1)):
        raise ValidationError("labels must be 0 or 1")
    p_arr = np.clip(np.asarray(p, dtype=np.float64), BCE_EPS, 1.0 - BCE_EPS)
    return -(y_arr * np.log(p_arr) + (1.0 - y_arr) * np.log(1.0 - p_arr))


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


@dataclass
class AdamState:
    """Adam moment accumulators, each one flat float64 buffer laid out like
    the parameters ``adam_step`` flattens; None before the first step."""

    lr: float = 1e-3
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns new params, mutates state.

    All parameters update as one flat buffer, in the dict's order, by the
    same elementwise operations as per array, so bit-for-bit alike. The
    returned arrays are views into a new buffer, so a dict returned earlier
    never changes.
    """
    for name, value in params.items():
        shape = np.shape(grads[name])
        if shape != value.shape:
            raise ValidationError(f"gradient shape {shape} != param {value.shape} ({name})")
    flat = np.concatenate([value.ravel() for value in params.values()]).astype(np.float64, copy=False)
    g = np.concatenate([np.ravel(grads[name]) for name in params]).astype(np.float64, copy=False)
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    state.step += 1
    t = state.step
    # m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g, in place
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    # flat -= (lr m_hat) / (sqrt(v_hat) + eps); flat is a fresh copy
    update = state.m / (1.0 - ADAM_BETA1**t)
    update *= state.lr
    update /= np.sqrt(state.v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
    flat -= update
    new_params, start = {}, 0
    for name, value in params.items():
        new_params[name] = flat[start : start + value.size].reshape(value.shape)
        start += value.size
    return new_params, state
