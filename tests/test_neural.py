import math

import numpy as np
import pytest

from grad_oracle import grad_check
from ran_topo.errors import ValidationError
from ran_topo import models
from ran_topo.neural import (
    AdamState,
    adam_step,
    bce_loss,
    glorot_uniform,
    sigmoid,
)


def mlp_params(w1, w2, w3):
    """k=1, h=1 MLP params with zero biases."""
    arrays = {}
    for layer, w in (("1", w1), ("2", w2), ("3", w3)):
        arrays["w" + layer] = np.array(w, dtype=float)
        arrays["b" + layer] = np.zeros(1)
    return models.params_from_dict("mlp", arrays)


class TestActivations:
    def test_relu_grad_at_zero(self):
        # the backward pass takes the relu subgradient at exactly 0 to be 0:
        # with W1 = 0 the first pre-activation is 0, so no gradient reaches W1
        params = mlp_params([[0.0, 0.0]], [[1.0]], [[1.0]])
        x = np.array([[1.0], [2.0]])
        _, grads = models.loss_and_grads(params, x, np.array([[0, 1]]), np.array([1.0]))
        assert grads["w1"].tolist() == [[0.0, 0.0]]
        assert grads["b1"].tolist() == [0.0]

    def test_sigmoid_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_three(self):
        assert sigmoid(3.0) == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), rel=1e-15)
        assert sigmoid(3.0) == pytest.approx(0.952574, abs=1e-6)

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=20, size=100000)
        assert np.all(np.abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-15)

    def test_sigmoid_extreme_inputs_stable(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0


class TestBce:
    def test_perfect_prediction(self):
        assert bce_loss(1.0 - 1e-12, 1) == pytest.approx(0.0, abs=1e-11)

    def test_half(self):
        assert bce_loss(0.5, 0) == pytest.approx(math.log(2), rel=1e-15)
        assert bce_loss(0.5, 1) == pytest.approx(math.log(2), rel=1e-15)

    def test_clamp(self):
        assert bce_loss(0.0, 1) == pytest.approx(-math.log(1e-12), rel=1e-12)
        assert bce_loss(0.0, 1) == pytest.approx(27.631, abs=1e-3)

    def test_bad_label(self):
        with pytest.raises(ValidationError, match="labels must be 0 or 1"):
            bce_loss(0.5, 2)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        p = rng.random(100000)
        y = rng.integers(0, 2, size=100000)
        assert np.all(bce_loss(p, y) >= 0.0)


class TestAdam:
    def params(self):
        return {"w": np.array([1.0, -2.0, 3.0])}

    def test_zero_gradient_keeps_params(self):
        state = AdamState(lr=0.1)
        new, state = adam_step(self.params(), {"w": np.zeros(3)}, state)
        assert new["w"].tolist() == [1.0, -2.0, 3.0]
        assert state.step == 1

    def test_first_step_magnitude(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        state = AdamState(lr=0.01)
        g = np.array([0.3, -7.0, 1e-3])
        new, _ = adam_step(self.params(), {"w": g}, state)
        update = new["w"] - self.params()["w"]
        assert update == pytest.approx(-0.01 * np.sign(g), rel=1e-4)

    def test_deterministic(self):
        g = {"w": np.array([0.5, 0.5, -0.5])}
        a, _ = adam_step(self.params(), g, AdamState(lr=0.05))
        b, _ = adam_step(self.params(), g, AdamState(lr=0.05))
        assert np.array_equal(a["w"], b["w"])

    def test_lr_zero_identity(self):
        state = AdamState(lr=0.0)
        params = self.params()
        for _ in range(5):
            params, state = adam_step(params, {"w": np.array([1.0, 2.0, 3.0])}, state)
        assert params["w"].tolist() == [1.0, -2.0, 3.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match=r"gradient shape \(2,\) != param \(3,\) \(w\)"):
            adam_step(self.params(), {"w": np.zeros(2)}, AdamState())


class TestGlorot:
    def test_bound_and_determinism(self):
        bound = math.sqrt(6.0 / (5 + 3))
        a = glorot_uniform(np.random.default_rng(7), 3, 5)
        b = glorot_uniform(np.random.default_rng(7), 3, 5)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= bound)


class TestGradCheck:
    def quadratic(self):
        # loss = sum(w^2) + 3*b, analytic gradient 2w and 3
        params = {"w": np.array([1.0, -0.5]), "b": np.array([2.0])}

        def loss_fn(d):
            return float(np.sum(d["w"] ** 2) + 3.0 * d["b"][0])

        grads = {"w": 2.0 * params["w"], "b": np.array([3.0])}
        return loss_fn, params, grads

    def test_passes_on_correct_gradient(self):
        loss_fn, params, grads = self.quadratic()
        report = grad_check(loss_fn, params, grads, tolerance=1e-6)
        assert report.passed

    def test_fails_on_corrupted_gradient(self):
        loss_fn, params, grads = self.quadratic()
        grads = {"w": grads["w"] + np.array([1.0, 0.0]), "b": grads["b"]}
        report = grad_check(loss_fn, params, grads, tolerance=1e-4)
        assert not report.passed
        assert report.worst_param == "w[0]"

    def test_nan_loss_fails(self):
        _, params, grads = self.quadratic()
        report = grad_check(lambda d: float("nan"), params, grads, tolerance=1e-4)
        assert not report.passed

    def test_zero_parameter_model_vacuous_pass(self):
        report = grad_check(lambda d: 0.0, {}, {}, tolerance=1e-4)
        assert report.passed
        assert report.worst_rel_error == 0.0


class TestBackwardComposition:
    def test_logistic_regression_gradient(self):
        # loss = bce(sigmoid(w * x), y); dloss/dw = (sigmoid(w x) - y) x
        # at w = 0, x = 1, y = 1 the gradient is -0.5
        # pass-through MLP: relu is identity on the positive path, so the
        # only active parameter is the last layer weight
        params = mlp_params([[1.0, 0.0]], [[1.0]], [[0.0]])
        x = np.array([[1.0], [0.0]])  # x_i = 1, x_j unused
        loss, grads = models.loss_and_grads(
            params, x, np.array([[0, 1]]), np.array([1.0])
        )
        assert grads["w3"][0, 0] == pytest.approx(-0.5, rel=1e-12)

    def test_unused_parameter_zero_gradient(self):
        params = mlp_params([[1.0, 0.0]], [[1.0]], [[1.0]])
        # identical rows: |x_i - x_j| = 0 feeds W1's second column, which is
        # zero; its gradient entry is driven by that input value 0
        x = np.array([[1.0], [1.0]])
        _, grads = models.loss_and_grads(params, x, np.array([[0, 1]]), np.array([1.0]))
        assert grads["w1"][0, 1] == 0.0
