"""Tests for the MLP feature map: forward, reverse mode, Adam, composites."""

import numpy as np
import pytest

from fmgp import features as ft
from fmgp.errors import ConfigError, NumericError, ShapeError


def random_map(widths, seed, normalization="layer_norm", rescale=True):
    return ft.init_params(widths, seed, normalization=normalization,
                          rescale_to_unit=rescale)


class TestConstruction:
    def test_param_shapes(self):
        fmap = random_map([3, 5, 7, 4], seed=0)
        params = fmap.param_list()
        # per hidden layer: weight, bias, gain, offset; output: weight, bias
        shapes = [p.shape for p in params]
        assert shapes == [(3, 5), (5,), (5,), (5,),
                          (5, 7), (7,), (7,), (7,),
                          (7, 4), (4,)]

    def test_no_norm_param_shapes(self):
        fmap = ft.init_params([2, 4, 3], seed=0)
        assert [p.shape for p in fmap.param_list()] == [(2, 4), (4,), (4, 3), (3,)]

    def test_he_init_scale(self):
        # weight std approximates sqrt(2 / fan_in) at large fan-in
        fmap = ft.init_params([400, 300, 2], seed=1)
        w = fmap.param_list()[0]
        np.testing.assert_allclose(w.std(), np.sqrt(2.0 / 400), rtol=0.05)
        assert np.all(fmap.param_list()[1] == 0.0)

    def test_bad_widths_raise(self):
        with pytest.raises(ConfigError):
            ft.init_params([3], seed=0)
        with pytest.raises(ConfigError):
            ft.init_params([3, 0, 2], seed=0)

    def test_bad_normalization_raises(self):
        with pytest.raises(ConfigError):
            ft.init_params([2, 3, 2], seed=0, normalization="batch")

    def test_replace_params_round_trip(self):
        fmap = random_map([2, 3, 2], seed=0)
        params = [p + 1.0 for p in fmap.param_list()]
        swapped = fmap.replace_params(params)
        for a, b in zip(swapped.param_list(), params):
            np.testing.assert_array_equal(a, b)

    def test_serialization_round_trip(self):
        fmap = random_map([2, 4, 3], seed=3)
        clone = ft.feature_map_from_json_dict(fmap.to_json_dict())
        X = np.random.default_rng(0).standard_normal((6, 2))
        np.testing.assert_array_equal(ft.forward(fmap, X), ft.forward(clone, X))


class TestForward:
    def test_output_shape(self):
        fmap = random_map([3, 6, 5], seed=0)
        X = np.random.default_rng(1).standard_normal((11, 3))
        assert ft.forward(fmap, X).shape == (11, 5)

    def test_unit_rescale_row_norms(self):
        fmap = random_map([4, 8, 6], seed=2)
        X = np.random.default_rng(2).standard_normal((20, 4))
        norms = np.linalg.norm(ft.forward(fmap, X), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_row_passes_through_rescale(self):
        # weights and biases all zero give a zero output row; the rescale
        # must leave it at zero instead of dividing by zero
        fmap = ft.init_params([2, 3, 2], seed=0, rescale_to_unit=True)
        params = [np.zeros_like(p) for p in fmap.param_list()]
        fmap = fmap.replace_params(params)
        out = ft.forward(fmap, np.ones((4, 2)))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_layer_norm_statistics(self):
        # hidden activations are standardized before gain and offset, so
        # with default gain 1 offset 0 the pre-ReLU rows have mean ~0
        fmap = ft.init_params([3, 50, 2], seed=4, normalization="layer_norm")
        X = np.random.default_rng(4).standard_normal((7, 3))
        a = X @ fmap.weights[0] + fmap.biases[0]
        mu = a.mean(axis=1, keepdims=True)
        var = a.var(axis=1, keepdims=True)
        xhat = (a - mu) / np.sqrt(var + ft.LAYER_NORM_EPS)
        hidden = np.maximum(xhat, 0.0)
        out = hidden @ fmap.weights[1] + fmap.biases[1]
        np.testing.assert_allclose(ft.forward(fmap, X), out, rtol=1e-12)

    def test_relu_masks_negatives(self):
        fmap = ft.init_params([1, 2, 1], seed=0)
        params = fmap.param_list()
        params[0] = np.array([[1.0, -1.0]])
        params[2] = np.array([[1.0], [1.0]])
        fmap = fmap.replace_params(params)
        out = ft.forward(fmap, np.array([[2.0], [-3.0]]))
        np.testing.assert_allclose(out[:, 0], [2.0, 3.0])

    def test_rejects_wrong_width(self):
        fmap = random_map([3, 4, 2], seed=0)
        with pytest.raises(ShapeError):
            ft.forward(fmap, np.zeros((5, 2)))

    def test_rejects_non_finite(self):
        fmap = random_map([2, 4, 2], seed=0)
        X = np.zeros((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(NumericError):
            ft.forward(fmap, X)


class TestNonFiniteParams:
    @pytest.mark.parametrize("key", ft.LAYER_KEYS)
    def test_forward_and_pullback_name_key_and_layer(self, key):
        fmap = random_map([3, 5, 4, 2], seed=0)
        params = fmap.param_list()
        # layer 1 is a normalized hidden layer, so it holds every key
        index = len(fmap.layers[0]) + ft.LAYER_KEYS.index(key)
        params[index] = params[index].copy()
        params[index].flat[-1] = np.nan
        broken = fmap.replace_params(params)
        X = np.zeros((4, 3))
        with pytest.raises(NumericError, match=f"non-finite {key} in layer 1"):
            ft.forward(broken, X)
        with pytest.raises(NumericError, match=f"non-finite {key} in layer 1"):
            ft.pullback(broken, X)


class TestBackward:
    @pytest.mark.parametrize("normalization", ["none", "layer_norm"])
    @pytest.mark.parametrize("rescale", [False, True])
    def test_matches_finite_differences(self, normalization, rescale):
        rng = np.random.default_rng(11)
        fmap = ft.init_params([3, 5, 4], seed=7, normalization=normalization,
                              rescale_to_unit=rescale)
        X = rng.standard_normal((9, 3))
        upstream = rng.standard_normal((9, 4))
        grads = ft.backward(fmap, X, upstream)
        params = fmap.param_list()
        h = 1e-6
        worst = 0.0
        for k, base in enumerate(params):
            flat = base.ravel()
            for idx in range(flat.size):
                plus = [q.copy() for q in params]
                plus[k].ravel()[idx] += h
                minus = [q.copy() for q in params]
                minus[k].ravel()[idx] -= h
                fd = (np.sum(ft.forward(fmap.replace_params(plus), X) * upstream)
                      - np.sum(ft.forward(fmap.replace_params(minus), X) * upstream)) / (2 * h)
                g = grads[k].ravel()[idx]
                worst = max(worst, abs(g - fd) / max(1e-3, abs(g), abs(fd)))
        assert worst < 1e-6

    def test_gradient_shapes_match_params(self):
        fmap = random_map([2, 6, 3], seed=1)
        X = np.random.default_rng(1).standard_normal((5, 2))
        grads = ft.backward(fmap, X, np.ones((5, 3)))
        for g, p in zip(grads, fmap.param_list()):
            assert g.shape == p.shape


class TestAdamStep:
    def test_first_step_is_signed_learning_rate(self):
        # with zero state, the bias-corrected update is lr * g / (|g| + eps)
        params = [np.array([0.0, 0.0])]
        grads = [np.array([2.0, -0.5])]
        state = ft.AdamState.create(params, learning_rate=0.01)
        new_params, state = ft.adam_step(state, params, grads)
        np.testing.assert_allclose(new_params[0],
                                   [-0.01 * 2.0 / (2.0 + 1e-8),
                                    0.01 * 0.5 / (0.5 + 1e-8)], rtol=1e-12)
        assert state.step_count == 1

    def test_two_steps_match_reference(self):
        # hand-rolled reference update for a scalar parameter
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g1, g2 = 3.0, -1.0
        m = v = 0.0
        x = 0.5
        for t, g in enumerate([g1, g2], start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            x = x - lr * mhat / (np.sqrt(vhat) + eps)
        params = [np.array(0.5)]
        state = ft.AdamState.create(params, learning_rate=lr)
        params, state = ft.adam_step(state, params, [np.array(g1)])
        params, state = ft.adam_step(state, params, [np.array(g2)])
        np.testing.assert_allclose(float(params[0]), x, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        params = [np.zeros(3)]
        state = ft.AdamState.create(params, learning_rate=0.1)
        with pytest.raises(ShapeError):
            ft.adam_step(state, params, [np.zeros(4)])


class TestComposites:
    def setup_method(self):
        self.left = random_map([3, 4, 3], seed=0)
        self.right = random_map([3, 4, 2], seed=1)
        self.X = np.random.default_rng(5).standard_normal((8, 3))

    def test_product_columns_follow_positional_rule(self):
        comp = ft.ProductFeatureMap(self.left, self.right)
        phi1 = ft.forward(self.left, self.X)
        phi2 = ft.forward(self.right, self.X)
        out = ft.forward(comp, self.X)
        assert out.shape == (8, 6)
        p1 = phi1.shape[1]
        for i in range(p1):
            for j in range(phi2.shape[1]):
                np.testing.assert_array_equal(out[:, i + j * p1],
                                              phi1[:, i] * phi2[:, j])

    def test_additive_concatenates(self):
        comp = ft.AdditiveFeatureMap(self.left, self.right)
        out = ft.forward(comp, self.X)
        expected = np.hstack([ft.forward(self.left, self.X),
                              ft.forward(self.right, self.X)])
        np.testing.assert_array_equal(out, expected)

    def test_product_gram_is_hadamard(self):
        comp = ft.ProductFeatureMap(self.left, self.right)
        phi = ft.forward(comp, self.X)
        k1 = ft.forward(self.left, self.X) @ ft.forward(self.left, self.X).T
        k2 = ft.forward(self.right, self.X) @ ft.forward(self.right, self.X).T
        np.testing.assert_allclose(phi @ phi.T, k1 * k2, atol=1e-12)

    @pytest.mark.parametrize("kind", ["product", "additive"])
    def test_composite_backward_matches_fd(self, kind):
        cls = ft.ProductFeatureMap if kind == "product" else ft.AdditiveFeatureMap
        comp = cls(self.left, self.right)
        rng = np.random.default_rng(9)
        upstream = rng.standard_normal((8, comp.output_dim))
        grads = ft.backward(comp, self.X, upstream)
        params = comp.param_list()
        h = 1e-6
        worst = 0.0
        for k, base in enumerate(params):
            flat = base.ravel()
            for idx in range(flat.size):
                plus = [q.copy() for q in params]
                plus[k].ravel()[idx] += h
                minus = [q.copy() for q in params]
                minus[k].ravel()[idx] -= h
                fd = (np.sum(ft.forward(comp.replace_params(plus), self.X) * upstream)
                      - np.sum(ft.forward(comp.replace_params(minus), self.X) * upstream)) / (2 * h)
                g = grads[k].ravel()[idx]
                worst = max(worst, abs(g - fd) / max(1e-3, abs(g), abs(fd)))
        assert worst < 1e-6

    @pytest.mark.parametrize("kind", ["product", "additive"])
    def test_composite_serialization_round_trip(self, kind):
        cls = ft.ProductFeatureMap if kind == "product" else ft.AdditiveFeatureMap
        comp = cls(self.left, self.right)
        clone = ft.feature_map_from_json_dict(comp.to_json_dict())
        np.testing.assert_array_equal(ft.forward(comp, self.X),
                                      ft.forward(clone, self.X))

    def test_mismatched_input_dims_raise(self):
        other = random_map([2, 4, 2], seed=2)
        with pytest.raises(ShapeError):
            ft.ProductFeatureMap(self.left, other)
