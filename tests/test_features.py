"""Tests for the MLP feature map: forward, reverse mode, Adam, composites."""

import numpy as np
import pytest

from fmgp import features as ft
from fmgp import model_file as mf
from fmgp.errors import ConfigError, DomainError, NumericError, ShapeError


def random_map(widths, seed, normalization="layer_norm", rescale=True):
    return ft.init_params(widths, seed, normalization=normalization,
                          rescale_to_unit=rescale)


class TestConstruction:
    def test_param_shapes(self):
        fmap = random_map([3, 5, 7, 4], seed=0)
        # per hidden layer: weight, bias, gain, offset; output: weight, bias
        shapes = [p.shape for layer in fmap.layers for p in layer]
        assert shapes == [(3, 5), (5,), (5,), (5,),
                          (5, 7), (7,), (7,), (7,),
                          (7, 4), (4,)]

    def test_no_norm_param_shapes(self):
        fmap = ft.init_params([2, 4, 3], seed=0)
        assert [p.shape for layer in fmap.layers for p in layer] == [(2, 4), (4,), (4, 3), (3,)]

    def test_he_init_scale(self):
        # weight std approximates sqrt(2 / fan_in) at large fan-in
        fmap = ft.init_params([400, 300, 2], seed=1)
        w = fmap.layers[0][0]
        np.testing.assert_allclose(w.std(), np.sqrt(2.0 / 400), rtol=0.05)
        assert np.all(fmap.layers[0][1] == 0.0)

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
        params = fmap.params + 1.0
        swapped = fmap.replace_params(params)
        np.testing.assert_array_equal(swapped.params, params)

    def test_serialization_round_trip(self):
        fmap = random_map([2, 4, 3], seed=3)
        clone = mf._feature_map(mf.feature_map_document(fmap))
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
        fmap = fmap.replace_params(np.zeros_like(fmap.params))
        out = ft.forward(fmap, np.ones((4, 2)))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_layer_norm_statistics(self):
        # hidden activations are standardized before gain and offset, so
        # with default gain 1 offset 0 the pre-ReLU rows have mean ~0
        fmap = ft.init_params([3, 50, 2], seed=4, normalization="layer_norm")
        X = np.random.default_rng(4).standard_normal((7, 3))
        a = X @ fmap.layers[0][0] + fmap.layers[0][1]
        mu = a.mean(axis=1, keepdims=True)
        var = a.var(axis=1, keepdims=True)
        xhat = (a - mu) / np.sqrt(var + ft.LAYER_NORM_EPS)
        hidden = np.maximum(xhat, 0.0)
        out = hidden @ fmap.layers[1][0] + fmap.layers[1][1]
        np.testing.assert_allclose(ft.forward(fmap, X), out, rtol=1e-12)

    def test_relu_masks_negatives(self):
        fmap = ft.init_params([1, 2, 1], seed=0)
        fmap.layers[0][0][...] = np.array([[1.0, -1.0]])
        fmap.layers[1][0][...] = np.array([[1.0], [1.0]])
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
        broken = fmap.replace_params(fmap.params.copy())
        # layer 1 is a normalized hidden layer, so it holds every key
        broken.layers[1][ft.LAYER_KEYS.index(key)].flat[-1] = np.nan
        X = np.zeros((4, 3))
        with pytest.raises(NumericError, match=f"non-finite {key} in layer 1"):
            ft.forward(broken, X)
        with pytest.raises(NumericError, match=f"non-finite {key} in layer 1"):
            ft.pullback(broken, X)


class TestBackward:
    @pytest.mark.parametrize("normalization", ["none", "layer_norm"])
    @pytest.mark.parametrize("rescale", [False, True])
    def test_matches_finite_differences(self, normalization, rescale):
        self.check_finite_differences([3, 5, 4], normalization, rescale)

    # the default map's depth, with unequal widths: reverse mode recomputes
    # a normalized layer's output that is the input of another hidden layer
    @pytest.mark.parametrize("normalization", ["none", "layer_norm"])
    @pytest.mark.parametrize("rescale", [False, True])
    def test_matches_finite_differences_with_two_hidden_layers(self, normalization, rescale):
        self.check_finite_differences([3, 5, 6, 4], normalization, rescale)

    @staticmethod
    def check_finite_differences(widths, normalization, rescale):
        rng = np.random.default_rng(11)
        fmap = ft.init_params(widths, seed=7, normalization=normalization,
                              rescale_to_unit=rescale)
        X = rng.standard_normal((9, 3))
        upstream = rng.standard_normal((9, 4))
        grads = ft.backward(fmap, X, upstream)
        params = fmap.params
        h = 1e-6
        worst = 0.0
        for idx in range(params.size):
            plus = params.copy()
            plus[idx] += h
            minus = params.copy()
            minus[idx] -= h
            fd = (np.sum(ft.forward(fmap.replace_params(plus), X) * upstream)
                  - np.sum(ft.forward(fmap.replace_params(minus), X) * upstream)) / (2 * h)
            g = grads[idx]
            worst = max(worst, abs(g - fd) / max(1e-3, abs(g), abs(fd)))
        assert worst < 1e-6

    def test_gradient_shapes_match_params(self):
        fmap = random_map([2, 6, 3], seed=1)
        X = np.random.default_rng(1).standard_normal((5, 2))
        grads = ft.backward(fmap, X, np.ones((5, 3)))
        assert grads.shape == fmap.params.shape


def reference_pullback(fmap, X, upstream):
    """phi and the gradient of sum(upstream * phi), by a plain reverse pass
    with full-size temporaries in the order of operations that pullback
    keeps: the reference for its row tiles and reused buffers."""
    if isinstance(fmap, (ft.ProductFeatureMap, ft.AdditiveFeatureMap)):
        phi1 = reference_pullback(fmap.left, X, None)[0]
        phi2 = reference_pullback(fmap.right, X, None)[0]
        d1, d2 = fmap.split(upstream, phi1, phi2)
        return fmap.combine(phi1, phi2), np.concatenate(
            [reference_pullback(fmap.left, X, d1)[1], reference_pullback(fmap.right, X, d2)[1]])
    h, acts, lns = X, [X], []
    last = len(fmap.layers) - 1
    for l, (weight, bias, *ln) in enumerate(fmap.layers):
        h = h @ weight + bias
        if l == last:
            break
        if ln:
            h = h - h.mean(axis=1, keepdims=True)
            inv_sd = 1.0 / np.sqrt((h * h).mean(axis=1, keepdims=True) + ft.LAYER_NORM_EPS)
            lns.append((h * inv_sd, inv_sd))
            h = np.maximum(lns[-1][0] * ln[0] + ln[1], 0.0)
        else:
            lns.append(None)
            h = np.maximum(h, 0.0)
        acts.append(h)
    if fmap.rescale_to_unit:
        safe = np.sqrt((h * h).sum(axis=1, keepdims=True))
        zero = ~(safe > 0.0)
        safe[zero] = 1.0
        h = h / safe
    if upstream is None:
        return h, None
    g, ones, grads = upstream, np.ones(len(X)), []
    if fmap.rescale_to_unit:
        dot = (g * h) @ np.ones((h.shape[1], 1))
        g = np.where(zero, g, (g - dot * h) / safe)
    for l in range(last, -1, -1):
        weight, _, *ln = fmap.layers[l]
        d_ln = []
        if l < last:
            g = g * (acts[l + 1] > 0.0)
            if ln:
                xhat, inv_sd = lns[l]
                g_xhat = g * xhat
                col = (ln[0] / g.shape[1])[:, None]
                m1, m2 = g @ col, g_xhat @ col
                d_ln = [ones @ g_xhat, ones @ g]
                g = (g * ln[0] - m1 - xhat * m2) * inv_sd
        grads = [acts[l].T @ g, ones @ g, *d_ln] + grads
        g = g @ weight.T
    return h, np.concatenate([grad.ravel() for grad in grads])


def per_array_adam(params, grads, first, second, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam on a list of arrays, one array at a time: the reference for
    the in-place vector update."""
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    new_params, new_first, new_second = [], [], []
    for p, g, m, v in zip(params, grads, first, second):
        m_next = b1 * m + (1.0 - b1) * g
        v_next = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m_next / bias1
        v_hat = v_next / bias2
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_first.append(m_next)
        new_second.append(v_next)
    return new_params, new_first, new_second


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestAdamStep:
    def test_matches_per_array_update_bit_for_bit(self):
        # a small map's layout, and a vector of several chunks and a remainder
        for shapes in ([(3, 5), (5,), (5,), (5,), (5, 2), (2,)],
                       [(ft.ADAM_CHUNK + 5,), (3, ft.ADAM_CHUNK // 2 + 7), (11,)]):
            self.check_against_per_array_update(shapes)

    @staticmethod
    def check_against_per_array_update(shapes):
        rng = np.random.default_rng(13)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        first = [np.zeros(shape) for shape in shapes]
        second = [np.zeros(shape) for shape in shapes]
        params = flat(arrays)
        state = ft.AdamState(params.size, learning_rate=0.03)
        for t in range(1, 6):
            grads = [rng.standard_normal(shape) * 10.0 ** (t - 3) for shape in shapes]
            arrays, first, second = per_array_adam(arrays, grads, first, second, t, 0.03)
            ft.adam_step(state, params, flat(grads))
            assert np.array_equal(params, flat(arrays))
            assert np.array_equal(state.moments[0], flat(first))
            assert np.array_equal(state.moments[1], flat(second))
        assert state.step_count == 5
        assert state.work.shape == (2, min(params.size, ft.ADAM_CHUNK))

    def test_first_step_is_signed_learning_rate(self):
        # with zero state, the bias-corrected update is lr * g / (|g| + eps)
        params = np.array([0.0, 0.0])
        grads = np.array([2.0, -0.5])
        state = ft.AdamState(params.size, learning_rate=0.01)
        ft.adam_step(state, params, grads)
        np.testing.assert_allclose(params,
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
        params = np.array([0.5])
        state = ft.AdamState(params.size, learning_rate=lr)
        ft.adam_step(state, params, np.array([g1]))
        ft.adam_step(state, params, np.array([g2]))
        np.testing.assert_allclose(float(params[0]), x, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        params = np.zeros(3)
        state = ft.AdamState(params.size, learning_rate=0.1)
        with pytest.raises(ShapeError):
            ft.adam_step(state, params, np.zeros(4))


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
        params = comp.params
        h = 1e-6
        worst = 0.0
        for idx in range(params.size):
            plus = params.copy()
            plus[idx] += h
            minus = params.copy()
            minus[idx] -= h
            fd = (np.sum(ft.forward(comp.replace_params(plus), self.X) * upstream)
                  - np.sum(ft.forward(comp.replace_params(minus), self.X) * upstream)) / (2 * h)
            g = grads[idx]
            worst = max(worst, abs(g - fd) / max(1e-3, abs(g), abs(fd)))
        assert worst < 1e-6

    @pytest.mark.parametrize("kind", ["product", "additive"])
    def test_composite_serialization_round_trip(self, kind):
        cls = ft.ProductFeatureMap if kind == "product" else ft.AdditiveFeatureMap
        comp = cls(self.left, self.right)
        clone = mf._feature_map(mf.feature_map_document(comp))
        np.testing.assert_array_equal(ft.forward(comp, self.X),
                                      ft.forward(clone, self.X))

    def test_mismatched_input_dims_raise(self):
        other = random_map([2, 4, 2], seed=2)
        with pytest.raises(ShapeError):
            ft.ProductFeatureMap(self.left, other)


class TestWorkspace:
    """One Workspace reused across pullback calls gives what separate
    workspaces for each call and each component give."""

    @staticmethod
    def make_map(kind):
        # the components have equal widths, so a buffer shared by mistake
        # between them has the shape of both and goes unnoticed by numpy
        left = random_map([3, 6, 6, 4], seed=0)
        right = random_map([3, 6, 6, 4], seed=1, normalization="none")
        if kind == "plain":
            return left
        cls = ft.ProductFeatureMap if kind == "product" else ft.AdditiveFeatureMap
        return cls(left, right)

    @staticmethod
    def apart(fmap, X, upstream):
        """phi and the gradient with a new workspace for each component."""
        if not isinstance(fmap, (ft.ProductFeatureMap, ft.AdditiveFeatureMap)):
            phi, vjp = ft.pullback(fmap, X)
            return phi, vjp(upstream, np.empty(fmap.params.size))
        phi1, vjp1 = ft.pullback(fmap.left, X)
        phi2, vjp2 = ft.pullback(fmap.right, X)
        d1, d2 = fmap.split(upstream, phi1, phi2)
        return fmap.combine(phi1, phi2), np.concatenate(
            [vjp1(d1, np.empty(fmap.left.params.size)),
             vjp2(d2, np.empty(fmap.right.params.size))])

    @pytest.mark.parametrize("kind", ["plain", "product", "additive"])
    def test_reused_workspace_matches_separate_ones(self, kind):
        rng = np.random.default_rng(17)
        first = self.make_map(kind)
        second = first.replace_params(first.params + 0.1 * rng.standard_normal(first.params.size))
        X1, X2 = rng.standard_normal((11, 3)), rng.standard_normal((7, 3))
        work = ft.Workspace()
        # a new map, new inputs, then the same map on other inputs
        for fmap, X in ((first, X1), (second, X2), (second, X1)):
            upstream = rng.standard_normal((X.shape[0], fmap.output_dim))
            phi, grads = self.apart(fmap, X, upstream)
            phi_fresh, vjp_fresh = ft.pullback(fmap, X)
            assert np.array_equal(phi_fresh, phi)
            assert np.array_equal(vjp_fresh(upstream, np.empty(fmap.params.size)), grads)
            phi_w, vjp_w = ft.pullback(fmap, X, work=work)
            assert np.array_equal(phi_w, phi)
            assert np.array_equal(vjp_w(upstream, np.empty(fmap.params.size)), grads)


class TestReversePass:
    """pullback and forward against reference_pullback, bit for bit.  Each
    map runs on one row tile and on rows that span several tiles of each
    hidden width and end in part of one; the row counts are multiples of
    64, so a matvec that BLAS splits among threads splits at whole blocks
    of rows in both passes."""

    # widths, normalization and rescale of each plain map
    MAPS = {"equal": ([3, 256, 256, 8], "layer_norm", True),
            "unequal": ([3, 16, 8, 4], "layer_norm", True),
            "unequal_wide": ([3, 512, 128, 4], "layer_norm", True),
            "unnormalized": ([3, 256, 256, 8], "none", True),
            "unnormalized_raw": ([3, 256, 256, 8], "none", False),
            "normalized_raw": ([3, 128, 256, 8], "layer_norm", False)}

    @classmethod
    def make_map(cls, kind, seed=0):
        if kind in ft.COMPOSITIONS:
            left = cls.make_map("unequal_wide", seed=1)
            right = cls.make_map("unnormalized", seed=2)
            return ft.COMPOSITIONS[kind](left, right)
        widths, normalization, rescale = cls.MAPS[kind]
        return ft.init_params(widths, seed, normalization=normalization,
                              rescale_to_unit=rescale)

    @pytest.mark.parametrize("kind, tall", [
        ("equal", 1216), ("unequal", 8256), ("unequal_wide", 1216), ("unnormalized", 1216),
        ("unnormalized_raw", 1216), ("normalized_raw", 1216), ("product", 1216),
        ("additive", 1216)])
    def test_matches_reference_bit_for_bit(self, kind, tall):
        fmap = self.make_map(kind)
        rng = np.random.default_rng(23)
        # biases, gains and offsets away from their initial values
        fmap = fmap.replace_params(fmap.params + 0.1 * rng.standard_normal(fmap.params.size))
        hidden = [w for m in (getattr(fmap, "left", fmap), getattr(fmap, "right", fmap))
                  for w in m.widths[1:-1]]
        assert tall > ft.TILE_VALUES // min(hidden) and tall % (ft.TILE_VALUES // max(hidden))
        work = ft.Workspace()
        for n in (9, tall):
            X = rng.standard_normal((n, 3))
            upstream = rng.standard_normal((n, fmap.output_dim))
            phi, vjp = ft.pullback(fmap, X, work=work)
            ref_phi, ref_grads = reference_pullback(fmap, X, upstream)
            assert np.array_equal(phi, ref_phi)
            assert np.array_equal(vjp(upstream, np.empty(fmap.params.size)), ref_grads)
            # the forward pass that keeps nothing, on its own arrays and on work's
            assert np.array_equal(ft.forward(fmap, X), ref_phi)
            assert np.array_equal(ft.forward(fmap, X, work=work), ref_phi)

    @pytest.mark.parametrize("kind", list(ft.COMPOSITIONS))
    def test_one_map_as_both_components(self, kind):
        # each component's vjp spends what it kept, so a map in both places
        # keeps its arrays twice
        fmap = self.make_map("unequal")
        fmap = ft.COMPOSITIONS[kind](fmap, fmap)
        rng = np.random.default_rng(29)
        X, upstream = rng.standard_normal((9, 3)), rng.standard_normal((9, fmap.output_dim))
        phi, vjp = ft.pullback(fmap, X)
        ref_phi, ref_grads = reference_pullback(fmap, X, upstream)
        assert np.array_equal(phi, ref_phi)
        assert np.array_equal(vjp(upstream, np.empty(fmap.params.size)), ref_grads)

    @pytest.mark.parametrize("kind", ["equal", "product"])
    def test_second_vjp_call_raises(self, kind):
        fmap = self.make_map(kind)
        X = np.random.default_rng(3).standard_normal((5, 3))
        upstream = np.ones((5, fmap.output_dim))
        _, vjp = ft.pullback(fmap, X)
        vjp(upstream, np.empty(fmap.params.size))
        with pytest.raises(DomainError, match="vjp runs once"):
            vjp(upstream, np.empty(fmap.params.size))

    @pytest.mark.parametrize("width", [1, 8, 100, 512, 5000])
    def test_tiles_start_at_whole_blocks_and_end_in_more_than_one_row(self, width):
        # one row at the end joins the tile before, as a lone row's matvec
        # is numpy's dot product, which rounds otherwise
        size = max(ft.TILE_VALUES // width // ft.TILE_ALIGN, 1) * ft.TILE_ALIGN
        for n in (1, 2, size - 1, size, size + 1, 2 * size + 1, 3 * size + 5):
            tiles = list(ft._tiles(ft.Workspace(), n, width))
            starts = [rows.start for rows, _ in tiles]
            assert starts == list(range(0, n, size))[:len(tiles)]
            assert [rows.stop for rows, _ in tiles] == starts[1:] + [n]
            assert all(tile.shape == (rows.stop - rows.start, width) for rows, tile in tiles)
            assert n == 1 or all(rows.stop - rows.start > 1 for rows, _ in tiles)
