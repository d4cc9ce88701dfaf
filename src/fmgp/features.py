"""ReLU multilayer perceptron feature maps with exact reverse-mode gradients.

A feature map sends inputs in R^d to feature vectors in R^p through a stack
of affine layers with ReLU activations.  Optional layer normalization sits
after each hidden affine map and before its activation, with learnable gain
and offset.  An optional final step rescales every output row to unit
Euclidean norm so the induced kernel has a constant diagonal.

Everything is float64 and deterministic for a fixed seed.  Gradients are
hand-written reverse mode; they are validated against central finite
differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from . import lowrank as lr
from .errors import ConfigError, NumericError, ShapeError

LAYER_NORM_EPS = 1e-5

FEATURE_MAP_FORMAT = "fmgp/feature-map@1"

# Parameter order within a layer; hidden layers carry the last two only
# when layer normalization is on.
LAYER_KEYS = ("weight", "bias", "ln_gain", "ln_offset")


def _layer_shapes(widths, normalization):
    """Per layer, the shapes of its parameters in LAYER_KEYS order."""
    shapes = []
    for l in range(len(widths) - 1):
        fan_in, fan_out = widths[l], widths[l + 1]
        layer = [(fan_in, fan_out), (fan_out,)]
        if normalization == "layer_norm" and l < len(widths) - 2:
            layer += [(fan_out,), (fan_out,)]
        shapes.append(layer)
    return shapes


class FeatureMap:
    """Parameter container for an MLP feature map.

    Parameters
    ----------
    widths : sequence of int
        Layer widths from input dimension to output dimension, so
        ``widths[0]`` is the input dimension and ``widths[-1]`` the number
        of features.  Needs at least one affine layer.
    layers : list of lists of ndarray
        ``layers[l]`` holds layer l's parameters in ``LAYER_KEYS`` order:
        the weight ``(widths[l], widths[l+1])``, acting on row vectors from
        the right, the bias ``(widths[l+1],)`` and, on hidden layers with
        layer normalization, its gain and offset ``(widths[l+1],)``.
    normalization : {"none", "layer_norm"}
        Whether hidden pre-activations are layer normalized.
    rescale_to_unit : bool
        Rescale each output row to unit norm.  Zero rows are left as is.

    The container is treated as immutable during ``forward`` and
    ``pullback``; training replaces parameter arrays wholesale.
    """

    def __init__(self, widths, layers, normalization="none", rescale_to_unit=False):
        self.widths = [int(w) for w in widths]
        _validate_widths(self.widths)
        if normalization not in ("none", "layer_norm"):
            raise ConfigError(f"unknown normalization {normalization!r}")
        self.normalization = normalization
        self.rescale_to_unit = bool(rescale_to_unit)
        self.layers = [list(layer) for layer in layers]
        shapes = _layer_shapes(self.widths, normalization)
        if [len(layer) for layer in self.layers] != [len(s) for s in shapes]:
            raise ShapeError("parameter layout does not match widths and normalization")
        for l, (layer, layer_shapes) in enumerate(zip(self.layers, shapes)):
            for key, array, shape in zip(LAYER_KEYS, layer, layer_shapes):
                if array.shape != shape:
                    raise ShapeError(f"{key} {l} has shape {array.shape}, expected {shape}")

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def output_dim(self):
        return self.widths[-1]

    @property
    def weights(self):
        return [layer[0] for layer in self.layers]

    @property
    def biases(self):
        return [layer[1] for layer in self.layers]

    def param_list(self):
        """All trainable arrays in a fixed order: layer by layer, each in
        LAYER_KEYS order.  ``pullback`` returns gradients in exactly this
        order and the Adam state is congruent with it.
        """
        return [p for layer in self.layers for p in layer]

    def replace_params(self, params):
        """Rebuild the map from a flat parameter list (see param_list)."""
        if len(params) != sum(len(layer) for layer in self.layers):
            raise ShapeError("parameter list length does not match the architecture")
        rest = iter(params)
        return FeatureMap(self.widths, [[next(rest) for _ in layer] for layer in self.layers],
                          normalization=self.normalization,
                          rescale_to_unit=self.rescale_to_unit)

    def to_json_dict(self):
        return {
            "format": FEATURE_MAP_FORMAT,
            "kind": "mlp",
            "widths": self.widths,
            "activation": "relu",
            "normalization": self.normalization,
            "rescale_to_unit": self.rescale_to_unit,
            "layers": [{key: array.tolist() for key, array in zip(LAYER_KEYS, layer)}
                       for layer in self.layers],
        }

    @staticmethod
    def from_json_dict(doc):
        if doc.get("format") != FEATURE_MAP_FORMAT:
            raise ConfigError(f"unrecognized feature map format {doc.get('format')!r}")
        if doc.get("activation") != "relu":
            raise ConfigError(f"unsupported activation {doc.get('activation')!r}")
        # a layer of k entries holds the first k keys; the constructor
        # checks k against the layout
        layers = [[np.asarray(layer[key], dtype=np.float64) for key in LAYER_KEYS[:len(layer)]]
                  for layer in doc["layers"]]
        return FeatureMap(doc["widths"], layers, normalization=doc["normalization"],
                          rescale_to_unit=doc["rescale_to_unit"])


def _validate_widths(widths):
    if len(widths) < 2:
        raise ConfigError("need at least an input and an output width")
    for w in widths:
        if w < 1:
            raise ConfigError(f"layer widths must be >= 1, got {widths}")


class _FeatureMapPair:
    """Two component maps on the same inputs; subclasses set kind,
    output_dim and the static methods combine (component features to
    composite features) and split (composite cotangent to component
    cotangents)."""

    def __init__(self, left, right):
        if left.input_dim != right.input_dim:
            raise ShapeError("component maps must share the input dimension")
        self.left = left
        self.right = right

    @property
    def input_dim(self):
        return self.left.input_dim

    def param_list(self):
        return self.left.param_list() + self.right.param_list()

    def replace_params(self, params):
        cut = len(self.left.param_list())
        return type(self)(self.left.replace_params(params[:cut]),
                          self.right.replace_params(params[cut:]))

    def to_json_dict(self):
        return {"format": FEATURE_MAP_FORMAT, "kind": self.kind,
                "left": self.left.to_json_dict(),
                "right": self.right.to_json_dict()}


class ProductFeatureMap(_FeatureMapPair):
    """Two maps combined so the induced kernel is the product of theirs.

    The combined feature vector is the flattened outer product of the two
    component feature vectors; column i of the left map times column j of
    the right map lands in combined column i + (j - 1) * p1, 1-based.
    When both components rescale to unit norm the combined rows are unit
    norm as well, since |a (x) b| = |a| |b|.
    """

    kind = "product"

    @property
    def output_dim(self):
        return self.left.output_dim * self.right.output_dim

    @staticmethod
    def combine(phi1, phi2):
        return lr.product_features(phi1, phi2)

    @staticmethod
    def split(upstream, phi1, phi2):
        n, p1 = phi1.shape
        up3 = upstream.reshape(n, phi2.shape[1], p1)
        return np.einsum("nji,nj->ni", up3, phi2), np.einsum("nji,ni->nj", up3, phi1)


class AdditiveFeatureMap(_FeatureMapPair):
    """Two maps stacked side by side; the induced kernel is the sum of theirs."""

    kind = "additive"

    @property
    def output_dim(self):
        return self.left.output_dim + self.right.output_dim

    @staticmethod
    def combine(phi1, phi2):
        return np.hstack([phi1, phi2])

    @staticmethod
    def split(upstream, phi1, phi2):
        p1 = phi1.shape[1]
        return upstream[:, :p1], upstream[:, p1:]


def feature_map_from_json_dict(doc):
    """Reconstruct any feature map (plain or composite) from its document."""
    kind = doc.get("kind", "mlp")
    if kind == "mlp":
        return FeatureMap.from_json_dict(doc)
    if kind in ("product", "additive"):
        left = feature_map_from_json_dict(doc["left"])
        right = feature_map_from_json_dict(doc["right"])
        cls = ProductFeatureMap if kind == "product" else AdditiveFeatureMap
        return cls(left, right)
    raise ConfigError(f"unrecognized feature map kind {kind!r}")


def init_params(widths, seed, normalization="none", rescale_to_unit=False):
    """Create a freshly initialized feature map.

    Weights are drawn N(0, 2/fan_in) (He scaling for ReLU stacks), biases
    start at zero, layer-norm gains at one and offsets at zero.  The same
    seed always produces the same parameters.
    """
    widths = [int(w) for w in widths]
    _validate_widths(widths)
    rng = np.random.default_rng(seed)
    fills = (np.zeros, np.ones, np.zeros)  # bias, ln_gain, ln_offset
    layers = []
    for shapes in _layer_shapes(widths, normalization):
        weight = rng.normal(0.0, np.sqrt(2.0 / shapes[0][0]), size=shapes[0])
        layers.append([weight] + [fill(s) for fill, s in zip(fills, shapes[1:])])
    return FeatureMap(widths, layers, normalization=normalization,
                      rescale_to_unit=rescale_to_unit)


def _check_finite_params(fmap):
    for l, layer in enumerate(fmap.layers):
        for key, array in zip(LAYER_KEYS, layer):
            if not np.all(np.isfinite(array)):
                raise NumericError(f"non-finite {key} in layer {l}")


def _check_inputs(fmap, inputs):
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ShapeError(f"inputs must be 2-d, got shape {inputs.shape}")
    if inputs.shape[1] != fmap.input_dim:
        raise ShapeError(f"inputs have {inputs.shape[1]} columns, "
                         f"feature map expects {fmap.input_dim}")
    if not np.all(np.isfinite(inputs)):
        raise NumericError("non-finite value in inputs")
    return inputs


def _forward_with_cache(fmap, inputs, keep=True):
    """Check parameters and inputs, then run the map, keeping every
    intermediate needed for reverse mode unless keep is false.

    cache["act"][l] is the input of layer l (the inputs, then each hidden
    ReLU output); cache["ln"][l] is (xhat, inv_sd) of a layer-normalized
    hidden layer, else None.
    """
    _check_finite_params(fmap)
    h = inputs = _check_inputs(fmap, inputs)
    cache = {"ln": [], "act": [inputs], "rescale": None}
    last = len(fmap.layers) - 1
    for l, (weight, bias, *ln) in enumerate(fmap.layers):
        h = h @ weight + bias
        if l < last:
            if ln:
                mean = h.mean(axis=1, keepdims=True)
                centered = h - mean
                var = np.mean(centered * centered, axis=1, keepdims=True)
                inv_sd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
                xhat = centered * inv_sd
                if keep:
                    cache["ln"].append((xhat, inv_sd))
                h = xhat * ln[0] + ln[1]
            else:
                cache["ln"].append(None)
            h = np.maximum(h, 0.0)
            if keep:
                cache["act"].append(h)
    if not fmap.rescale_to_unit:
        return h, cache
    norms = np.sqrt(np.sum(h * h, axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    out = h / safe
    cache["rescale"] = (out, safe, norms[:, 0] > 0.0)
    return out, cache


def forward(fmap, inputs):
    """Map inputs (n, d) to features (n, p).

    Raises a numeric error naming the offending parameter and layer if any
    parameter is non-finite, and a shape error on dimension mismatch.
    Composite maps evaluate their components one after the other and
    combine the features per their rule.
    """
    if isinstance(fmap, _FeatureMapPair):
        return fmap.combine(forward(fmap.left, inputs), forward(fmap.right, inputs))
    # kept intermediates double the working set, and freeing that much at once
    # lets the allocator return the pages to the OS, to fault in every call
    return _forward_with_cache(fmap, inputs, keep=False)[0]


def pullback(fmap, inputs):
    """Features and their reverse mode from one forward pass.

    Returns (phi, vjp): phi = forward(fmap, inputs), and vjp(upstream)
    gives the gradient of sum(upstream * phi) in the parameters, in
    ``param_list`` order, each congruent with its parameter.  upstream is
    the (n, p) cotangent of phi.  ReLU uses subgradient 0 at exactly 0.
    """
    if isinstance(fmap, _FeatureMapPair):
        phi1, vjp1 = pullback(fmap.left, inputs)
        phi2, vjp2 = pullback(fmap.right, inputs)
        phi = fmap.combine(phi1, phi2)
        shape = phi.shape

        def vjp(upstream):
            upstream = np.asarray(upstream, dtype=np.float64)
            if upstream.shape != shape:
                raise ShapeError(f"upstream has shape {upstream.shape}, features {shape}")
            d1, d2 = fmap.split(upstream, phi1, phi2)
            return vjp1(d1) + vjp2(d2)
        return phi, vjp

    out, cache = _forward_with_cache(fmap, inputs)

    def vjp(upstream):
        g = np.asarray(upstream, dtype=np.float64)
        if g.shape != out.shape:
            raise ShapeError(f"upstream has shape {g.shape}, features {out.shape}")
        if cache["rescale"] is not None:
            unit, safe, nonzero = cache["rescale"]
            # unit = raw / |raw|; zero rows pass the map unchanged, so their
            # cotangent passes through unchanged too
            dot = np.sum(g * unit, axis=1, keepdims=True)
            g_rows = (g - dot * unit) / safe
            g = np.where(nonzero[:, None], g_rows, g)

        last = len(fmap.layers) - 1
        grads = [None] * (last + 1)
        for l in range(last, -1, -1):
            weight, _, *ln = fmap.layers[l]
            ln_grads = []
            if l < last:
                g = g * (cache["act"][l + 1] > 0.0)
                if ln:
                    xhat, inv_sd = cache["ln"][l]
                    ln_grads = [np.sum(g * xhat, axis=0), np.sum(g, axis=0)]
                    dxhat = g * ln[0]
                    m1 = dxhat.mean(axis=1, keepdims=True)
                    m2 = np.mean(dxhat * xhat, axis=1, keepdims=True)
                    g = inv_sd * (dxhat - m1 - xhat * m2)
            grads[l] = [cache["act"][l].T @ g, np.sum(g, axis=0), *ln_grads]
            if l > 0:
                g = g @ weight.T
        return [grad for layer in grads for grad in layer]
    return out, vjp


def backward(fmap, inputs, upstream):
    """Gradient of sum(upstream * forward(fmap, inputs)) in the parameters,
    in ``param_list`` order (see pullback)."""
    return pullback(fmap, inputs)[1](upstream)


class AdamState:
    """Adam optimizer state congruent with a parameter list."""

    def __init__(self, first_moment, second_moment, step_count, learning_rate,
                 beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.first_moment = first_moment
        self.second_moment = second_moment
        self.step_count = int(step_count)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    @staticmethod
    def create(params, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        return AdamState([np.zeros_like(p) for p in params],
                         [np.zeros_like(p) for p in params],
                         0, learning_rate, beta1, beta2, epsilon)


def adam_step(state, params, grads):
    """One Adam update; returns (new_params, new_state).

    With zero moments and a single scalar gradient g the first step moves
    the parameter by -lr * g / (|g| + eps), which the tests pin down.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("params, grads and state must be congruent")
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m_next = b1 * m + (1.0 - b1) * g
        v_next = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m_next / bias1
        v_hat = v_next / bias2
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m_next)
        new_v.append(v_next)
    return new_params, AdamState(new_m, new_v, t, state.learning_rate,
                                 b1, b2, state.epsilon)
