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

import json

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

LAYER_NORM_EPS = 1e-5

FEATURE_MAP_FORMAT = "fmgp/feature-map@1"


class FeatureMap:
    """Parameter container for an MLP feature map.

    Parameters
    ----------
    widths : sequence of int
        Layer widths from input dimension to output dimension, so
        ``widths[0]`` is the input dimension and ``widths[-1]`` the number
        of features.  Needs at least one affine layer.
    weights, biases : lists of ndarray
        ``weights[l]`` has shape ``(widths[l], widths[l+1])`` and acts on
        row vectors from the right; ``biases[l]`` has shape ``(widths[l+1],)``.
    normalization : {"none", "layer_norm"}
        Whether hidden pre-activations are layer normalized.
    ln_gains, ln_offsets : lists of ndarray or None
        Per-hidden-layer gain and offset for layer normalization, each of
        shape ``(widths[l+1],)``.  Present only when normalization is on.
    rescale_to_unit : bool
        Rescale each output row to unit norm.  Zero rows are left as is.

    The container is treated as immutable during ``forward`` and
    ``backward``; training replaces parameter arrays wholesale.
    """

    def __init__(self, widths, weights, biases, normalization="none",
                 ln_gains=None, ln_offsets=None, rescale_to_unit=False):
        self.widths = [int(w) for w in widths]
        _validate_widths(self.widths)
        if normalization not in ("none", "layer_norm"):
            raise ConfigError(f"unknown normalization {normalization!r}")
        self.weights = list(weights)
        self.biases = list(biases)
        self.normalization = normalization
        self.rescale_to_unit = bool(rescale_to_unit)
        n_layers = len(self.widths) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ShapeError("parameter list length does not match widths")
        for l in range(n_layers):
            if self.weights[l].shape != (self.widths[l], self.widths[l + 1]):
                raise ShapeError(f"weight {l} has shape {self.weights[l].shape}, "
                                 f"expected {(self.widths[l], self.widths[l + 1])}")
            if self.biases[l].shape != (self.widths[l + 1],):
                raise ShapeError(f"bias {l} has shape {self.biases[l].shape}")
        if normalization == "layer_norm":
            if ln_gains is None or ln_offsets is None:
                raise ConfigError("layer_norm requires gains and offsets")
            self.ln_gains = list(ln_gains)
            self.ln_offsets = list(ln_offsets)
            if len(self.ln_gains) != n_layers - 1 or len(self.ln_offsets) != n_layers - 1:
                raise ShapeError("need one gain/offset pair per hidden layer")
            for l in range(n_layers - 1):
                if self.ln_gains[l].shape != (self.widths[l + 1],):
                    raise ShapeError(f"layer-norm gain {l} has shape {self.ln_gains[l].shape}")
                if self.ln_offsets[l].shape != (self.widths[l + 1],):
                    raise ShapeError(f"layer-norm offset {l} has shape {self.ln_offsets[l].shape}")
        else:
            self.ln_gains = None
            self.ln_offsets = None

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def output_dim(self):
        return self.widths[-1]

    @property
    def n_layers(self):
        return len(self.widths) - 1

    def param_list(self):
        """All trainable arrays in a fixed order.

        Per hidden layer: weight, bias, then gain and offset when layer
        normalization is on; the output layer contributes weight and bias.
        ``backward`` returns gradients in exactly this order and the Adam
        state is congruent with it.
        """
        params = []
        for l in range(self.n_layers):
            params.append(self.weights[l])
            params.append(self.biases[l])
            if self.normalization == "layer_norm" and l < self.n_layers - 1:
                params.append(self.ln_gains[l])
                params.append(self.ln_offsets[l])
        return params

    def replace_params(self, params):
        """Rebuild the map from a flat parameter list (see param_list)."""
        weights, biases, gains, offsets = [], [], [], []
        i = 0
        for l in range(self.n_layers):
            weights.append(params[i]); i += 1
            biases.append(params[i]); i += 1
            if self.normalization == "layer_norm" and l < self.n_layers - 1:
                gains.append(params[i]); i += 1
                offsets.append(params[i]); i += 1
        if i != len(params):
            raise ShapeError("parameter list length does not match the architecture")
        return FeatureMap(self.widths, weights, biases,
                          normalization=self.normalization,
                          ln_gains=gains if self.normalization == "layer_norm" else None,
                          ln_offsets=offsets if self.normalization == "layer_norm" else None,
                          rescale_to_unit=self.rescale_to_unit)

    def to_json_dict(self):
        doc = {
            "format": FEATURE_MAP_FORMAT,
            "kind": "mlp",
            "widths": self.widths,
            "activation": "relu",
            "normalization": self.normalization,
            "rescale_to_unit": self.rescale_to_unit,
            "layers": [],
        }
        for l in range(self.n_layers):
            layer = {
                "weight": self.weights[l].tolist(),
                "bias": self.biases[l].tolist(),
            }
            if self.normalization == "layer_norm" and l < self.n_layers - 1:
                layer["ln_gain"] = self.ln_gains[l].tolist()
                layer["ln_offset"] = self.ln_offsets[l].tolist()
            doc["layers"].append(layer)
        return doc

    def to_json(self):
        """Self-describing JSON text; round-trips float64 values exactly."""
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(doc):
        if doc.get("format") != FEATURE_MAP_FORMAT:
            raise ConfigError(f"unrecognized feature map format {doc.get('format')!r}")
        if doc.get("activation") != "relu":
            raise ConfigError(f"unsupported activation {doc.get('activation')!r}")
        widths = doc["widths"]
        normalization = doc["normalization"]
        weights = [np.asarray(layer["weight"], dtype=np.float64) for layer in doc["layers"]]
        biases = [np.asarray(layer["bias"], dtype=np.float64) for layer in doc["layers"]]
        gains = offsets = None
        if normalization == "layer_norm":
            gains = [np.asarray(layer["ln_gain"], dtype=np.float64)
                     for layer in doc["layers"][:-1]]
            offsets = [np.asarray(layer["ln_offset"], dtype=np.float64)
                       for layer in doc["layers"][:-1]]
        return FeatureMap(widths, weights, biases, normalization=normalization,
                          ln_gains=gains, ln_offsets=offsets,
                          rescale_to_unit=doc["rescale_to_unit"])

    @staticmethod
    def from_json(text):
        return FeatureMap.from_json_dict(json.loads(text))


def _validate_widths(widths):
    if len(widths) < 2:
        raise ConfigError("need at least an input and an output width")
    for w in widths:
        if w < 1:
            raise ConfigError(f"layer widths must be >= 1, got {widths}")


class _FeatureMapPair:
    """Two component maps on the same inputs; subclasses set kind and
    output_dim, which fix how the component features combine."""

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


class AdditiveFeatureMap(_FeatureMapPair):
    """Two maps stacked side by side; the induced kernel is the sum of theirs."""

    kind = "additive"

    @property
    def output_dim(self):
        return self.left.output_dim + self.right.output_dim


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
    weights, biases = [], []
    for l in range(len(widths) - 1):
        fan_in = widths[l]
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(widths[l], widths[l + 1])))
        biases.append(np.zeros(widths[l + 1]))
    gains = offsets = None
    if normalization == "layer_norm":
        gains = [np.ones(widths[l + 1]) for l in range(len(widths) - 2)]
        offsets = [np.zeros(widths[l + 1]) for l in range(len(widths) - 2)]
    return FeatureMap(widths, weights, biases, normalization=normalization,
                      ln_gains=gains, ln_offsets=offsets,
                      rescale_to_unit=rescale_to_unit)


def _check_finite_params(fmap):
    for l in range(fmap.n_layers):
        if not np.all(np.isfinite(fmap.weights[l])):
            raise NumericError(f"non-finite weight in layer {l}")
        if not np.all(np.isfinite(fmap.biases[l])):
            raise NumericError(f"non-finite bias in layer {l}")
    if fmap.normalization == "layer_norm":
        for l in range(fmap.n_layers - 1):
            if not (np.all(np.isfinite(fmap.ln_gains[l]))
                    and np.all(np.isfinite(fmap.ln_offsets[l]))):
                raise NumericError(f"non-finite layer-norm parameter in layer {l}")


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


def _forward_with_cache(fmap, inputs):
    """Run the map, keeping every intermediate needed for reverse mode."""
    h = inputs
    cache = {"inputs": inputs, "pre": [], "ln": [], "act": []}
    n_layers = fmap.n_layers
    for l in range(n_layers):
        a = h @ fmap.weights[l] + fmap.biases[l]
        cache["pre"].append(a)
        if l < n_layers - 1:
            if fmap.normalization == "layer_norm":
                mean = a.mean(axis=1, keepdims=True)
                centered = a - mean
                var = np.mean(centered * centered, axis=1, keepdims=True)
                inv_sd = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
                xhat = centered * inv_sd
                cache["ln"].append((xhat, inv_sd))
                a = xhat * fmap.ln_gains[l] + fmap.ln_offsets[l]
            else:
                cache["ln"].append(None)
            h = np.maximum(a, 0.0)
            cache["act"].append(h)
        else:
            h = a
    raw = h
    if fmap.rescale_to_unit:
        norms = np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
        safe = np.where(norms > 0.0, norms, 1.0)
        out = raw / safe
        cache["rescale"] = (raw, out, safe, norms[:, 0] > 0.0)
    else:
        out = raw
        cache["rescale"] = None
    return out, cache


def forward(fmap, inputs):
    """Map inputs (n, d) to features (n, p).

    Raises a numeric error naming the offending layer if any parameter is
    non-finite, and a shape error on dimension mismatch.  Composite maps
    evaluate their components and combine columns per their rule.
    """
    if isinstance(fmap, ProductFeatureMap):
        from .lowrank import product_features
        return product_features(forward(fmap.left, inputs), forward(fmap.right, inputs))
    if isinstance(fmap, AdditiveFeatureMap):
        return np.hstack([forward(fmap.left, inputs), forward(fmap.right, inputs)])
    _check_finite_params(fmap)
    inputs = _check_inputs(fmap, inputs)
    out, _ = _forward_with_cache(fmap, inputs)
    return out


def backward(fmap, inputs, upstream):
    """Gradient of sum(upstream * forward(fmap, inputs)) in the parameters.

    Parameters
    ----------
    upstream : ndarray, shape (n, p)
        Cotangent of the feature matrix.

    Returns
    -------
    list of ndarray
        Gradients in ``param_list`` order, each congruent with its
        parameter.  ReLU uses subgradient 0 at exactly 0.
    """
    if isinstance(fmap, ProductFeatureMap):
        upstream = np.asarray(upstream, dtype=np.float64)
        phi1 = forward(fmap.left, inputs)
        phi2 = forward(fmap.right, inputs)
        n, p1 = phi1.shape
        p2 = phi2.shape[1]
        if upstream.shape != (n, p1 * p2):
            raise ShapeError(f"upstream has shape {upstream.shape}, expected {(n, p1 * p2)}")
        up3 = upstream.reshape(n, p2, p1)
        d_left = np.einsum("nji,nj->ni", up3, phi2)
        d_right = np.einsum("nji,ni->nj", up3, phi1)
        return backward(fmap.left, inputs, d_left) + backward(fmap.right, inputs, d_right)
    if isinstance(fmap, AdditiveFeatureMap):
        upstream = np.asarray(upstream, dtype=np.float64)
        p1 = fmap.left.output_dim
        return (backward(fmap.left, inputs, upstream[:, :p1])
                + backward(fmap.right, inputs, upstream[:, p1:]))
    _check_finite_params(fmap)
    inputs = _check_inputs(fmap, inputs)
    upstream = np.asarray(upstream, dtype=np.float64)
    out, cache = _forward_with_cache(fmap, inputs)
    if upstream.shape != out.shape:
        raise ShapeError(f"upstream has shape {upstream.shape}, features {out.shape}")

    g = upstream
    if cache["rescale"] is not None:
        raw, unit, safe, nonzero = cache["rescale"]
        # unit = raw / |raw|; zero rows pass the map unchanged, so their
        # cotangent passes through unchanged too
        dot = np.sum(g * unit, axis=1, keepdims=True)
        g_rows = (g - dot * unit) / safe
        g = np.where(nonzero[:, None], g_rows, g)

    n_layers = fmap.n_layers
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    grad_gain = [None] * (n_layers - 1)
    grad_offset = [None] * (n_layers - 1)

    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1:
            act = cache["act"][l]
            g = g * (act > 0.0)
            if fmap.normalization == "layer_norm":
                xhat, inv_sd = cache["ln"][l]
                grad_gain[l] = np.sum(g * xhat, axis=0)
                grad_offset[l] = np.sum(g, axis=0)
                dxhat = g * fmap.ln_gains[l]
                m1 = dxhat.mean(axis=1, keepdims=True)
                m2 = np.mean(dxhat * xhat, axis=1, keepdims=True)
                g = inv_sd * (dxhat - m1 - xhat * m2)
        below = cache["act"][l - 1] if l > 0 else inputs
        grad_w[l] = below.T @ g
        grad_b[l] = np.sum(g, axis=0)
        if l > 0:
            g = g @ fmap.weights[l].T

    grads = []
    for l in range(n_layers):
        grads.append(grad_w[l])
        grads.append(grad_b[l])
        if fmap.normalization == "layer_norm" and l < n_layers - 1:
            grads.append(grad_gain[l])
            grads.append(grad_offset[l])
    return grads


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
