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

import math

import numpy as np

from . import lowrank as lr
from .errors import (ConfigError, DomainError, NumericError, ShapeError, check_array,
                     check_count)

LAYER_NORM_EPS = 1e-5
NORMALIZATIONS = ("none", "layer_norm")

# Parameter order within a layer; hidden layers carry the last two only
# when layer normalization is on.
LAYER_KEYS = ("weight", "bias", "ln_gain", "ln_offset")

# Adam's decay rates and denominator offset (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# The values of one row tile, 512 KB: the forward pass and reverse mode
# form their elementwise products of an (n, width) array a tile at a
# time in one buffer of this size, never in a full-size one
TILE_VALUES = 1 << 16
# tiles start at a multiple of this many rows, a multiple of BLAS's blocks
TILE_ALIGN = 16

# The values of one chunk of adam_step, whose work space is two chunks
ADAM_CHUNK = 1 << 14


def _check_normalization(normalization):
    if normalization not in NORMALIZATIONS:
        raise ConfigError(f"unknown normalization {normalization!r}")
    return normalization


def _layer_shapes(widths, normalization):
    """Per layer, the shapes of its parameters in LAYER_KEYS order; checks the widths."""
    if len(widths) < 2:
        raise ConfigError("need at least an input and an output width")
    check_count(ConfigError, **{f"widths[{i}]": width for i, width in enumerate(widths)})
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
    params : 1-d float64 ndarray
        Every parameter, kept, not copied.  ``layers[l]`` holds views into
        it of layer l's parameters, laid out in ``LAYER_KEYS`` order: the
        weight ``(widths[l], widths[l+1])``, acting on row vectors from the
        right, the bias ``(widths[l+1],)`` and, on normalized hidden
        layers, the gain and offset ``(widths[l+1],)``.
    normalization : {"none", "layer_norm"}
        Whether hidden pre-activations are layer normalized.
    rescale_to_unit : bool
        Rescale each output row to unit norm.  Zero rows are left as is.
    """

    kind = "mlp"

    def __init__(self, widths, params, normalization="none", rescale_to_unit=False):
        self.widths = [int(w) for w in widths]
        self.normalization = _check_normalization(normalization)
        self.rescale_to_unit = bool(rescale_to_unit)
        # per layer, the (start, stop, shape) of each parameter in params
        self._layout, stop = [], 0
        for shapes in _layer_shapes(widths, normalization):
            self._layout.append([])
            for shape in shapes:
                start, stop = stop, stop + math.prod(shape)
                self._layout[-1].append((start, stop, shape))
        self._size = stop
        self.params = np.asarray(params, dtype=np.float64)
        self.layers = self._views(self.params)

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def output_dim(self):
        return self.widths[-1]

    def _views(self, vector):
        """Per-layer views of a vector in the layout of params."""
        check_array("parameter vector", vector, (self._size,))
        return [[vector[start:stop].reshape(shape) for start, stop, shape in layer]
                for layer in self._layout]

    def replace_params(self, params):
        """The same architecture on the parameter vector params, not copied."""
        return FeatureMap(self.widths, params, normalization=self.normalization,
                          rescale_to_unit=self.rescale_to_unit)


class _FeatureMapPair:
    """Two component maps on the same inputs; subclasses set kind,
    output_dim and the static methods combine (component features to
    composite features) and split (composite cotangent to component
    cotangents)."""

    def __init__(self, left, right):
        for name, part in (("left", left), ("right", right)):
            _check_feature_map(part, name)
        if left.input_dim != right.input_dim:
            raise ShapeError("component maps must share the input dimension")
        self.left = left
        self.right = right

    @property
    def input_dim(self):
        return self.left.input_dim

    @property
    def params(self):
        """A copy of the left then the right component's vector."""
        return np.concatenate([self.left.params, self.right.params])

    def replace_params(self, params):
        cut = self.left.params.size
        return type(self)(self.left.replace_params(params[:cut]),
                          self.right.replace_params(params[cut:]))


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


# every pair map by its kind: the compositions that configs and model files name
COMPOSITIONS = {pair.kind: pair for pair in (ProductFeatureMap, AdditiveFeatureMap)}


def _check_feature_map(fmap, name):
    """fmap, unless it is neither a FeatureMap nor a pair map: a DomainError
    that names the argument."""
    if not isinstance(fmap, (FeatureMap, _FeatureMapPair)):
        raise DomainError(f"{name} must be a FeatureMap or a pair map, "
                          f"got {type(fmap).__name__}")
    return fmap


def init_params(widths, seed, normalization="none", rescale_to_unit=False):
    """Create a freshly initialized feature map.

    Weights are drawn N(0, 2/fan_in) (He scaling for ReLU stacks), biases
    start at zero, layer-norm gains at one and offsets at zero.  The same
    seed always produces the same parameters.
    """
    check_count(DomainError, low=0, seed=seed)
    rng = np.random.default_rng(seed)
    fills = (np.zeros, np.ones, np.zeros)  # bias, ln_gain, ln_offset
    arrays = []
    for shapes in _layer_shapes(widths, normalization):
        arrays.append(rng.normal(0.0, np.sqrt(2.0 / shapes[0][0]), size=shapes[0]).ravel())
        arrays += [fill(s) for fill, s in zip(fills, shapes[1:])]
    return FeatureMap(widths, np.concatenate(arrays), normalization=normalization,
                      rescale_to_unit=rescale_to_unit)


def _check_finite_params(fmap):
    if not np.all(np.isfinite(fmap.params)):
        for l, layer in enumerate(fmap.layers):
            for key, array in zip(LAYER_KEYS, layer):
                if not np.all(np.isfinite(array)):
                    raise NumericError(f"non-finite {key} in layer {l}")


class Workspace:
    """Arrays kept from one call to the next, so that the steps of a fit,
    whose shapes never change, allocate their arrays only once.

    buffer(key, shape) returns the first shape[0] rows of the array stored
    under key, and allocates a new one only when that array has fewer rows
    or another row shape; created counts those allocations.  The forward
    pass keys what it keeps by the place in its pairs of the component
    map that keeps it, so the two components of a pair keep theirs
    apart: one (n, width) array per hidden layer and the features.  Its
    scratch is keyed by width alone and shared, since the components run
    one after the other: one slot per width for a step (two, used in
    turn, for a forward pass that keeps nothing), one bool ReLU mask per
    hidden width, reverse mode's matvec column, and one tile buffer of
    about TILE_VALUES values for all widths.
    """

    def __init__(self):
        self._arrays = {}
        self.created = 0

    def buffer(self, key, shape, dtype=np.float64):
        array = self._arrays.get(key)
        if array is None or array.shape[0] < shape[0] or array.shape[1:] != shape[1:]:
            array = self._arrays[key] = np.empty(shape, dtype)
            self.created += 1
        return array[:shape[0]]


def _tiles(work, n, width):
    """(rows, tile) per row tile of an (n, width) array: rows a slice of
    about TILE_VALUES values, tile that many rows of the workspace's one
    tile buffer.  BLAS's matvec takes rows in blocks, and a row rounds
    alike in every block but otherwise in a partial block or, as numpy's
    dot product, alone.  So tiles start at multiples of TILE_ALIGN rows,
    and a last row that would be a tile of its own joins the tile before:
    on one BLAS thread the rows of a matvec then round as in one matvec
    over all n."""
    size = max(TILE_VALUES // width // TILE_ALIGN, 1) * TILE_ALIGN
    flat = work.buffer(("tile",), ((size + 1) * width,))
    start = 0
    while start < n:
        stop = n if n - start <= size + 1 else start + size
        yield slice(start, stop), flat[:(stop - start) * width].reshape(-1, width)
        start = stop


def _row_squares(h, out, work):
    """The sum of h * h along each row into out (n, 1), squaring one row
    tile of h at a time."""
    for rows, tile in _tiles(work, *h.shape):
        np.sum(np.multiply(h[rows], h[rows], out=tile), axis=1, keepdims=True, out=out[rows])
    return out


def _row_mean(x, out):
    """The mean of each row of x into out (k, 1), with np.mean's arithmetic
    (a row sum, then a division by the width) but not its wrapper."""
    np.add.reduce(x, axis=1, keepdims=True, out=out)
    out /= x.shape[1]
    return out


def _ln_relu(xhat, gain, offset, out):
    """max(xhat * gain + offset, 0), a normalized layer's ReLU output, into
    out (which may be xhat).  The forward pass and its reverse mode both
    call it, so the output reverse mode recomputes is the forward one bit
    for bit."""
    np.multiply(xhat, gain, out=out)
    out += offset
    return np.maximum(out, 0.0, out=out)


def _forward_with_cache(fmap, inputs, keep=True, work=None, owner=None):
    """Check parameters and inputs, then run the map, keeping what reverse
    mode needs unless keep is false: one (n, width) array per hidden layer.

    cache["act"][l] is the input of layer l: the inputs, the ReLU output
    of an unnormalized hidden layer, or None after a layer-normalized one,
    whose output reverse mode recomputes with _ln_relu from
    cache["ln"][l - 1] = (xhat, inv_sd); cache["ln"][l] is None on an
    unnormalized layer.  Every array is a buffer of work (a new Workspace
    when None), and each layer works in place on its product.  The matmul
    runs whole, since a row-tiled one may round otherwise; the rest of a
    normalized layer (bias, centring, variance, scale, ReLU) runs a row
    tile at a time, its squares in the tile buffer, as do the rescale
    norm's squares.  Layer-norm statistics are per row, so each tile
    needs no other rows.  The features and what keep keeps are keyed by
    owner (fmap when None).  With keep, a normalized layer's ReLU output goes
    into the one slot of its width, which the next layer reads before it
    writes its own.  Without, a hidden layer's output goes into slot
    l % 2 of its width, so it never overwrites the layer's input.
    """
    _check_finite_params(fmap)
    h = inputs = check_array("inputs", inputs, (None, fmap.input_dim), NumericError)
    work = Workspace() if work is None else work
    owner = fmap if owner is None else owner
    n = inputs.shape[0]
    cache = {"ln": [], "act": [inputs], "rescale": None}
    last = len(fmap.layers) - 1
    for l, (weight, bias, *ln) in enumerate(fmap.layers):
        shape = (n, weight.shape[1])
        slot = ("slot", shape[1], 0 if keep else l % 2)
        if l == last:
            key = (owner, "phi")
        elif keep:
            key = (owner, "xhat" if ln else "act", l)
        else:
            key = slot
        h = np.matmul(h, weight, out=work.buffer(key, shape))
        if not ln:
            h += bias
            if l < last:
                cache["ln"].append(None)
                cache["act"].append(np.maximum(h, 0.0, out=h))
            continue
        inv_sd = work.buffer((owner, "inv_sd", l) if keep else ("col", 0), (n, 1))
        relu = work.buffer(slot, shape)
        for rows, tile in _tiles(work, *shape):
            x, s = h[rows], inv_sd[rows]
            x += bias
            x -= _row_mean(x, s)
            _row_mean(np.multiply(x, x, out=tile), s)
            s += LAYER_NORM_EPS
            np.sqrt(s, out=s)
            np.divide(1.0, s, out=s)
            x *= s
            _ln_relu(x, ln[0], ln[1], out=relu[rows])
        cache["ln"].append((h, inv_sd))
        cache["act"].append(None)
        h = relu
    if not fmap.rescale_to_unit:
        return h, cache
    safe = work.buffer((owner, "safe"), (n, 1))
    zero = work.buffer((owner, "zero"), (n, 1), bool)
    np.sqrt(_row_squares(h, safe, work), out=safe)
    np.logical_not(np.greater(safe, 0.0, out=zero), out=zero)
    np.copyto(safe, 1.0, where=zero)
    h /= safe
    cache["rescale"] = (h, safe, zero)
    return h, cache


def forward(fmap, inputs, work=None):
    """Map inputs (n, d) to features (n, p).

    Raises a numeric error naming the offending parameter and layer if any
    parameter is non-finite, and a shape error on dimension mismatch.
    Composite maps evaluate their components one after the other and
    combine the features per their rule.  With a Workspace, a single
    map's features are a buffer of work, valid only until its next use.
    """
    if isinstance(fmap, _FeatureMapPair):
        return fmap.combine(forward(fmap.left, inputs, work=work),
                            forward(fmap.right, inputs, work=work))
    # kept intermediates double the working set, and freeing that much at once
    # lets the allocator return the pages to the OS, to fault in every call
    return _forward_with_cache(fmap, inputs, keep=False, work=work)[0]


def pullback(fmap, inputs, work=None):
    """Features and their reverse mode from one forward pass.

    Returns (phi, vjp): phi = forward(fmap, inputs), and vjp(upstream,
    out) writes the gradient of sum(upstream * phi) into out, a vector
    in the layout of ``params``, and returns out.  upstream is the (n, p)
    cotangent of phi.  ReLU uses subgradient 0 at exactly 0.  vjp runs
    once: it works in the arrays the forward pass kept, so a second call
    is a DomainError.  With a Workspace, phi and vjp run on its buffers
    and are valid only until its next use; without, each call allocates
    its own.  A step holds one (n, width) array per hidden layer and
    component and one slot per hidden width, and forms its other
    elementwise products a row tile at a time.
    """
    return _pullback(fmap, inputs, Workspace() if work is None else work, ())


def _pullback(fmap, inputs, work, place):
    """pullback, with what reverse mode needs kept under place, the map's
    place in its pairs: each vjp spends what it keeps, so a map that is
    two components keeps it twice."""
    if isinstance(fmap, _FeatureMapPair):
        phi1, vjp1 = _pullback(fmap.left, inputs, work, place + ("left",))
        phi2, vjp2 = _pullback(fmap.right, inputs, work, place + ("right",))
        phi = fmap.combine(phi1, phi2)
        cut = fmap.left.params.size

        def vjp(upstream, out):
            d1, d2 = fmap.split(check_array("upstream", upstream, phi.shape), phi1, phi2)
            vjp1(d1, out[:cut])
            vjp2(d2, out[cut:])
            return out
        return phi, vjp

    phi, cache = _forward_with_cache(fmap, inputs, work=work, owner=place)
    spent = False

    def vjp(upstream, out):
        nonlocal spent
        g = check_array("upstream", upstream, phi.shape)
        if spent:
            raise DomainError("vjp runs once per pullback: its first call spent "
                              "the arrays of the forward pass")
        spent = True
        grads = fmap._views(out)
        n = g.shape[0]
        m1, m2 = work.buffer(("col", 0), (n, 1)), work.buffer(("col", 1), (n, 1))
        # row means and column sums as matvecs, which BLAS runs several
        # times faster than a ufunc reduction over short rows
        ones = work.buffer(("ones",), (n,))
        ones.fill(1.0)
        last = len(fmap.layers) - 1
        if cache["rescale"] is not None:
            unit, safe, zero = cache["rescale"]
            # unit = raw / |raw|; zero rows pass the map unchanged, so their
            # cotangent passes through unchanged too
            rows = work.buffer(("raw", g.shape[1]), g.shape)
            col = work.buffer(("matvec", g.shape[1]), (g.shape[1], 1))
            col.fill(1.0)
            dot = np.matmul(np.multiply(g, unit, out=rows), col, out=m1)
            np.subtract(g, np.multiply(dot, unit, out=rows), out=rows)
            rows /= safe
            np.copyto(rows, g, where=zero)
            g = rows

        for l in range(last, -1, -1):
            weight, _, *ln = fmap.layers[l]
            d_weight, d_bias, *d_ln = grads[l]
            if l < last:
                g *= mask
                # layer l's kept output, spent once its mask is applied
                # (unnormalized) or its gain gradient taken (normalized)
                kept = cache["act"][l + 1]
                if ln:
                    kept, inv_sd = cache["ln"][l]
                    np.matmul(ones, g, out=d_ln[1])
                    # the row means of dxhat = g * gain and of dxhat * xhat
                    col = work.buffer(("matvec", g.shape[1]), (g.shape[1], 1))
                    np.divide(ln[0], g.shape[1], out=col[:, 0])
                    for r, g_xhat in _tiles(work, *g.shape):
                        g_r, xhat = g[r], kept[r]
                        np.multiply(g_r, xhat, out=g_xhat)
                        np.matmul(g_r, col, out=m1[r])
                        np.matmul(g_xhat, col, out=m2[r])
                        g_r *= ln[0]  # now dxhat
                        g_r -= m1[r]
                        g_r -= np.multiply(xhat, m2[r], out=xhat)
                        g_r *= inv_sd[r]
                        # xhat's rows, now spent, keep g * xhat for the gain
                        np.copyto(xhat, g_xhat)
                    np.matmul(ones, kept, out=d_ln[0])
            act = cache["act"][l]
            if l > 0:
                # the recomputed input of layer l, then its cotangent, go
                # into layer l's spent output when the widths agree, else
                # into the one slot of the input's width: never where g is
                into = (kept if l < last and kept.shape[1] == weight.shape[0] else
                        work.buffer(("slot", weight.shape[0], 0), (n, weight.shape[0])))
                if act is None:
                    _, _, gain, offset = fmap.layers[l - 1]
                    act = _ln_relu(cache["ln"][l - 1][0], gain, offset, out=into)
                mask = np.greater(act, 0.0, out=work.buffer(("mask", into.shape[1]),
                                                            into.shape, bool))
            np.matmul(act.T, g, out=d_weight)
            np.matmul(ones, g, out=d_bias)
            if l > 0:
                g = np.matmul(g, weight.T, out=into)
        return out
    return phi, vjp


def backward(fmap, inputs, upstream):
    """Gradient of sum(upstream * forward(fmap, inputs)) in the parameters,
    one vector in the layout of ``params`` (see pullback)."""
    return pullback(fmap, inputs)[1](upstream, np.empty(fmap.params.size))


class AdamState:
    """Adam's step count, (2, size) moments and a (2, ADAM_CHUNK) work space
    (two chunks), or (2, size) when size is smaller."""

    def __init__(self, size, learning_rate):
        self.moments = np.zeros((2, size))
        self.work = np.empty((2, min(size, ADAM_CHUNK)))
        self.step_count = 0
        self.learning_rate = float(learning_rate)


def adam_step(state, params, grads):
    """One Adam update of the vector params, in place, and of state.

    With zero moments and a single scalar gradient g the first step moves
    the parameter by -lr * g / (|g| + eps), which the tests pin down.
    """
    if not params.shape == grads.shape == state.moments[0].shape:
        raise ShapeError("params, grads and state differ in shape")
    state.step_count += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step_count
    bias2 = 1.0 - ADAM_BETA2 ** state.step_count
    # the textbook update's operations in its order, a chunk at a time in
    # reused buffers: a fresh vector each step would be freed and faulted
    # in again each step
    for start in range(0, params.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        p, g = params[chunk], grads[chunk]
        m, v = state.moments[:, chunk]
        step, denom = state.work[:, :g.size]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.square(g, out=denom), 1.0 - ADAM_BETA2, out=denom)
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        np.divide(m, bias1, out=step)
        step *= state.learning_rate
        p -= np.divide(step, denom, out=step)
