"""Dirichlet-based Gaussian process classification on shared features.

Class labels are turned into per-class log-normal surrogate regression
targets: with concentration alpha_{i,c} = alpha_eps + 1{label_i = c},

    sigma_tilde_sq_{i,c} = log(1 / alpha_{i,c} + 1)
    y_tilde_{i,c}        = log alpha_{i,c} - sigma_tilde_sq_{i,c} / 2

Each class is then an independent GP regression on one shared feature
map, with per-point noise sigma_tilde_sq_{i,c} plus a learned per-class
noise variance; training, caches and posterior are the C-column calls
of the regression module's engine.  Weighting each row by its inverse
noise restores a unit-noise low-rank problem (checked against a dense
heteroscedastic oracle in the tests).  A row's surrogate noise depends
only on its label, so training and the caches alike form these whitened
Grams from one Gram per label group.

Class probabilities come from Monte-Carlo sampling of the per-class
latent posteriors pushed through a temperature-scaled softmax; the
temperature is fitted on held-out data by multinomial log-likelihood.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import features as ft
from . import lowrank as lr
from . import model_file as mf
from . import regression as reg
from .errors import (ConfigError, DomainError, ShapeError, check_array, check_count,
                     check_positive)

DEFAULT_ALPHA_EPS = 0.01
DEFAULT_NUM_SAMPLES = 1024
DEFAULT_ECE_BINS = 15
# samples per block of the Monte Carlo decoder.  A block of 32 x C x n
# logits is 2.56 MB at C = 10 and n = 1000, larger than a core's cache:
# the size bounds the decoder's memory to a few blocks whatever
# num_samples is, and keeps the per-block Python work small beside each
# block's arithmetic
_SAMPLE_BLOCK = 32


def _class_indices(labels, num_classes):
    """labels as an int64 vector of class indices in [0, num_classes):
    whole-valued floats pass, a fraction, NaN or infinity does not."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError("labels must be a vector of class indices")
    # floor(nan) != nan; an infinity fails the range test, before any cast
    if labels.dtype.kind == "f" and not np.all(np.floor(labels) == labels):
        raise DomainError(f"labels must be whole numbers, got {labels}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DomainError(f"labels must lie in [0, {num_classes})")
    return labels.astype(np.int64)


def _scored_rows(probs, labels):
    """(probs, labels) as float64 probability rows and their class indices:
    at least one row, one per label, every probability finite."""
    if np.ndim(probs) != 2 or np.shape(labels) != np.shape(probs)[:1]:
        raise ShapeError("need one probability row per label")
    if len(labels) == 0:
        raise DomainError("cannot score an empty set")
    probs = check_array("probabilities", probs, (None, None), DomainError)
    return probs, _class_indices(labels, probs.shape[1])


def dirichlet_transform(labels, alpha_eps, num_classes):
    """Surrogate regression targets and noise variances from class labels
    in [0, num_classes).

    Returns (y_tilde, sigma_tilde_sq), both (n, C) with C = num_classes.
    """
    check_positive(DomainError, alpha_eps=alpha_eps)
    check_count(DomainError, num_classes=num_classes)
    labels = _class_indices(labels, num_classes)
    alpha = np.full((labels.size, num_classes), float(alpha_eps))
    alpha[np.arange(labels.size), labels] += 1.0
    sigma_tilde_sq = np.log(1.0 / alpha + 1.0)
    y_tilde = np.log(alpha) - sigma_tilde_sq / 2.0
    return y_tilde, sigma_tilde_sq


class DirichletClassifier:
    """Fitted classifier: shared feature map plus per-class regressions.

    caches[c] is a FeatureDecomposition of the class's noise-whitened
    feature Gram, with proj_targets = U^T Phi_w^T y_w; there is one cache
    per class, so num_classes is len(caches).  Each attribute is the
    constructor argument of its name.  Immutable after fit; use
    with_temperature to derive a re-tempered copy.
    """

    task = "classification"

    def __init__(self, feature_map, sigma_f_sq, sigma_xi_sq, caches, alpha_eps,
                 temperature=1.0, train_inputs_stats=None, training_trace=None,
                 label_map=None):
        self.feature_map = feature_map
        self.caches = list(caches)
        if self.num_classes < 2:
            raise DomainError("need at least two classes")
        lr.check_decompositions(ft._check_feature_map(feature_map, "feature_map").output_dim, **{
            f"caches[{c}]": cache for c, cache in enumerate(self.caches)})
        self.sigma_f_sq = check_array("sigma_f_sq", sigma_f_sq, (self.num_classes,))
        self.sigma_xi_sq = check_array("sigma_xi_sq", sigma_xi_sq, (self.num_classes,))
        check_positive(DomainError, sigma_f_sq=self.sigma_f_sq, sigma_xi_sq=self.sigma_xi_sq,
                       temperature=temperature, alpha_eps=alpha_eps)
        self.alpha_eps = float(alpha_eps)
        self.temperature = float(temperature)
        self.train_inputs_stats = train_inputs_stats
        self.training_trace = training_trace
        self.label_map = label_map

    @property
    def num_classes(self):
        return len(self.caches)

    def with_temperature(self, temperature):
        return type(self)(**(vars(self) | {"temperature": temperature}))


@dataclass
class ClassifierConfig(reg.FitConfig):
    alpha_eps: float = DEFAULT_ALPHA_EPS

    def __post_init__(self):
        super().__post_init__()
        check_positive(ConfigError, alpha_eps=self.alpha_eps)


def fit_classifier(dataset, config=None, feature_map=None):
    """Train the shared feature map against the sum of per-class MLLs.

    regression.train over the C surrogate columns, each with its surrogate
    noise plus a learned noise variance.  C comes from the whole dataset,
    so a class missing from the training split keeps its column.  One
    shared feature pass then builds the per-class whitened caches.
    """
    config = config or ClassifierConfig()
    X, labels = reg.training_rows(dataset)
    if np.unique(labels).size < 2:
        raise DomainError("training data contains a single class")
    num_classes = int(np.max(dataset.targets)) + 1
    y_tilde, s_tilde_sq = dirichlet_transform(labels, config.alpha_eps, num_classes)
    feature_map, sigma_f_sq, sigma_xi_sq, trace = reg.train(
        feature_map, X, y_tilde, s_tilde_sq, config)
    caches = reg.build_caches(feature_map, X, y_tilde, s_tilde_sq + sigma_xi_sq)
    return DirichletClassifier(feature_map, sigma_f_sq, sigma_xi_sq, caches,
                               config.alpha_eps, train_inputs_stats=dataset.stats_dict(),
                               training_trace=trace, label_map=dataset.label_map)


def class_posteriors(clf, X_star):
    """Per-class latent posterior means and variances, both (n*, C).

    Class c is the regression posterior on its whitened cache: unit
    noise against signal variance sigma_f_sq_c, i.e. noise-to-signal
    ratio gamma_c = 1 / sigma_f_sq_c.
    """
    psi = ft.forward(clf.feature_map, X_star)
    return reg.posterior(psi, clf.caches, 1.0 / clf.sigma_f_sq, clf.sigma_f_sq)


def _logit_blocks(means, variances, num_samples, seed, out=None):
    """Posterior draws of the class logits from the seed, shifted by each
    draw's row max, in _SAMPLE_BLOCK-sample blocks laid out (b, C, n).

    Block by block this is one (num_samples, n, C) standard-normal draw.
    Each block is out[start:stop] of a (num_samples, C, n) out if one is
    given, else a view of one reused buffer, valid until the next.
    """
    # (C, n) copies, so that every pass after the move to (b, C, n) runs
    # over contiguous rows of n values
    sd_t = np.sqrt(variances).T.copy()
    means_t = means.T.copy()
    size = min(_SAMPLE_BLOCK, num_samples)
    draw = np.empty((size, *means.shape))
    reused = np.empty((size, *means_t.shape)) if out is None else None
    row_max = np.empty((size, means.shape[0]))
    rng = np.random.default_rng(seed)
    for start in range(0, num_samples, _SAMPLE_BLOCK):
        eps = rng.standard_normal(out=draw[:min(_SAMPLE_BLOCK, num_samples - start)])
        b = eps.shape[0]
        f = reused[:b] if out is None else out[start:start + b]
        # the one strided pass is a plain copy: it and a contiguous
        # multiply take less time than one multiply reading the draw strided
        np.copyto(f, eps.transpose(0, 2, 1))
        f *= sd_t
        f += means_t
        top = row_max[:b]
        np.max(f, axis=1, out=top)
        # max(f / T) = max(f) / T for T > 0, so one shift serves every T
        f -= top[:, None]
        yield f


def _mean_softmax(blocks, temperature):
    """(n, C) mean of softmax(f / temperature) over the shifted logit
    blocks f of _logit_blocks, classes before rows, so that the class
    sums add contiguous rows.  Each block is overwritten."""
    total = None
    count = 0
    for p in blocks:
        if total is None:
            total = np.zeros(p.shape[1:])
        np.divide(p, temperature, out=p)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        total += p.sum(axis=0)
        count += p.shape[0]
    return total.T / count


def predict_proba(clf, X_star, num_samples=DEFAULT_NUM_SAMPLES, seed=None,
                  temperature=None):
    """Monte-Carlo class probabilities; rows sum to 1.

    Draws num_samples independent latent samples per class from the
    posterior, pushes them through the temperature-scaled softmax and
    averages.  A fresh generator is created per call from the seed, and
    the draws are those of fit_temperature: with the same X, seed and
    num_samples, the probabilities at T are the ones its search scored.
    """
    check_count(DomainError, num_samples=num_samples)
    if seed is not None:
        check_count(DomainError, low=0, seed=seed)
    t = clf.temperature if temperature is None else float(temperature)
    check_positive(DomainError, temperature=t)
    means, variances = class_posteriors(clf, X_star)
    return _mean_softmax(_logit_blocks(means, variances, num_samples, seed), t)


def _observed_probability(blocks, temperature, labels):
    """(n,) mean of softmax(f / temperature) at the labels over the
    shifted logit blocks f of _logit_blocks, which are left as they were:
    bit for bit the labels' entries of _mean_softmax's result.  Each
    block's softmax is taken over all C classes as there, but only the
    labels' entries are divided and summed.  They are gathered into one
    C-contiguous buffer, so that its sample sums add rows in order, as
    there; a strided gather would be summed pairwise."""
    n = labels.size
    # the labels' entries of a (C, n) slice, flattened
    flat = labels * n + np.arange(n)
    scratch = picked = total = None
    count = 0
    for f in blocks:
        b = f.shape[0]
        if total is None:
            scratch = np.empty(f.shape)
            picked = np.empty((b, n))
            total = np.zeros(n)
        p = scratch[:b]
        np.divide(f, temperature, out=p)
        np.exp(p, out=p)
        observed = np.take(p.reshape(b, -1), flat, axis=1, out=picked[:b])
        observed /= p.sum(axis=1)
        total += observed.sum(axis=0)
        count += b
    return total / count


def _picked_nll(picked):
    """Mean negative log of the observed classes' probabilities."""
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def multinomial_nll(probs, labels):
    """Mean negative log-likelihood of the observed classes."""
    probs, labels = _scored_rows(probs, labels)
    return _picked_nll(probs[np.arange(labels.size), labels])


def _bounded_brent(func, a, x, b, fx):
    """(x, func(x)) at a minimum of func on (a, b), started from a known
    point a < x < b with fx = func(x): the steps of Brent's bounded
    minimization as in scipy's fminbound (Brent 1973, ch. 5), xtol 1e-6."""
    golden = 0.5 * (3.0 - np.sqrt(5.0))
    sqrt_eps = np.sqrt(2.2e-16)
    v = w = x
    fv = fw = fx
    d = e = 0.0
    for _ in range(500):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + 1e-6 / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if x + d - a < tol2 or b - x - d < tol2:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            e = (a if x >= xm else b) - x
            d = golden * e
        step = max(abs(d), tol1)
        u = x + step if d >= 0 else x - step
        fu = func(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def fit_temperature(clf, X_hold, y_hold, num_samples=DEFAULT_NUM_SAMPLES, seed=0):
    """Temperature minimizing the holdout multinomial NLL; returns T.

    The latent draws are predict_proba's, taken once from the seed and
    shared by every candidate T, so the objective is a deterministic
    1-d function of log T; it scores only the observed classes, and at T
    it equals multinomial_nll of predict_proba at T.  It is evaluated on a 9-point log grid over
    [0.05, 20] that holds T = 1, then refined by bounded Brent
    minimization inside the grid bracket of the best point.  The returned
    T never has higher NLL than T = 1 on the holdout.  Argmax class
    predictions are unaffected by any positive T for each individual
    latent sample.
    """
    check_count(DomainError, num_samples=num_samples)
    check_count(DomainError, low=0, seed=seed)
    y_hold = _class_indices(y_hold, clf.num_classes)
    # before any draw: S x C x n logits can be large
    X_hold = check_array("X_hold", X_hold, (y_hold.size, None))
    if y_hold.size < 1:
        raise DomainError("holdout is empty")
    if np.unique(y_hold).size < 2:
        warnings.warn("holdout contains a single class; temperature unchanged")
        return clf.temperature
    means, variances = class_posteriors(clf, X_hold)
    # every candidate T scores the same draws, kept in one (S, C, n) array
    logits = np.empty((num_samples, means.shape[1], means.shape[0]))
    blocks = list(_logit_blocks(means, variances, num_samples, seed, out=logits))

    def nll_at(log_t):
        return _picked_nll(_observed_probability(blocks, np.exp(log_t), y_hold))

    # symmetric about 0, so the grid holds T = 1 exactly
    grid = np.linspace(-1.0, 1.0, 9) * np.log(20.0)
    values = np.array([nll_at(g) for g in grid])
    # the grid holds T = 1, so its best point is never worse than T = 1
    best = int(np.argmin(values))
    log_t = grid[best]
    # a minimum on the edge, a tie with a neighbour, or a NaN is not refined
    if 0 < best < grid.size - 1 and values[best - 1] > values[best] < values[best + 1]:
        refined, value = _bounded_brent(nll_at, grid[best - 1], log_t,
                                        grid[best + 1], values[best])
        if value < values[best]:
            log_t = refined
    return float(np.exp(log_t))


class CalibrationReport:
    """Binned calibration summary over top-label confidences."""

    def __init__(self, ece, bin_confidences, bin_accuracies, bin_counts):
        self.ece = float(ece)
        self.bin_confidences = bin_confidences
        self.bin_accuracies = bin_accuracies
        self.bin_counts = bin_counts


def compute_ece(probs, labels, num_bins=DEFAULT_ECE_BINS):
    """Expected calibration error with equal-width bins over (0, 1].

    Confidence is the top predicted probability; bin b collects
    confidences in (b/B, (b+1)/B].  ECE is the count-weighted mean of
    |accuracy - mean confidence| over the bins.
    """
    probs, labels = _scored_rows(probs, labels)
    check_count(DomainError, num_bins=num_bins)
    confidence = probs.max(axis=1)
    predicted = probs.argmax(axis=1)
    correct = (predicted == labels).astype(np.float64)
    idx = np.clip(np.ceil(confidence * num_bins).astype(np.int64) - 1, 0, num_bins - 1)
    counts = np.bincount(idx, minlength=num_bins)
    conf_sum = np.bincount(idx, confidence, minlength=num_bins)
    acc_sum = np.bincount(idx, correct, minlength=num_bins)
    filled = counts > 0
    bin_conf = np.where(filled, conf_sum / np.maximum(counts, 1.0), 0.0)
    bin_acc = np.where(filled, acc_sum / np.maximum(counts, 1.0), 0.0)
    total = float(counts.sum())
    ece = float(np.sum(counts / total * np.abs(bin_acc - bin_conf)))
    return CalibrationReport(ece, bin_conf, bin_acc, counts)


def save_classifier(clf, path):
    mf.save(clf, path)


def load_classifier(path):
    return mf.load(path, DirichletClassifier)
