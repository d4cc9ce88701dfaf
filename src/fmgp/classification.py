"""Dirichlet-based Gaussian process classification on shared features.

Class labels are turned into per-class log-normal surrogate regression
targets: with concentration alpha_{i,c} = alpha_eps + 1{label_i = c},

    sigma_tilde_sq_{i,c} = log(1 / alpha_{i,c} + 1)
    y_tilde_{i,c}        = log alpha_{i,c} - sigma_tilde_sq_{i,c} / 2

Each class is then an independent GP regression on one shared feature
map, with per-point noise sigma_tilde_sq_{i,c} plus a learned per-class
noise variance; training, caches and posterior are the C-column calls
of the regression module's engine.  The per-point noise breaks the
single-noise Woodbury form, so rows of the feature matrix and targets
are divided by the per-point noise standard deviation, which restores a
unit-noise low-rank problem; this whitening is checked against a dense
heteroscedastic oracle in the tests.

Class probabilities come from Monte-Carlo sampling of the per-class
latent posteriors pushed through a temperature-scaled softmax; the
temperature is fitted on held-out data by multinomial log-likelihood.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import features as ft
from . import model_file as mf
from . import regression as reg
from .errors import DomainError, ShapeError

DEFAULT_ALPHA_EPS = 0.01
DEFAULT_NUM_SAMPLES = 1024
DEFAULT_ECE_BINS = 15
# samples per block of the Monte Carlo decoder.  A block of 32 x C x n
# logits is 2.56 MB at C = 10 and n = 1000, larger than a core's cache:
# the size bounds the decoder's memory to a few blocks whatever
# num_samples is, and keeps the per-block Python work small beside each
# block's arithmetic
_SAMPLE_BLOCK = 32


def _check_labels(labels, num_classes):
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DomainError(f"labels must lie in [0, {num_classes})")


def dirichlet_transform(labels, alpha_eps, num_classes):
    """Surrogate regression targets and noise variances from class labels
    in [0, num_classes).

    Returns (y_tilde, sigma_tilde_sq), both (n, C) with C = num_classes.
    """
    if not alpha_eps > 0:
        raise DomainError(f"alpha_eps must be positive, got {alpha_eps}")
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError("labels must be a vector of class indices")
    labels = labels.astype(np.int64)
    c = int(num_classes)
    _check_labels(labels, c)
    alpha = np.full((labels.size, c), float(alpha_eps))
    alpha[np.arange(labels.size), labels] += 1.0
    sigma_tilde_sq = np.log(1.0 / alpha + 1.0)
    y_tilde = np.log(alpha) - sigma_tilde_sq / 2.0
    return y_tilde, sigma_tilde_sq


class DirichletClassifier:
    """Fitted classifier: shared feature map plus per-class regressions.

    caches[c] is a FeatureDecomposition of the class's noise-whitened
    feature Gram, with proj_targets = U^T Phi_w^T y_w; there is one cache
    per class, so num_classes is len(caches).  Immutable after fit; use
    with_temperature to derive a re-tempered copy.
    """

    task = "classification"

    def __init__(self, feature_map, sigma_f_sq, sigma_xi_sq, caches, alpha_eps,
                 temperature=1.0, train_inputs_stats=None, training_trace=None,
                 label_map=None):
        self.feature_map = feature_map
        self.sigma_f_sq = np.asarray(sigma_f_sq, dtype=np.float64)
        self.sigma_xi_sq = np.asarray(sigma_xi_sq, dtype=np.float64)
        if not (np.all(self.sigma_f_sq > 0) and np.all(self.sigma_xi_sq > 0)):
            raise DomainError("per-class variances must be positive")
        if not temperature > 0:
            raise DomainError(f"temperature must be positive, got {temperature}")
        self.caches = list(caches)
        self.num_classes = len(self.caches)
        if self.num_classes < 2:
            raise DomainError("need at least two classes")
        if not self.sigma_f_sq.size == self.sigma_xi_sq.size == self.num_classes:
            raise ShapeError(f"need one variance pair per class "
                             f"for {self.num_classes} classes")
        self.alpha_eps = float(alpha_eps)
        self.temperature = float(temperature)
        self.train_inputs_stats = train_inputs_stats
        self.training_trace = training_trace
        self.label_map = label_map

    def with_temperature(self, temperature):
        return DirichletClassifier(self.feature_map, self.sigma_f_sq,
                                   self.sigma_xi_sq, self.caches, self.alpha_eps,
                                   temperature=temperature,
                                   train_inputs_stats=self.train_inputs_stats,
                                   training_trace=self.training_trace,
                                   label_map=self.label_map)


@dataclass
class ClassifierConfig(reg.FitConfig):
    alpha_eps: float = DEFAULT_ALPHA_EPS


def fit_classifier(dataset, config=None, feature_map=None):
    """Train the shared feature map against the sum of per-class MLLs.

    regression.train over the C surrogate columns, each with its surrogate
    noise plus a learned noise variance.  C comes from the whole dataset,
    so a class missing from the training split keeps its column.  One
    shared feature pass then builds the per-class whitened caches.
    """
    config = config or ClassifierConfig()
    X, labels = reg.training_rows(dataset)
    labels = labels.astype(np.int64)
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


def _mean_softmax(blocks, temperature, in_place=False):
    """(n, C) mean of softmax(f / temperature) over the shifted logit
    blocks f of _logit_blocks, classes before rows, so that the class
    sums add contiguous rows.  in_place overwrites each block; otherwise
    the blocks are left as they were and one scratch block is used."""
    scratch = total = None
    count = 0
    for f in blocks:
        if total is None:
            total = np.zeros(f.shape[1:])
            if not in_place:
                scratch = np.empty(f.shape)
        p = f if in_place else scratch[:f.shape[0]]
        np.divide(f, temperature, out=p)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        total += p.sum(axis=0)
        count += f.shape[0]
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
    if num_samples < 1:
        raise DomainError("need at least one sample")
    t = clf.temperature if temperature is None else float(temperature)
    if not t > 0:
        raise DomainError(f"temperature must be positive, got {t}")
    means, variances = class_posteriors(clf, X_star)
    return _mean_softmax(_logit_blocks(means, variances, num_samples, seed), t,
                         in_place=True)


def multinomial_nll(probs, labels):
    """Mean negative log-likelihood of the observed classes."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ShapeError("need one probability row per label")
    _check_labels(labels, probs.shape[1])
    picked = probs[np.arange(labels.size), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def _bounded_brent(func, a, x, b, fx, xtol=1e-6, maxiter=500):
    """(x, func(x)) at a minimum of func on (a, b), started from a known
    point a < x < b with fx = func(x): the steps of Brent's bounded
    minimization as in scipy's fminbound (Brent 1973, ch. 5)."""
    golden = 0.5 * (3.0 - np.sqrt(5.0))
    sqrt_eps = np.sqrt(2.2e-16)
    v = w = x
    fv = fw = fx
    d = e = 0.0
    for _ in range(maxiter):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xtol / 3.0
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
    1-d function of log T.  It is evaluated on a 9-point log grid over
    [0.05, 20] that holds T = 1, then refined by bounded Brent
    minimization inside the grid bracket of the best point.  The returned
    T never has higher NLL than T = 1 on the holdout.  Argmax class
    predictions are unaffected by any positive T for each individual
    latent sample.
    """
    if num_samples < 1:
        raise DomainError("need at least one sample")
    y_hold = np.asarray(y_hold).astype(np.int64)
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
        return multinomial_nll(_mean_softmax(blocks, np.exp(log_t)), y_hold)

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

    def __init__(self, ece, bin_confidences, bin_accuracies, bin_counts, num_bins):
        self.ece = float(ece)
        self.bin_confidences = bin_confidences
        self.bin_accuracies = bin_accuracies
        self.bin_counts = bin_counts
        self.num_bins = int(num_bins)


def compute_ece(probs, labels, num_bins=DEFAULT_ECE_BINS):
    """Expected calibration error with equal-width bins over (0, 1].

    Confidence is the top predicted probability; bin b collects
    confidences in (b/B, (b+1)/B].  ECE is the count-weighted mean of
    |accuracy - mean confidence| over the bins.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ShapeError("need one probability row per label")
    if probs.shape[0] == 0:
        raise DomainError("cannot compute calibration of an empty set")
    if num_bins < 1:
        raise DomainError("need at least one bin")
    _check_labels(labels, probs.shape[1])
    confidence = probs.max(axis=1)
    predicted = probs.argmax(axis=1)
    correct = (predicted == labels).astype(np.float64)
    idx = np.clip(np.ceil(confidence * num_bins).astype(np.int64) - 1, 0, num_bins - 1)
    counts = np.zeros(num_bins)
    conf_sum = np.zeros(num_bins)
    acc_sum = np.zeros(num_bins)
    np.add.at(counts, idx, 1.0)
    np.add.at(conf_sum, idx, confidence)
    np.add.at(acc_sum, idx, correct)
    filled = counts > 0
    bin_conf = np.where(filled, conf_sum / np.maximum(counts, 1.0), 0.0)
    bin_acc = np.where(filled, acc_sum / np.maximum(counts, 1.0), 0.0)
    total = float(counts.sum())
    ece = float(np.sum(counts / total * np.abs(bin_acc - bin_conf)))
    return CalibrationReport(ece, bin_conf, bin_acc, counts.astype(np.int64), num_bins)


def save_classifier(clf, path):
    mf.save(clf, path)


def load_classifier(path):
    return mf.load(path, DirichletClassifier)
