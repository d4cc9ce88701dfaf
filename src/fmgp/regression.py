"""Gaussian process regression with learned feature-map kernels.

The model kernel is k(x, x') = sigma_f_sq * j(x, x') + sigma_xi_sq *
delta(x, x'), where j is the inner product of a neural feature map
(optionally rescaled to unit norm so j(x, x) = 1).  Training maximizes
the marginal log-likelihood with Adam over the map parameters and the two
log-variances, on random contiguous subsets of shuffled training data.
Prediction runs through a cached eigendecomposition of the feature Gram,
so its cost does not grow with the training-set size.

train, build_caches and posterior serve C target columns on one shared
map: regression is their one-output, homoscedastic call, Dirichlet
classification their C-class, heteroscedastic one.  save_model and
load_model go through model_file.

The dense Cholesky oracle that checks every identity used here lives
in oracle_check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features as ft
from . import lowrank as lr
from . import model_file as mf
from .errors import (ConfigError, DataError, DomainError, NumericError, ShapeError,
                     TrainingError)

LOG_2PI = float(np.log(2.0 * np.pi))
DECOMP_BATCH_ROWS = 8192


class PredictiveDistribution:
    """Pointwise Gaussian predictions.

    mean and variance (latent) are n*-vectors; observation_variance adds
    the noise variance on top of the latent variance.
    """

    def __init__(self, mean, variance, observation_variance):
        self.mean = mean
        self.variance = variance
        self.observation_variance = observation_variance


def _clamp_variance(core, scale):
    bad = core < -1e-6 * max(1.0, float(np.max(scale)) if np.size(scale) else 1.0)
    if np.any(bad):
        raise NumericError(f"predictive variance lost positivity: min {core.min():.3e}")
    return np.maximum(core, 0.0)


class GpModel:
    """Fitted regression model.

    Holds the feature map, the two variances (with their ratio gamma =
    sigma_xi_sq / sigma_f_sq cached so recalibration leaves predictions
    bit-identical), the full-training-set feature decomposition, and the
    normalization metadata of the training inputs.  Immutable after fit.
    """

    task = "regression"

    def __init__(self, feature_map, sigma_f_sq, sigma_xi_sq, decomp,
                 train_inputs_stats=None, gamma=None, training_trace=None):
        if not sigma_f_sq > 0 or not sigma_xi_sq > 0:
            raise DomainError("variances must be positive")
        self.feature_map = feature_map
        self.sigma_f_sq = float(sigma_f_sq)
        self.sigma_xi_sq = float(sigma_xi_sq)
        self.gamma = float(gamma) if gamma is not None else self.sigma_xi_sq / self.sigma_f_sq
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError(f"noise-to-signal ratio must be positive and finite, got {self.gamma}")
        self.decomp = decomp
        self.train_inputs_stats = train_inputs_stats
        self.training_trace = training_trace


@dataclass
class FitConfig:
    """Training settings; defaults follow the reference protocol
    (two 512-wide hidden layers, 64 features, 200 Adam iterations over
    4 subsets of at most 20000 points).  A value out of range is a
    ConfigError at construction."""
    hidden_widths: tuple = (512, 512)
    output_dim: int = 64
    normalization: str = "layer_norm"
    rescale_to_unit: bool = True
    iterations: int = 200
    num_subsets: int = 4
    subset_size: int = 20000
    # 0.03 reaches a usable fit inside the default 200-iteration budget
    learning_rate: float = 0.03
    seed: int = 0
    init_sigma_f_sq: float = 1.0
    init_sigma_xi_sq: float = 0.1

    def __post_init__(self):
        for name in ("output_dim", "num_subsets", "subset_size", "learning_rate",
                     "init_sigma_f_sq", "init_sigma_xi_sq"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not all(w > 0 for w in self.hidden_widths):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden_widths}")
        if not self.iterations >= 0:
            raise ConfigError(f"iterations must be nonnegative, got {self.iterations}")


def gaussian_mll_parts(phi_hat, y, log_sigma_f_sq, log_sigma_xi_sq, extra_noise=None,
                       work=None):
    """MLL and exact gradients for K = c * Phi Phi^T + diag(s^2).

    Here c = exp(log_sigma_f_sq) and s_i^2 = extra_noise_i +
    exp(log_sigma_xi_sq); extra_noise = None means the homoscedastic
    case.  Internally the rows of Phi and y are divided by s_i, turning
    the problem into a unit-noise low-rank one whose eigendecomposition
    gives value and gradients in O(n p^2).

    Returns (mll, d_phi, d_log_sigma_f_sq, d_log_sigma_xi_sq) where d_phi
    is the gradient of the MLL in the feature matrix, ready to feed the
    feature map's reverse mode.  With a features.Workspace the (n, p)
    arrays are its buffers, and d_phi is valid only until its next use.
    """
    phi_hat = np.asarray(phi_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = phi_hat.shape
    if y.shape != (n,):
        raise ShapeError(f"targets have shape {y.shape}, expected ({n},)")
    if n < 1:
        raise DomainError("need at least one data point")
    c = float(np.exp(log_sigma_f_sq))
    sxi2 = float(np.exp(log_sigma_xi_sq))
    if extra_noise is None:
        s2 = np.full(n, sxi2)
    else:
        extra_noise = np.asarray(extra_noise, dtype=np.float64)
        if extra_noise.shape != (n,):
            raise ShapeError("extra noise must be one value per data point")
        if np.any(extra_noise < 0):
            raise DomainError("extra noise variances must be nonnegative")
        s2 = extra_noise + sxi2
    s = np.sqrt(s2)
    work = ft.Workspace() if work is None else work
    phi_w = np.divide(phi_hat, s[:, None], out=work.buffer("phi_w", (n, p)))
    y_w = y / s

    decomp = lr.decompose(phi_w.T @ phi_w, phi_w.T @ y_w, n)
    u, lam, w = decomp.u, decomp.lam, decomp.proj_targets
    denom = c * lam + 1.0

    quad = float(y_w @ y_w - np.sum(c * w * w / denom))
    logdet = float(np.sum(np.log(s2)) + np.sum(np.log(denom)))
    value = -0.5 * quad - 0.5 * logdet - 0.5 * n * LOG_2PI
    if not np.isfinite(value):
        raise NumericError(
            f"marginal log-likelihood is not finite "
            f"(log sigma_f_sq={float(log_sigma_f_sq):.6g}, "
            f"log sigma_xi_sq={float(log_sigma_xi_sq):.6g})")

    # with M = U diag(1 / denom) U^T, (I + c Phi_w Phi_w^T)^-1 = I - c Phi_w M
    # Phi_w^T, so every gradient term is an (n, p) by (p, p) product
    b = u @ (w / denom)
    pm = np.matmul(phi_w, (u / denom) @ u.T, out=work.buffer("pm", (n, p)))
    a_w = y_w - phi_w @ (c * b)
    d_log_sf2 = 0.5 * c * (float(b @ b) - float(np.sum(lam / denom)))
    a_norm_sq = float(np.sum(a_w * a_w / s2))
    tr_kinv = float(np.sum(1.0 / s2) - c * np.sum(np.einsum("ij,ij->i", pm, phi_w) / s2))
    d_log_sxi2 = 0.5 * sxi2 * (a_norm_sq - tr_kinv)
    c_over_s = c / s
    d_phi = np.outer(a_w * c_over_s, b, out=work.buffer("d_phi", (n, p)))
    pm *= c_over_s[:, None]
    d_phi -= pm
    return value, d_phi, d_log_sf2, d_log_sxi2


def mll(feature_map, log_sigma_f_sq, log_sigma_xi_sq, X, y, extra_noise=None):
    """Marginal log-likelihood and its gradient.

    The one-column call of the training objective _summed_mll.  Returns
    (value, map_grads, d_log_sigma_f_sq, d_log_sigma_xi_sq); map_grads
    is one vector in the layout of the feature map's params.
    """
    grads = np.empty(feature_map.params.size + 2)
    value = _summed_mll(
        feature_map, np.atleast_1d(log_sigma_f_sq), np.atleast_1d(log_sigma_xi_sq),
        np.asarray(X), np.asarray(y)[:, None],
        None if extra_noise is None else np.asarray(extra_noise)[:, None], slice(None), grads)
    return value, grads[:-2], float(grads[-2]), float(grads[-1])


def make_subsets(n, num_subsets, subset_size, rng):
    """Random contiguous blocks of one global shuffle.

    Blocks wrap around when num_subsets * size exceeds n, so every subset
    has exactly min(subset_size, n) points.
    """
    perm = rng.permutation(n)
    size = min(subset_size, n)
    subsets = []
    for k in range(num_subsets):
        idx = (k * size + np.arange(size)) % n
        subsets.append(perm[idx])
    return subsets


def training_rows(dataset):
    """Inputs (float64) and raw targets of the dataset's training split."""
    train_idx = np.asarray(dataset.split["train"])
    if train_idx.size < 1:
        raise DataError("training split is empty")
    return (np.asarray(dataset.X, dtype=np.float64)[train_idx],
            np.asarray(dataset.targets)[train_idx])


def _summed_mll(feature_map, log_sf2, log_sxi2, X, Y, extra_noise, rows, grads,
                work=None):
    """The MLL summed over the C columns of Y on the selected rows.  Its
    gradient fills grads: the map's, then the (2, C) log-variances.  The
    step's arrays are buffers of work, a features.Workspace (a new one
    when None)."""
    work = ft.Workspace() if work is None else work
    phi, vjp = ft.pullback(feature_map, X[rows], work=work)
    total = 0.0
    # 0.0 + x is exact, so summing into zeros matches starting from the
    # first class's gradient
    d_phi = work.buffer("d_phi_sum", phi.shape)
    d_phi.fill(0.0)
    d_sf, d_sx = grads[-2 * Y.shape[1]:].reshape(2, Y.shape[1])
    for c in range(Y.shape[1]):
        value, dp, d_sf[c], d_sx[c] = gaussian_mll_parts(
            phi, Y[rows, c], log_sf2[c], log_sxi2[c],
            None if extra_noise is None else extra_noise[rows, c], work=work)
        total += value
        d_phi += dp
    vjp(d_phi, grads[:-2 * Y.shape[1]])
    return total


def train(feature_map, X, Y, extra_noise, config):
    """Adam on the summed MLL of the C target columns of Y (n, C).

    Column c is a GP regression on the shared feature map with its own
    two variances and per-point noise extra_noise[:, c] (None: none) on
    top of the learned one; regression is the C = 1 call.  Iterations
    cycle through the configured subsets; the loss is the negative MLL
    per point and column.  A prebuilt feature map overrides the config's
    architecture.  Returns (feature_map, sigma_f_sq, sigma_xi_sq, trace)
    with (C,) variances; deterministic for a fixed seed.
    """
    n, d = X.shape
    num_outputs = Y.shape[1]
    if feature_map is None:
        widths = [d, *config.hidden_widths, config.output_dim]
        feature_map = ft.init_params(widths, config.seed,
                                     normalization=config.normalization,
                                     rescale_to_unit=config.rescale_to_unit)
    elif feature_map.input_dim != d:
        raise ShapeError(f"feature map expects {feature_map.input_dim} inputs, data has {d}")

    rng = np.random.default_rng(config.seed)
    subsets = make_subsets(n, config.num_subsets, config.subset_size, rng)

    # a copy of the map's parameters, then the (2, C) log-variances
    theta = np.concatenate([feature_map.params,
                            np.full(num_outputs, np.log(config.init_sigma_f_sq)),
                            np.full(num_outputs, np.log(config.init_sigma_xi_sq))])
    log_sf2, log_sxi2 = theta[-2 * num_outputs:].reshape(2, num_outputs)
    feature_map = feature_map.replace_params(theta[:-2 * num_outputs])
    grads = np.empty_like(theta)
    state = ft.AdamState(theta.size, config.learning_rate)
    # every subset has the same size, so one step's buffers serve them all
    work = ft.Workspace()
    trace = []
    for t in range(config.iterations):
        idx = subsets[t % config.num_subsets]
        try:
            total = _summed_mll(feature_map, log_sf2, log_sxi2, X, Y, extra_noise, idx,
                                grads, work=work)
        except NumericError as exc:
            raise TrainingError(f"training diverged at iteration {t}: {exc}",
                                iteration=t) from exc
        scale = idx.size * num_outputs
        loss = -total / scale
        if not np.isfinite(loss):
            raise TrainingError(f"training diverged at iteration {t}", iteration=t)
        trace.append(loss)
        grads /= -scale
        ft.adam_step(state, theta, grads)
    return feature_map, np.exp(log_sf2), np.exp(log_sxi2), trace


def build_caches(feature_map, X, Y, noise_var=None):
    """One decomposition per column of Y (n, C), from one feature pass.

    With per-point noise variances noise_var (n, C), column c's rows of
    Phi and Y are divided by sqrt(noise_var[:, c]): the whitened,
    unit-noise form of a heteroscedastic regression.
    """
    n = X.shape[0]
    accs = [lr.GramAccumulator(feature_map.output_dim) for _ in range(Y.shape[1])]
    for start in range(0, n, DECOMP_BATCH_ROWS):
        stop = min(start + DECOMP_BATCH_ROWS, n)
        phi_b = ft.forward(feature_map, X[start:stop])
        for c, acc in enumerate(accs):
            if noise_var is None:
                acc.add(phi_b, Y[start:stop, c])
            else:
                s = np.sqrt(noise_var[start:stop, c])
                acc.add(phi_b / s[:, None], Y[start:stop, c] / s)
    return [lr.decompose(acc.gram, acc.phi_t_y, n) for acc in accs]


def build_decomposition(feature_map, X, y):
    """Accumulate the full-data feature Gram in batches and decompose it."""
    return build_caches(feature_map, X, np.asarray(y)[:, None])[0]


def fit(dataset, config=None, feature_map=None):
    """Train a GpModel on the dataset's training split: the one-output
    call of train, then one full-data decomposition."""
    config = config or FitConfig()
    X, y = training_rows(dataset)
    y = y.astype(np.float64)
    feature_map, sigma_f_sq, sigma_xi_sq, trace = train(feature_map, X, y[:, None],
                                                        None, config)
    decomp = build_decomposition(feature_map, X, y)
    return GpModel(feature_map, float(sigma_f_sq[0]), float(sigma_xi_sq[0]), decomp,
                   train_inputs_stats=dataset.stats_dict(), training_trace=trace)


def posterior(psi, caches, gammas, sigma_f_sq):
    """Latent means and variances, both (n*, C), over C decomposition caches.

    For output c with eigenpairs (U, lam), projected targets w =
    U^T Phi^T y, noise-to-signal ratio gamma and signal variance v:

        mean = psi U (w / (lam + gamma))
        var  = v * (|psi|^2 - sum_k (psi U)_k^2 lam_k / (lam_k + gamma))
    """
    prior = np.sum(psi * psi, axis=1)
    means = np.empty((psi.shape[0], len(caches)))
    variances = np.empty_like(means)
    for c, cache in enumerate(caches):
        au = psi @ cache.u
        denom = cache.lam + gammas[c]
        means[:, c] = au @ (cache.proj_targets / denom)
        core = prior - np.sum(au * au * (cache.lam / denom), axis=1)
        variances[:, c] = sigma_f_sq[c] * _clamp_variance(core, prior)
    return means, variances


def predict(model, X_star):
    """Predictive means and pointwise variances at new inputs.

    The one-output posterior with the cached noise-to-signal ratio, so
    recalibration leaves means bit-identical.  Cost is O(n* p^2),
    independent of the training-set size.
    """
    if model.decomp is None:
        raise NumericError("model has no decomposition cache")
    psi = ft.forward(model.feature_map, X_star)
    means, variances = posterior(psi, [model.decomp], [model.gamma],
                                 [model.sigma_f_sq])
    variance = variances[:, 0]
    return PredictiveDistribution(means[:, 0], variance, variance + model.sigma_xi_sq)


def recalibrate(model, X_cal, y_cal):
    """Scale both variances by the mean standardized squared residual.

    alpha = mean((y - mu)^2 / s^2) over the calibration set, with s^2 the
    observation variance.  The noise-to-signal ratio is unchanged, so
    predictive means are bit-identical before and after; applying the
    procedure twice is a fixed point (second alpha = 1).
    """
    X_cal = np.asarray(X_cal, dtype=np.float64)
    y_cal = np.asarray(y_cal, dtype=np.float64)
    if X_cal.ndim != 2 or X_cal.shape[0] < 1:
        raise DomainError("calibration set must contain at least one pair")
    if y_cal.shape != (X_cal.shape[0],):
        raise ShapeError("calibration targets do not match inputs")
    pred = predict(model, X_cal)
    s2 = pred.observation_variance
    if np.any(s2 <= 0):
        raise NumericError("zero predictive variance in recalibration")
    alpha = float(np.mean((y_cal - pred.mean) ** 2 / s2))
    if not alpha > 0:
        raise NumericError(f"recalibration factor must be positive, got {alpha}")
    return GpModel(model.feature_map, alpha * model.sigma_f_sq,
                   alpha * model.sigma_xi_sq, model.decomp,
                   train_inputs_stats=model.train_inputs_stats,
                   gamma=model.gamma, training_trace=model.training_trace)


def mean_nll(pred, y):
    """Mean Gaussian negative log-likelihood under the observation variance."""
    s2 = pred.observation_variance
    return float(np.mean(0.5 * ((y - pred.mean) ** 2 / s2 + np.log(2.0 * np.pi * s2))))


def save_model(model, path):
    mf.save(model, path)


def load_model(path):
    return mf.load(path, GpModel)
