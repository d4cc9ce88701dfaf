"""Gaussian process regression with learned feature-map kernels.

The model kernel is k(x, x') = sigma_f_sq * j(x, x') + sigma_xi_sq *
delta(x, x'), where j is the inner product of a neural feature map
(optionally rescaled to unit norm so j(x, x) = 1).  Training maximizes
the marginal log-likelihood with Adam over the map parameters and the two
log-variances, on random contiguous subsets of shuffled training data.
Prediction runs through a cached eigendecomposition of the feature Gram,
so its cost does not grow with the training-set size.

train, build_caches and posterior serve C target columns on one shared
map: regression is their one-output call with zero extra noise (and unit-
noise caches), Dirichlet classification their C-class, heteroscedastic
one.  save_model and load_model go through model_file.

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
                     TrainingError, check_array, check_count, check_positive)

LOG_2PI = float(np.log(2.0 * np.pi))
DECOMP_BATCH_ROWS = 2048


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
    normalization metadata of the training inputs.  Each attribute is the
    constructor argument of its name.  Immutable after fit.
    """

    task = "regression"

    def __init__(self, feature_map, sigma_f_sq, sigma_xi_sq, decomp,
                 train_inputs_stats=None, gamma=None, training_trace=None):
        check_positive(DomainError, sigma_f_sq=sigma_f_sq, sigma_xi_sq=sigma_xi_sq)
        p = ft._check_feature_map(feature_map, "feature_map").output_dim
        lr.check_decompositions(p, decomp=decomp)
        self.feature_map = feature_map
        self.sigma_f_sq = float(sigma_f_sq)
        self.sigma_xi_sq = float(sigma_xi_sq)
        self.gamma = float(gamma) if gamma is not None else self.sigma_xi_sq / self.sigma_f_sq
        check_positive(DomainError, gamma=self.gamma)
        self.decomp = decomp
        self.train_inputs_stats = train_inputs_stats
        self.training_trace = training_trace


@dataclass
class FitConfig:
    """Training settings; defaults follow the reference protocol
    (two 512-wide hidden layers, 64 features, 200 Adam iterations over
    4 subsets of at most 20000 points).  A count, width or seed that is
    not an integer in range, a rate or initial variance that is not
    finite and positive, or an unknown normalization is a ConfigError at
    construction."""
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
        check_count(ConfigError, output_dim=self.output_dim, num_subsets=self.num_subsets,
                    subset_size=self.subset_size)
        check_count(ConfigError, low=0, iterations=self.iterations, seed=self.seed)
        check_count(ConfigError, **{f"hidden_widths[{i}]": width
                                    for i, width in enumerate(self.hidden_widths)})
        check_positive(ConfigError, learning_rate=self.learning_rate,
                       init_sigma_f_sq=self.init_sigma_f_sq,
                       init_sigma_xi_sq=self.init_sigma_xi_sq)
        ft._check_normalization(self.normalization)


def _column_error(what, j, log_sf2, log_sxi2):
    return NumericError(f"{what} in target column {j} "
                        f"(log sigma_f_sq={float(log_sf2[j]):.6g}, "
                        f"log sigma_xi_sq={float(log_sxi2[j]):.6g})")


def _first_not_pd(mats):
    """Index of the first matrix of the stack that has no Cholesky factor."""
    for j, mat in enumerate(mats):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return j


def gaussian_mll_parts(phi_hat, Y, log_sigma_f_sq, log_sigma_xi_sq, extra_noise=None,
                       work=None):
    """Summed MLL and exact gradients of C regressions on one feature matrix.

    Column c of Y (n, C) has K_c = c_c Phi Phi^T + diag(s_c^2), where
    c_c = exp(log_sigma_f_sq[c]) and s_ic^2 = extra_noise[i, c] +
    exp(log_sigma_xi_sq[c]); extra_noise = None means zero extra noise.
    Each run of consecutive rows with equal noise rows is one group k
    with weights w_kc = 1 / s_kc^2, so the whitened Gram of
    column c is sum_k w_kc Phi_k^T Phi_k: the n x p work is done once
    for all columns, and one stacked Cholesky factorization of the C
    matrices I + c_c G_c gives their values and gradients in p x p
    algebra.  Any per-point noise is exact, but a group costs a p x p
    Gram, so rows sorted by noise row (as train sorts them) keep a
    C-class call to at most C groups.

    Returns (mll, d_phi, d_log_sigma_f_sq, d_log_sigma_xi_sq): the MLL
    summed over the columns, its gradient in the feature matrix, ready to
    feed the feature map's reverse mode, and the (C,) gradients in the
    log-variances.  With a features.Workspace the (n, p) and (n, C)
    arrays are its buffers, and d_phi is valid only until its next use.
    A column whose value is not finite, or whose I + c_c G_c has no
    Cholesky factor, is a NumericError that names it; so is a sum of
    finite column values that overflows.
    """
    phi = check_array("features", phi_hat, (None, None))
    n, p = phi.shape
    Y = check_array("targets", Y, (n, "C"))
    num_outputs = Y.shape[1]
    log_sf2 = check_array("log_sigma_f_sq", log_sigma_f_sq, (num_outputs,))
    log_sxi2 = check_array("log_sigma_xi_sq", log_sigma_xi_sq, (num_outputs,))
    if n < 1:
        raise DomainError("need at least one data point")
    c = np.exp(log_sf2)
    sxi2 = np.exp(log_sxi2)
    extra_noise = check_array("extra noise", np.broadcast_to(0.0, Y.shape)
                              if extra_noise is None else extra_noise, Y.shape)
    if np.any(extra_noise < 0):
        raise DomainError("extra noise variances must be nonnegative")
    bounds, grams = lr.run_grams(phi, extra_noise)
    sizes = np.diff(bounds)
    s2 = extra_noise[bounds[:-1]] + sxi2
    wts = 1.0 / s2
    row_wts = np.repeat(wts, sizes, axis=0)
    work = ft.Workspace() if work is None else work
    class_grams = (wts.T @ grams).reshape(num_outputs, p, p)
    wy = np.multiply(Y, row_wts, out=work.buffer(("mll", "wy"), (n, num_outputs)))
    # an infinity in phi or Y can make inf - inf here, which the finiteness
    # test of a_all and phi_t_wy below reports as the column's NumericError
    with np.errstate(invalid="ignore"):
        phi_t_wy = phi.T @ wy
    y_quad = np.einsum("ic,ic->c", wy, Y)
    noise_logdet = sizes @ np.log(s2)

    # per column, with L the Cholesky factor of A = I + c G, M = A^-1 =
    # L^-T L^-1, v = Phi^T W y, z = L^-1 v and b = L^-T z = M v:
    # (I + c Phi_w Phi_w^T)^-1 = I - c Phi_w M Phi_w^T, y^T K^-1 y is
    # y^T W y - c |z|^2 and K^-1 y is W (y - c Phi b), so every gradient
    # term is a p x p or (n, p) product; one stacked call factors all C
    a_all = c[:, None, None] * class_grams + np.eye(p)
    finite = np.isfinite(a_all).all(axis=(1, 2)) & np.isfinite(phi_t_wy).all(axis=0)
    if not finite.all():
        raise _column_error("marginal log-likelihood is not finite",
                            int(np.argmin(finite)), log_sf2, log_sxi2)
    try:
        chol = np.linalg.cholesky(a_all)
    except np.linalg.LinAlgError:
        raise _column_error("I + c G is not positive definite",
                            _first_not_pd(a_all), log_sf2, log_sxi2) from None
    # one solve gives z and L^-1; y^T K^-1 y reads |z|^2, as v^T M v loses
    # digits at tiny noise
    rhs = np.concatenate([phi_t_wy.T[:, :, None],
                          np.broadcast_to(np.eye(p), (num_outputs, p, p))], axis=2)
    solved = np.linalg.solve(chol, rhs)
    z, l_inv = solved[:, :, 0], solved[:, :, 1:]
    # huge finite targets can overflow y_quad and make inf - inf here, and
    # finite columns can overflow their sum: the tests below name either
    with np.errstate(over="ignore", invalid="ignore"):
        quad = y_quad - c * np.einsum("ci,ci->c", z, z)
        logdet = noise_logdet + 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        values = -0.5 * quad - 0.5 * logdet - 0.5 * n * LOG_2PI
        total = float(np.sum(values))
    finite = np.isfinite(values)
    if not finite.all():
        raise _column_error("marginal log-likelihood is not finite",
                            int(np.argmin(finite)), log_sf2, log_sxi2)
    if not np.isfinite(total):
        raise NumericError(f"marginal log-likelihood summed over {num_outputs} target "
                           "columns is not finite")
    m_all = np.swapaxes(l_inv, 1, 2) @ l_inv
    b_all = np.einsum("cji,cj->ic", l_inv, z)

    # wy's buffer becomes the residual R = Y - c (Phi B), then W R = K^-1 y,
    # then c W R, the rows' weights on B in d_phi
    resid = np.matmul(phi, b_all, out=wy)
    resid *= c
    np.subtract(Y, resid, out=resid)
    resid *= row_wts
    alpha_sq = np.einsum("ic,ic->c", resid, resid)
    resid *= c
    m_flat = m_all.reshape(num_outputs, p * p)
    # tr(K^-1) = sum_k n_k w_kc - c sum_k w_kc^2 tr(M_c G_k), and
    # tr(M_c G_c) = sum_k w_kc tr(M_c G_k)
    tr_m_g = m_flat @ grams.T
    d_sf = 0.5 * c * (np.einsum("ic,ic->c", b_all, b_all)
                      - np.einsum("kc,ck->c", wts, tr_m_g))
    tr_kinv = sizes @ wts - c * np.einsum("kc,ck->c", wts * wts, tr_m_g)
    d_sx = 0.5 * sxi2 * (alpha_sq - tr_kinv)
    # d_phi = c W R B^T - Phi_k N_k per group, N_k = sum_c c_c w_kc M_c
    d_phi = np.matmul(resid, b_all.T, out=work.buffer(("mll", "d_phi"), (n, p)))
    weighted_m = ((wts * c) @ m_flat).reshape(-1, p, p)
    phi_n = work.buffer(("mll", "phi_n"), (n, p))
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(phi[lo:hi], weighted_m[k], out=phi_n[lo:hi])
    d_phi -= phi_n
    return total, d_phi, d_sf, d_sx


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
    """Inputs and targets of the dataset's training split."""
    if dataset.split["train"].size < 1:
        raise DataError("training split is empty")
    return dataset.subset_arrays("train")


def _summed_mll(feature_map, log_sf2, log_sxi2, X, Y, extra_noise, grads, work):
    """The MLL of the C columns of Y (n, C) at the rows X with extra noise
    (n, C), in one gaussian_mll_parts call.  Its gradient fills grads: the
    map's, then the (2, C) log-variances.  The step's (n, p) arrays are
    buffers of work, a features.Workspace."""
    num_outputs = Y.shape[1]
    phi, vjp = ft.pullback(feature_map, X, work=work)
    total, d_phi, grads[-2 * num_outputs:-num_outputs], grads[-num_outputs:] = \
        gaussian_mll_parts(phi, Y, log_sf2, log_sxi2, extra_noise, work=work)
    vjp(d_phi, grads[:-2 * num_outputs])
    return total


def train(feature_map, X, Y, extra_noise, config):
    """Adam on the summed MLL of the C target columns of Y (n, C).

    Column c is a GP regression on the shared feature map with its own
    two variances and per-point noise extra_noise[:, c] (None: zero) on
    top of the learned one; regression is the C = 1 call.  Iterations
    cycle through the configured subsets; the loss is the negative MLL
    per point and column.  A prebuilt feature map overrides the config's
    architecture.  Returns (feature_map, sigma_f_sq, sigma_xi_sq, trace)
    with (C,) variances; deterministic for a fixed seed.  A step whose
    MLL fails, or whose gradient or Adam update overflows, is a
    TrainingError that carries its iteration.
    """
    X = check_array("inputs", X, (None, None))
    Y = check_array("targets", Y, (len(X), None))
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
    extra_noise = np.broadcast_to(0.0, Y.shape) if extra_noise is None else extra_noise
    # rows with equal noise rows next to each other, so that each step has
    # one run per distinct noise row (one per class present, with Dirichlet
    # noise); the sort is stable, so zero noise keeps the subsets' order
    subsets = [idx[np.lexsort(extra_noise[idx].T)] for idx in subsets]

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
        scale = idx.size * num_outputs
        try:
            # an overflow in the gradient or the Adam step is an error, not a
            # warning and a step that leaves the parameters where they were
            with np.errstate(over="raise", invalid="raise"):
                total = _summed_mll(feature_map, log_sf2, log_sxi2, X[idx], Y[idx],
                                    extra_noise[idx], grads, work=work)
                grads /= -scale
                ft.adam_step(state, theta, grads)
        except (NumericError, FloatingPointError) as exc:
            raise TrainingError(f"training diverged at iteration {t}: {exc}",
                                iteration=t) from exc
        trace.append(-total / scale)
    return feature_map, np.exp(log_sf2), np.exp(log_sxi2), trace


def build_caches(feature_map, X, Y, noise_var=None):
    """One decomposition per column of Y (n, C), from one feature pass.

    With per-point noise variances noise_var (n, C), column c's cache is
    the whitened, unit-noise form of a heteroscedastic regression, summed
    from the run Grams that training uses: each batch is stable-sorted by
    noise row, as train sorts its subsets, so it has one run per distinct
    noise row.  None is unit noise: a regression's cache, gamma its ratio.
    """
    X = check_array("inputs", X, (None, None))
    Y = check_array("targets", Y, (len(X), None), NumericError)
    n = X.shape[0]
    noise_var = np.broadcast_to(1.0, Y.shape) if noise_var is None else noise_var
    acc = lr.GramAccumulator(feature_map.output_dim, Y.shape[1])
    # no batch is larger than the first, so its buffers serve them all
    work = ft.Workspace()
    for start in range(0, n, DECOMP_BATCH_ROWS):
        rows = start + np.lexsort(noise_var[start:start + DECOMP_BATCH_ROWS].T)
        acc.add(ft.forward(feature_map, X[rows], work=work), Y[rows], noise_var[rows])
    return [lr.decompose(acc.gram[c], acc.phi_t_y[:, c], n) for c in range(Y.shape[1])]


def build_decomposition(feature_map, X, y):
    """Accumulate the full-data feature Gram in batches and decompose it."""
    return build_caches(feature_map, X, check_array("targets", y, (None,))[:, None])[0]


def fit(dataset, config=None, feature_map=None):
    """Train a GpModel on the dataset's training split: the one-output
    call of train, then one full-data decomposition."""
    config = config or FitConfig()
    X, y = training_rows(dataset)
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
    psi = check_array("features", psi, (None, caches[0].u.shape[0]), NumericError)
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
    X_cal = check_array("X_cal", X_cal, (None, None))
    if len(X_cal) < 1:
        raise DomainError("calibration set must contain at least one pair")
    y_cal = check_array("y_cal", y_cal, (len(X_cal),), NumericError)
    pred = predict(model, X_cal)
    alpha = float(np.mean((y_cal - pred.mean) ** 2 / pred.observation_variance))
    if not alpha > 0:
        raise NumericError(f"recalibration factor must be positive, got {alpha}")
    return type(model)(**(vars(model) | {"sigma_f_sq": alpha * model.sigma_f_sq,
                                         "sigma_xi_sq": alpha * model.sigma_xi_sq}))


def mean_nll(pred, y):
    """Mean Gaussian negative log-likelihood under the observation variance."""
    y = check_array("targets", y, pred.mean.shape, NumericError)
    s2 = pred.observation_variance
    return float(np.mean(0.5 * ((y - pred.mean) ** 2 / s2 + np.log(2.0 * np.pi * s2))))


def save_model(model, path):
    mf.save(model, path)


def load_model(path):
    return mf.load(path, GpModel)
