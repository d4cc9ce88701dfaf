"""Randomized equivalence batteries against dense linear-algebra oracles.

Each battery runs the library's low-rank code on random instances small
enough for a dense counterpart and reports the worst deviation against
its tolerance; logdet and woodbury check the training likelihood
gaussian_mll_parts, prediction and additive regression.posterior.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import features as ft
from . import lowrank as lr
from . import regression as reg
from . import spectral as sp
from .errors import NumericError

WOODBURY_TOL = 1e-9
LOGDET_TOL = 1e-9
PREDICTION_MEAN_TOL = 1e-8
PREDICTION_VAR_TOL = 1e-8
PRODUCT_TOL = 1e-12
ADDITIVE_TOL = 1e-9
MAJORIZATION_TOL = 1e-9
INSTANCES = 100  # random instances per battery
COMPOSITION_INSTANCES = 50  # for the product and additive batteries


def _report(name, instances, max_err, tol):
    return {"name": name, "instances": int(instances),
            "max_err": float(max_err), "tol": float(tol),
            "passed": bool(max_err <= tol)}


def _rel(a, b):
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / max(scale, 1e-300))


def _refined_cho_solve(cho, k_xi, b):
    """Cholesky solve plus two steps of iterative refinement with
    extended-precision residuals, so the oracle stays sharp at small noise
    variances where the dense system is badly conditioned."""
    x = scipy.linalg.cho_solve(cho, b)
    k_ld = k_xi.astype(np.longdouble)
    b_ld = b.astype(np.longdouble)
    x_ld = x.astype(np.longdouble)
    for _ in range(2):
        residual = b_ld - k_ld @ x_ld
        x_ld = x_ld + scipy.linalg.cho_solve(cho, residual.astype(np.float64))
    return x_ld.astype(np.float64)


def exact_gp_oracle(kernel, X, y, noise_var, X_star):
    """Dense Cholesky-based exact GP predictions; the verification oracle.

    kernel(A, B) must return the cross-Gram of its two input sets.
    noise_var may be a scalar (homoscedastic) or an n-vector of per-point
    noise variances (the heteroscedastic surrogate-regression case);
    observation_variance adds the scalar when given, otherwise equals the
    latent variance.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    X_star = np.asarray(X_star, dtype=np.float64)
    n = X.shape[0]
    k_nn = np.asarray(kernel(X, X), dtype=np.float64)
    noise = np.asarray(noise_var, dtype=np.float64)
    scalar_noise = noise.ndim == 0
    k_xi = k_nn + (noise * np.eye(n) if scalar_noise else np.diag(noise))
    try:
        cho = scipy.linalg.cho_factor(k_xi, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"dense kernel matrix is not positive definite: {exc}") from exc
    alpha = _refined_cho_solve(cho, k_xi, y)
    k_sn = np.asarray(kernel(X_star, X), dtype=np.float64)
    mean = k_sn @ alpha
    solved = _refined_cho_solve(cho, k_xi, k_sn.T)
    prior = np.diag(np.asarray(kernel(X_star, X_star), dtype=np.float64)).copy()
    core = prior - np.sum(k_sn * solved.T, axis=1)
    variance = reg._clamp_variance(core, prior)
    obs = variance + (float(noise) if scalar_noise else 0.0)
    return reg.PredictiveDistribution(mean, variance, obs)


def _random_instance(rng, max_n, max_p, force_wide=False):
    p = int(rng.integers(1, max_p + 1))
    if force_wide:
        n = int(rng.integers(1, max(2, p)))
    else:
        n = int(rng.integers(2, max_n + 1))
    phi = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    sigma_xi_sq = float(np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))
    return phi, y, sigma_xi_sq


def _mll_at(phi, y, sigma_xi_sq, extra_noise=None):
    # the training MLL for K = Phi Phi^T + diag(extra_noise + sigma_xi_sq)
    return reg.gaussian_mll_parts(
        phi, y[:, None], [0.0], [np.log(sigma_xi_sq)],
        None if extra_noise is None else extra_noise[:, None])[0]


def check_woodbury(seed):
    """Quadratic form y^T K^{-1} y of the training MLL, which is -2 times
    the MLL's change from 0 to y, against a dense solve; relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(INSTANCES):
        # every fifth instance has fewer rows than features
        phi, y, s2 = _random_instance(rng, 200, 16, force_wide=trial % 5 == 4)
        n = phi.shape[0]
        dense = phi @ phi.T + s2 * np.eye(n)
        q_dense = float(y @ np.linalg.solve(dense, y))
        q_low = -2.0 * (_mll_at(phi, y, s2) - _mll_at(phi, np.zeros(n), s2))
        worst = max(worst, abs(q_low - q_dense) / max(abs(q_dense), 1e-300))
    return _report("woodbury", INSTANCES, worst, WOODBURY_TOL)


def check_logdet(seed):
    """Log-determinant of the training MLL against a dense Cholesky
    log-determinant, with and without per-point noise; absolute error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(INSTANCES):
        phi, y, s2 = _random_instance(rng, 200, 16, force_wide=trial % 5 == 4)
        n = phi.shape[0]
        # y is unused at y = 0, so its squares give per-point noise
        for extra in (None, y * y):
            noise = s2 if extra is None else extra + s2
            dense = phi @ phi.T + np.diag(np.broadcast_to(noise, (n,)))
            # SPD by construction, so Cholesky; it is sharper than LU here
            dense_ld = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(dense))))
            low = -2.0 * _mll_at(phi, np.zeros(n), s2, extra) - n * reg.LOG_2PI
            worst = max(worst, abs(low - dense_ld))
    return _report("logdet", INSTANCES, worst, LOGDET_TOL)


def check_prediction(seed):
    """Cached low-rank predictions against the dense exact-GP oracle: the
    relative mean error against PREDICTION_MEAN_TOL, and the absolute
    latent and observation variance errors (var_max_err) against
    PREDICTION_VAR_TOL."""
    rng = np.random.default_rng(seed)
    worst_mean = worst_var = 0.0
    for trial in range(INSTANCES):
        d = int(rng.integers(1, 9))
        p = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33)) if trial % 7 == 6 else int(rng.integers(8, 501))
        hidden = int(rng.integers(2, 17))
        # unit-rescaled maps are the model family's kernel; raw maps
        # inflate Gram norms and with them the attainable accuracy
        fmap = ft.init_params([d, hidden, p], seed=int(rng.integers(1 << 31)),
                              normalization="layer_norm", rescale_to_unit=True)
        X = rng.standard_normal((n, d))
        X_star = rng.standard_normal((int(rng.integers(1, 33)), d))
        y = rng.standard_normal(n)
        sigma_f_sq = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        sigma_xi_sq = float(np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))

        decomp = reg.build_decomposition(fmap, X, y)
        model = reg.GpModel(fmap, sigma_f_sq, sigma_xi_sq, decomp)
        pred = reg.predict(model, X_star)

        def kernel(a, b, fmap=fmap, s=sigma_f_sq):
            return s * (ft.forward(fmap, a) @ ft.forward(fmap, b).T)

        oracle = exact_gp_oracle(kernel, X, y, sigma_xi_sq, X_star)
        worst_mean = max(worst_mean, _rel(pred.mean, oracle.mean))
        worst_var = max(worst_var, float(np.max(np.abs(pred.variance - oracle.variance))))
        worst_var = max(worst_var, float(np.max(np.abs(
            pred.observation_variance - oracle.observation_variance))))
    report = _report("prediction", INSTANCES, worst_mean, PREDICTION_MEAN_TOL)
    report.update(var_max_err=worst_var, var_tol=PREDICTION_VAR_TOL,
                  passed=report["passed"] and worst_var <= PREDICTION_VAR_TOL)
    return report


def check_product(seed):
    """Columnwise-product features reproduce the Hadamard Gram exactly."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(COMPOSITION_INSTANCES):
        n = int(rng.integers(2, 40))
        p1 = int(rng.integers(1, 9))
        p2 = int(rng.integers(1, 9))
        phi1 = rng.standard_normal((n, p1))
        phi2 = rng.standard_normal((n, p2))
        xi = lr.product_features(phi1, phi2)
        hadamard = (phi1 @ phi1.T) * (phi2 @ phi2.T)
        worst = max(worst, float(np.max(np.abs(xi @ xi.T - hadamard))))
        # 1-based column (i, j) of the factors lands in column i + (j - 1) p1
        i = int(rng.integers(1, p1 + 1))
        j = int(rng.integers(1, p2 + 1))
        column = xi[:, i - 1 + (j - 1) * p1]
        worst = max(worst, float(np.max(np.abs(
            column - phi1[:, i - 1] * phi2[:, j - 1]))))
    return _report("product", COMPOSITION_INSTANCES, worst, PRODUCT_TOL)


def check_additive(seed):
    """Posterior mean on additive (stacked) features against the dense
    GP with the sum of the two kernels, at the training inputs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(COMPOSITION_INSTANCES):
        n = int(rng.integers(2, 60))
        p1 = int(rng.integers(1, 9))
        p2 = int(rng.integers(1, 9))
        phi1 = rng.standard_normal((n, p1))
        phi2 = rng.standard_normal((n, p2))
        v = rng.standard_normal(n)
        s2 = float(np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))
        k = phi1 @ phi1.T + phi2 @ phi2.T
        mean_dense = k @ np.linalg.solve(k + s2 * np.eye(n), v)
        phi = ft.AdditiveFeatureMap.combine(phi1, phi2)
        decomp = lr.decompose(phi.T @ phi, phi.T @ v, n)
        mean_low = reg.posterior(phi, [decomp], [s2], [1.0])[0][:, 0]
        worst = max(worst, _rel(mean_low, mean_dense))
    return _report("additive", COMPOSITION_INSTANCES, worst, ADDITIVE_TOL)


def _random_unit_diag_psd(rng, n):
    a = rng.standard_normal((n, n + 2))
    k = a @ a.T
    d = np.sqrt(np.diag(k))
    return k / np.outer(d, d)


def check_majorization(seed):
    """Partial-sum and tail-sum Hadamard spectral bounds on random pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(INSTANCES):
        n = int(rng.integers(2, 33))
        if trial % 2 == 0:
            k1 = _random_unit_diag_psd(rng, n)
            k2 = _random_unit_diag_psd(rng, n)
        else:
            X = rng.uniform(size=(n, int(rng.integers(1, 4))))
            ell1 = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
            ell2 = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
            k1 = sp.build_gram(sp.ExpKernel(ell1), X)
            k2 = sp.build_gram(sp.RbfKernel(ell2), X)
        violation = -min(np.min(slack) for slack in sp.hadamard_slacks(k1, k2))
        worst = max(worst, float(violation))
    return _report("majorization", INSTANCES, worst, MAJORIZATION_TOL)


def run_all(seed):
    """All batteries in a fixed order; returns their report dicts."""
    return [
        check_woodbury(seed=seed),
        check_logdet(seed=seed),
        check_prediction(seed=seed),
        check_product(seed=seed),
        check_additive(seed=seed),
        check_majorization(seed=seed),
    ]
