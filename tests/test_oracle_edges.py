"""Numerical edges of the low-rank posterior against the refined dense oracle.

Both sides solve with the noisy Gram: the low-rank side through the
eigenpairs of Phi^T Phi (lam + gamma), the oracle through a Cholesky
factor of Phi Phi^T + gamma I formed in float64.  Each has a relative
error of order eps * kappa, kappa = 1 + lam_max / gamma, so every case
here uses, fixed before it was first run,

    mean:     max |mean - oracle| <= BOUND * eps * kappa * max |oracle mean|
    variance: max |var - oracle|  <= BOUND * eps * kappa * max prior variance

with BOUND = 32 for the dimension factors of p <= 16 eigenpairs and
n <= 80 rows.  The draws are fixed per case.
"""

import numpy as np
import pytest
import scipy.linalg

from fmgp import classification as cls
from fmgp import features as ft
from fmgp import lowrank as lr
from fmgp import oracle_check as oc
from fmgp import regression as reg

EPS = np.finfo(np.float64).eps
BOUND = 32.0


def assert_matches_oracle(phi, y, noise, psi, sigma_f_sq, cache, gamma):
    """posterior on cache against the dense GP with kernel sigma_f_sq *
    phi phi^T and noise (a scalar or one variance per row) at psi."""
    means, variances = reg.posterior(psi, [cache], [gamma], [sigma_f_sq])
    oracle = oc.exact_gp_oracle(lambda a, b: sigma_f_sq * (a @ b.T), phi, y, noise, psi)
    kappa = 1.0 + cache.lam[0] / gamma
    prior = sigma_f_sq * np.max(np.sum(psi * psi, axis=1))
    mean_err = np.max(np.abs(means[:, 0] - oracle.mean))
    var_err = np.max(np.abs(variances[:, 0] - oracle.variance))
    assert mean_err <= BOUND * EPS * kappa * np.max(np.abs(oracle.mean))
    assert var_err <= BOUND * EPS * kappa * prior


def regression_case(phi, y, psi, noise):
    """The homoscedastic case: unit signal variance, so gamma = noise."""
    cache = lr.decompose(phi.T @ phi, phi.T @ y, phi.shape[0])
    assert_matches_oracle(phi, y, noise, psi, 1.0, cache, noise)


def test_duplicated_input_rows():
    rng = np.random.default_rng(90)
    fmap = ft.init_params([2, 16, 8], seed=11, normalization="layer_norm",
                          rescale_to_unit=True)
    X = rng.standard_normal((30, 2))
    # every row of the first ten appears twice more, rows 0-4 three times more
    X = np.vstack([X, X[:10], X[:10], X[:5]])
    regression_case(ft.forward(fmap, X), rng.standard_normal(X.shape[0]),
                    ft.forward(fmap, np.vstack([X[:3], rng.standard_normal((5, 2))])), 1e-3)


def test_all_zero_feature_rows():
    # a unit-rescaled map passes a zero row through as zero
    rng = np.random.default_rng(91)
    phi = rng.standard_normal((40, 6))
    phi[::4] = 0.0
    psi = rng.standard_normal((9, 6))
    psi[[0, 5]] = 0.0
    regression_case(phi, rng.standard_normal(40), psi, 0.05)


def test_noise_1e_minus_8():
    rng = np.random.default_rng(92)
    phi = rng.standard_normal((80, 12))
    regression_case(phi, rng.standard_normal(80), rng.standard_normal((10, 12)), 1e-8)


def test_whitened_classifier_caches_with_fewer_rows_than_features():
    rng = np.random.default_rng(93)
    fmap = ft.init_params([2, 16, 12], seed=12, normalization="layer_norm",
                          rescale_to_unit=True)
    X = rng.standard_normal((5, 2))
    labels = np.array([0, 1, 2, 0, 2])
    sigma_f_sq = np.array([1.5, 0.7, 2.2])
    sigma_xi_sq = np.array([0.3, 0.9, 0.05])
    y_tilde, s_tilde_sq = cls.dirichlet_transform(labels, 0.01, 3)
    noise = s_tilde_sq + sigma_xi_sq
    caches = reg.build_caches(fmap, X, y_tilde, noise)
    phi, psi = ft.forward(fmap, X), ft.forward(fmap, rng.standard_normal((7, 2)))
    for c in range(3):
        # whitened to unit noise, so gamma_c = 1 / sigma_f_sq_c
        assert_matches_oracle(phi, y_tilde[:, c], noise[:, c], psi, sigma_f_sq[c],
                              caches[c], 1.0 / sigma_f_sq[c])


@pytest.mark.parametrize("seed", [94, 95])
def test_duplicated_rows_at_small_noise(seed):
    # duplicates make Phi Phi^T singular, so only the noise keeps K invertible
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((20, 8))
    phi = np.vstack([phi, phi, phi[:4]])
    regression_case(phi, rng.standard_normal(44), rng.standard_normal((6, 8)), 1e-6)


def test_ten_class_whitened_caches():
    # the classify_c10 shape: ten classes, each whitened by its own noise
    rng = np.random.default_rng(96)
    fmap = ft.init_params([2, 32, 16], seed=13, normalization="layer_norm",
                          rescale_to_unit=True)
    X = rng.standard_normal((80, 2))
    labels = rng.integers(10, size=80)
    sigma_f_sq = np.exp(rng.uniform(-1.0, 1.0, size=10))
    sigma_xi_sq = np.exp(rng.uniform(np.log(0.01), np.log(1.0), size=10))
    y_tilde, s_tilde_sq = cls.dirichlet_transform(labels, 0.01, 10)
    noise = s_tilde_sq + sigma_xi_sq
    caches = reg.build_caches(fmap, X, y_tilde, noise)
    phi, psi = ft.forward(fmap, X), ft.forward(fmap, rng.standard_normal((9, 2)))
    for c in range(10):
        assert_matches_oracle(phi, y_tilde[:, c], noise[:, c], psi, sigma_f_sq[c],
                              caches[c], 1.0 / sigma_f_sq[c])


# The MLL gradients against their dense forms, with alpha = K^-1 y for
# K = c Phi Phi^T + diag(s^2) factored by Cholesky:
#
#     d_phi      = c (alpha alpha^T - K^-1) Phi
#     d_log_sf2  = c/2 (|Phi^T alpha|^2 - tr(Phi^T K^-1 Phi))
#     d_log_sxi2 = sigma_xi_sq/2 (|alpha|^2 - tr K^-1)
#
# Each is a difference of two terms, and the low-rank side forms each term
# from the eigenpairs of the whitened Gram Phi_w^T Phi_w, Phi_w = Phi / s,
# whose noisy form has kappa = 1 + c lam_max.  So each is checked, with
# the bound fixed before it was first run, as
#
#     |low-rank - dense| <= BOUND * eps * kappa * (|first term| + |second term|)
#
# entrywise maxima for d_phi, and with tr K^-1 counted as sum 1 / s^2,
# the noise-only trace from which the low-rank side subtracts.

def assert_mll_gradients_match_dense(phi, y, c, sxi2, extra=None):
    n = phi.shape[0]
    s2 = np.full(n, sxi2) if extra is None else extra + sxi2
    k = c * (phi @ phi.T) + np.diag(s2)
    cho = scipy.linalg.cho_factor(k, lower=True)
    alpha = oc._refined_cho_solve(cho, k, y)
    k_inv = oc._refined_cho_solve(cho, k, np.eye(n))
    _, d_phi, (d_sf,), (d_sx,) = reg.gaussian_mll_parts(
        phi, y[:, None], [np.log(c)], [np.log(sxi2)],
        None if extra is None else extra[:, None])
    phi_w = phi / np.sqrt(s2)[:, None]
    kappa = 1.0 + c * np.linalg.eigvalsh(phi_w.T @ phi_w)[-1]
    tol = BOUND * EPS * kappa

    first, second = c * np.outer(alpha, alpha @ phi), c * (k_inv @ phi)
    scale = np.max(np.abs(first)) + np.max(np.abs(second))
    assert np.max(np.abs(d_phi - (first - second))) <= tol * scale

    b_sq, tr_phi = float(np.sum((phi.T @ alpha) ** 2)), float(np.trace(phi.T @ k_inv @ phi))
    assert abs(d_sf - 0.5 * c * (b_sq - tr_phi)) <= tol * 0.5 * c * (b_sq + tr_phi)

    a_sq = float(alpha @ alpha)
    dense = 0.5 * sxi2 * (a_sq - np.trace(k_inv))
    assert abs(d_sx - dense) <= tol * 0.5 * sxi2 * (a_sq + np.sum(1.0 / s2))


def test_mll_gradients_heteroscedastic():
    rng = np.random.default_rng(97)
    assert_mll_gradients_match_dense(rng.standard_normal((40, 8)), rng.standard_normal(40),
                                     1.7, 0.3, extra=rng.uniform(0.05, 2.0, size=40))


def test_mll_gradients_noise_1e_minus_8():
    rng = np.random.default_rng(98)
    assert_mll_gradients_match_dense(rng.standard_normal((50, 10)), rng.standard_normal(50),
                                     1.0, 1e-8)


def test_mll_gradients_duplicated_rows():
    rng = np.random.default_rng(99)
    fmap = ft.init_params([2, 16, 8], seed=14, normalization="layer_norm",
                          rescale_to_unit=True)
    X = rng.standard_normal((30, 2))
    X = np.vstack([X, X[:10], X[:5]])
    assert_mll_gradients_match_dense(ft.forward(fmap, X), rng.standard_normal(45),
                                     2.5, 1e-3, extra=rng.uniform(0.0, 0.5, size=45))


def test_mll_gradients_fewer_rows_than_features():
    rng = np.random.default_rng(100)
    assert_mll_gradients_match_dense(rng.standard_normal((6, 12)), rng.standard_normal(6),
                                     0.8, 0.05, extra=rng.uniform(0.0, 1.0, size=6))
