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
