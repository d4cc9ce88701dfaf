"""Tests for the low-rank Gram machinery against hand and dense oracles."""

import numpy as np
import pytest

from fmgp import lowrank as lr
from fmgp.errors import NumericError, ShapeError


def decompose_features(phi, y):
    return lr.decompose(phi.T @ phi, phi.T @ y, phi.shape[0])


class TestDecompose:
    def test_reconstructs_gram(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((12, 4))
        dec = decompose_features(phi, rng.standard_normal(12))
        gram = phi.T @ phi
        np.testing.assert_allclose(dec.u @ np.diag(dec.lam) @ dec.u.T, gram,
                                   atol=1e-10 * np.linalg.norm(gram))

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal((20, 6))
        dec = decompose_features(phi, rng.standard_normal(20))
        assert np.all(np.diff(dec.lam) <= 0)
        assert np.all(dec.lam >= 0)

    def test_diagonal_gram_eigenvalues(self):
        dec = lr.decompose(np.diag([2.0, 1.0]), np.array([3.0, 4.0]), n=5)
        np.testing.assert_allclose(dec.lam, [2.0, 1.0])
        assert dec.n == 5
        np.testing.assert_allclose(dec.trace_phi_sq, 3.0)

    def test_rank_deficiency_clamped_to_zero(self):
        phi = np.array([[1.0, 1.0], [2.0, 2.0]])
        dec = decompose_features(phi, np.array([1.0, 1.0]))
        assert dec.lam[1] == 0.0
        np.testing.assert_allclose(dec.lam[0], 10.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericError):
            lr.decompose(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), n=3)

    def test_rejects_negative_definite(self):
        with pytest.raises(NumericError):
            lr.decompose(np.array([[-1.0]]), np.zeros(1), n=2)

    @pytest.mark.parametrize("gram, phi_t_y", [
        (np.full((2, 2), np.nan), np.zeros(2)),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2)),
        (np.eye(2), np.array([np.nan, 1.0])),
    ])
    def test_rejects_non_finite(self, gram, phi_t_y):
        with pytest.raises(NumericError):
            lr.decompose(gram, phi_t_y, n=3)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            lr.decompose(np.zeros((2, 3)), np.zeros(3), n=4)


class TestGramAccumulator:
    def test_matches_single_shot(self):
        rng = np.random.default_rng(2)
        phi = rng.standard_normal((30, 5))
        y = rng.standard_normal((30, 1))
        acc = lr.GramAccumulator(5, 1)
        for start in range(0, 30, 7):
            acc.add(phi[start:start + 7], y[start:start + 7], np.ones_like(y[start:start + 7]))
        np.testing.assert_allclose(acc.gram[0], phi.T @ phi, atol=1e-12)
        np.testing.assert_allclose(acc.phi_t_y, phi.T @ y, atol=1e-12)

    def test_partition_invariance(self):
        # different batch boundaries agree to tight relative tolerance
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((64, 4))
        y = rng.standard_normal((64, 1))
        grams = []
        for size in (1, 5, 16, 64):
            acc = lr.GramAccumulator(4, 1)
            for start in range(0, 64, size):
                acc.add(phi[start:start + size], y[start:start + size],
                        np.ones_like(y[start:start + size]))
            grams.append(acc.gram)
        for gram in grams[1:]:
            np.testing.assert_allclose(gram, grams[0], rtol=1e-9)

    def test_noisy_columns_match_whitened_rows(self):
        # shuffled label-style noise, so batches hold many short runs; the
        # reference divides rows by the noise standard deviation
        rng = np.random.default_rng(4)
        n, p, num_classes = 64, 5, 3
        phi = rng.standard_normal((n, p))
        y = rng.standard_normal((n, num_classes))
        noise = rng.uniform(0.1, 2.0, size=(num_classes, num_classes))[
            rng.integers(num_classes, size=n)]
        for size in (1, 7, 16, 64):
            acc = lr.GramAccumulator(p, num_classes)
            for start in range(0, n, size):
                rows = slice(start, start + size)
                acc.add(phi[rows], y[rows], noise[rows])
            for c in range(num_classes):
                s = np.sqrt(noise[:, c])
                phi_w = phi / s[:, None]
                gram, phi_t_y = phi_w.T @ phi_w, phi_w.T @ (y[:, c] / s)
                np.testing.assert_allclose(acc.gram[c], gram, rtol=0,
                                           atol=1e-12 * np.abs(gram).max())
                np.testing.assert_allclose(acc.phi_t_y[:, c], phi_t_y, rtol=0,
                                           atol=1e-12 * np.abs(phi_t_y).max())

    def test_rejects_wrong_width(self):
        acc = lr.GramAccumulator(3, 1)
        with pytest.raises(ShapeError):
            acc.add(np.zeros((4, 2)), np.zeros((4, 1)), np.ones((4, 1)))


class TestProductFeatures:
    def test_column_ordering(self):
        phi1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        phi2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        xi = lr.product_features(phi1, phi2)
        # column for (i, j), 1-based, lives at index i + (j - 1) p1
        expected = np.column_stack([phi1[:, 0] * phi2[:, 0],
                                    phi1[:, 1] * phi2[:, 0],
                                    phi1[:, 0] * phi2[:, 1],
                                    phi1[:, 1] * phi2[:, 1]])
        np.testing.assert_array_equal(xi, expected)

    def test_gram_is_hadamard_product(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            phi1 = rng.standard_normal((n, int(rng.integers(1, 7))))
            phi2 = rng.standard_normal((n, int(rng.integers(1, 7))))
            xi = lr.product_features(phi1, phi2)
            target = (phi1 @ phi1.T) * (phi2 @ phi2.T)
            assert np.max(np.abs(xi @ xi.T - target)) <= 1e-12

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ShapeError):
            lr.product_features(np.zeros((3, 2)), np.zeros((4, 2)))
