"""Tests for Dirichlet-surrogate GP classification and calibration."""

import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from fmgp import classification as cls
from fmgp import data as dt
from fmgp import features as ft
from fmgp import lowrank as lr
from fmgp import oracle_check as oc
from fmgp import regression as reg
from fmgp.errors import DataError, DomainError, ShapeError


def blob_dataset(n=600, num_classes=2, seed=0, test_n=100, recal_n=100):
    raw = dt.synth_blobs(n, num_classes=num_classes, d=2, separation=4.0,
                         seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dt.prepare(raw, seed=seed, test_n=test_n, recal_n=recal_n)


def small_config(**overrides):
    base = dict(hidden_widths=(16, 16), output_dim=8, iterations=40,
                subset_size=2000, seed=0)
    base.update(overrides)
    return cls.ClassifierConfig(**base)


def build_classifier(labels, fmap, X, sigma_f_sq, sigma_xi_sq, alpha_eps=0.01):
    """Classifier from fixed hyperparameters, no training."""
    num_classes = int(labels.max()) + 1
    y_tilde, s_tilde_sq = cls.dirichlet_transform(labels, alpha_eps, num_classes)
    caches = reg.build_caches(fmap, X, y_tilde,
                              s_tilde_sq + np.asarray(sigma_xi_sq, dtype=float))
    return cls.DirichletClassifier(fmap, sigma_f_sq, sigma_xi_sq, caches, alpha_eps)


class TestDirichletTransform:
    def test_unit_concentration_constants(self):
        # concentration exactly 1 gives noise log 2 and target -log(2)/2
        y_tilde, s_tilde_sq = cls.dirichlet_transform(np.array([0, 1]),
                                                      alpha_eps=1.0, num_classes=2)
        off = y_tilde[0, 1]
        noise_off = s_tilde_sq[0, 1]
        np.testing.assert_allclose(noise_off, 0.693147, atol=1e-6)
        np.testing.assert_allclose(off, -0.346574, atol=1e-6)

    def test_exact_identities(self):
        labels = np.array([0, 2, 1, 1, 0])
        eps = 0.01
        y_tilde, s_tilde_sq = cls.dirichlet_transform(labels, eps, 3)
        alpha = np.full((5, 3), eps)
        alpha[np.arange(5), labels] += 1.0
        np.testing.assert_array_equal(s_tilde_sq, np.log(1.0 / alpha + 1.0))
        np.testing.assert_array_equal(y_tilde, np.log(alpha) - s_tilde_sq / 2.0)

    def test_label_entry_less_noisy(self):
        y_tilde, s_tilde_sq = cls.dirichlet_transform(np.array([1]), 0.01, 2)
        assert s_tilde_sq[0, 1] < s_tilde_sq[0, 0]
        assert y_tilde[0, 1] > y_tilde[0, 0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            cls.dirichlet_transform(np.array([0, 1]), alpha_eps=0.0, num_classes=2)
        with pytest.raises(DomainError):
            cls.dirichlet_transform(np.array([0, 3]), 0.01, num_classes=2)
        with pytest.raises(ShapeError):
            cls.dirichlet_transform(np.zeros((2, 2)), 0.01, 2)


class TestHeteroscedasticWhitening:
    def test_posteriors_match_dense_oracle(self):
        # per-class surrogate regression with per-point noise, checked
        # against the dense heteroscedastic GP oracle
        rng = np.random.default_rng(70)
        n = 120
        X = rng.standard_normal((n, 3))
        labels = rng.integers(0, 3, size=n)
        fmap = ft.init_params([3, 12, 6], seed=9, normalization="layer_norm",
                              rescale_to_unit=True)
        sigma_f_sq = np.array([1.5, 0.7, 2.2])
        sigma_xi_sq = np.array([0.3, 0.9, 0.05])
        clf = build_classifier(labels, fmap, X, sigma_f_sq, sigma_xi_sq)
        Xs = rng.standard_normal((20, 3))
        means, variances = cls.class_posteriors(clf, Xs)
        y_tilde, s_tilde_sq = cls.dirichlet_transform(labels, 0.01, 3)
        for c in range(3):
            def kernel(a, b, c=c):
                return sigma_f_sq[c] * (ft.forward(fmap, a) @ ft.forward(fmap, b).T)

            noise = s_tilde_sq[:, c] + sigma_xi_sq[c]
            oracle = oc.exact_gp_oracle(kernel, X, y_tilde[:, c], noise, Xs)
            scale = np.max(np.abs(oracle.mean))
            assert np.max(np.abs(means[:, c] - oracle.mean)) <= 1e-8 * scale
            np.testing.assert_allclose(variances[:, c], oracle.variance,
                                       atol=1e-8)

    def test_label_permutation_permutes_posterior_columns(self):
        rng = np.random.default_rng(71)
        n = 60
        X = rng.standard_normal((n, 2))
        labels = rng.integers(0, 3, size=n)
        fmap = ft.init_params([2, 8, 5], seed=10, normalization="layer_norm",
                              rescale_to_unit=True)
        shared_sf = np.full(3, 1.2)
        shared_sx = np.full(3, 0.4)
        perm = np.array([2, 0, 1])
        clf_a = build_classifier(labels, fmap, X, shared_sf, shared_sx)
        clf_b = build_classifier(perm[labels], fmap, X, shared_sf, shared_sx)
        Xs = rng.standard_normal((10, 2))
        means_a, var_a = cls.class_posteriors(clf_a, Xs)
        means_b, var_b = cls.class_posteriors(clf_b, Xs)
        np.testing.assert_allclose(means_b[:, perm], means_a, atol=1e-12)
        np.testing.assert_allclose(var_b[:, perm], var_a, atol=1e-12)

    def test_caches_add_each_batch_once_for_all_classes(self, monkeypatch):
        rng = np.random.default_rng(72)
        X = rng.standard_normal((5000, 2))
        labels = rng.integers(0, 10, size=5000)
        fmap = ft.init_params([2, 8, 4], seed=11, rescale_to_unit=True)
        y_tilde, s_tilde_sq = cls.dirichlet_transform(labels, 0.01, 10)
        rows = []
        add = lr.GramAccumulator.add

        def counting_add(acc, phi, *args):
            rows.append(phi.shape[0])
            return add(acc, phi, *args)

        monkeypatch.setattr(lr.GramAccumulator, "add", counting_add)
        caches = reg.build_caches(fmap, X, y_tilde, s_tilde_sq + 0.1)
        # 2048-row batches, one call each for all ten classes
        assert len(caches) == 10
        assert rows == [2048, 2048, 904]


class TestFitClassifier:
    def test_end_to_end_on_blobs(self):
        ds = blob_dataset()
        clf = cls.fit_classifier(ds, small_config())
        assert len(clf.training_trace) == 40
        assert clf.training_trace[-1] < clf.training_trace[0]
        X_test, y_test = ds.subset_arrays("test")
        probs = cls.predict_proba(clf, X_test, seed=0)
        error = float(np.mean(probs.argmax(axis=1) != y_test))
        assert error <= 0.10

    def test_single_class_raises(self):
        ds = blob_dataset()
        ds.targets[:] = 0
        with pytest.raises(DomainError):
            cls.fit_classifier(ds, small_config())

    def test_one_cache_is_refused(self):
        fmap = ft.init_params([2, 3], seed=0)
        cache = lr.decompose(np.eye(3), np.zeros(3), 1)
        with pytest.raises(DomainError, match="need at least two classes"):
            cls.DirichletClassifier(fmap, np.ones(1), np.ones(1), [cache], 0.01)

    def test_per_class_parameters_present(self):
        ds = blob_dataset(num_classes=3, n=900, test_n=150, recal_n=150)
        clf = cls.fit_classifier(ds, small_config(iterations=10))
        assert clf.num_classes == 3
        assert clf.sigma_f_sq.shape == (3,)
        assert clf.sigma_xi_sq.shape == (3,)
        assert len(clf.caches) == 3

    def test_class_missing_from_training_split(self):
        ds = blob_dataset(num_classes=3, n=900, test_n=150, recal_n=150)
        train = ds.split["train"]
        ds.split["train"] = train[ds.targets[train] != 2]
        clf = cls.fit_classifier(ds, small_config(iterations=10))
        assert clf.num_classes == 3
        X_cal, y_cal = ds.subset_arrays("recalibration")
        assert np.any(y_cal == 2)
        t = cls.fit_temperature(clf, X_cal, y_cal, num_samples=64, seed=0)
        probs = cls.predict_proba(clf.with_temperature(t), X_cal,
                                  num_samples=64, seed=0)
        assert probs.shape == (y_cal.size, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_deterministic_under_seed(self):
        ds = blob_dataset()
        a = cls.fit_classifier(ds, small_config(iterations=15))
        b = cls.fit_classifier(ds, small_config(iterations=15))
        np.testing.assert_array_equal(a.sigma_f_sq, b.sigma_f_sq)
        np.testing.assert_array_equal(a.caches[0].lam, b.caches[0].lam)


def reference_sample_probs(means, variances, num_samples, temperature, rng):
    """The Monte Carlo decoder with a fresh array for every operation,
    which predict_proba must match bit for bit: one (S, n, C) draw, each
    draw shifted by its row max before the divide by T, classes summed
    over axis 1 of (S, C, n), and samples summed per 32-sample block."""
    eps = rng.standard_normal((num_samples, *means.shape))
    f = means + np.sqrt(variances) * eps
    shifted = np.ascontiguousarray((f - f.max(axis=-1, keepdims=True)).transpose(0, 2, 1))
    e = np.exp(shifted / temperature)
    p = e / e.sum(axis=1, keepdims=True)
    total = np.zeros(p.shape[1:])
    for start in range(0, num_samples, 32):
        total = total + p[start:start + 32].sum(axis=0)
    return total.T / num_samples


def dense_sample_probs(means, variances, num_samples, temperature, rng):
    """Mean softmax over one (S, n, C) draw in the textbook order: divide
    by T, shift by the row max, normalise over the last axis."""
    eps = rng.standard_normal((num_samples, *means.shape))
    f = (means + np.sqrt(variances) * eps) / temperature
    e = np.exp(f - f.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).mean(axis=0)


def replayed_nll(means, variances, labels, temperature, num_samples, seed):
    """Holdout NLL at one temperature on fit_temperature's draws."""
    probs = reference_sample_probs(means, variances, num_samples, temperature,
                                   np.random.default_rng(seed))
    return cls.multinomial_nll(probs, labels)


def recorded_search(monkeypatch, clf, X_hold, y_hold, num_samples, seed):
    """fit_temperature's T and, per NLL it scored, in order, the
    observed-class probabilities and the NLL."""
    seen = []
    nll = cls._picked_nll

    def recording_nll(picked):
        seen.append((np.array(picked), nll(picked)))
        return seen[-1][1]

    monkeypatch.setattr(cls, "_picked_nll", recording_nll)
    t = cls.fit_temperature(clf, X_hold, y_hold, num_samples=num_samples, seed=seed)
    monkeypatch.undo()
    return t, seen


def search_classifier():
    """A 3-class classifier and a holdout of more than 256 rows, for a
    sample count off the block size."""
    rng = np.random.default_rng(80)
    X = rng.standard_normal((360, 2))
    labels = (X[:, 0] + 0.5 * rng.standard_normal(360) > 0).astype(int) + (X[:, 1] > 0.8)
    fmap = ft.init_params([2, 8, 5], seed=17, normalization="layer_norm",
                          rescale_to_unit=True)
    clf = build_classifier(labels[:60], fmap, X[:60], np.ones(3), np.full(3, 0.3))
    return clf, X[60:], labels[60:]


class TestPredictProba:
    def setup_method(self):
        rng = np.random.default_rng(72)
        n = 80
        self.X = rng.standard_normal((n, 2))
        self.labels = rng.integers(0, 2, size=n)
        fmap = ft.init_params([2, 8, 5], seed=11, normalization="layer_norm",
                              rescale_to_unit=True)
        self.clf = build_classifier(self.labels, fmap, self.X,
                                    np.array([1.0, 1.0]), np.array([0.3, 0.3]))
        self.Xs = rng.standard_normal((25, 2))

    def test_rows_sum_to_one(self):
        probs = cls.predict_proba(self.clf, self.Xs, seed=0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_deterministic_per_seed(self):
        a = cls.predict_proba(self.clf, self.Xs, seed=5)
        b = cls.predict_proba(self.clf, self.Xs, seed=5)
        np.testing.assert_array_equal(a, b)
        c = cls.predict_proba(self.clf, self.Xs, seed=6)
        assert np.max(np.abs(a - c)) > 0

    def test_monte_carlo_convergence(self):
        # doubling the sample count moves each probability by at most a
        # few standard errors of the estimator
        a = cls.predict_proba(self.clf, self.Xs, num_samples=1024, seed=1)
        b = cls.predict_proba(self.clf, self.Xs, num_samples=2048, seed=2)
        se = np.sqrt(a * (1 - a) / 1024) + 1e-4
        assert np.all(np.abs(a - b) <= 5 * se)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            cls.predict_proba(self.clf, self.Xs, num_samples=0)
        with pytest.raises(DomainError):
            cls.predict_proba(self.clf, self.Xs, temperature=0.0)

    @pytest.mark.parametrize("temperature", [1.0, 1.37])
    def test_matches_reference_decoder_bit_for_bit(self, temperature):
        Xs = np.random.default_rng(76).standard_normal((300, 2))
        means, variances = cls.class_posteriors(self.clf, Xs)
        expected = reference_sample_probs(means, variances, 1024, temperature,
                                          np.random.default_rng(9))
        probs = cls.predict_proba(self.clf, Xs, seed=9, temperature=temperature)
        assert np.array_equal(probs, expected)

    @pytest.mark.parametrize("num_samples", [100, 7])
    def test_short_sample_blocks_match_reference(self, num_samples):
        # 100 samples end in a short block, 7 fit in one
        means, variances = cls.class_posteriors(self.clf, self.Xs)
        expected = reference_sample_probs(means, variances, num_samples, 1.37,
                                          np.random.default_rng(9))
        probs = cls.predict_proba(self.clf, self.Xs, num_samples=num_samples, seed=9,
                                  temperature=1.37)
        assert np.array_equal(probs, expected)

    def test_matches_dense_decoder(self):
        # the same draws in the textbook operation order agree to rounding
        Xs = np.random.default_rng(78).standard_normal((300, 2))
        means, variances = cls.class_posteriors(self.clf, Xs)
        expected = dense_sample_probs(means, variances, 1024, 0.8,
                                      np.random.default_rng(3))
        probs = cls.predict_proba(self.clf, Xs, seed=3, temperature=0.8)
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)

    def test_memory_stays_within_four_sample_blocks(self):
        rng = np.random.default_rng(79)
        X = rng.standard_normal((200, 2))
        labels = np.arange(200) % 10
        fmap = ft.init_params([2, 8, 5], seed=16, rescale_to_unit=True)
        clf = build_classifier(labels, fmap, X, np.ones(10), np.full(10, 0.3))
        Xs = rng.standard_normal((1000, 2))
        tracemalloc.start()
        try:
            cls.predict_proba(clf, Xs, num_samples=1024, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block is 32 samples x 1000 rows x 10 classes of float64
        assert peak < 4 * 32 * 1000 * 10 * 8

    @pytest.mark.parametrize("which", ["sigma_f_sq", "sigma_xi_sq"])
    def test_nan_class_variance_rejected(self, which):
        # NaN fails every comparison, so only "all positive" catches it;
        # an infinite variance would decode to NaN probabilities
        for bad in (np.nan, np.inf):
            variances = {"sigma_f_sq": np.array([1.0, 1.0]),
                         "sigma_xi_sq": np.array([0.3, 0.3])}
            variances[which][0] = bad
            with pytest.raises(DomainError):
                cls.DirichletClassifier(self.clf.feature_map, variances["sigma_f_sq"],
                                        variances["sigma_xi_sq"], self.clf.caches,
                                        self.clf.alpha_eps)


class TestTemperature:
    def test_fitted_temperature_not_worse_than_unit(self):
        ds = blob_dataset(n=900, test_n=150, recal_n=150)
        clf = cls.fit_classifier(ds, small_config())
        X_cal, y_cal = ds.subset_arrays("recalibration")
        t = cls.fit_temperature(clf, X_cal, y_cal, seed=3)
        assert t > 0
        probs_unit = cls.predict_proba(clf, X_cal, seed=4)
        probs_fit = cls.predict_proba(clf.with_temperature(t), X_cal, seed=4)
        nll_unit = cls.multinomial_nll(probs_unit, y_cal)
        nll_fit = cls.multinomial_nll(probs_fit, y_cal)
        # the same draws are reused inside the fit, so allow sampling jitter
        assert nll_fit <= nll_unit + 5e-3

    def test_argmax_invariant_under_temperature(self):
        ds = blob_dataset(n=900, test_n=150, recal_n=150)
        clf = cls.fit_classifier(ds, small_config())
        X_test, _ = ds.subset_arrays("test")
        base = cls.predict_proba(clf, X_test, seed=7)
        for t in (0.25, 1.7, 4.0):
            scaled = cls.predict_proba(clf.with_temperature(t), X_test, seed=7)
            np.testing.assert_array_equal(base.argmax(axis=1),
                                          scaled.argmax(axis=1))

    def test_each_temperature_evaluated_once(self, monkeypatch):
        rng = np.random.default_rng(75)
        X = rng.standard_normal((90, 2))
        labels = (X[:, 0] + 0.5 * rng.standard_normal(90) > 0).astype(int) + (X[:, 1] > 0.8)
        fmap = ft.init_params([2, 8, 5], seed=14, normalization="layer_norm",
                              rescale_to_unit=True)
        clf = build_classifier(labels[:60], fmap, X[:60], np.ones(3), np.full(3, 0.3))
        t, seen = recorded_search(monkeypatch, clf, X[60:], labels[60:], 64, 0)
        # the 9-point grid plus the Brent steps, none repeated
        assert len(seen) <= 25
        for i, (picked, _) in enumerate(seen):
            assert not any(np.array_equal(picked, other) for other, _ in seen[:i])
        means, variances = cls.class_posteriors(clf, X[60:])

        def nll_at(temperature):
            return replayed_nll(means, variances, labels[60:], temperature, 64, 0)

        assert nll_at(t) <= nll_at(1.0)
        # the golden-section search that the Brent search replaced found this T
        assert nll_at(t) <= nll_at(float.fromhex("0x1.81630e1ed6aa1p+0")) + 1e-12
        fine = np.exp(np.linspace(np.log(0.05), np.log(20.0), 2001))
        assert nll_at(t) <= min(nll_at(g) for g in fine) + 1e-12

    def test_predict_reproduces_the_search(self, monkeypatch):
        clf, X, labels = search_classifier()
        _, seen = recorded_search(monkeypatch, clf, X, labels, 100, 4)
        # the middle of the 9-point grid is T = 1
        probs = cls.predict_proba(clf, X, num_samples=100, seed=4, temperature=1.0)
        assert np.array_equal(seen[4][0], probs[np.arange(labels.size), labels])

    def test_search_scores_the_nll_of_predict(self, monkeypatch):
        clf, X, labels = search_classifier()
        _, seen = recorded_search(monkeypatch, clf, X, labels, 100, 4)
        grid = np.exp(np.linspace(-1.0, 1.0, 9) * np.log(20.0))
        assert len(seen) >= grid.size
        for (_, value), t in zip(seen, grid):
            probs = cls.predict_proba(clf, X, num_samples=100, seed=4, temperature=t)
            assert float.hex(value) == float.hex(cls.multinomial_nll(probs, labels))

    def test_single_class_holdout_warns_and_keeps(self):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((30, 2))
        labels = rng.integers(0, 2, size=30)
        fmap = ft.init_params([2, 6, 4], seed=12, rescale_to_unit=True)
        clf = build_classifier(labels, fmap, X, np.ones(2), np.full(2, 0.5))
        with pytest.warns(UserWarning):
            t = cls.fit_temperature(clf, X[:5], np.zeros(5, dtype=int))
        assert t == clf.temperature

    def test_empty_holdout_raises(self):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((30, 2))
        labels = rng.integers(0, 2, size=30)
        fmap = ft.init_params([2, 6, 4], seed=12, rescale_to_unit=True)
        clf = build_classifier(labels, fmap, X, np.ones(2), np.full(2, 0.5))
        with pytest.raises(DomainError, match="holdout is empty"):
            cls.fit_temperature(clf, np.empty((0, 2)), np.empty(0, dtype=int))

    def test_rejects_no_samples(self):
        rng = np.random.default_rng(77)
        X = rng.standard_normal((20, 2))
        labels = np.array([0, 1] * 10)
        fmap = ft.init_params([2, 4, 3], seed=15, rescale_to_unit=True)
        clf = build_classifier(labels, fmap, X, np.ones(2), np.ones(2))
        with pytest.raises(DomainError):
            cls.fit_temperature(clf, X, labels, num_samples=0)

    def test_nonpositive_temperature_rejected(self):
        rng = np.random.default_rng(74)
        X = rng.standard_normal((10, 2))
        labels = np.array([0, 1] * 5)
        fmap = ft.init_params([2, 4, 3], seed=13, rescale_to_unit=True)
        clf = build_classifier(labels, fmap, X, np.ones(2), np.ones(2))
        with pytest.raises(DomainError):
            clf.with_temperature(0.0)

    def test_with_temperature_changes_only_the_temperature(self):
        rng = np.random.default_rng(82)
        X = rng.standard_normal((30, 2))
        labels = np.arange(30) % 3
        fmap = ft.init_params([2, 4, 3], seed=19, rescale_to_unit=True)
        fitted = build_classifier(labels, fmap, X, np.ones(3), np.full(3, 0.3),
                                  alpha_eps=0.02)
        clf = cls.DirichletClassifier(
            fmap, fitted.sigma_f_sq, fitted.sigma_xi_sq, fitted.caches, 0.02,
            train_inputs_stats={"target_mean": 0.0}, training_trace=[0.5, 0.4],
            label_map={3.0: 0, 5.0: 1, 9.0: 2})
        hot = clf.with_temperature(2.5)
        assert hot.temperature == 2.5 and clf.temperature == 1.0
        for name in ("feature_map", "sigma_f_sq", "sigma_xi_sq", "train_inputs_stats",
                     "training_trace", "label_map"):
            assert getattr(hot, name) is getattr(clf, name), name
        assert len(hot.caches) == hot.num_classes == 3
        assert all(a is b for a, b in zip(hot.caches, clf.caches))
        assert hot.alpha_eps == clf.alpha_eps == 0.02


def pinned_classifier():
    """A fixed 3-class classifier with a 90-row holdout."""
    rng = np.random.default_rng(81)
    X = rng.standard_normal((150, 2))
    labels = (X[:, 0] + 0.5 * rng.standard_normal(150) > 0).astype(int) + (X[:, 1] > 0.8)
    fmap = ft.init_params([2, 8, 5], seed=18, normalization="layer_norm",
                          rescale_to_unit=True)
    clf = build_classifier(labels[:60], fmap, X[:60], np.ones(3), np.full(3, 0.3))
    return clf, X[60:], labels[60:]


PINNED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "classifier_pinned.json")


# recorded before the caches shared training's run Grams, on the caches
# that tests/data/classifier_pinned.json keeps from then: with the caches
# held fixed, the decoder and the search must keep scoring exactly the
# same draws
@pytest.mark.parametrize("seed, num_samples, expected", [
    (0, 1024, "0x1.243efd2ba1bffp+0"),
    (5, 100, "0x1.24ec102ea468dp+0"),
    (2, 7, "0x1.315fa863b672ap+0"),
    (9, 33, "0x1.2142de045ca69p+0"),
    (11, 64, "0x1.26ca997d6039cp+0"),
])
def test_fitted_temperature_is_pinned(seed, num_samples, expected):
    _, X_hold, y_hold = pinned_classifier()
    clf = cls.load_classifier(PINNED_FILE)
    t = cls.fit_temperature(clf, X_hold, y_hold, num_samples=num_samples, seed=seed)
    assert float.hex(t) == expected


def test_pinned_file_holds_the_pinned_classifier():
    clf, _, _ = pinned_classifier()
    stored = cls.load_classifier(PINNED_FILE)
    assert np.array_equal(stored.feature_map.params, clf.feature_map.params)
    for a, b in zip(stored.caches, clf.caches):
        np.testing.assert_allclose(a.lam, b.lam, rtol=1e-13)
        np.testing.assert_allclose(a.proj_targets, b.proj_targets, rtol=1e-12, atol=1e-12)


# the same pins on caches built from the run Grams
@pytest.mark.parametrize("seed, num_samples, expected", [
    (0, 1024, "0x1.243efd2be5f4cp+0"),
    (5, 100, "0x1.24ec102e81096p+0"),
    (2, 7, "0x1.315fa863b6658p+0"),
    (9, 33, "0x1.2142de0428697p+0"),
    (11, 64, "0x1.26ca997e033ebp+0"),
])
def test_fitted_temperature_on_built_caches_is_pinned(seed, num_samples, expected):
    clf, X_hold, y_hold = pinned_classifier()
    t = cls.fit_temperature(clf, X_hold, y_hold, num_samples=num_samples, seed=seed)
    assert float.hex(t) == expected


def test_decoder_runs_on_the_calling_thread_and_restarts_from_the_seed():
    clf, X, y = pinned_classifier()
    threads = threading.active_count()
    a = cls.predict_proba(clf, X, num_samples=100, seed=3)
    t = cls.fit_temperature(clf, X, y, num_samples=100, seed=3)
    means, variances = cls.class_posteriors(clf, X)
    blocks = cls._logit_blocks(means, variances, 100, 3)
    first = next(blocks).copy()
    blocks.close()
    assert threading.active_count() == threads
    # a decoder closed after its first block leaves nothing behind
    assert np.array_equal(next(cls._logit_blocks(means, variances, 100, 3)), first)
    assert np.array_equal(cls.predict_proba(clf, X, num_samples=100, seed=3), a)
    assert float.hex(cls.fit_temperature(clf, X, y, num_samples=100, seed=3)) == float.hex(t)


class TestComputeEce:
    def test_perfectly_calibrated_and_correct(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 0])
        report = cls.compute_ece(probs, labels)
        assert report.ece == 0.0

    def test_two_confident_wrong_predictions(self):
        # both points land in one bin with confidence 0.8 and accuracy 0
        probs = np.array([[0.8, 0.2], [0.8, 0.2]])
        labels = np.array([1, 1])
        report = cls.compute_ece(probs, labels)
        np.testing.assert_allclose(report.ece, 0.8, rtol=1e-12)

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(75)
        logits = rng.standard_normal((200, 3))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=200)
        report = cls.compute_ece(probs, labels)
        assert 0.0 <= report.ece <= 1.0
        assert report.bin_counts.sum() == 200

    def test_bin_boundaries_are_left_open(self):
        # confidence exactly at an interior edge belongs to the lower bin
        num_bins = 15
        probs = np.array([[1.0 / num_bins, 1.0 - 1.0 / num_bins]])
        # confidence is the max, 14/15, exactly the right edge of bin 13
        report = cls.compute_ece(probs, np.array([1]), num_bins=num_bins)
        assert report.bin_counts[13] == 1
        assert report.bin_counts[14] == 0

    def test_empty_input_raises(self):
        with pytest.raises(DomainError):
            cls.compute_ece(np.empty((0, 2)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_raise(self, bad):
        probs = np.array([[0.5, 0.5], [bad, 0.8], [0.3, bad]])
        with pytest.raises(DomainError, match="probabilities must be finite, row 1 "):
            cls.compute_ece(probs, np.array([0, 1, 1]))


@pytest.mark.parametrize("score", [cls.multinomial_nll, cls.compute_ece])
@pytest.mark.parametrize("label", [-1, 2])
def test_label_outside_the_classes_raises(score, label):
    # -1 would index the last class and 2 the row's end on a 2-class array
    probs = np.array([[0.85, 0.15], [0.15, 0.85]])
    with pytest.raises(DomainError, match=r"labels must lie in \[0, 2\)"):
        score(probs, np.array([0, label]))


@pytest.mark.parametrize("score", [cls.multinomial_nll, cls.compute_ece])
@pytest.mark.parametrize("probs", [np.array([0.4, 0.6]), np.full((2, 2, 3), 0.5)])
def test_probabilities_must_be_one_row_per_label(score, probs):
    with pytest.raises(ShapeError, match="one probability row per label"):
        score(probs, np.array([0, 1]))


@pytest.mark.parametrize("call, name", [
    (lambda clf, X, y: cls.predict_proba(clf, X, num_samples=1.5), "num_samples"),
    (lambda clf, X, y: cls.fit_temperature(clf, X, y, num_samples=1.5), "num_samples"),
    (lambda clf, X, y: cls.compute_ece(np.full((y.size, 2), 0.5), y, num_bins=2.5),
     "num_bins"),
], ids=["predict_proba", "fit_temperature", "compute_ece"])
def test_counts_must_be_integers(call, name):
    # 1.5 passes a "< 1" check, then fails inside numpy with a TypeError
    X = np.random.default_rng(79).standard_normal((10, 2))
    labels = np.array([0, 1] * 5)
    fmap = ft.init_params([2, 4, 3], seed=15, rescale_to_unit=True)
    clf = build_classifier(labels, fmap, X, np.ones(2), np.ones(2))
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        call(clf, X, labels)


class TestPersistence:
    def test_round_trip_probabilities(self, tmp_path):
        rng = np.random.default_rng(76)
        X = rng.standard_normal((40, 2))
        labels = rng.integers(0, 3, size=40)
        fmap = ft.init_params([2, 6, 4], seed=14, normalization="layer_norm",
                              rescale_to_unit=True)
        clf = build_classifier(labels, fmap, X, np.array([1.0, 1.5, 0.8]),
                               np.array([0.2, 0.3, 0.4]))
        clf = clf.with_temperature(1.37)
        path = tmp_path / "clf.json"
        cls.save_classifier(clf, path)
        loaded = cls.load_classifier(path)
        assert loaded.temperature == clf.temperature
        assert loaded.alpha_eps == clf.alpha_eps
        Xs = rng.standard_normal((12, 2))
        np.testing.assert_array_equal(cls.predict_proba(clf, Xs, seed=8),
                                      cls.predict_proba(loaded, Xs, seed=8))

    def test_regression_schema_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema": "fmgp/model@1", "task": "regression"}')
        with pytest.raises(DataError, match="expected a classification model"):
            cls.load_classifier(path)
