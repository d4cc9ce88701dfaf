"""Acceptance battery: one test and one printed pass/fail line per criterion.

Each test prints a single line with the measured value and its threshold
on the real stdout so the verdicts are visible in any pytest mode.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fmgp import classification as cls
from fmgp import data as dt
from fmgp import features as ft
from fmgp import lowrank as lr
from fmgp import oracle_check as oc
from fmgp import regression as reg
from fmgp import spectral as sp


@pytest.fixture
def verdict(capfd):
    """Writer that bypasses capture so every criterion prints one line."""

    def emit(index, name, passed, detail, status=None):
        status = status or ("PASS" if passed else "FAIL")
        with capfd.disabled():
            print(f"{status} {index:2d} {name}: {detail}", flush=True)

    return emit


def quiet_prepare(raw, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dt.prepare(raw, **kwargs)


class TestAcceptance:
    def test_01_dense_oracle_equivalence(self, verdict):
        started = time.perf_counter()
        rep = oc.check_prediction(num_instances=100, seed=0)
        elapsed = time.perf_counter() - started
        passed = rep["passed"] and elapsed <= 60.0
        verdict(1, "dense-oracle prediction equivalence", passed,
               f"max_err={rep['max_err']:.2e} tol={rep['tol']:.0e} "
               f"({rep['instances']} instances, {elapsed:.1f}s <= 60s)")
        assert passed

    def test_02_log_determinant_identity(self, verdict):
        rep_ld = oc.check_logdet(num_instances=100, seed=0)
        rep_wb = oc.check_woodbury(num_instances=100, seed=0)
        passed = rep_ld["passed"] and rep_wb["passed"]
        verdict(2, "log-determinant identity incl. n < p", passed,
               f"logdet max_err={rep_ld['max_err']:.2e} tol={rep_ld['tol']:.0e}, "
               f"solve max_err={rep_wb['max_err']:.2e} tol={rep_wb['tol']:.0e}")
        assert passed

    def test_03_mll_gradient_check(self, verdict):
        step = 1e-5
        worst = 0.0

        def rel(g, fd):
            return abs(g - fd) / max(1e-3, abs(g), abs(fd))

        for trial in range(5):
            rng = np.random.default_rng(200 + trial)
            n = int(rng.integers(20, 65))
            d = int(rng.integers(1, 4))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            fmap = ft.init_params([d, 8, 6], seed=trial,
                                  normalization="layer_norm",
                                  rescale_to_unit=True)
            log_sf = float(np.log(1.3))
            log_sx = float(np.log(0.2))
            _, map_grads, d_sf, d_sx = reg.mll(fmap, log_sf, log_sx, X, y)

            def value(fm, a=log_sf, b=log_sx):
                return reg.mll(fm, a, b, X, y)[0]

            base = fmap.params.copy()
            for idx in range(map_grads.size):
                for sign in (1.0, -1.0):
                    base[idx] += sign * step
                    if sign > 0:
                        up = value(fmap.replace_params(base))
                    else:
                        down = value(fmap.replace_params(base))
                    base[idx] = fmap.params[idx]
                worst = max(worst, rel(map_grads[idx], (up - down) / (2 * step)))
            fd_sf = (value(fmap, log_sf + step) -
                     value(fmap, log_sf - step)) / (2 * step)
            fd_sx = (value(fmap, log_sf, log_sx + step) -
                     value(fmap, log_sf, log_sx - step)) / (2 * step)
            worst = max(worst, rel(d_sf, fd_sf), rel(d_sx, fd_sx))
        passed = worst <= 1e-4
        verdict(3, "analytic MLL gradients vs central differences", passed,
               f"worst rel err={worst:.2e} tol=1e-4 (5 instances, step 1e-5)")
        assert passed

    def test_04_product_kernel_exactness(self, verdict):
        rep = oc.check_product(num_instances=50, seed=0)
        verdict(4, "product feature map reproduces Hadamard Gram",
               rep["passed"],
               f"max_err={rep['max_err']:.2e} tol={rep['tol']:.0e} "
               f"({rep['instances']} instances, positional column rule)")
        assert rep["passed"]

    def test_05_additive_kernel_solve(self, verdict):
        rep = oc.check_additive(num_instances=50, seed=0)
        verdict(5, "two-map additive solve vs dense", rep["passed"],
               f"max_err={rep['max_err']:.2e} tol={rep['tol']:.0e} "
               f"({rep['instances']} instances)")
        assert rep["passed"]

    def test_06_majorization_suite(self, verdict):
        rep = oc.check_majorization(num_pairs=100, seed=0)
        verdict(6, "Hadamard partial/tail spectral bounds", rep["passed"],
               f"min slack={-rep['max_err']:.2e} >= -{rep['tol']:.0e} "
               f"({rep['instances']} unit-diagonal pairs)")
        assert rep["passed"]

    def test_07_rank_bound_and_width_trend(self, verdict):
        worst_excess = 0
        for p in (4, 16, 64):
            for seed in range(20):
                X = np.random.default_rng(10_000 + seed).uniform(size=(96, 2))
                spec = sp.MlpKernel(hidden_widths=(32,), output_dim=p,
                                    seed=seed)
                rank = sp.spectrum(sp.build_gram(spec, X), spec.label,
                                   2, seed).numeric_rank
                worst_excess = max(worst_excess, rank - p)
        rank_ok = worst_excess <= 0

        widths = (64, 256, 512)
        specs = tuple(sp.MlpKernel(hidden_widths=(w,), output_dim=128, seed=0)
                      for w in widths)
        cfg = sp.DecayConfig(specs=specs, n=512, d=2, seeds=tuple(range(12)))
        reports = sp.decay_experiment(cfg)
        means = []
        for spec in specs:
            tails = [r.tail_mass(32) for r in reports
                     if r.kernel_label == spec.label]
            means.append(float(np.mean(tails)))
        trend_ok = means[0] < means[1] < means[2]
        passed = rank_ok and trend_ok
        verdict(7, "rank bound and hidden-width tail trend", passed,
               f"rank excess={worst_excess} (60 grams); mean tail_mass(32) "
               f"64/256/512 = {means[0]:.1e}/{means[1]:.1e}/{means[2]:.1e} "
               f"over 12 seeds")
        assert passed

    def test_08_recalibration(self, verdict):
        # hand-checkable single-point model: constant unit feature
        fmap = ft.init_params([1, 1], seed=0, rescale_to_unit=True)
        fmap = fmap.replace_params(np.array([1.0, 0.0]))
        X = np.array([[1.0]])
        decomp = reg.build_decomposition(fmap, X, np.array([2.0]))
        model = reg.GpModel(fmap, 1.0, 1.0, decomp)
        # mean 1, observation variance 1.5 at the training point
        y_cal = np.array([1.0 + np.sqrt(4.5)])
        recal = reg.recalibrate(model, X, y_cal)
        alpha = recal.sigma_f_sq / model.sigma_f_sq
        hand_ok = abs(alpha - 3.0) <= 1e-12

        ds = quiet_prepare(dt.synth_gp_sample(sp.RbfKernel(0.5), 600, 2,
                                              0.2, seed=3), seed=3,
                           test_n=100, recal_n=100)
        fitted = reg.fit(ds, reg.FitConfig(hidden_widths=(16, 16),
                                           output_dim=8, iterations=20,
                                           seed=3))
        X_cal, y_cal = ds.subset_arrays("recalibration")
        once = reg.recalibrate(fitted, X_cal, y_cal.astype(np.float64))
        X_test, _ = ds.subset_arrays("test")
        means_equal = np.array_equal(reg.predict(fitted, X_test).mean,
                                     reg.predict(once, X_test).mean)
        twice = reg.recalibrate(once, X_cal, y_cal.astype(np.float64))
        alpha_two = twice.sigma_f_sq / once.sigma_f_sq
        fixed_point_ok = abs(alpha_two - 1.0) <= 1e-10
        passed = hand_ok and means_equal and fixed_point_ok
        verdict(8, "recalibration formula, fixed point, mean invariance",
               passed,
               f"hand alpha err={abs(alpha - 3.0):.1e}, second alpha - 1 = "
               f"{alpha_two - 1.0:+.1e} (tol 1e-10), means bit-identical="
               f"{means_equal}")
        assert passed

    def test_09_dirichlet_transform_and_whitening(self, verdict):
        y_tilde, s_tilde_sq = cls.dirichlet_transform(np.array([0, 1]),
                                                      alpha_eps=1.0, num_classes=2)
        const_err = max(abs(y_tilde[0, 1] - (-0.346574)),
                        abs(s_tilde_sq[0, 1] - 0.693147))
        consts_ok = const_err <= 1e-6

        rng = np.random.default_rng(90)
        n = 150
        X = rng.standard_normal((n, 3))
        labels = rng.integers(0, 3, size=n)
        fmap = ft.init_params([3, 16, 8], seed=9, normalization="layer_norm",
                              rescale_to_unit=True)
        sigma_f_sq = np.array([1.5, 0.7, 2.2])
        sigma_xi_sq = np.array([0.3, 0.9, 0.05])
        y_t, s_t = cls.dirichlet_transform(labels, 0.01, 3)
        caches = reg.build_caches(fmap, X, y_t, s_t + sigma_xi_sq)
        clf = cls.DirichletClassifier(fmap, sigma_f_sq, sigma_xi_sq, caches, 0.01)
        Xs = rng.standard_normal((25, 3))
        means, variances = cls.class_posteriors(clf, Xs)
        worst_mean = worst_var = 0.0
        for c in range(3):
            oracle = oc.exact_gp_oracle(
                lambda a, b, c=c: sigma_f_sq[c] * (ft.forward(fmap, a)
                                                   @ ft.forward(fmap, b).T),
                X, y_t[:, c], s_t[:, c] + sigma_xi_sq[c], Xs)
            scale = np.max(np.abs(oracle.mean))
            worst_mean = max(worst_mean,
                             np.max(np.abs(means[:, c] - oracle.mean)) / scale)
            worst_var = max(worst_var,
                            np.max(np.abs(variances[:, c] - oracle.variance)))
        whitening_ok = worst_mean <= 1e-8 and worst_var <= 1e-8
        passed = consts_ok and whitening_ok
        verdict(9, "Dirichlet constants and heteroscedastic whitening", passed,
               f"const err={const_err:.1e} tol=1e-6; oracle mean rel="
               f"{worst_mean:.1e}, var abs={worst_var:.1e}, tol=1e-8")
        assert passed

    def test_10_classification_end_to_end(self, verdict):
        started = time.perf_counter()
        seed = 0
        raw = dt.synth_blobs(4000, num_classes=2, d=2, separation=4.0,
                             seed=seed)
        ds = quiet_prepare(raw, seed=seed)
        clf = cls.fit_classifier(ds, cls.ClassifierConfig(
            hidden_widths=(64, 64), output_dim=16, iterations=60, seed=seed))
        X_cal, y_cal = ds.subset_arrays("recalibration")
        probs_before = cls.predict_proba(clf, X_cal, seed=seed)
        ece_before = cls.compute_ece(probs_before, y_cal).ece
        t_star = cls.fit_temperature(clf, X_cal, y_cal, seed=seed)
        tempered = clf.with_temperature(t_star)
        probs_after = cls.predict_proba(tempered, X_cal, seed=seed)
        ece_after = cls.compute_ece(probs_after, y_cal).ece

        X_test, y_test = ds.subset_arrays("test")
        test_before = cls.predict_proba(clf, X_test, seed=seed)
        test_after = cls.predict_proba(tempered, X_test, seed=seed)
        error = float(np.mean(test_after.argmax(axis=1) != y_test))
        argmax_ok = np.array_equal(test_before.argmax(axis=1),
                                   test_after.argmax(axis=1))
        elapsed = time.perf_counter() - started
        passed = (error <= 0.05 and ece_after <= ece_before + 1e-9
                  and argmax_ok and elapsed <= 300.0)
        verdict(10, "two-blob classification end to end", passed,
               f"error={error:.4f} <= 0.05; recal ECE {ece_before:.4f} -> "
               f"{ece_after:.4f} (T={t_star:.2f}); argmax invariant="
               f"{argmax_ok}; {elapsed:.0f}s <= 300s")
        assert passed

    def test_11_regression_end_to_end(self, verdict):
        started = time.perf_counter()
        seed = 0
        kernel = sp.ExpKernel(1.0)
        sample = dt.synth_gp_sample(kernel, 2000, 1, 0.1, seed=seed)
        ds = quiet_prepare(dt.RawTable(sample.X, sample.targets, "regression"),
                           seed=seed)
        model = reg.fit(ds, reg.FitConfig(seed=seed))
        X_cal, y_cal = ds.subset_arrays("recalibration")
        model = reg.recalibrate(model, X_cal, y_cal.astype(np.float64))
        X_test, y_test = ds.subset_arrays("test")
        mse = float(np.mean((reg.predict(model, X_test).mean - y_test) ** 2))

        # exact GP with the generating kernel, in normalized target units
        X_train, y_train = ds.subset_arrays("train")
        s = ds.target_std
        raw_train = X_train * ds.feature_stds + ds.feature_means
        raw_test = X_test * ds.feature_stds + ds.feature_means
        oracle = oc.exact_gp_oracle(
            lambda a, b: sp._base_gram(kernel, a, b) / s ** 2,
            raw_train, y_train.astype(np.float64), (0.1 / s) ** 2, raw_test)
        mse_oracle = float(np.mean((oracle.mean - y_test) ** 2))
        ratio = mse / mse_oracle
        elapsed = time.perf_counter() - started
        passed = ratio <= 2.0 and elapsed <= 600.0
        verdict(11, "exp-kernel regression vs exact oracle", passed,
               f"test MSE {mse:.4f} vs oracle {mse_oracle:.4f}, ratio="
               f"{ratio:.2f} <= 2; {elapsed:.0f}s <= 600s")
        assert passed

    def test_12_poletele_reproduction(self, verdict):
        path = os.environ.get("FMGP_POLETELE_CSV")
        if path is None:
            candidate = Path(__file__).resolve().parents[1] / "data" / "poletele.csv"
            path = str(candidate) if candidate.exists() else None
        if path is None:
            verdict(12, "Poletele reproduction (optional)", True,
                   "dataset not supplied (set FMGP_POLETELE_CSV or "
                   "add data/poletele.csv)", status="SKIP")
            pytest.skip("Poletele CSV not supplied")
        started = time.perf_counter()
        ds = quiet_prepare(dt.load_csv(path), seed=0)
        model = reg.fit(ds, reg.FitConfig(seed=0))
        X_cal, y_cal = ds.subset_arrays("recalibration")
        model = reg.recalibrate(model, X_cal, y_cal.astype(np.float64))
        X_test, y_test = ds.subset_arrays("test")
        mse = float(np.mean((reg.predict(model, X_test).mean - y_test) ** 2))
        elapsed = time.perf_counter() - started
        passed = mse <= 0.035 and elapsed <= 900.0
        verdict(12, "Poletele reproduction (optional)", passed,
               f"normalized MSE={mse:.4f} <= 0.035; {elapsed:.0f}s <= 900s")
        assert passed

    def test_13_prediction_cost_independence(self, verdict):
        def build(n_total):
            rng = np.random.default_rng(13)
            X = rng.uniform(size=(n_total, 4))
            y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(n_total)
            ds = quiet_prepare(dt.RawTable(X, y, "regression"), seed=0,
                               test_n=500, recal_n=500)
            return reg.fit(ds, reg.FitConfig(hidden_widths=(64, 64),
                                             output_dim=32, iterations=0,
                                             seed=0))

        small = build(2_000)
        large = build(101_000)
        X_query = np.random.default_rng(14).uniform(size=(1000, 4))

        def median_predict_time(model):
            reg.predict(model, X_query)
            times = []
            for _ in range(7):
                t0 = time.perf_counter()
                reg.predict(model, X_query)
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        t_small = median_predict_time(small)
        t_large = median_predict_time(large)
        ratio = max(t_large / t_small, t_small / t_large)
        passed = ratio <= 2.0
        verdict(13, "prediction cost independent of training size", passed,
               f"1000-point predict: n=1e3 {t_small*1e3:.2f}ms vs n=1e5 "
               f"{t_large*1e3:.2f}ms, ratio={ratio:.2f} <= 2")
        assert passed
