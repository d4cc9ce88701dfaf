"""Tests for GP regression: likelihood, fitting, prediction, recalibration."""

import warnings

import numpy as np
import pytest

from fmgp import classification as cls
from fmgp import data as dt
from fmgp import features as ft
from fmgp import lowrank as lr
from fmgp import model_file as mf
from fmgp import oracle_check as oc
from fmgp import regression as reg
from fmgp.errors import (ConfigError, DataError, DomainError, NumericError, ShapeError,
                         TrainingError)

LOG_2PI = np.log(2.0 * np.pi)


def scalar_positive_map():
    """p = 1 map whose rescaled feature is exactly 1 for positive inputs."""
    fmap = ft.init_params([1, 1], seed=0, rescale_to_unit=True)
    return fmap.replace_params(np.array([1.0, 0.0]))


def dense_mll(phi, y, sf2, noise):
    """Straight dense evaluation of the Gaussian evidence."""
    n = phi.shape[0]
    k = sf2 * (phi @ phi.T) + np.diag(np.broadcast_to(noise, (n,)).astype(float))
    return float(-0.5 * (y @ np.linalg.solve(k, y)) -
                 0.5 * np.linalg.slogdet(k)[1] - 0.5 * n * LOG_2PI)


def one_column_mll(fmap, log_sf2, log_sxi2, X, y, extra_noise=None):
    """The training objective _summed_mll on one target column: (value,
    map gradient, d log sigma_f_sq, d log sigma_xi_sq)."""
    grads = np.empty(fmap.params.size + 2)
    value = reg._summed_mll(fmap, np.array([log_sf2]), np.array([log_sxi2]), X, y[:, None],
                            None if extra_noise is None else extra_noise[:, None], grads,
                            ft.Workspace())
    return value, grads[:-2], grads[-2], grads[-1]


def unsplit_dataset(X, y):
    n, d = X.shape
    split = {"train": np.arange(n), "test": np.empty(0, dtype=np.int64),
             "recalibration": np.empty(0, dtype=np.int64)}
    return dt.Dataset(X, y, split, np.zeros(d), np.ones(d))


class TestMllValues:
    def test_pure_noise_closed_form(self):
        # Phi = 0 leaves only the noise: -(1/2)(y^T y / s2 + n log s2 + n log 2pi)
        y = np.array([1.0, -2.0, 0.5])
        s2 = 0.3
        value = reg.gaussian_mll_parts(np.zeros((3, 2)), y[:, None], [np.log(1.0)],
                                       [np.log(s2)])[0]
        expected = -0.5 * (y @ y / s2 + 3 * np.log(s2) + 3 * LOG_2PI)
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_ones_column_hand_value(self):
        # Phi = ones(2, 1), unit variances: K = [[2, 1], [1, 2]],
        # data fit -(1/2)(2/3), log det -(1/2) log 3
        phi = np.ones((2, 1))
        y = np.array([1.0, 0.0])
        value = reg.gaussian_mll_parts(phi, y[:, None], [np.log(1.0)], [np.log(1.0)])[0]
        expected = -0.5 * (2.0 / 3.0) - 0.5 * np.log(3.0) - LOG_2PI
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_matches_dense_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            p = int(rng.integers(1, 9))
            phi = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            sf2 = float(np.exp(rng.uniform(-1, 1)))
            sx2 = float(np.exp(rng.uniform(np.log(1e-3), np.log(4.0))))
            got = reg.gaussian_mll_parts(phi, y[:, None], [np.log(sf2)], [np.log(sx2)])[0]
            np.testing.assert_allclose(got, dense_mll(phi, y, sf2, sx2),
                                       rtol=1e-9, atol=1e-9)

    def test_matches_dense_heteroscedastic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            p = int(rng.integers(1, 9))
            phi = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            extra = rng.uniform(0.05, 2.0, size=n)
            sf2 = float(np.exp(rng.uniform(-1, 1)))
            sx2 = float(np.exp(rng.uniform(np.log(1e-3), np.log(4.0))))
            got = reg.gaussian_mll_parts(phi, y[:, None], [np.log(sf2)], [np.log(sx2)],
                                         extra_noise=extra[:, None])[0]
            np.testing.assert_allclose(got, dense_mll(phi, y, sf2, extra + sx2),
                                       rtol=1e-9, atol=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            reg.gaussian_mll_parts(np.zeros((3, 2)), np.zeros((4, 1)), [0.0], [0.0])

    def test_zero_rows_raise(self):
        with pytest.raises(DomainError, match="need at least one data point"):
            reg.gaussian_mll_parts(np.zeros((0, 2)), np.zeros((0, 1)), [0.0], [0.0])


class TestMllGradients:
    @pytest.mark.parametrize("hetero", [False, True])
    def test_finite_differences_through_map(self, hetero):
        rng = np.random.default_rng(21)
        fmap = ft.init_params([2, 6, 4], seed=5, normalization="layer_norm",
                              rescale_to_unit=True)
        X = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        extra = rng.uniform(0.1, 1.0, size=20) if hetero else None
        lsf, lsx = np.log(1.4), np.log(0.3)
        value, gmap, gsf, gsx = one_column_mll(fmap, lsf, lsx, X, y, extra_noise=extra)
        params = fmap.params
        h = 1e-5
        worst = 0.0
        for idx in range(params.size):
            plus = params.copy()
            plus[idx] += h
            minus = params.copy()
            minus[idx] -= h
            fd = (one_column_mll(fmap.replace_params(plus), lsf, lsx, X, y,
                                 extra_noise=extra)[0]
                  - one_column_mll(fmap.replace_params(minus), lsf, lsx, X, y,
                                   extra_noise=extra)[0]) / (2 * h)
            g = gmap[idx]
            worst = max(worst, abs(g - fd) / max(1e-3, abs(g), abs(fd)))
        for grad, bump in ((gsf, (h, 0.0)), (gsx, (0.0, h))):
            fd = (one_column_mll(fmap, lsf + bump[0], lsx + bump[1], X, y,
                                 extra_noise=extra)[0]
                  - one_column_mll(fmap, lsf - bump[0], lsx - bump[1], X, y,
                                   extra_noise=extra)[0]) / (2 * h)
            worst = max(worst, abs(grad - fd) / max(1e-3, abs(grad), abs(fd)))
        assert worst <= 1e-4

    def test_signal_gradient_zero_at_zero_features(self):
        _, d_phi, (d_sf,), _ = reg.gaussian_mll_parts(np.zeros((4, 3)), np.ones((4, 1)),
                                                      [0.0], [np.log(0.5)])
        np.testing.assert_array_equal(d_phi, np.zeros((4, 3)))
        assert d_sf == 0.0


class TestFitting:
    def make_dataset(self, n=80, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(n, 1))
        y = np.sin(2.5 * X[:, 0]) + 0.05 * rng.standard_normal(n)
        return unsplit_dataset(X, y)

    def small_config(self, **overrides):
        base = dict(hidden_widths=(16, 16), output_dim=8, iterations=40,
                    subset_size=500, seed=0)
        base.update(overrides)
        return reg.FitConfig(**base)

    def test_zero_iterations_is_valid(self):
        ds = self.make_dataset()
        model = reg.fit(ds, self.small_config(iterations=0))
        assert model.training_trace == []
        np.testing.assert_allclose(model.sigma_f_sq, 1.0)
        np.testing.assert_allclose(model.sigma_xi_sq, 0.1)
        pred = reg.predict(model, ds.X[:5])
        assert np.all(np.isfinite(pred.mean))

    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("num_subsets", 1.5), ("subset_size", 50.5),
        ("seed", -1), ("seed", 1.5), ("output_dim", 4.5), ("output_dim", 3.0),
        ("hidden_widths", (8.5,))], ids=str)
    def test_config_refuses_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError, match=field):
            self.small_config(**{field: value})
        # a numpy integer is an integer
        good = (np.int64(3),) if field == "hidden_widths" else np.int64(3)
        model = reg.fit(self.make_dataset(), self.small_config(**{"iterations": 3, field: good}))
        assert len(model.training_trace) == 3

    def test_loss_trace_length_and_progress(self):
        ds = self.make_dataset()
        model = reg.fit(ds, self.small_config())
        assert len(model.training_trace) == 40
        assert model.training_trace[-1] < model.training_trace[0]

    def test_deterministic_under_seed(self):
        ds = self.make_dataset()
        m1 = reg.fit(ds, self.small_config())
        m2 = reg.fit(ds, self.small_config())
        np.testing.assert_array_equal(m1.decomp.lam, m2.decomp.lam)
        assert m1.sigma_f_sq == m2.sigma_f_sq

    def test_non_finite_inputs_raise_training_error(self):
        ds = self.make_dataset()
        ds.X[3, 0] = np.nan
        with pytest.raises(TrainingError) as err:
            reg.fit(ds, self.small_config())
        assert err.value.iteration == 0

    # two rows through a 2-4-3 map, with losses near the largest double:
    # 200 columns overflow their sum, 100 columns sum to a finite loss whose
    # gradient overflows in Adam's square, and 3 columns of larger targets
    # overflow each column's quadratic form
    @pytest.mark.parametrize("columns, value, reason", [
        (200, 1.5e153, "summed over 200 target columns is not finite"),
        (100, 1.5e153, "overflow encountered in square"),
        (3, 9e153, "not finite in target column 0 "),
    ], ids=["summed_loss", "adam_square", "column_loss"])
    def test_huge_finite_targets_raise_training_error(self, columns, value, reason):
        fmap = ft.init_params([2, 4, 3], seed=0, normalization="layer_norm",
                              rescale_to_unit=True)
        X = np.array([[0.3, -0.2], [1.1, 0.4]])
        config = reg.FitConfig(iterations=5, subset_size=2, num_subsets=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=f"iteration 0: .*{reason}") as err:
                reg.train(fmap, X, np.full((2, columns), value), None, config)
        assert err.value.iteration == 0

    def test_empty_training_split_raises(self):
        ds = self.make_dataset()
        ds.split["train"] = np.empty(0, dtype=np.int64)
        with pytest.raises(DataError):
            reg.fit(ds, self.small_config())

    def test_prebuilt_composite_map_trains(self):
        ds = self.make_dataset()
        left = ft.init_params([1, 8, 4], seed=0, normalization="layer_norm",
                              rescale_to_unit=True)
        right = ft.init_params([1, 8, 4], seed=1, normalization="layer_norm",
                               rescale_to_unit=True)
        model = reg.fit(ds, self.small_config(iterations=10),
                        feature_map=ft.ProductFeatureMap(left, right))
        assert model.feature_map.output_dim == 16
        assert len(model.training_trace) == 10

    def test_fit_leaves_a_prebuilt_map_unchanged(self):
        # training works on a copy of the map's parameters, so the same
        # prebuilt map starts every fit from the same point
        ds = self.make_dataset()
        fmap = ft.ProductFeatureMap(
            ft.init_params([1, 8, 4], seed=0, normalization="layer_norm",
                           rescale_to_unit=True),
            ft.init_params([1, 8, 3], seed=1))
        before = fmap.params
        first = reg.fit(ds, self.small_config(iterations=10), feature_map=fmap)
        assert np.array_equal(fmap.params, before)
        assert not np.array_equal(first.feature_map.params, before)
        second = reg.fit(ds, self.small_config(iterations=10), feature_map=fmap)
        assert first.training_trace == second.training_trace

    @pytest.mark.parametrize("composite", [False, True])
    def test_one_forward_pass_per_step(self, monkeypatch, composite):
        # each training step runs each component map forward once, and
        # the one-batch decomposition runs it once more
        calls = []
        run = ft._forward_with_cache

        def counted(fmap, inputs, **kwargs):
            calls.append(inputs.shape[0])
            return run(fmap, inputs, **kwargs)

        monkeypatch.setattr(ft, "_forward_with_cache", counted)
        fmap = None
        if composite:
            fmap = ft.ProductFeatureMap(ft.init_params([1, 8, 4], seed=0),
                                        ft.init_params([1, 8, 3], seed=1))
        iterations = 5
        reg.fit(self.make_dataset(), self.small_config(iterations=iterations),
                feature_map=fmap)
        components = 2 if composite else 1
        assert len(calls) == components * (iterations + 1)

    @pytest.mark.parametrize("composite", [False, True])
    def test_buffers_allocated_in_the_first_step_only(self, monkeypatch, composite):
        # every subset has the same size, so the steps after the first
        # find each array in the fit's one workspace
        seen = []
        run = reg._summed_mll

        def counted(*args, **kwargs):
            total = run(*args, **kwargs)
            seen.append((kwargs["work"], kwargs["work"].created))
            return total

        monkeypatch.setattr(reg, "_summed_mll", counted)
        fmap = None
        if composite:
            fmap = ft.ProductFeatureMap(
                ft.init_params([1, 8, 4], seed=0, normalization="layer_norm",
                               rescale_to_unit=True),
                ft.init_params([1, 8, 4], seed=1, rescale_to_unit=True))
        ds = self.make_dataset()
        reg.train(fmap, ds.X, ds.targets[:, None], None,
                  self.small_config(iterations=5, subset_size=50, num_subsets=3))
        assert len(seen) == 5
        assert len({id(work) for work, _ in seen}) == 1
        assert seen[0][1] > 0
        assert [created for _, created in seen] == [seen[0][1]] * 5

    @pytest.mark.parametrize("composite", [False, True])
    def test_training_holds_one_array_per_hidden_layer_and_width(self, monkeypatch,
                                                                  composite):
        # 1600 rows are several row tiles at each width, and the step's
        # full-size products are formed a tile at a time; past the tile
        # buffer the arrays of hidden width are the one each hidden layer
        # keeps (xhat, or an unnormalized layer's ReLU output) and the one
        # slot of each width that reverse mode recomputes into
        seen = []
        run = reg._summed_mll

        def captured(*args, **kwargs):
            seen.append(kwargs["work"])
            return run(*args, **kwargs)

        monkeypatch.setattr(reg, "_summed_mll", captured)
        n = 1600
        fmap = ft.init_params([2, 256, 128, 4], seed=0, normalization="layer_norm",
                              rescale_to_unit=True)
        kept = [256, 128]
        if composite:
            fmap = ft.ProductFeatureMap(fmap, ft.init_params([2, 128, 128, 3], seed=1,
                                                             rescale_to_unit=True))
            kept += [128, 128]
        assert n > 3 * ft.TILE_VALUES // min(kept)
        X = np.random.default_rng(0).standard_normal((n, 2))
        reg.train(fmap, X, np.sin(X[:, :1]), None,
                  self.small_config(iterations=2, subset_size=n, num_subsets=1))
        arrays = [a for a in seen[-1]._arrays.values() if a.dtype == np.float64]
        wide = sum(a.nbytes for a in arrays if a.ndim == 2 and a.shape[1] in kept)
        assert wide == 8 * n * (sum(kept) + sum(set(kept)))
        scratch = [a.size for a in arrays if a.ndim == 1 and a.size != n]
        assert len(scratch) == 1 and scratch[0] <= ft.TILE_VALUES + max(kept)

    @pytest.mark.parametrize("composite", [False, True])
    def test_cache_batches_share_one_workspace(self, monkeypatch, composite):
        # three batches, the last one shorter: only the first allocates
        seen = []
        run = ft.forward

        def counted(fmap, inputs, **kwargs):
            phi = run(fmap, inputs, **kwargs)
            if fmap is top:
                seen.append((kwargs["work"], kwargs["work"].created))
            return phi

        monkeypatch.setattr(ft, "forward", counted)
        top = ft.init_params([1, 8, 4], seed=0, normalization="layer_norm",
                             rescale_to_unit=True)
        if composite:
            top = ft.ProductFeatureMap(top, ft.init_params([1, 8, 3], seed=1))
        X = np.random.default_rng(0).standard_normal((2 * reg.DECOMP_BATCH_ROWS + 100, 1))
        reg.build_caches(top, X, np.sin(X))
        assert len(seen) == 3
        assert len({id(work) for work, _ in seen}) == 1
        assert seen[0][1] > 0
        assert [created for _, created in seen] == [seen[0][1]] * 3

    def test_make_subsets_wraparound(self):
        rng = np.random.default_rng(0)
        subsets = reg.make_subsets(10, 4, 4, rng)
        assert len(subsets) == 4
        for block in subsets:
            assert block.shape == (4,)
            assert np.all((block >= 0) & (block < 10))
        # the four blocks cover a 16-element cycle of a 10-point shuffle,
        # so every point appears at least once
        assert np.unique(np.concatenate(subsets)).size == 10


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("field", ["sigma_f_sq", "sigma_xi_sq", "gamma"])
def test_model_refuses_a_non_finite_variance(field, bad):
    # an infinite variance would predict infinite variances
    values = {"sigma_f_sq": 1.0, "sigma_xi_sq": 0.5, "gamma": 0.5, field: bad}
    fmap = scalar_positive_map()
    dec = reg.build_decomposition(fmap, np.ones((2, 1)), np.zeros(2))
    with pytest.raises(DomainError, match=f"{field} must be finite and positive"):
        reg.GpModel(fmap, values["sigma_f_sq"], values["sigma_xi_sq"], dec,
                    gamma=values["gamma"])


def decomposition(p):
    """A cache of p features."""
    return lr.decompose(np.eye(p), np.zeros(p), 1)


def two_class_classifier(fmap, caches):
    return cls.DirichletClassifier(fmap, np.ones(2), np.ones(2), caches, 0.01)


@pytest.mark.parametrize("build, error, message", [
    (lambda fmap: reg.GpModel(fmap, 1.0, 0.5, None), DomainError,
     "decomp must be a FeatureDecomposition"),
    (lambda fmap: reg.GpModel(fmap, 1.0, 0.5, {"u": np.eye(1)}), DomainError,
     "decomp must be a FeatureDecomposition"),
    (lambda fmap: two_class_classifier(fmap, [None, None]), DomainError,
     r"caches\[0\] must be a FeatureDecomposition"),
    # a cache of two features on a map of one: load_model refused the file
    # that save_model wrote
    (lambda fmap: reg.GpModel(fmap, 1.0, 0.5, decomposition(2)), ShapeError,
     r"decomp.u must have shape \(1, 1\), got \(2, 2\)"),
    # predict_proba raised numpy's ValueError from a matmul
    (lambda fmap: two_class_classifier(fmap, [decomposition(1), decomposition(2)]),
     ShapeError, r"caches\[1\].u must have shape \(1, 1\)"),
], ids=["none", "dict", "classifier_none", "mismatch", "classifier_mismatch"])
def test_model_refuses_anything_but_a_decomposition(build, error, message, tmp_path):
    # without this refusal saving raised a bare AttributeError
    with pytest.raises(error, match=message):
        mf.save(build(scalar_positive_map()), tmp_path / "model.json")


@pytest.mark.parametrize("feature_map", [None, "mlp"], ids=["none", "string"])
@pytest.mark.parametrize("build", [
    lambda fmap: reg.GpModel(fmap, 1.0, 0.5, decomposition(1)),
    lambda fmap: two_class_classifier(fmap, [decomposition(1)] * 2)],
    ids=["regression", "classifier"])
def test_model_refuses_anything_but_a_feature_map(build, feature_map):
    # without this refusal the cache rule raised a bare AttributeError
    with pytest.raises(DomainError, match="feature_map must be a FeatureMap or a pair "
                                          f"map, got {type(feature_map).__name__}"):
        build(feature_map)


def test_train_refuses_a_map_of_another_input_width():
    fmap = ft.init_params([3, 4, 2], seed=0)
    with pytest.raises(ShapeError, match="feature map expects 3 inputs, data has 2"):
        reg.train(fmap, np.ones((5, 2)), np.zeros((5, 1)), None, reg.FitConfig(iterations=1))


class TestPredict:
    def test_single_point_closed_form(self):
        # one training pair with feature 1: mean = sf2 y / (sf2 + sx2),
        # latent var = sf2 sx2 / (sf2 + sx2)
        fmap = scalar_positive_map()
        sf2, sx2, y0 = 2.0, 0.5, 3.0
        X = np.array([[2.0]])
        phi = ft.forward(fmap, X)
        dec = lr.decompose(phi.T @ phi, phi.T @ np.array([y0]), 1)
        model = reg.GpModel(fmap, sf2, sx2, dec)
        pred = reg.predict(model, np.array([[5.0]]))
        np.testing.assert_allclose(pred.mean, [sf2 * y0 / (sf2 + sx2)], rtol=1e-12)
        np.testing.assert_allclose(pred.variance, [sf2 * sx2 / (sf2 + sx2)],
                                   rtol=1e-12)
        np.testing.assert_allclose(pred.observation_variance,
                                   pred.variance + sx2, rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(30)
        fmap = ft.init_params([2, 8, 6], seed=3, normalization="layer_norm",
                              rescale_to_unit=True)
        X = rng.standard_normal((60, 2))
        y = rng.standard_normal(60)
        Xs = rng.standard_normal((15, 2))
        sf2, sx2 = 1.3, 0.05
        phi = ft.forward(fmap, X)
        dec = lr.decompose(phi.T @ phi, phi.T @ y, 60)
        model = reg.GpModel(fmap, sf2, sx2, dec)
        pred = reg.predict(model, Xs)

        def kernel(a, b):
            return sf2 * (ft.forward(fmap, a) @ ft.forward(fmap, b).T)

        oracle = oc.exact_gp_oracle(kernel, X, y, sx2, Xs)
        np.testing.assert_allclose(pred.mean, oracle.mean, rtol=1e-9)
        np.testing.assert_allclose(pred.variance, oracle.variance, atol=1e-10)

    def test_cost_does_not_depend_on_training_size(self):
        # the cache is the same shape for any n, so predictions only see p
        fmap = ft.init_params([1, 4, 3], seed=0, rescale_to_unit=True)
        for n in (10, 1000):
            rng = np.random.default_rng(0)
            X = rng.standard_normal((n, 1))
            phi = ft.forward(fmap, X)
            dec = lr.decompose(phi.T @ phi, phi.T @ rng.standard_normal(n), n)
            assert dec.u.shape == (3, 3)
            assert dec.proj_targets.shape == (3,)


class TestRecalibrate:
    def build_flat_model(self):
        # single training point y = 0: predictive mean 0 everywhere,
        # latent var 1/2, observation var 3/2 with unit variances
        fmap = scalar_positive_map()
        X = np.array([[1.0]])
        phi = ft.forward(fmap, X)
        dec = lr.decompose(phi.T @ phi, phi.T @ np.array([0.0]), 1)
        return reg.GpModel(fmap, 1.0, 1.0, dec)

    def test_alpha_hand_computation(self):
        model = self.build_flat_model()
        X_cal = np.array([[1.0], [2.0]])
        y_cal = np.array([3.0, 0.0])
        # alpha = mean(y^2 / (3/2)) = (9 + 0) / 2 / (3/2) = 3
        recal = reg.recalibrate(model, X_cal, y_cal)
        np.testing.assert_allclose(recal.sigma_f_sq, 3.0, rtol=1e-12)
        np.testing.assert_allclose(recal.sigma_xi_sq, 3.0, rtol=1e-12)

    def test_twice_is_fixed_point(self):
        model = self.build_flat_model()
        X_cal = np.array([[1.0], [2.0], [0.5]])
        y_cal = np.array([1.5, -0.3, 0.7])
        once = reg.recalibrate(model, X_cal, y_cal)
        twice = reg.recalibrate(once, X_cal, y_cal)
        second_alpha = twice.sigma_f_sq / once.sigma_f_sq
        assert abs(second_alpha - 1.0) <= 1e-10

    def test_means_bit_identical(self):
        rng = np.random.default_rng(40)
        fmap = ft.init_params([2, 8, 5], seed=6, normalization="layer_norm",
                              rescale_to_unit=True)
        X = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        phi = ft.forward(fmap, X)
        dec = lr.decompose(phi.T @ phi, phi.T @ y, 50)
        model = reg.GpModel(fmap, 1.7, 0.23, dec)
        X_cal = rng.standard_normal((20, 2))
        y_cal = rng.standard_normal(20)
        recal = reg.recalibrate(model, X_cal, y_cal)
        Xs = rng.standard_normal((30, 2))
        before = reg.predict(model, Xs)
        after = reg.predict(recal, Xs)
        np.testing.assert_array_equal(before.mean, after.mean)
        alpha = recal.sigma_f_sq / model.sigma_f_sq
        np.testing.assert_allclose(after.variance, alpha * before.variance,
                                   rtol=1e-12)

    def test_changes_only_the_variances(self):
        flat = self.build_flat_model()
        stats, trace = {"target_mean": 0.5, "target_std": 2.0}, [1.2, 0.9]
        model = reg.GpModel(flat.feature_map, np.float64(1.0), np.float64(1.0),
                            flat.decomp, train_inputs_stats=stats, training_trace=trace)
        recal = reg.recalibrate(model, np.array([[1.0], [2.0]]), np.array([3.0, 0.0]))
        for name in ("feature_map", "decomp", "train_inputs_stats", "training_trace"):
            assert getattr(recal, name) is getattr(model, name), name
        assert float.hex(recal.gamma) == float.hex(model.gamma)
        # the variances stay Python floats, which json writes as plain numbers
        assert type(recal.sigma_f_sq) is float and type(recal.sigma_xi_sq) is float

    def test_empty_calibration_raises(self):
        model = self.build_flat_model()
        with pytest.raises(DomainError):
            reg.recalibrate(model, np.empty((0, 1)), np.empty(0))

    def test_zero_residuals_raise(self):
        # alpha = 0 would scale both variances to zero
        model = self.build_flat_model()
        X_cal = np.array([[1.0], [2.0]])
        with pytest.raises(NumericError, match="recalibration factor must be positive, got 0.0"):
            reg.recalibrate(model, X_cal, reg.predict(model, X_cal).mean)


class TestExactOracle:
    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(50)
        X = rng.standard_normal((25, 2))
        y = rng.standard_normal(25)
        Xs = rng.standard_normal((6, 2))

        def kernel(a, b):
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
            return np.exp(-0.5 * d2)

        s2 = 0.4
        oracle = oc.exact_gp_oracle(kernel, X, y, s2, Xs)
        k_nn = kernel(X, X) + s2 * np.eye(25)
        k_sn = kernel(Xs, X)
        np.testing.assert_allclose(oracle.mean, k_sn @ np.linalg.solve(k_nn, y),
                                   rtol=1e-9)
        expected_var = 1.0 - np.sum(k_sn * np.linalg.solve(k_nn, k_sn.T).T, axis=1)
        np.testing.assert_allclose(oracle.variance, expected_var, atol=1e-9)
        np.testing.assert_allclose(oracle.observation_variance,
                                   oracle.variance + s2, rtol=1e-12)

    def test_heteroscedastic_noise_vector(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((15, 1))
        y = rng.standard_normal(15)
        noise = rng.uniform(0.1, 1.0, size=15)

        def kernel(a, b):
            return 1.0 + a @ b.T

        oracle = oc.exact_gp_oracle(kernel, X, y, noise, X[:4])
        k_nn = kernel(X, X) + np.diag(noise)
        np.testing.assert_allclose(oracle.mean,
                                   kernel(X[:4], X) @ np.linalg.solve(k_nn, y),
                                   rtol=1e-9)
        # vector noise has no single observation variance to add
        np.testing.assert_array_equal(oracle.observation_variance,
                                      oracle.variance)

    def test_indefinite_kernel_raises(self):
        X = np.zeros((3, 1))

        def kernel(a, b):
            return -np.ones((a.shape[0], b.shape[0]))

        with pytest.raises(NumericError):
            oc.exact_gp_oracle(kernel, X, np.zeros(3), 1e-9, X)

    def test_prediction_battery_reads_variance_tolerance(self, monkeypatch):
        # the variance errors are nonzero, so a zero tolerance must fail
        monkeypatch.setattr(oc, "PREDICTION_VAR_TOL", 0.0)
        report = oc.check_prediction(seed=0)
        assert report["var_max_err"] > 0.0
        assert not report["passed"]


class TestPersistence:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(60)
        fmap = ft.init_params([2, 6, 4], seed=8, normalization="layer_norm",
                              rescale_to_unit=True)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        phi = ft.forward(fmap, X)
        dec = lr.decompose(phi.T @ phi, phi.T @ y, 30)
        stats = {"feature_means": [0.0, 0.0], "feature_stds": [1.0, 2.0],
                 "target_mean": 0.5, "target_std": 3.0}
        model = reg.GpModel(fmap, 1.2, 0.4, dec, train_inputs_stats=stats)
        path = tmp_path / "model.json"
        reg.save_model(model, path)
        loaded = reg.load_model(path)
        Xs = rng.standard_normal((9, 2))
        a = reg.predict(model, Xs)
        b = reg.predict(loaded, Xs)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.variance, b.variance)
        assert loaded.train_inputs_stats == model.train_inputs_stats

    def test_product_map_predicts_bit_identically_after_reload(self, tmp_path):
        rng = np.random.default_rng(62)
        fmap = ft.ProductFeatureMap(
            ft.init_params([3, 6, 4], seed=2, normalization="layer_norm",
                           rescale_to_unit=True),
            ft.init_params([3, 6, 5], seed=3, normalization="layer_norm",
                           rescale_to_unit=True))
        X = rng.standard_normal((40, 3))
        model = reg.GpModel(fmap, 1.3, 0.2,
                            reg.build_decomposition(fmap, X, rng.standard_normal(40)))
        path = tmp_path / "model.json"
        reg.save_model(model, path)
        loaded = reg.load_model(path)
        Xs = rng.standard_normal((25, 3))
        a = reg.predict(model, Xs)
        b = reg.predict(loaded, Xs)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema": "fmgp/model@99"}')
        with pytest.raises(DataError, match="unrecognized model schema"):
            reg.load_model(path)

    def test_nan_variance_fails_to_save(self, tmp_path):
        fmap = ft.init_params([2, 4], seed=1, rescale_to_unit=True)
        X = np.random.default_rng(61).standard_normal((5, 2))
        model = reg.GpModel(fmap, 1.0, 0.5,
                            reg.build_decomposition(fmap, X, np.ones(5)))
        model.sigma_xi_sq = float("nan")
        path = tmp_path / "model.json"
        with pytest.raises(NumericError, match="model.json"):
            reg.save_model(model, path)
        assert not path.exists()


class TestMeanNll:
    def test_standard_normal_value(self):
        pred = reg.PredictiveDistribution(np.zeros(3), np.zeros(3), np.ones(3))
        got = reg.mean_nll(pred, np.zeros(3))
        np.testing.assert_allclose(got, 0.5 * LOG_2PI, rtol=1e-12)
