"""Tests for CSV loading, splitting, whitening, and synthetic generators."""

import warnings

import numpy as np
import pytest

from fmgp import data as dt
from fmgp import spectral as sp
from fmgp.errors import DataError, DomainError


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        return path

    def test_header_row_is_skipped(self, tmp_path):
        path = self.write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        raw = dt.load_csv(path)
        np.testing.assert_array_equal(raw.X, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(raw.targets, [3, 6])

    def test_headerless_file_keeps_first_row(self, tmp_path):
        path = self.write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n")
        raw = dt.load_csv(path)
        assert raw.X.shape == (3, 2)
        np.testing.assert_array_equal(raw.targets, [3, 6, 9])

    def test_classification_labels_remapped_sorted(self, tmp_path):
        path = self.write(tmp_path, "0.0,7\n1.0,3\n2.0,7\n")
        raw = dt.load_csv(path, task="classification")
        np.testing.assert_array_equal(raw.targets, [1, 0, 1])
        assert raw.label_map == {3.0: 0, 7.0: 1}

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            dt.load_csv(self.write(tmp_path, ""))

    def test_header_only_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            dt.load_csv(self.write(tmp_path, "a,b,y\n"))

    def test_ragged_row_raises_with_row_number(self, tmp_path):
        path = self.write(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(DataError, match="row 2"):
            dt.load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        # a bad cell in the first row would read as a header, so put it
        # in the second row
        path = self.write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            dt.load_csv(path)

    def test_single_column_raises(self, tmp_path):
        with pytest.raises(DataError):
            dt.load_csv(self.write(tmp_path, "1\n2\n"))

    def test_unknown_task_raises(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(DomainError):
            dt.load_csv(path, task="ranking")

    def test_cell_over_csv_field_limit_raises_with_row_number(self, tmp_path):
        # csv refuses a field over 131,072 characters
        path = self.write(tmp_path, "a,b,y\n1,2,3\n4," + "1" * 200_000 + ",6\n")
        with pytest.raises(DataError, match="row 3"):
            dt.load_csv(path)

    def test_plain_numeric_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError("per-cell parser ran on a plain numeric file")
        monkeypatch.setattr(dt, "_cell_values", refuse)
        # a blank line before the header, so skipping counts raw lines
        path = self.write(tmp_path, "\r\na,b,y\r\n1,2.5,3\r\n4,-5e-3,6\r\n")
        raw = dt.load_csv(path)
        np.testing.assert_array_equal(raw.X, [[1, 2.5], [4, -5e-3]])
        np.testing.assert_array_equal(raw.targets, [3, 6])


def formatted_table(fmt, task, n=7, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, size=(n, d))
    if task == "classification":
        last = [str(v) for v in rng.choice([-1, 3, 7], size=n)]
    else:
        last = [fmt % v for v in rng.standard_normal(n)]
    lines = [",".join([fmt % v for v in x] + [y]) for x, y in zip(X, last)]
    return "x0,x1,x2,y\n" + "\n".join(lines) + "\n"


# Inputs on both sides of the fast path: loadtxt rejects some of them
# (quotes, underscores, whitespace-only rows, trailing commas), others
# it reads and load_csv must still reject (non-finite cells).
EQUIVALENCE_INPUTS = [
    pytest.param('a,b,y\n"1",2,3\n4,"5",6\n', "regression", id="quoted_cells"),
    pytest.param("1_0,2,3\n4,5,6\n", "regression", id="underscore"),
    pytest.param("a,b,y\r\n1,2,3\r\n4,5,6\r\n", "regression", id="crlf"),
    pytest.param("\n\na,b,y\n1,2,3\n\n4,5,6\n\n\n", "regression", id="blank_lines"),
    pytest.param("1,2,3\n   \n4,5,6\n", "regression", id="whitespace_only_line"),
    pytest.param("\ufeffa,b,y\n1,2,3\n4,5,6\n", "regression", id="bom_before_header"),
    pytest.param("\ufeff1,2,3\n4,5,6\n7,8,9\n", "regression", id="bom_before_numbers"),
    pytest.param("# note\n1,2,3\n4,5,6\n", "regression", id="hash_first_line"),
    pytest.param("1,2,3\n# note\n4,5,6\n", "regression", id="hash_inner_line"),
    pytest.param("1,2,3,\n4,5,6,\n", "regression", id="trailing_comma"),
    pytest.param("a,b,y\n1,2,3\n4,nan,6\n", "regression", id="nan"),
    pytest.param("a,b,y\n1,2,3\n4,5,-inf\n", "regression", id="inf"),
    pytest.param("1e309,2,3\n4,5,6\n", "regression", id="overflow_1e309"),
    pytest.param("1,2,3\n4,5,6\n", "regression", id="numeric_first_row"),
    pytest.param("a,b,y\n1,2,3\n", "regression", id="one_data_row"),
    pytest.param("y\n1\n2\n", "regression", id="one_column"),
    pytest.param("a,b,y\n 1 ,\t2\t, 3\n4 , 5,6\t\n", "regression", id="padded_cells"),
    pytest.param("a,b,y\n1,2,3\n4,5\n", "regression", id="ragged_row"),
    pytest.param("", "regression", id="empty_file"),
    pytest.param("a,b,y\n\n", "regression", id="header_only"),
    pytest.param("a,b,y\n1,2,3\n4," + "1" * 200_000 + ",6\n", "regression",
                 id="cell_over_csv_field_limit"),
    pytest.param(formatted_table("%.9g", "regression"), "regression", id="g9_regression"),
    pytest.param(formatted_table("%.17g", "regression"), "regression", id="g17_regression"),
    pytest.param(formatted_table("%.9g", "classification"), "classification",
                 id="g9_classification"),
    pytest.param(formatted_table("%.17g", "classification"), "classification",
                 id="g17_classification"),
]


def load_outcome(path, task):
    try:
        raw = dt.load_csv(path, task=task)
    except DataError as exc:
        return "DataError", str(exc)
    return (raw.X.dtype, raw.X.shape, raw.X.tobytes(), raw.targets.dtype,
            raw.targets.tobytes(), raw.label_map)


@pytest.mark.parametrize("text, task", EQUIVALENCE_INPUTS)
def test_load_csv_matches_the_per_cell_parser(tmp_path, monkeypatch, text, task):
    """load_csv gives the per-cell parser's table bit for bit, or its error."""
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    chosen = load_outcome(path, task)
    monkeypatch.setattr(dt, "_numeric_values", lambda path: None)
    assert chosen == load_outcome(path, task)


def random_raw(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * np.array([2.0, 0.5, 7.0])[:d] + 1.0
    y = rng.standard_normal(n) * 4.0 - 2.0
    return dt.RawTable(X, y, "regression")


class TestPrepare:
    def test_split_sizes_and_disjoint_cover(self):
        ds = dt.prepare(random_raw(5000), seed=0)
        assert ds.split["test"].size == 1000
        assert ds.split["recalibration"].size == 1000
        assert ds.split["train"].size == 3000
        merged = np.concatenate([ds.split[k] for k in ds.split])
        np.testing.assert_array_equal(np.sort(merged), np.arange(5000))

    def test_train_block_is_whitened(self):
        ds = dt.prepare(random_raw(5000), seed=1)
        X_train, y_train = ds.subset_arrays("train")
        np.testing.assert_allclose(X_train.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(X_train.std(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(y_train.mean(), 0.0, atol=1e-10)
        np.testing.assert_allclose(y_train.std(), 1.0, atol=1e-10)

    def test_same_seed_reproduces_split(self):
        a = dt.prepare(random_raw(4000), seed=7)
        b = dt.prepare(random_raw(4000), seed=7)
        for key in a.split:
            np.testing.assert_array_equal(a.split[key], b.split[key])
        np.testing.assert_array_equal(a.X, b.X)

    def test_different_seed_changes_split(self):
        a = dt.prepare(random_raw(4000), seed=7)
        b = dt.prepare(random_raw(4000), seed=8)
        assert not np.array_equal(a.split["test"], b.split["test"])

    def test_scarce_data_shrinks_heldout_blocks(self):
        with pytest.warns(UserWarning, match="shrinking"):
            ds = dt.prepare(random_raw(100), seed=0)
        # half the rows stay in train, the rest split proportionally
        assert ds.split["test"].size == 25
        assert ds.split["recalibration"].size == 25
        assert ds.split["train"].size == 50
        # on 10 rows (test, recalibration, train); a block asked for no
        # rows stays empty and the other takes the held-out budget
        for test_n, recal_n, expected in [(5, 5, (2, 3, 5)), (0, 100, (0, 5, 5)),
                                          (100, 0, (5, 0, 5))]:
            with pytest.warns(UserWarning, match="shrinking"):
                ds = dt.prepare(random_raw(10), seed=0, test_n=test_n, recal_n=recal_n)
            sizes = tuple(ds.split[k].size for k in ("test", "recalibration", "train"))
            assert sizes == expected

    def test_too_few_rows_raise(self):
        with pytest.raises(DomainError):
            dt.prepare(random_raw(2))

    @pytest.mark.parametrize("sizes", [dict(test_n=-5), dict(recal_n=-1)])
    def test_negative_heldout_sizes_raise(self, sizes):
        # a negative block size would make the test and training blocks overlap
        with pytest.raises(DomainError, match="nonnegative"):
            dt.prepare(random_raw(60), **sizes)

    def test_constant_column_warns_and_uses_unit_std(self):
        raw = random_raw(3000)
        raw.X[:, 1] = 5.0
        with pytest.warns(UserWarning, match="constant"):
            ds = dt.prepare(raw, seed=0)
        assert ds.feature_stds[1] == 1.0
        np.testing.assert_array_equal(ds.X[:, 1], 0.0)

    def test_normalization_round_trips(self):
        raw = random_raw(3000)
        ds = dt.prepare(raw, seed=3)
        y = np.array([-3.0, 0.0, 11.5])
        np.testing.assert_allclose(ds.denormalize_targets(ds.normalize_targets(y)),
                                   y, rtol=1e-12)
        np.testing.assert_array_equal(ds.apply_input_normalization(raw.X), ds.X)

    def test_length_mismatch_raises(self):
        raw = random_raw(50)
        raw.targets = raw.targets[:-1]
        with pytest.raises(DataError):
            dt.prepare(raw)

    def test_stats_dict_round_trip(self):
        ds = dt.prepare(random_raw(3000), seed=4)
        stats = ds.stats_dict()
        np.testing.assert_array_equal(stats["feature_means"], ds.feature_means)
        assert stats["target_std"] == ds.target_std


class TestSynthGpSample:
    def test_deterministic_and_unsplit(self):
        a = dt.synth_gp_sample(sp.RbfKernel(0.5), 64, 2, noise_sd=0.1, seed=5)
        b = dt.synth_gp_sample(sp.RbfKernel(0.5), 64, 2, noise_sd=0.1, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert isinstance(a, dt.RawTable) and a.task == "regression"
        assert a.X.shape == (64, 2) and a.targets.shape == (64,)
        assert a.X.min() >= 0.0 and a.X.max() <= 1.0

    def test_marginal_variance_matches_kernel(self):
        # single-point noiseless draws are N(0, k(x,x)) = N(0, 1)
        draws = np.array([
            dt.synth_gp_sample(sp.RbfKernel(0.5), 1, 1, 0.0, seed=s).targets[0]
            for s in range(2000)])
        # 5 standard errors of a variance estimate from 2000 draws
        assert abs(draws.var() - 1.0) <= 5 * np.sqrt(2.0 / 2000)
        assert abs(draws.mean()) <= 5 / np.sqrt(2000)

    def test_nearby_points_strongly_correlated(self):
        near, far = [], []
        for s in range(300):
            ds = dt.synth_gp_sample(sp.RbfKernel(0.5), 2, 1, 0.0, seed=s)
            gap = abs(ds.X[0, 0] - ds.X[1, 0])
            diff = abs(ds.targets[0] - ds.targets[1])
            if gap < 0.1:
                near.append(diff)
            elif gap > 0.5:
                far.append(diff)
        assert len(near) >= 10 and len(far) >= 10
        assert np.mean(near) < np.mean(far)

    def test_empty_draw_raises(self):
        with pytest.raises(DomainError):
            dt.synth_gp_sample(sp.RbfKernel(0.5), 0, 1, 0.1)


class TestSynthManifold:
    def test_zero_warp_gives_low_rank_embedding(self):
        ds = dt.synth_manifold(200, "circle", d_ambient=16, eps=0.0, seed=0)
        assert np.linalg.matrix_rank(ds.X) <= 2
        ds = dt.synth_manifold(200, "torus", d_ambient=16, eps=0.0, seed=0)
        assert np.linalg.matrix_rank(ds.X) <= 3

    def test_circle_latents_hug_the_unit_circle(self):
        ds = dt.synth_manifold(2000, "circle", d_ambient=8, seed=1)
        radius = np.linalg.norm(ds.latents, axis=1)
        assert abs(radius.mean() - 1.0) < 0.03
        assert 0.05 < radius.std() < 0.15

    def test_deterministic(self):
        a = dt.synth_manifold(50, "torus", d_ambient=10, seed=2)
        b = dt.synth_manifold(50, "torus", d_ambient=10, seed=2)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(a.latents, b.latents)

    def test_ambient_dimension_must_cover_latents(self):
        with pytest.raises(DomainError):
            dt.synth_manifold(10, "circle", d_ambient=1)
        with pytest.raises(DomainError):
            dt.synth_manifold(10, "torus", d_ambient=2)

    def test_unknown_latent_kind_raises(self):
        with pytest.raises(DomainError):
            dt.synth_manifold(10, "sphere", d_ambient=8)


class TestSynthBlobs:
    def test_class_centers_are_separated(self):
        sep = 6.0
        ds = dt.synth_blobs(3000, num_classes=5, d=2, separation=sep, seed=0)
        centers = np.stack([ds.X[ds.targets == c].mean(axis=0)
                            for c in range(5)])
        dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        off_diag = dists[~np.eye(5, dtype=bool)]
        assert off_diag.min() >= sep - 0.5

    def test_all_classes_present_and_contiguous(self):
        ds = dt.synth_blobs(500, num_classes=3, d=2, seed=1)
        assert ds.task == "classification"
        np.testing.assert_array_equal(np.unique(ds.targets), [0, 1, 2])

    def test_deterministic(self):
        a = dt.synth_blobs(100, seed=3)
        b = dt.synth_blobs(100, seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_rejects_too_many_classes_for_dimension(self):
        with pytest.raises(DomainError):
            dt.synth_blobs(100, num_classes=6, d=2)
        with pytest.raises(DomainError):
            dt.synth_blobs(100, num_classes=1)


class TestSampleGpPath:
    def test_covariance_recovered_by_monte_carlo(self):
        gram = np.array([[1.0, 0.6], [0.6, 1.0]])
        rng = np.random.default_rng(9)
        draws = np.stack([dt.sample_gp_path(gram, rng) for _ in range(4000)])
        cov = np.cov(draws.T)
        np.testing.assert_allclose(cov, gram, atol=0.1)

    def test_jitter_ladder_handles_singular_gram(self):
        gram = np.ones((3, 3))
        f = dt.sample_gp_path(gram, np.random.default_rng(0))
        # rank-one covariance forces all coordinates nearly equal
        assert np.ptp(f) < 1e-2
