"""Tests for kernel gram construction, spectra, and majorization bounds."""

import numpy as np
import pytest

from fmgp import spectral as sp
from fmgp.errors import DomainError, NumericError, ShapeError


def unit_box_inputs(n, d, seed):
    return np.random.default_rng(seed).uniform(size=(n, d))


class TestKernelValues:
    def test_stationary_kernels_are_one_on_the_diagonal(self):
        X = unit_box_inputs(20, 3, 0)
        for spec in (sp.RbfKernel(0.7), sp.ExpKernel(0.7),
                     sp.Matern32Kernel(0.7), sp.PeriodicKernel(1.0, 0.5)):
            gram = sp.build_gram(spec, X)
            np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)

    def test_rbf_value_at_known_distance(self):
        # separation sqrt(2) * lengthscale gives exp(-1)
        ell = 0.5
        X = np.array([[0.0], [np.sqrt(2.0) * ell]])
        gram = sp.build_gram(sp.RbfKernel(ell), X)
        np.testing.assert_allclose(gram[0, 1], np.exp(-1.0), rtol=1e-12)

    def test_exp_value_at_known_distance(self):
        X = np.array([[0.0], [0.7]])
        gram = sp.build_gram(sp.ExpKernel(0.7), X)
        np.testing.assert_allclose(gram[0, 1], np.exp(-1.0), rtol=1e-12)

    def test_matern32_value_at_known_distance(self):
        r, ell = 0.4, 0.8
        a = np.sqrt(3.0) * r / ell
        X = np.array([[0.0], [r]])
        gram = sp.build_gram(sp.Matern32Kernel(ell), X)
        np.testing.assert_allclose(gram[0, 1], (1 + a) * np.exp(-a), rtol=1e-12)

    def test_periodic_kernel_repeats_at_its_period(self):
        spec = sp.PeriodicKernel(period=0.5, lengthscale=0.3)
        X = np.array([[0.1], [0.6], [1.1]])
        gram = sp.build_gram(spec, X)
        np.testing.assert_allclose(gram[0, 1], 1.0, atol=1e-10)
        np.testing.assert_allclose(gram[0, 2], 1.0, atol=1e-10)

    def test_product_gram_is_elementwise(self):
        X = unit_box_inputs(15, 2, 1)
        left, right = sp.ExpKernel(0.4), sp.RbfKernel(0.9)
        combined = sp.build_gram(sp.ProductKernel(left, right), X)
        np.testing.assert_allclose(
            combined, sp.build_gram(left, X) * sp.build_gram(right, X),
            atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            sp.build_gram(sp.RbfKernel(0.0), unit_box_inputs(4, 1, 2))
        with pytest.raises(DomainError):
            sp.build_gram(sp.PeriodicKernel(-1.0, 0.5), unit_box_inputs(4, 1, 2))

    def test_rejects_non_finite_inputs(self):
        X = unit_box_inputs(4, 2, 3)
        X[1, 0] = np.nan
        with pytest.raises(NumericError):
            sp.build_gram(sp.RbfKernel(1.0), X)

    @pytest.mark.parametrize("spec, label", [
        (sp.Matern32Kernel(0.5), "matern32(l=0.5)"),
        (sp.PeriodicKernel(2.0, 0.25), "periodic(p=2,l=0.25)"),
        (sp.NystromKernel(sp.RbfKernel(0.5), 16), "nystrom(rbf(l=0.5),m=16)"),
        (sp.ProductKernel(sp.RbfKernel(1.0), sp.ExpKernel(0.25)),
         "product(rbf(l=1),exp(l=0.25))"),
    ], ids=["matern32", "periodic", "nystrom", "product"])
    def test_label_names_the_kernel_and_its_parameters(self, spec, label):
        # spectra.csv writes it in its kernel_label column
        assert spec.label == label

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ShapeError):
            sp.build_gram(sp.RbfKernel(1.0), np.zeros(5))


class TestNeuralKernel:
    def test_gram_rank_bounded_by_feature_count(self):
        X = unit_box_inputs(60, 2, 4)
        spec = sp.MlpKernel(hidden_widths=(32,), output_dim=8, seed=0)
        gram = sp.build_gram(spec, X)
        eig = np.linalg.eigvalsh(gram)[::-1]
        assert eig[8:].max() <= 1e-10 * eig[0]

    def test_rescaled_map_gives_unit_diagonal(self):
        X = unit_box_inputs(30, 3, 5)
        spec = sp.MlpKernel(hidden_widths=(16,), output_dim=6, seed=1,
                            rescale_to_unit=True)
        gram = sp.build_gram(spec, X)
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)

    def test_seed_controls_the_draw(self):
        X = unit_box_inputs(10, 2, 6)
        a = sp.build_gram(sp.MlpKernel(seed=0), X)
        b = sp.build_gram(sp.MlpKernel(seed=0), X)
        c = sp.build_gram(sp.MlpKernel(seed=1), X)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 0


class TestNystromKernel:
    def test_exact_when_all_points_are_landmarks(self):
        X = unit_box_inputs(40, 2, 7)
        base = sp.RbfKernel(0.6)
        spec = sp.NystromKernel(base, num_landmarks=40, seed=0)
        np.testing.assert_allclose(sp.build_gram(spec, X),
                                   sp.build_gram(base, X), atol=1e-8)

    def test_approximation_is_psd(self):
        X = unit_box_inputs(50, 2, 8)
        gram = sp.build_gram(sp.NystromKernel(sp.ExpKernel(0.5), 10, seed=1), X)
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-9

    def test_error_shrinks_with_more_landmarks(self):
        X = unit_box_inputs(80, 2, 9)
        base = sp.RbfKernel(0.5)
        exact = sp.build_gram(base, X)
        errs = []
        for m in (5, 20, 80):
            approx = sp.build_gram(sp.NystromKernel(base, m, seed=2), X)
            errs.append(np.linalg.norm(exact - approx))
        assert errs[0] > errs[1] > errs[2]

    def test_excess_landmarks_clamp_to_exact(self):
        # more landmarks than points clamps to all points, hence exact
        X = unit_box_inputs(10, 1, 10)
        base = sp.RbfKernel(1.0)
        approx = sp.build_gram(sp.NystromKernel(base, 999, seed=0), X)
        np.testing.assert_allclose(approx, sp.build_gram(base, X), atol=1e-8)

    def test_rejects_zero_landmarks(self):
        with pytest.raises(DomainError):
            sp.build_gram(sp.NystromKernel(sp.RbfKernel(1.0), 0, seed=0),
                          unit_box_inputs(10, 1, 10))


class TestSpectrum:
    def test_identity_matrix_spectrum(self):
        report = sp.spectrum(np.eye(6), "identity", seed=0)
        np.testing.assert_allclose(report.eigenvalues, np.ones(6), atol=1e-12)
        assert report.numeric_rank == 6

    def test_rank_one_constant_matrix(self):
        n = 8
        report = sp.spectrum(np.ones((n, n)), "ones", seed=0)
        np.testing.assert_allclose(report.eigenvalues[0], n, rtol=1e-12)
        np.testing.assert_allclose(report.eigenvalues[1:], 0.0, atol=1e-10)
        assert report.numeric_rank == 1

    def test_eigenvalues_sorted_and_clamped(self):
        X = unit_box_inputs(30, 2, 11)
        gram = sp.build_gram(sp.RbfKernel(0.4), X)
        report = sp.spectrum(gram, "rbf", seed=11)
        assert np.all(np.diff(report.eigenvalues) <= 0)
        assert report.eigenvalues.min() >= 0.0

    def test_zero_spectrum_has_rank_and_tail_zero(self):
        report = sp.spectrum(np.zeros((4, 4)))
        assert report.numeric_rank == 0
        assert report.tail_mass(1) == 0.0

    def test_tail_mass_decreases(self):
        X = unit_box_inputs(30, 2, 12)
        report = sp.spectrum(sp.build_gram(sp.ExpKernel(0.4), X), "exp", seed=12)
        assert report.tail_mass(1) >= report.tail_mass(10) >= report.tail_mass(29)
        # tail_mass is a fraction of the trace
        np.testing.assert_allclose(report.tail_mass(0), 1.0, rtol=1e-12)


class TestDecayExperiment:
    def test_finite_rank_kernel_truncates(self):
        p = 6
        cfg = sp.DecayConfig(specs=(sp.MlpKernel(hidden_widths=(16,),
                                                 output_dim=p, seed=0),),
                             n=64, d=2, seeds=(0,))
        reports = sp.decay_experiment(cfg)
        eig = reports[0].eigenvalues
        assert eig[p:].max() <= 1e-10 * eig[0]

    def test_exponential_kernel_has_heavier_tail_than_rbf(self):
        # rough surfaces decay slower, so the exp tail dominates at n/4
        n = 128
        cfg = sp.DecayConfig(specs=(sp.ExpKernel(0.5), sp.RbfKernel(0.5)),
                             n=n, d=2, seeds=(0, 1, 2))
        reports = sp.decay_experiment(cfg)
        k = n // 4
        for seed in (0, 1, 2):
            by_label = {r.kernel_label: r for r in reports if r.seed == seed}
            exp_tail = by_label[sp.ExpKernel(0.5).label].tail_mass(k)
            rbf_tail = by_label[sp.RbfKernel(0.5).label].tail_mass(k)
            assert exp_tail > rbf_tail

    def test_shared_inputs_across_specs(self):
        # both specs see the same draw, so identical specs agree exactly
        cfg = sp.DecayConfig(specs=(sp.RbfKernel(0.5), sp.RbfKernel(0.5)),
                             n=32, d=2, seeds=(3,))
        reports = sp.decay_experiment(cfg)
        np.testing.assert_array_equal(reports[0].eigenvalues,
                                      reports[1].eigenvalues)

    def test_no_specs_raise(self):
        with pytest.raises(DomainError, match="no kernel specs given"):
            sp.decay_experiment(sp.DecayConfig(n=8))

    def test_csv_round_trip(self, tmp_path):
        cfg = sp.DecayConfig(specs=(sp.RbfKernel(0.5),), n=16, d=2, seeds=(0,))
        reports = sp.decay_experiment(cfg)
        path = tmp_path / "spectra.csv"
        sp.write_spectra_csv(reports, path)
        rows = path.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["kernel_label", "seed", "eigen_index", "eigenvalue"]
        assert len(rows) == 1 + 16
        values = np.array([float(r.split(",")[3]) for r in rows[1:]])
        np.testing.assert_array_equal(values, reports[0].eigenvalues)


class TestMajorization:
    def wishart(self, rng, n):
        a = rng.standard_normal((n, n + 2))
        return a @ a.T / (n + 2)

    def correlation(self, rng, n):
        # tail lower bound is stated for unit-diagonal factors
        k = self.wishart(rng, n)
        d = np.sqrt(np.diag(k))
        return k / np.outer(d, d)

    def test_partial_sum_bound_holds(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 24))
            slack = sp.hadamard_slacks(self.wishart(rng, n),
                                       self.wishart(rng, n))[0]
            assert slack.shape == (n - 1,)
            assert slack.min() >= -1e-9

    def test_tail_sum_bound_holds(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            n = int(rng.integers(2, 24))
            slack = sp.hadamard_slacks(self.correlation(rng, n),
                                       self.correlation(rng, n))[1]
            assert slack.shape == (n - 1,)
            assert slack.min() >= -1e-9

    def test_bounds_on_kernel_grams(self):
        X = unit_box_inputs(40, 2, 13)
        k1 = sp.build_gram(sp.ExpKernel(0.4), X)
        k2 = sp.build_gram(sp.RbfKernel(0.8), X)
        partial, tail = sp.hadamard_slacks(k1, k2)
        assert partial.min() >= -1e-9
        assert tail.min() >= -1e-9

    def test_unit_diagonal_preserves_trace(self):
        # elementwise product of unit-diagonal grams keeps trace n
        X = unit_box_inputs(25, 2, 14)
        k1 = sp.build_gram(sp.ExpKernel(0.4), X)
        k2 = sp.build_gram(sp.RbfKernel(0.8), X)
        np.testing.assert_allclose(np.trace(k1 * k2), 25.0, rtol=1e-12)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            sp.hadamard_slacks(np.eye(3), np.eye(4))
