"""Kernel zoo and empirical spectral analysis of Gram matrices.

Kernel specs are small declarative dataclasses; build_gram turns a spec
plus an input matrix into a dense PSD Gram matrix.  The random-feature
kernel uses a freshly initialized feature map, so its Gram has rank at
most the output dimension.  spectrum() and decay_experiment() extract
descending eigenvalue profiles for studying how fast different kernels'
spectra decay.

Also provides Hadamard (entrywise) product spectral bounds: partial sums
of the product spectrum are bounded by eigenvalue/diagonal products of
the factors, and for unit-diagonal factors the tail sums are bounded
below correspondingly.  hadamard_slacks returns both slacks from one
pair of eigensolves; each should be nonnegative up to eigensolver noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import features as ft
from .errors import (ConfigError, DomainError, NumericError, check_array, check_count,
                     check_positive, write_file)

NUMERIC_RANK_RTOL = 1e-10
DEFAULT_SPECTRUM_N = 512
DEFAULT_SPECTRUM_D = 2


@dataclass(frozen=True)
class RbfKernel:
    lengthscale: float = 1.0

    @property
    def label(self):
        return f"rbf(l={self.lengthscale:g})"


@dataclass(frozen=True)
class ExpKernel:
    lengthscale: float = 1.0

    @property
    def label(self):
        return f"exp(l={self.lengthscale:g})"


@dataclass(frozen=True)
class Matern32Kernel:
    lengthscale: float = 1.0

    @property
    def label(self):
        return f"matern32(l={self.lengthscale:g})"


@dataclass(frozen=True)
class PeriodicKernel:
    period: float = 1.0
    lengthscale: float = 1.0

    @property
    def label(self):
        return f"periodic(p={self.period:g},l={self.lengthscale:g})"


@dataclass(frozen=True)
class MlpKernel:
    """Gram of a randomly initialized feature map (no training)."""

    hidden_widths: tuple = (64,)
    output_dim: int = 16
    seed: int = 0
    normalization: str = "layer_norm"
    rescale_to_unit: bool = True

    @property
    def label(self):
        widths = "x".join(str(w) for w in self.hidden_widths)
        return f"mlp(h={widths},p={self.output_dim},seed={self.seed})"


@dataclass(frozen=True)
class NystromKernel:
    """Landmark low-rank approximation C W^+ C^T of a base kernel."""

    base: object = field(default_factory=ExpKernel)
    num_landmarks: int = 64
    seed: int = 0

    @property
    def label(self):
        return f"nystrom({self.base.label},m={self.num_landmarks})"


@dataclass(frozen=True)
class ProductKernel:
    left: object = field(default_factory=RbfKernel)
    right: object = field(default_factory=ExpKernel)

    @property
    def label(self):
        return f"product({self.left.label},{self.right.label})"


def _pairwise_dist(X, Z, metric="euclidean"):
    # scipy loads where a Gram or spectrum needs it, so that reading a
    # run config (the kernel specs above) never imports it
    import scipy.spatial.distance
    return scipy.spatial.distance.cdist(X, Z, metric)


def _base_gram(spec, X, Z):
    """Cross-Gram k(X, Z) for the closed-form kernels, each of whose
    fields is a lengthscale or a period."""
    if not isinstance(spec, (RbfKernel, ExpKernel, Matern32Kernel, PeriodicKernel)):
        raise DomainError(f"unknown kernel spec {type(spec).__name__}")
    check_positive(DomainError, **vars(spec))
    if isinstance(spec, RbfKernel):
        r2 = _pairwise_dist(X, Z, "sqeuclidean")
        return np.exp(-r2 / (2.0 * spec.lengthscale ** 2))
    if isinstance(spec, ExpKernel):
        return np.exp(-_pairwise_dist(X, Z) / spec.lengthscale)
    if isinstance(spec, Matern32Kernel):
        a = np.sqrt(3.0) * _pairwise_dist(X, Z) / spec.lengthscale
        return (1.0 + a) * np.exp(-a)
    s = np.sin(np.pi * _pairwise_dist(X, Z) / spec.period)
    return np.exp(-2.0 * s * s / spec.lengthscale ** 2)


def build_gram(spec, X):
    """Dense n x n Gram matrix of the kernel spec on the input rows."""
    X = check_array("inputs", X, (None, None), NumericError)
    if isinstance(spec, MlpKernel):
        widths = [X.shape[1], *spec.hidden_widths, spec.output_dim]
        fmap = ft.init_params(widths, spec.seed,
                              normalization=spec.normalization,
                              rescale_to_unit=spec.rescale_to_unit)
        phi = ft.forward(fmap, X)
        gram = phi @ phi.T
    elif isinstance(spec, NystromKernel):
        import scipy.linalg
        check_count(DomainError, num_landmarks=spec.num_landmarks)
        check_count(DomainError, low=0, seed=spec.seed)
        m = min(spec.num_landmarks, X.shape[0])
        idx = np.random.default_rng(spec.seed).choice(X.shape[0], size=m,
                                                      replace=False)
        landmarks = X[idx]
        cross = _base_gram(spec.base, X, landmarks)
        core = _base_gram(spec.base, landmarks, landmarks)
        # eigen pseudo-inverse keeps the approximation PSD when the
        # landmark block is rank deficient
        lam, u = scipy.linalg.eigh((core + core.T) / 2.0)
        keep = lam > NUMERIC_RANK_RTOL * max(lam.max(), 1e-300)
        inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
        half = cross @ (u * np.sqrt(inv))
        gram = half @ half.T
    elif isinstance(spec, ProductKernel):
        gram = build_gram(spec.left, X) * build_gram(spec.right, X)
    else:
        gram = _base_gram(spec, X, X)
    if not np.all(np.isfinite(gram)):
        raise NumericError(f"non-finite Gram entries for {spec.label}")
    return gram


class SpectrumReport:
    """Descending clamped eigenvalues of one Gram matrix."""

    def __init__(self, eigenvalues, kernel_label, seed):
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self.kernel_label = kernel_label
        self.seed = seed

    @property
    def numeric_rank(self):
        top = self.eigenvalues[0] if self.eigenvalues.size else 0.0
        if top <= 0:
            return 0
        return int(np.sum(self.eigenvalues > NUMERIC_RANK_RTOL * top))

    def tail_mass(self, after_index):
        """Fraction of the trace beyond the given 1-based eigen index."""
        check_count(DomainError, low=0, after_index=after_index)
        total = self.eigenvalues.sum()
        if total <= 0:
            return 0.0
        return float(self.eigenvalues[after_index:].sum() / total)


def spectrum(gram, kernel_label="", *, seed=None):
    """Eigen-decompose a symmetric PSD Gram into a SpectrumReport."""
    gram = check_array("gram", gram, ("n", "n"), NumericError)
    import scipy.linalg
    try:
        lam = scipy.linalg.eigvalsh((gram + gram.T) / 2.0)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    lam = np.maximum(lam[::-1], 0.0)
    return SpectrumReport(lam, kernel_label, seed)


@dataclass
class DecayConfig:
    specs: tuple = ()
    n: int = DEFAULT_SPECTRUM_N
    d: int = DEFAULT_SPECTRUM_D
    seeds: tuple = (0,)

    def __post_init__(self):
        check_count(ConfigError, n=self.n, d=self.d)
        check_count(ConfigError, low=0,
                    **{f"seeds[{i}]": seed for i, seed in enumerate(self.seeds)})


def decay_experiment(config):
    """Spectra of every kernel spec over shared random inputs per seed.

    For each seed, one matrix of n inputs uniform on [0,1]^d is drawn and
    shared by all specs, so per-seed comparisons across kernels see the
    same data.  Returns a list of SpectrumReports.
    """
    if not config.specs:
        raise DomainError("no kernel specs given")
    reports = []
    for seed in config.seeds:
        X = np.random.default_rng(seed).uniform(size=(config.n, config.d))
        for spec in config.specs:
            gram = build_gram(spec, X)
            reports.append(spectrum(gram, spec.label, seed=seed))
    return reports


def write_spectra_csv(reports, path):
    """One row per eigenvalue: kernel_label, seed, eigen_index, eigenvalue."""
    write_file(path, lambda fh: csv.writer(fh).writerows(
        [["kernel_label", "seed", "eigen_index", "eigenvalue"],
         *([report.kernel_label, report.seed, i, repr(float(lam))]
           for report in reports for i, lam in enumerate(report.eigenvalues, start=1))]))


def hadamard_slacks(gram1, gram2):
    """Slacks (partial, tail), each of length n - 1, of the Hadamard-product
    spectral bounds; nonnegative up to eigensolver noise where they hold.

    For k in 1..n-1, the sum of the k largest eigenvalues of gram1 * gram2
    (entrywise) is at most the sum over i <= k of lambda_i(gram1)
    (descending) times the i-th largest diagonal entry of gram2: partial
    is bound minus sum.  For unit-diagonal factors the traces agree, so
    the sum of the k smallest is at least lambda_i(gram1) times the i-th
    smallest diagonal of gram2 summed over the last k positions: tail is
    sum minus bound.
    """
    gram1 = check_array("gram1", gram1, ("n", "n"), NumericError)
    gram2 = check_array("gram2", gram2, gram1.shape, NumericError)
    n = gram1.shape[0]
    lam_prod, lam1 = (np.linalg.eigvalsh((g + g.T) / 2.0)[::-1]
                      for g in (gram1 * gram2, gram1))
    diag2 = np.sort(np.diag(gram2))
    partial = np.cumsum(lam1 * diag2[::-1]) - np.cumsum(lam_prod)
    tail = np.cumsum(lam_prod[::-1]) - np.cumsum((lam1 * diag2)[::-1])
    return partial[: n - 1], tail[: n - 1]
