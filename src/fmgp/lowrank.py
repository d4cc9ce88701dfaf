"""Low-rank Gram linear algebra for feature-map kernels.

With features Phi (n x p, p << n) the noisy kernel matrix is
K = Phi Phi^T + sigma_xi_sq I.  Everything here routes through the p x p
matrix Phi^T Phi = U Lambda U^T so that solves, log-determinants and
quadratic forms cost O(n p) or O(n p^2) instead of O(n^3):

    K^{-1} v      = sigma^{-2} [v - Phi U (Lambda + sigma^2 I)^{-1} U^T Phi^T v]
    log|K|        = sum_i log(lambda_i + sigma^2) + (n - p) log sigma^2
    y^T K^{-1} y  = sigma^{-2} (y^T y - w^T (Lambda + sigma^2 I)^{-1} w),
                    w = U^T Phi^T y

The log-determinant formula also covers n < p: at most n eigenvalues are
nonzero, and each zero eigenvalue contributes log sigma^2, cancelling
against the negative (n - p) term.

Product feature maps realize Hadamard products of Grams exactly, and a
two-term additive composition is solved with the Kailath inversion
variant (A + B C)^{-1} = A^{-1} - A^{-1} B (I + C A^{-1} B)^{-1} C A^{-1}.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericError, ShapeError

# eigh on a PSD matrix can return negatives around -eps * lambda_max; clamp
# those to zero, treat anything much larger as evidence of a bad input
CLAMP_TOL = 1e-10
REJECT_TOL = 1e-8


class FeatureDecomposition:
    """Cached eigendecomposition of Phi^T Phi.

    Fields
    ------
    u : (p, p) orthonormal eigenvectors, columns matching ``lam``
    lam : (p,) nonnegative eigenvalues, descending
    proj_targets : (p,) vector U^T Phi^T y, or None when no targets were
        supplied
    n : training count the Gram was accumulated over
    trace_phi_sq : sum of squares of Phi entries (diagnostics)

    Immutable after construction; all downstream solves only read it.
    """

    def __init__(self, u, lam, proj_targets, n, trace_phi_sq):
        self.u = u
        self.lam = lam
        self.proj_targets = proj_targets
        self.n = int(n)
        self.trace_phi_sq = float(trace_phi_sq)

    @property
    def p(self):
        return self.lam.shape[0]

    def to_json_dict(self):
        return {
            "u": self.u.tolist(),
            "eigenvalues": self.lam.tolist(),
            "proj_targets": (self.proj_targets.tolist()
                             if self.proj_targets is not None else None),
            "n": self.n,
            "trace_phi_sq": self.trace_phi_sq,
        }

    @staticmethod
    def from_json_dict(doc):
        proj = doc["proj_targets"]
        # decompose keeps eigh's Fortran order; the same layout makes
        # products with u, and so predictions, bit-identical after a reload
        return FeatureDecomposition(
            np.asarray(doc["u"], dtype=np.float64, order="F"),
            np.asarray(doc["eigenvalues"], dtype=np.float64),
            None if proj is None else np.asarray(proj, dtype=np.float64),
            doc["n"], doc["trace_phi_sq"])


class GramAccumulator:
    """Streaming accumulator for Phi^T Phi and (optionally) Phi^T y.

    Batches are added in a fixed order; the sums are exact in that order,
    which is what makes partitioning-invariance hold to rounding error.
    """

    def __init__(self, p):
        if p < 1:
            raise ShapeError("feature dimension must be >= 1")
        self.p = int(p)
        self.gram = np.zeros((p, p))
        self.phi_t_y = np.zeros(p)
        self.n = 0

    def add(self, phi_batch, y_batch=None):
        phi_batch = np.asarray(phi_batch, dtype=np.float64)
        if phi_batch.ndim != 2 or phi_batch.shape[1] != self.p:
            raise ShapeError(f"batch has shape {phi_batch.shape}, expected (*, {self.p})")
        self.gram += phi_batch.T @ phi_batch
        if y_batch is not None:
            y_batch = np.asarray(y_batch, dtype=np.float64)
            if y_batch.shape != (phi_batch.shape[0],):
                raise ShapeError("target batch length does not match feature batch")
            self.phi_t_y += phi_batch.T @ y_batch
        self.n += phi_batch.shape[0]
        return self


def accumulate_gram(batches, target_batches=None):
    """Sum Phi_b^T Phi_b over feature batches; optionally Phi_b^T y_b too.

    Returns the (p, p) Gram, or a (gram, phi_t_y) pair when target batches
    are given.  All batches must share the column count p.
    """
    batches = list(batches)
    if not batches:
        raise ShapeError("need at least one batch")
    first = np.asarray(batches[0], dtype=np.float64)
    if first.ndim != 2:
        raise ShapeError("batches must be 2-d matrices")
    acc = GramAccumulator(first.shape[1])
    if target_batches is None:
        for b in batches:
            acc.add(b)
        return acc.gram
    target_batches = list(target_batches)
    if len(target_batches) != len(batches):
        raise ShapeError("need one target batch per feature batch")
    for b, yb in zip(batches, target_batches):
        acc.add(b, yb)
    return acc.gram, acc.phi_t_y


def decompose(gram, phi_t_y, n):
    """Eigendecompose a p x p Gram into a FeatureDecomposition.

    Eigenvalues come back descending with tiny negatives clamped to zero.
    Asymmetry beyond tolerance, or negatives too large to be rounding
    noise, raise a numeric error.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ShapeError(f"gram must be square, got shape {gram.shape}")
    scale = max(1.0, float(np.abs(gram).max()) if gram.size else 1.0)
    asym = float(np.abs(gram - gram.T).max()) if gram.size else 0.0
    if asym > 1e-10 * scale:
        raise NumericError(f"gram asymmetry {asym:.3e} exceeds tolerance")
    try:
        lam, u = np.linalg.eigh((gram + gram.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    u = u[:, order]
    lam_scale = max(1.0, float(lam[0]) if lam.size else 1.0)
    if lam.size and lam[-1] < -REJECT_TOL * lam_scale:
        raise NumericError(f"gram is not PSD: min eigenvalue {lam[-1]:.3e}")
    lam = np.maximum(lam, 0.0)
    proj = None
    if phi_t_y is not None:
        phi_t_y = np.asarray(phi_t_y, dtype=np.float64)
        if phi_t_y.shape != (gram.shape[0],):
            raise ShapeError("Phi^T y length does not match gram size")
        proj = u.T @ phi_t_y
    return FeatureDecomposition(u, lam, proj, n, np.trace(gram))


def _check_noise(sigma_xi_sq):
    if not sigma_xi_sq > 0:
        raise DomainError(f"noise variance must be positive, got {sigma_xi_sq}")


def woodbury_solve(decomp, phi, sigma_xi_sq, v):
    """Apply (Phi Phi^T + sigma_xi_sq I)^{-1} to v.

    v may be a vector or a matrix of stacked right-hand sides.  Cost is
    O(n p) per right-hand side given the cached decomposition.
    """
    _check_noise(sigma_xi_sq)
    phi = np.asarray(phi, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[1] != decomp.p:
        raise ShapeError(f"features have shape {phi.shape}, expected (*, {decomp.p})")
    if v.shape[0] != phi.shape[0]:
        raise ShapeError("right-hand side length does not match feature rows")
    t = decomp.u.T @ (phi.T @ v)
    denom = decomp.lam + sigma_xi_sq
    if t.ndim == 1:
        t = t / denom
    else:
        t = t / denom[:, None]
    return (v - phi @ (decomp.u @ t)) / sigma_xi_sq


def logdet_kxi(decomp, sigma_xi_sq, n):
    """log det(Phi Phi^T + sigma_xi_sq I) for an n-row Phi.

    Valid for n >= p and n < p alike: zero eigenvalues contribute
    log sigma_xi_sq each, balancing the (n - p) term.
    """
    _check_noise(sigma_xi_sq)
    if n < 0:
        raise DomainError("row count must be nonnegative")
    return float(np.sum(np.log(decomp.lam + sigma_xi_sq))
                 + (n - decomp.p) * np.log(sigma_xi_sq))


def quad_form(decomp, phi, sigma_xi_sq, y):
    """y^T (Phi Phi^T + sigma_xi_sq I)^{-1} y without forming the inverse."""
    _check_noise(sigma_xi_sq)
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (phi.shape[0],):
        raise ShapeError("y length does not match feature rows")
    if phi.shape[1] != decomp.p:
        raise ShapeError(f"features have shape {phi.shape}, expected (*, {decomp.p})")
    w = decomp.u.T @ (phi.T @ y)
    return float((y @ y - w @ (w / (decomp.lam + sigma_xi_sq))) / sigma_xi_sq)


class ProductFeaturePlan:
    """Column layout of a product feature map.

    The combined map has p1 * p2 columns; the product of column i of the
    first map and column j of the second (both 1-based) lands in column
    i + (j - 1) * p1.
    """

    def __init__(self, p1, p2):
        self.p1 = int(p1)
        self.p2 = int(p2)

    @property
    def total_columns(self):
        return self.p1 * self.p2

    def column_index(self, i, j):
        """1-based (i, j) -> 1-based combined column index."""
        if not (1 <= i <= self.p1 and 1 <= j <= self.p2):
            raise DomainError(f"column pair ({i}, {j}) outside ({self.p1}, {self.p2})")
        return i + (j - 1) * self.p1


def product_features(phi1, phi2):
    """Columnwise-product features whose Gram is the Hadamard product.

    Row r of the result is the outer product of row r of phi1 and row r of
    phi2, flattened so that (Xi Xi^T) = (Phi1 Phi1^T) o (Phi2 Phi2^T)
    holds exactly, entry by entry.
    """
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    if phi1.ndim != 2 or phi2.ndim != 2:
        raise ShapeError("feature matrices must be 2-d")
    if phi1.shape[0] != phi2.shape[0]:
        raise ShapeError(f"row counts differ: {phi1.shape[0]} vs {phi2.shape[0]}")
    n, p1 = phi1.shape
    p2 = phi2.shape[1]
    # axes (n, j, i) flatten to column index j*p1 + i, i.e. i + (j-1)*p1 1-based
    return (phi2[:, :, None] * phi1[:, None, :]).reshape(n, p1 * p2)


def additive_solve(phi1, phi2, sigma_xi_sq, v):
    """Solve (Phi1 Phi1^T + Phi2 Phi2^T + sigma_xi_sq I) x = v.

    Uses the Kailath variant with A = Phi1 Phi1^T + sigma_xi_sq I, B =
    Phi2, C = Phi2^T, so the extra cost beyond A-solves is O(n p2^2 + p2^3).
    """
    _check_noise(sigma_xi_sq)
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if phi1.shape[0] != phi2.shape[0]:
        raise ShapeError("feature matrices must have equal row counts")
    if v.shape[0] != phi1.shape[0]:
        raise ShapeError("right-hand side length does not match feature rows")
    decomp1 = decompose(phi1.T @ phi1, None, phi1.shape[0])
    a_inv_v = woodbury_solve(decomp1, phi1, sigma_xi_sq, v)
    a_inv_b = woodbury_solve(decomp1, phi1, sigma_xi_sq, phi2)
    cap = np.eye(phi2.shape[1]) + phi2.T @ a_inv_b
    try:
        inner = scipy.linalg.solve(cap, phi2.T @ a_inv_v, assume_a="pos")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"capacitance solve failed: {exc}") from exc
    return a_inv_v - a_inv_b @ inner
