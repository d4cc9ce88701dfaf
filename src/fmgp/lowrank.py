"""Low-rank Gram linear algebra for feature-map kernels.

With features Phi (n x p, p << n) the noisy kernel matrix is
K = Phi Phi^T + sigma_xi_sq I.  This module streams the p x p Gram
Phi^T Phi over row batches and eigendecomposes it as U Lambda U^T; the
regression module's likelihood and posterior read log-determinants,
quadratic forms and predictive moments of K from U and Lambda in
O(n p^2) instead of O(n^3).  With n < p at most n eigenvalues are
nonzero, and the identities still hold.

Product feature maps realize Hadamard products of Grams exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

# eigh on a PSD matrix can return negatives around -eps * lambda_max; clamp
# those to zero, treat anything below -REJECT_TOL * lambda_max as a bad input
REJECT_TOL = 1e-8


class FeatureDecomposition:
    """Cached eigendecomposition of Phi^T Phi.

    Fields
    ------
    u : (p, p) orthonormal eigenvectors, columns matching ``lam``
    lam : (p,) nonnegative eigenvalues, descending
    proj_targets : (p,) vector U^T Phi^T y
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
    phi_t_y = np.asarray(phi_t_y, dtype=np.float64)
    if phi_t_y.shape != (gram.shape[0],):
        raise ShapeError("Phi^T y length does not match gram size")
    return FeatureDecomposition(u, lam, u.T @ phi_t_y, n, np.trace(gram))


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
