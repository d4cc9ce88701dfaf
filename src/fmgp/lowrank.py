"""Low-rank Gram linear algebra for feature-map kernels.

With features Phi (n x p, p << n) the noisy kernel matrix is
K = Phi Phi^T + sigma_xi_sq I.  This module streams the p x p Gram
Phi^T Phi over row batches, whitened by any per-point noise from one
Gram per run of equal noise rows, and eigendecomposes it as U Lambda U^T;
the regression module's posterior reads predictive moments of K from U
and Lambda in O(n p^2) instead of O(n^3), and its training likelihood
factors the run Grams' sums by Cholesky instead.  With n < p at most n
eigenvalues are nonzero, and the identities still hold.

Product feature maps realize Hadamard products of Grams exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import (DomainError, NumericError, ShapeError, check_array, check_count,
                     check_positive)

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
    trace_phi_sq : trace of the decomposed Gram (whitened for a classifier)

    Immutable after construction; all downstream solves only read it.
    """

    def __init__(self, u, lam, proj_targets, n, trace_phi_sq):
        self.u = u
        self.lam = lam
        self.proj_targets = proj_targets
        self.n = int(n)
        self.trace_phi_sq = float(trace_phi_sq)


def check_decompositions(p, **caches):
    """Raise unless each cache is a FeatureDecomposition (a DomainError)
    of p features, the output width of the map it serves: its u is p x p
    (a ShapeError)."""
    for name, cache in caches.items():
        if not isinstance(cache, FeatureDecomposition):
            raise DomainError(f"{name} must be a FeatureDecomposition, "
                              f"got {type(cache).__name__}")
        check_array(f"{name}.u", cache.u, (p, p))


def run_grams(phi, noise):
    """Runs of consecutive rows with equal noise rows (n, C), and one Gram
    each: run k is rows bounds[k]:bounds[k + 1], grams[k] its flattened
    Phi_k^T Phi_k; constant noise is one run.  Returns (bounds, grams)."""
    n, p = check_array("features", phi, (None, None)).shape
    noise = check_array("noise", noise, (n, None))
    change = np.any(noise[1:] != noise[:-1], axis=1)
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [n]))
    grams = np.stack([phi[lo:hi].T @ phi[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])])
    return bounds, grams.reshape(-1, p * p)


class GramAccumulator:
    """Streaming accumulator for C whitened Grams and Phi^T (W o Y).

    Row i weighs w_ic = 1 / noise[i, c] in column c (each noise finite
    and positive; unit noise gives weights 1.0): gram[c] sums the
    training MLL's run Grams with those weights.  Batches are added in a
    fixed order; the sums are exact in that order, which is what makes
    partitioning-invariance hold to rounding error.
    """

    def __init__(self, p, num_outputs):
        check_count(ShapeError, p=p, num_outputs=num_outputs)
        self.p = int(p)
        self.gram = np.zeros((num_outputs, p, p))
        self.phi_t_y = np.zeros((p, num_outputs))

    def add(self, phi_batch, y_batch, noise):
        phi_batch = check_array("batch", phi_batch, (None, self.p))
        shape = (len(phi_batch), self.phi_t_y.shape[1])
        y_batch = check_array("targets", y_batch, shape)
        noise = check_array("noise", noise, shape)
        check_positive(DomainError, noise=noise)
        bounds, grams = run_grams(phi_batch, noise)
        wts = 1.0 / noise[bounds[:-1]]
        self.gram += (wts.T @ grams).reshape(self.gram.shape)
        self.phi_t_y += phi_batch.T @ (y_batch * np.repeat(wts, np.diff(bounds), axis=0))
        return self


def decompose(gram, phi_t_y, n):
    """Eigendecompose a p x p Gram into a FeatureDecomposition.

    Eigenvalues come back descending with tiny negatives clamped to zero.
    A non-finite entry, asymmetry beyond tolerance, or negatives too
    large to be rounding noise raise a numeric error.
    """
    check_count(DomainError, n=n)
    gram = check_array("gram", gram, ("p", "p"), NumericError)
    phi_t_y = check_array("Phi^T y", phi_t_y, (len(gram),), NumericError)
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
    return FeatureDecomposition(u, lam, u.T @ phi_t_y, n, np.trace(gram))


def product_features(phi1, phi2):
    """Columnwise-product features whose Gram is the Hadamard product.

    Row r of the result is the outer product of row r of phi1 and row r of
    phi2, flattened so that (Xi Xi^T) = (Phi1 Phi1^T) o (Phi2 Phi2^T)
    holds exactly, entry by entry.
    """
    phi1 = check_array("phi1", phi1, (None, None))
    phi2 = check_array("phi2", phi2, (len(phi1), None))
    n, p1 = phi1.shape
    p2 = phi2.shape[1]
    # axes (n, j, i) flatten to column index j*p1 + i, i.e. i + (j-1)*p1 1-based
    return (phi2[:, :, None] * phi1[:, None, :]).reshape(n, p1 * p2)
