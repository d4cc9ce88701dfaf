"""Dataset ingestion, normalization, splitting, and synthetic generators.

The split protocol carves one seeded permutation into [test | recalibration
| train] index blocks.  Input whitening and target normalization (for
regression) are computed from the training block only and stored on the
Dataset so they can be replayed on new inputs.  Metrics downstream are in
normalized target units.

load_csv and the synthetic generators all return a RawTable; prepare()
is the one step that turns a RawTable into the split and whitened
Dataset that the fitting code reads.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import DataError, DomainError, NumericError

TEST_N_DEFAULT = 1000
RECAL_N_DEFAULT = 1000
MANIFOLD_LATENT_JITTER_SD = 0.1
TORUS_MAJOR_RADIUS = 2.0
TORUS_MINOR_RADIUS = 0.5


class RawTable:
    """Unsplit, unnormalized data: feature matrix plus targets.

    label_map records the raw label of each class index of a parsed
    classification table; latents holds a synthetic manifold's latent
    points, for evaluation only.
    """

    def __init__(self, X, targets, task, label_map=None, latents=None):
        self.X = np.asarray(X, dtype=np.float64)
        self.task = task
        if task == "classification":
            self.targets = np.asarray(targets, dtype=np.int64)
        else:
            self.targets = np.asarray(targets, dtype=np.float64)
        self.label_map = label_map
        self.latents = latents


class Dataset:
    """Whitened, split dataset with its normalization statistics.

    Parameters
    ----------
    X : ndarray, shape (n, d)
        Whitened feature matrix.
    targets : ndarray, shape (n,)
        Normalized regression targets, or integer class indices.
    split : dict
        Disjoint index arrays under keys "train", "test", "recalibration".
    feature_means, feature_stds : ndarray, shape (d,)
        Whitening statistics from the training block.
    target_mean, target_std : float
        Target normalization (regression; identity for classification).
    """

    def __init__(self, X, targets, split, feature_means, feature_stds,
                 target_mean=0.0, target_std=1.0, task="regression",
                 label_map=None):
        self.X = np.asarray(X, dtype=np.float64)
        self.targets = np.asarray(targets)
        self.split = {k: np.asarray(v, dtype=np.int64) for k, v in split.items()}
        self.feature_means = np.asarray(feature_means, dtype=np.float64)
        self.feature_stds = np.asarray(feature_stds, dtype=np.float64)
        self.target_mean = float(target_mean)
        self.target_std = float(target_std)
        self.task = task
        self.label_map = label_map

    def stats_dict(self):
        """Normalization metadata for persistence alongside a model."""
        return {
            "feature_means": self.feature_means.tolist(),
            "feature_stds": self.feature_stds.tolist(),
            "target_mean": self.target_mean,
            "target_std": self.target_std,
        }

    def apply_input_normalization(self, X_raw):
        """Whiten new raw inputs with the stored training statistics."""
        X_raw = np.asarray(X_raw, dtype=np.float64)
        return (X_raw - self.feature_means) / self.feature_stds

    def normalize_targets(self, y_raw):
        return (np.asarray(y_raw, dtype=np.float64) - self.target_mean) / self.target_std

    def denormalize_targets(self, y_norm):
        return np.asarray(y_norm, dtype=np.float64) * self.target_std + self.target_mean

    def subset_arrays(self, name):
        """(X, targets) restricted to one split block."""
        idx = self.split[name]
        return self.X[idx], self.targets[idx]


def _parse_cell(text, path, row, col):
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{path}: non-numeric value {text!r} at row {row}, "
                        f"column {col}") from None


def _is_header(row):
    """A first row is a header when any of its cells is not a number."""
    try:
        [float(cell) for cell in row]
    except ValueError:
        return True
    return False


def _numeric_values(path):
    """Parse a plain numeric CSV with numpy's C reader, else return None.

    The header rule is the per-cell parser's, applied to the first
    non-blank row as csv reads it.  Anything loadtxt rejects or warns
    about (a quoted cell, ``1_0``, a ragged or whitespace-only row, no
    data), and a table with a non-finite cell, fewer than 2 columns or
    no rows, returns None, so that _cell_values accepts or rejects it
    and words the error.  Where loadtxt does parse a table, it converts
    each cell as float() does, so the values are the same bits.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            reader = csv.reader(fh)
            first = next((row for row in reader if row), None)
            if first is None:
                return None
            skip = reader.line_num if _is_header(first) else 0
            fh.seek(0)
            values = np.loadtxt(fh, delimiter=",", skiprows=skip, ndmin=2,
                                comments=None, dtype=np.float64)
    except (OSError, ValueError, csv.Error, Warning):
        return None
    if values.shape[0] == 0 or values.shape[1] < 2 or not np.isfinite(values).all():
        return None
    return values


def _cell_values(path):
    """Parse a CSV cell by cell with csv and float(); every DataError of
    load_csv is raised here, naming the row and column at fault."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if row:
                    rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: cannot read row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: file is empty")
    start = 1 if _is_header(rows[0]) else 0
    if start == len(rows):
        raise DataError(f"{path}: no data rows after header")
    width = len(rows[start])
    if width < 2:
        raise DataError(f"{path}: need at least 2 columns, got {width}")
    values = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, "
                            f"expected {width}")
        for j, cell in enumerate(row):
            values[i - start, j] = _parse_cell(cell, path, i + 1, j + 1)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise DataError(f"{path}: non-finite value {rows[start + i][j]!r} at row "
                        f"{start + i + 1}, column {j + 1}")
    return values


def load_csv(path, task="regression"):
    """Parse a CSV file into a RawTable; final column is the target.

    A single header row is auto-detected: if any cell of the first row
    fails to parse as a number, the row is treated as a header.
    Classification labels are remapped to contiguous 0..C-1 in sorted
    order of the distinct raw values, with the mapping recorded.  A
    non-finite cell (nan, inf) is a DataError naming its row and column.
    Plain numeric files take numpy's C reader; any other file, and every
    DataError, takes the per-cell csv parser.
    """
    if task not in ("regression", "classification"):
        raise DomainError(f"unknown task {task!r}")
    values = _numeric_values(path)
    if values is None:
        values = _cell_values(path)
    X = values[:, :-1]
    raw_targets = values[:, -1]
    if task == "classification":
        distinct = np.unique(raw_targets)
        label_map = {float(v): i for i, v in enumerate(distinct)}
        targets = np.searchsorted(distinct, raw_targets)
        return RawTable(X, targets, task, label_map=label_map)
    return RawTable(X, raw_targets, task)


def _split_sizes(n, test_n, recal_n):
    """Held-out block sizes, shrunk proportionally when data is scarce.

    A shrunk block keeps at least one row, unless it was asked for none:
    then the other block takes the whole held-out budget of n // 2 rows.
    """
    if n > test_n + recal_n:
        return test_n, recal_n
    budget = n // 2
    total = test_n + recal_n
    test_shrunk = min(test_n, max(1, int(round(budget * test_n / total))))
    recal_shrunk = min(recal_n, max(1, budget - test_shrunk))
    warnings.warn(f"only {n} rows; shrinking held-out blocks to "
                  f"test={test_shrunk}, recalibration={recal_shrunk}")
    return test_shrunk, recal_shrunk


def prepare(raw, seed=0, test_n=TEST_N_DEFAULT, recal_n=RECAL_N_DEFAULT):
    """Shuffle, split, and whiten a raw table into a Dataset.

    One seeded permutation is cut into [test | recalibration | train]
    blocks.  Whitening statistics come from the training block only;
    constant columns get std 1 and a warning.  Regression targets are
    normalized by train mean and std.
    """
    X = np.asarray(raw.X, dtype=np.float64)
    targets = np.asarray(raw.targets)
    n = X.shape[0]
    if n < 3:
        raise DomainError(f"need at least 3 rows to split, got {n}")
    if targets.shape[0] != n:
        raise DataError("feature rows and targets differ in length")
    if test_n < 0 or recal_n < 0:
        raise DomainError(f"held-out sizes must be nonnegative, got test_n={test_n}, "
                          f"recal_n={recal_n}")
    test_n, recal_n = _split_sizes(n, test_n, recal_n)
    perm = np.random.default_rng(seed).permutation(n)
    split = {
        "test": perm[:test_n],
        "recalibration": perm[test_n:test_n + recal_n],
        "train": perm[test_n + recal_n:],
    }
    train = X[split["train"]]
    means = train.mean(axis=0)
    stds = train.std(axis=0)
    constant = stds == 0
    if np.any(constant):
        warnings.warn(f"{int(constant.sum())} constant feature column(s); "
                      "using std 1")
        stds = np.where(constant, 1.0, stds)
    X_white = (X - means) / stds

    target_mean, target_std = 0.0, 1.0
    if raw.task == "regression":
        y_train = targets[split["train"]].astype(np.float64)
        target_mean = float(y_train.mean())
        target_std = float(y_train.std())
        if target_std == 0:
            warnings.warn("constant training targets; using target std 1")
            target_std = 1.0
        targets = (targets.astype(np.float64) - target_mean) / target_std
    return Dataset(X_white, targets, split, means, stds, target_mean, target_std,
                   task=raw.task, label_map=raw.label_map)


def sample_gp_path(gram, rng, jitter=1e-8, max_jitter=1e-4):
    """Draw f ~ N(0, gram) via Cholesky with an escalating jitter ladder."""
    # only the synthetic generators need scipy, so fitting never loads it
    import scipy.linalg
    gram = np.asarray(gram, dtype=np.float64)
    n = gram.shape[0]
    z = rng.standard_normal(n)
    while jitter <= max_jitter:
        try:
            chol = scipy.linalg.cholesky(gram + jitter * np.eye(n), lower=True)
            return chol @ z
        except scipy.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericError(f"Cholesky failed up to jitter {max_jitter}")


def synth_gp_sample(kernel=None, n=2000, d=1, noise_sd=0.1, seed=0):
    """RawTable whose targets are one noisy GP sample path.

    Inputs are uniform on [0, 1]^d; the latent function is drawn from
    N(0, K) for the Gram matrix of the kernel spec (None: the exponential
    kernel with lengthscale 1) on those inputs.
    """
    from . import spectral
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    gram = spectral.build_gram(spectral.ExpKernel(1.0) if kernel is None else kernel, X)
    f = sample_gp_path(gram, rng)
    y = f + noise_sd * rng.standard_normal(n)
    return RawTable(X, y, "regression")


def _circle_latents(n, rng):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    z = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return z, angles[:, None]


def _torus_latents(n, rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = TORUS_MAJOR_RADIUS + TORUS_MINOR_RADIUS * np.cos(phi)
    z = np.stack([ring * np.cos(theta), ring * np.sin(theta),
                  TORUS_MINOR_RADIUS * np.sin(phi)], axis=1)
    return z, np.stack([theta, phi], axis=1)


def synth_manifold(n=2000, latent_kind="circle", d_ambient=16, eps=0.1, noise_sd=0.1,
                   seed=0):
    """Regression RawTable embedding a noisy low-dim manifold.

    Latent points live on the unit circle (2-d latent space) or a torus
    surface (3-d latent space), jittered with N(0, 0.1) per coordinate,
    then warped into d_ambient dimensions by

        g(z) = z P + eps * (sin(z Ps) cos(z Pc) + sin(z Ps) + 2 cos(z Pc))

    with P, Ps, Pc having i.i.d. standard normal entries.  The target is
    a smooth periodic function of the latent angles plus observation
    noise; the jittered latents are kept as the table's latents.
    """
    rng = np.random.default_rng(seed)
    if latent_kind == "circle":
        z, angles = _circle_latents(n, rng)
    elif latent_kind == "torus":
        z, angles = _torus_latents(n, rng)
    else:
        raise DomainError(f"unknown latent kind {latent_kind!r}")
    q = z.shape[1]
    if d_ambient < q:
        raise DomainError(f"ambient dimension {d_ambient} below latent "
                          f"dimension {q}")
    z_noisy = z + MANIFOLD_LATENT_JITTER_SD * rng.standard_normal(z.shape)
    p_lin = rng.standard_normal((q, d_ambient))
    p_sin = rng.standard_normal((q, d_ambient))
    p_cos = rng.standard_normal((q, d_ambient))
    linear = z_noisy @ p_lin
    s = np.sin(z_noisy @ p_sin)
    c = np.cos(z_noisy @ p_cos)
    X = linear + eps * (s * c + s + 2.0 * c)
    # smooth periodic target of the latent angles
    y = np.sin(2.0 * angles[:, 0]) + np.cos(3.0 * angles[:, -1])
    y = y + noise_sd * rng.standard_normal(n)
    return RawTable(X, y, "regression", latents=z_noisy)


def synth_blobs(n=4000, num_classes=2, d=2, separation=4.0, seed=0):
    """Classification RawTable of unit-variance Gaussian blobs.

    Class centers sit at the origin and at separation-scaled axis
    points, so every pair of centers is at least `separation` apart in
    units of the within-blob standard deviation (which is 1).
    """
    if num_classes < 2:
        raise DomainError("need at least two classes")
    if num_classes > 2 * d + 1:
        raise DomainError(f"cannot place {num_classes} centers {separation} "
                          f"apart on {d} axes")
    rng = np.random.default_rng(seed)
    centers = np.zeros((num_classes, d))
    for c in range(1, num_classes):
        axis = (c - 1) % d
        sign = 1.0 if (c - 1) < d else -1.0
        centers[c, axis] = sign * separation
    labels = rng.integers(num_classes, size=n)
    X = centers[labels] + rng.standard_normal((n, d))
    return RawTable(X, labels, "classification")
