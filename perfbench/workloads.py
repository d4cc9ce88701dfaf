"""Workload definitions and seeded input generation.

A workload is a CSV written into the run's work directory plus the
settings the stage process hands to the library.  The inputs depend only
on the workload, the size and the seed; the program under test receives
nothing but the CSV and those settings.

Why each workload exists (see README.md for the layer mapping):

* regress_default: the default 512-512, p=64 architecture, so the MLP's
  forward, backward and Adam passes carry train_s and the model file is
  the full-size one.
* classify_c10: ten classes on a small map, so the per-class MLL
  eigensolves and the Monte Carlo temperature search carry the work.
* bulk_n1e5: 1e5 CSV rows with a product feature map, so CSV parsing,
  the inference-only forward and Gram accumulation carry the work.
"""

from __future__ import annotations

import numpy as np

WORKLOAD_NAMES = ("regress_default", "classify_c10", "bulk_n1e5")
SIZES = ("full", "tiny")

# Regression targets: a smooth function of four of the six inputs plus
# Gaussian noise of this standard deviation (raw target units).
REGRESS_NOISE_SD = 0.3
BULK_NOISE_SD = 0.2

# Ten unit-variance Gaussian blobs in five dimensions: one center at the
# origin and the others at +-BLOB_SEPARATION on the axes, equal weights.
BLOB_CLASSES = 10
BLOB_DIM = 5
BLOB_SEPARATION = 4.0

# Column scales and offsets of the bulk CSV, so whitening is not a no-op.
BULK_DIM = 9
BULK_SCALES = np.linspace(0.5, 20.0, BULK_DIM)
BULK_OFFSETS = np.arange(BULK_DIM, dtype=np.float64)

# A run starts BLOCKS stage processes, each making one fit (and one
# calibration) followed by rounds of the short stages, each round making
# the calls in "round".  "round_s" is the nominal length of one round on
# the reference box: the round count follows from --seconds alone, never
# from a clock, so two runs with the same arguments make the same calls
# and the traced counts repeat exactly.
BLOCKS = 3

_SPECS = {
    "regress_default": {
        "full": {"rows": 4000, "test_n": 1000, "recal_n": 1000,
                 "fit": {"iterations": 15}},
        "tiny": {"rows": 600, "test_n": 150, "recal_n": 150,
                 "fit": {"iterations": 5, "hidden_widths": [32, 32],
                         "output_dim": 16}},
        "round": {"persist": 1, "predict": 5, "calibrate": 5},
        "round_s": 1.25,
    },
    "classify_c10": {
        "full": {"rows": 3300, "test_n": 1000, "recal_n": 300,
                 "fit": {"iterations": 100, "hidden_widths": [64, 64],
                         "output_dim": 16},
                 "num_samples": 1024},
        "tiny": {"rows": 1500, "test_n": 300, "recal_n": 200,
                 "fit": {"iterations": 30, "hidden_widths": [32, 32],
                         "output_dim": 16},
                 "num_samples": 128},
        "round": {"persist": 1, "predict": 1},
        # twice the nominal 0.6 s: the temperature searches fill most of a run
        "round_s": 1.2,
    },
    "bulk_n1e5": {
        "full": {"rows": 100_000, "test_n": 1000, "recal_n": 1000,
                 "fit": {"iterations": 10, "subset_size": 4000},
                 "product": {"hidden_widths": [128, 128], "output_dims": [8, 8]}},
        "tiny": {"rows": 3000, "test_n": 300, "recal_n": 300,
                 "fit": {"iterations": 3, "subset_size": 1000},
                 "product": {"hidden_widths": [16, 16], "output_dims": [4, 4]}},
        "round": {"persist": 1, "predict": 5, "calibrate": 5},
        "round_s": 0.24,
    },
}


def spec(workload, size, seed, seconds):
    """Settings for one run; the stage process reads these as JSON."""
    base = _SPECS[workload][size]
    task = "classification" if workload == "classify_c10" else "regression"
    rounds = max(1, int(round(seconds / (BLOCKS * _SPECS[workload]["round_s"]))))
    out = {
        "workload": workload,
        "size": size,
        "task": task,
        "seed": int(seed),
        "rows": base["rows"],
        "test_n": base["test_n"],
        "recal_n": base["recal_n"],
        "fit": dict(base["fit"], seed=int(seed)),
        "blocks": BLOCKS,
        "rounds": rounds,
        "round": _SPECS[workload]["round"],
    }
    for key in ("product", "num_samples"):
        if key in base:
            out[key] = base[key]
    return out


def regress_function(X):
    return (np.sin(2.0 * X[:, 0]) + 0.5 * np.cos(3.0 * X[:, 1] * X[:, 2])
            + 0.3 * X[:, 3] ** 2)


def bulk_function(Z):
    return (np.sin(Z[:, 0]) * np.cos(Z[:, 1])
            + 0.5 * Z[:, 2] * Z[:, 3] / (1.0 + Z[:, 2] ** 2)
            + 0.3 * np.tanh(Z[:, 4]))


def blob_centers():
    centers = np.zeros((BLOB_CLASSES, BLOB_DIM))
    for c in range(1, BLOB_CLASSES):
        axis = (c - 1) % BLOB_DIM
        sign = 1.0 if (c - 1) < BLOB_DIM else -1.0
        centers[c, axis] = sign * BLOB_SEPARATION
    return centers


def generate(workload, rows, seed):
    """(X, target) arrays for a workload; the same seed gives the same rows."""
    rng = np.random.default_rng([int(seed), WORKLOAD_NAMES.index(workload)])
    if workload == "regress_default":
        X = rng.uniform(-1.0, 1.0, size=(rows, 6))
        y = regress_function(X) + REGRESS_NOISE_SD * rng.standard_normal(rows)
        return X, y
    if workload == "classify_c10":
        labels = rng.integers(BLOB_CLASSES, size=rows)
        X = blob_centers()[labels] + rng.standard_normal((rows, BLOB_DIM))
        return X, labels
    Z = rng.standard_normal((rows, BULK_DIM))
    X = Z * BULK_SCALES + BULK_OFFSETS
    y = bulk_function(Z) + BULK_NOISE_SD * rng.standard_normal(rows)
    return X, y


def write_csv(path, X, target, task):
    """Header row, nine significant digits per feature, integer labels."""
    d = X.shape[1]
    header = ",".join([f"x{j}" for j in range(d)] + ["target"])
    fmt = ["%.9g"] * d + (["%d"] if task == "classification" else ["%.9g"])
    np.savetxt(path, np.column_stack([X, target]), fmt=fmt, delimiter=",",
               header=header, comments="")


def read_csv(path, task):
    """The benchmark's own parse of the CSV it wrote, for the references."""
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    target = values[:, -1]
    if task == "classification":
        target = target.astype(np.int64)
    return values[:, :-1], target
