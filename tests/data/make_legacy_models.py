"""Write the small model files and predictions that tests/test_model_file.py
loads, with whichever fmgp is first on the path:

    PYTHONPATH=<src of the fmgp version to keep loadable> \\
        python tests/data/make_legacy_models.py tests/data

Each model gets NAME.json and NAME.npy, its predictions on the inputs in
inputs.npy: the stacked mean, latent and observation variances of a
regression, or a classifier's class probabilities (64 draws, seed 0).
"""

import os
import sys
import tempfile

import numpy as np

from fmgp import classification as cls
from fmgp import data as dt
from fmgp import features as ft
from fmgp import regression as reg


def small_map(d, p, seed):
    return ft.init_params([d, 8, p], seed, normalization="layer_norm", rescale_to_unit=True)


def main(out):
    config = reg.FitConfig(hidden_widths=(8,), output_dim=4, iterations=5, seed=1)
    ds = dt.prepare(dt.synth_gp_sample(n=120, d=2, seed=2), seed=2, test_n=20, recal_n=20)
    X_cal, y_cal = ds.subset_arrays("recalibration")
    inputs = np.random.default_rng(3).standard_normal((16, 2))
    np.save(os.path.join(out, "inputs.npy"), inputs)
    maps = {"regression_mlp": None,
            "regression_product": ft.ProductFeatureMap(small_map(2, 3, 4), small_map(2, 2, 5)),
            "regression_additive": ft.AdditiveFeatureMap(small_map(2, 3, 6), small_map(2, 2, 7))}
    for name, fmap in maps.items():
        model = reg.recalibrate(reg.fit(ds, config, feature_map=fmap), X_cal, y_cal)
        reg.save_model(model, os.path.join(out, f"{name}.json"))
        pred = reg.predict(model, inputs)
        np.save(os.path.join(out, f"{name}.npy"),
                np.stack([pred.mean, pred.variance, pred.observation_variance]))

    # labels 3, 5 and 9 give the label map {3.0: 0, 5.0: 1, 9.0: 2}
    rng = np.random.default_rng(8)
    labels = rng.choice([3, 5, 9], size=150)
    X = rng.standard_normal((150, 2)) + np.c_[labels == 5, labels == 9] * 3.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blobs.csv")
        np.savetxt(path, np.c_[X, labels], delimiter=",", fmt="%.17g")
        ds = dt.prepare(dt.load_csv(path, task="classification"), seed=8,
                        test_n=20, recal_n=40)
    clf = cls.fit_classifier(ds, cls.ClassifierConfig(hidden_widths=(8,), output_dim=4,
                                                      iterations=5, seed=9))
    X_cal, y_cal = ds.subset_arrays("recalibration")
    clf = clf.with_temperature(cls.fit_temperature(clf, X_cal, y_cal, 64, seed=0))
    cls.save_classifier(clf, os.path.join(out, "classifier_3class.json"))
    np.save(os.path.join(out, "classifier_3class.npy"),
            cls.predict_proba(clf, inputs, num_samples=64, seed=0))


if __name__ == "__main__":
    main(sys.argv[1])
