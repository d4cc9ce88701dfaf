"""Write classifier_pinned.json, the fixed 3-class classifier whose
fitted temperatures tests/test_classification.py pins, with whichever
fmgp is first on the path:

    PYTHONPATH=<src of the fmgp whose caches to keep> \\
        python tests/data/make_pinned_classifier.py tests/data

The classifier is built from fixed hyperparameters, without training,
exactly as the tests' pinned_classifier() builds it.
"""

import os
import sys

import numpy as np

from fmgp import classification as cls
from fmgp import features as ft
from fmgp import regression as reg


def main(out):
    rng = np.random.default_rng(81)
    X = rng.standard_normal((150, 2))
    labels = (X[:, 0] + 0.5 * rng.standard_normal(150) > 0).astype(int) + (X[:, 1] > 0.8)
    fmap = ft.init_params([2, 8, 5], seed=18, normalization="layer_norm",
                          rescale_to_unit=True)
    sigma_f_sq, sigma_xi_sq = np.ones(3), np.full(3, 0.3)
    y_tilde, s_tilde_sq = cls.dirichlet_transform(labels[:60], 0.01, 3)
    caches = reg.build_caches(fmap, X[:60], y_tilde, s_tilde_sq + sigma_xi_sq)
    clf = cls.DirichletClassifier(fmap, sigma_f_sq, sigma_xi_sq, caches, 0.01)
    cls.save_classifier(clf, os.path.join(out, "classifier_pinned.json"))


if __name__ == "__main__":
    main(sys.argv[1])
