"""Bad-argument battery: every public call refuses a bad argument with its
typed error, under warnings raised as errors.

Each row names one argument of one call, its kind and the error class
that call raises.  The bad values come from the kind (BAD_VALUES), so a
new kind of argument is one more entry there and rows that use it.  Each
row also has a valid value, and the call must accept it, so that a bad
value fails for the argument the row names and not for its fixture.
"""

import warnings
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from fmgp import classification as cls
from fmgp import cli
from fmgp import data as dt
from fmgp import features as ft
from fmgp import lowrank as lr
from fmgp import regression as reg
from fmgp import spectral as sp
from fmgp.errors import ConfigError, DomainError, NumericError, ShapeError


class Row(NamedTuple):
    name: str
    kind: str
    error: type
    call: Callable[[Any], Any]
    valid: Any
    low: int = 1


# per kind, (id, bad value) pairs; a count's depend on its lower bound
BAD_VALUES = {
    "count": lambda low: [("1.5", 1.5), ("True", True), ("low-1", low - 1)],
    "positive": lambda low: [("0", 0.0), ("-1", -1.0), ("inf", np.inf), ("nan", np.nan)],
    # two class indices of a two-class problem
    "labels": lambda low: [("fraction", np.array([0.9, 1.2])), ("nan", np.array([0.0, np.nan])),
                           ("negative", np.array([0, -1])), ("too_large", np.array([0, 2]))],
    "probabilities": lambda low: [("nan_row", np.array([[np.nan, 0.5], [0.2, 0.8]])),
                                  ("inf_row", np.array([[0.5, 0.5], [np.inf, 0.8]])),
                                  ("empty", np.empty((0, 2)))],
}

X_SMALL = np.random.default_rng(0).standard_normal((12, 2))
LABELS = np.arange(12) % 2
FMAP = ft.init_params([2, 4, 3], 0, rescale_to_unit=True)
PROBS = np.array([[0.5, 0.5], [0.2, 0.8]])
RAW = dt.RawTable(np.random.default_rng(1).standard_normal((60, 2)),
                  np.random.default_rng(2).standard_normal(60), "regression")


def classifier_fields(**overrides):
    y_tilde, noise = cls.dirichlet_transform(LABELS, 0.01, 2)
    caches = reg.build_caches(FMAP, X_SMALL, y_tilde, noise + 0.1)
    fields = dict(sigma_f_sq=np.ones(2), sigma_xi_sq=np.full(2, 0.1), caches=caches,
                  alpha_eps=0.01)
    return {**fields, **overrides}


CLF = cls.DirichletClassifier(FMAP, **classifier_fields())


def run_config(**blocks):
    return cli.RunConfig({"task": "classification",
                          "data": {"kind": "csv", "path": "blobs.csv"}, **blocks})


def accumulate(noise):
    return lr.GramAccumulator(2, 1).add(np.ones((3, 2)), np.zeros((3, 1)),
                                        np.full((3, 1), noise))


def scored(score):
    # a probability array with one label per row
    return lambda probs: score(probs, np.zeros(len(probs), dtype=np.int64))


COUNTS = [
    *[Row(f"FitConfig.{f}", "count", ConfigError, lambda v, f=f: reg.FitConfig(**{f: v}), 3)
      for f in ("output_dim", "num_subsets", "subset_size")],
    *[Row(f"FitConfig.{f}", "count", ConfigError, lambda v, f=f: reg.FitConfig(**{f: v}), 3, 0)
      for f in ("iterations", "seed")],
    Row("FitConfig.hidden_widths", "count", ConfigError,
        lambda v: reg.FitConfig(hidden_widths=(8, v)), 8),
    Row("predict_proba.num_samples", "count", DomainError,
        lambda v: cls.predict_proba(CLF, X_SMALL, num_samples=v, seed=0), 8),
    Row("fit_temperature.num_samples", "count", DomainError,
        lambda v: cls.fit_temperature(CLF, X_SMALL, LABELS, num_samples=v), 8),
    Row("compute_ece.num_bins", "count", DomainError,
        lambda v: cls.compute_ece(PROBS, np.array([0, 1]), num_bins=v), 5),
    *[Row(f"RunConfig.classification.{key}", "count", ConfigError,
          lambda v, key=key: run_config(classification={key: v}), 8)
      for key in ("num_samples", "ece_bins")],
    Row("RunConfig.composition.output_dims", "count", ConfigError,
        lambda v: run_config(composition={"kind": "product", "output_dims": [v, 2]}), 2),
    Row("init_params.widths", "count", ConfigError, lambda v: ft.init_params([2, v], 0), 3),
    Row("init_params.seed", "count", DomainError, lambda v: ft.init_params([2, 3], v), 0, 0),
    Row("GramAccumulator.p", "count", ShapeError, lambda v: lr.GramAccumulator(v, 1), 2),
    Row("GramAccumulator.num_outputs", "count", ShapeError,
        lambda v: lr.GramAccumulator(2, v), 2),
    Row("decompose.n", "count", DomainError,
        lambda v: lr.decompose(np.eye(2), np.zeros(2), v), 3),
    Row("dirichlet_transform.num_classes", "count", DomainError,
        lambda v: cls.dirichlet_transform(np.array([0]), 0.01, v), 2),
    Row("NystromKernel.num_landmarks", "count", DomainError,
        lambda v: sp.build_gram(sp.NystromKernel(num_landmarks=v), X_SMALL), 4),
    *[Row(f"DecayConfig.{f}", "count", ConfigError,
          lambda v, f=f: sp.DecayConfig(specs=(sp.RbfKernel(),), **{f: v}), 3)
      for f in ("n", "d")],
    Row("DecayConfig.seeds", "count", ConfigError,
        lambda v: sp.DecayConfig(specs=(sp.RbfKernel(),), seeds=(0, v)), 1, 0),
    *[Row(f"prepare.{f}", "count", DomainError,
          lambda v, f=f: dt.prepare(RAW, **{"test_n": 10, "recal_n": 10, f: v}), 10, 0)
      for f in ("seed", "test_n", "recal_n")],
    *[Row(f"synth_gp_sample.{f}", "count", DomainError,
          lambda v, f=f: dt.synth_gp_sample(**{"n": 20, "d": 1, f: v}), 2, low)
      for f, low in (("n", 1), ("d", 1), ("seed", 0))],
    *[Row(f"synth_blobs.{f}", "count", DomainError,
          lambda v, f=f: dt.synth_blobs(**{"n": 20, f: v}), 2, low)
      for f, low in (("n", 1), ("d", 1), ("num_classes", 2), ("seed", 0))],
    *[Row(f"synth_manifold.{f}", "count", DomainError,
          lambda v, f=f: dt.synth_manifold(**{"n": 20, "d_ambient": 4, f: v}), 4, low)
      for f, low in (("n", 1), ("d_ambient", 2), ("seed", 0))],
]

POSITIVE_REALS = [
    *[Row(f"FitConfig.{f}", "positive", ConfigError, lambda v, f=f: reg.FitConfig(**{f: v}), 0.1)
      for f in ("learning_rate", "init_sigma_f_sq", "init_sigma_xi_sq")],
    Row("ClassifierConfig.alpha_eps", "positive", ConfigError,
        lambda v: cls.ClassifierConfig(alpha_eps=v), 0.01),
    Row("dirichlet_transform.alpha_eps", "positive", DomainError,
        lambda v: cls.dirichlet_transform(np.array([0, 1]), v, 2), 0.01),
    *[Row(f"DirichletClassifier.{f}", "positive", DomainError,
          lambda v, f=f: cls.DirichletClassifier(FMAP, **classifier_fields(**{f: v})), 1.0)
      for f in ("temperature", "alpha_eps")],
    *[Row(f"DirichletClassifier.{f}", "positive", DomainError,
          lambda v, f=f: cls.DirichletClassifier(FMAP, **classifier_fields(**{f: np.full(2, v)})),
          1.0) for f in ("sigma_f_sq", "sigma_xi_sq")],
    Row("predict_proba.temperature", "positive", DomainError,
        lambda v: cls.predict_proba(CLF, X_SMALL, num_samples=8, seed=0, temperature=v), 1.0),
    *[Row(f"{kernel.__name__}.lengthscale", "positive", DomainError,
          lambda v, kernel=kernel: sp.build_gram(kernel(lengthscale=v), X_SMALL), 1.0)
      for kernel in (sp.RbfKernel, sp.ExpKernel, sp.Matern32Kernel, sp.PeriodicKernel)],
    Row("PeriodicKernel.period", "positive", DomainError,
        lambda v: sp.build_gram(sp.PeriodicKernel(period=v), X_SMALL), 1.0),
    *[Row(f"GpModel.{f}", "positive", DomainError,
          lambda v, f=f: reg.GpModel(FMAP, **{"sigma_f_sq": 1.0, "sigma_xi_sq": 0.5,
                                              "decomp": None, f: v}), 0.5)
      for f in ("sigma_f_sq", "sigma_xi_sq", "gamma")],
    Row("GramAccumulator.add.noise", "positive", DomainError, accumulate, 1.0),
]

LABEL_VECTORS = [
    Row("multinomial_nll.labels", "labels", DomainError,
        lambda v: cls.multinomial_nll(PROBS, v), np.array([0.0, 1.0])),
    Row("compute_ece.labels", "labels", DomainError,
        lambda v: cls.compute_ece(PROBS, v), np.array([0.0, 1.0])),
    Row("dirichlet_transform.labels", "labels", DomainError,
        lambda v: cls.dirichlet_transform(v, 0.01, 2), np.array([0.0, 1.0])),
    Row("fit_temperature.labels", "labels", DomainError,
        lambda v: cls.fit_temperature(CLF, X_SMALL[:2], v, num_samples=8),
        np.array([0.0, 1.0])),
]

PROBABILITY_ROWS = [
    Row("multinomial_nll.probs", "probabilities", DomainError,
        scored(cls.multinomial_nll), PROBS),
    Row("compute_ece.probs", "probabilities", DomainError, scored(cls.compute_ece), PROBS),
]

ROWS = COUNTS + POSITIVE_REALS + LABEL_VECTORS + PROBABILITY_ROWS


def strict(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_valid_argument_is_accepted(row):
    strict(row.call, row.valid)


@pytest.mark.parametrize("row, bad", [
    pytest.param(row, bad, id=f"{row.name}-{label}")
    for row in ROWS for label, bad in BAD_VALUES[row.kind](row.low)])
def test_bad_argument_raises_its_typed_error(row, bad):
    with pytest.raises(row.error):
        strict(row.call, bad)


def test_whole_valued_float_labels_score_as_integers():
    labels = np.array([0, 1])
    assert cls.multinomial_nll(PROBS, labels.astype(float)) == cls.multinomial_nll(PROBS, labels)
    assert (cls.compute_ece(PROBS, labels.astype(float)).ece
            == cls.compute_ece(PROBS, labels).ece)


@pytest.mark.parametrize("call, error", [
    # scipy refuses a NaN with a bare ValueError before it solves anything
    (lambda: sp.spectrum(np.full((2, 2), np.nan)), NumericError),
    # equal shapes, but not square
    (lambda: sp.hadamard_slacks(np.ones((2, 3)), np.ones((2, 3))), ShapeError),
], ids=["spectrum_nan_gram", "hadamard_slacks_not_square"])
def test_library_errors_replace_numpy_and_scipy_errors(call, error):
    with pytest.raises(error):
        strict(call)
