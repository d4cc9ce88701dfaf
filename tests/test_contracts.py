"""Bad-argument battery: every public call refuses a bad argument with its
typed error, under warnings raised as errors.

Each row names one argument of one call, its kind and the error class
that call raises.  The bad values come from the kind (BAD_VALUES), so a
new kind of argument is one more entry there and rows that use it.  Each
row also has a valid value, and the call must accept it, so that a bad
value fails for the argument the row names and not for its fixture.  An
array's shape failures are ShapeErrors whatever error its values raise;
a row may expect another error, or a finite result, for one bad value,
with a comment that says why.  Every public callable of the library
modules has a row or a reason in NOT_IN_TABLE.
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
from fmgp import model_file as mf
from fmgp import regression as reg
from fmgp import spectral as sp
from fmgp.errors import ConfigError, DataError, DomainError, NumericError, ShapeError


class Row(NamedTuple):
    name: str
    kind: str
    error: type
    call: Callable[[Any], Any]
    valid: Any
    low: int = 1
    # per bad value's id, the error it raises instead, or FINITE
    expect: Any = None


# the row expects a finite result for this bad value
FINITE = "finite"


def shape_values(row):
    # an array of the wrong rank or length, from the row's valid array
    valid = np.asarray(row.valid, dtype=np.float64)
    return [("0d", np.array(1.0), ShapeError), ("wrong_rank", valid[..., None], ShapeError),
            ("empty", valid[:0], ShapeError)]


# per kind, (id, bad value) pairs or (id, bad value, error) triples; a
# count's depend on its lower bound
BAD_VALUES = {
    "count": lambda row: [("1.5", 1.5), ("True", True), ("low-1", row.low - 1)],
    "positive": lambda row: [("0", 0.0), ("-1", -1.0), ("inf", np.inf), ("nan", np.nan)],
    # a real of either sign: only NaN and infinity are refused
    "real": lambda row: [("nan", np.nan), ("inf", np.inf)],
    # two class indices of a two-class problem
    "labels": lambda row: [("fraction", np.array([0.9, 1.2])), ("nan", np.array([0.0, np.nan])),
                           ("negative", np.array([0, -1])), ("too_large", np.array([0, 2]))],
    "probabilities": lambda row: [("nan_row", np.array([[np.nan, 0.5], [0.2, 0.8]])),
                                  ("inf_row", np.array([[0.5, 0.5], [np.inf, 0.8]])),
                                  ("empty", np.empty((0, 2)))],
    # an array whose finiteness its caller owns: its shape only
    "shape": shape_values,
    "array": lambda row: [("nan", np.full(np.shape(row.valid), np.nan), row.error),
                          ("inf", np.full(np.shape(row.valid), np.inf), row.error),
                          *shape_values(row)],
    # neither a FeatureMap nor a pair map
    "feature_map": lambda row: [("none", None), ("string", "mlp")],
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


X5, Y5 = X_SMALL[:5], np.linspace(-1.0, 1.0, 5)
MODEL = reg.GpModel(FMAP, 1.0, 0.5,
                    reg.build_decomposition(FMAP, X_SMALL, np.sin(X_SMALL[:, 0])))
PRED = reg.predict(MODEL, X5)
PHI3 = np.random.default_rng(3).standard_normal((3, 2))
REPORT = sp.spectrum(np.diag([4.0, 3.0, 2.0, 1.0]))


def mll_parts(**args):
    # gaussian_mll_parts of one column on three rows, with the args replaced
    return reg.gaussian_mll_parts(**{"phi_hat": PHI3, "Y": np.zeros((3, 1)),
                                     "log_sigma_f_sq": np.zeros(1),
                                     "log_sigma_xi_sq": np.zeros(1),
                                     "extra_noise": np.zeros((3, 1)), **args})


def upstream_call(fmap):
    # the reverse mode of one pullback, applied to an upstream cotangent
    return lambda upstream: ft.pullback(fmap, X_SMALL)[1](upstream, np.empty(fmap.params.size))


def train_args(**args):
    # two steps of train on the small map and rows, with the args replaced
    return reg.train(**{"feature_map": FMAP, "X": X_SMALL, "Y": np.zeros((12, 1)),
                        "extra_noise": None, "config": reg.FitConfig(iterations=2), **args})


def add_batch(**args):
    return lr.GramAccumulator(2, 1).add(**{"phi_batch": np.ones((3, 2)),
                                           "y_batch": np.zeros((3, 1)),
                                           "noise": np.ones((3, 1)), **args})


def prepared(**args):
    # prepare on RAW with the args replaced
    table = {"X": RAW.X, "targets": RAW.targets, **args}
    return dt.prepare(dt.RawTable(table["X"], table["targets"], "regression"),
                      test_n=10, recal_n=10)


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
    Row("NystromKernel.seed", "count", DomainError,
        lambda v: sp.build_gram(sp.NystromKernel(num_landmarks=4, seed=v), X_SMALL), 0, 0),
    Row("predict_proba.seed", "count", DomainError,
        lambda v: cls.predict_proba(CLF, X_SMALL, num_samples=8, seed=v), 0, 0),
    Row("fit_temperature.seed", "count", DomainError,
        lambda v: cls.fit_temperature(CLF, X_SMALL, LABELS, num_samples=8, seed=v), 0, 0),
    Row("MlpKernel.output_dim", "count", ConfigError,
        lambda v: sp.build_gram(sp.MlpKernel(output_dim=v), X_SMALL), 4),
    Row("MlpKernel.seed", "count", DomainError,
        lambda v: sp.build_gram(sp.MlpKernel(seed=v), X_SMALL), 0, 0),
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
    Row("SpectrumReport.tail_mass", "count", DomainError, lambda v: REPORT.tail_mass(v), 1, 0),
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
                                              "decomp": MODEL.decomp, f: v}), 0.5)
      for f in ("sigma_f_sq", "sigma_xi_sq", "gamma")],
    Row("GramAccumulator.add.noise", "positive", DomainError, accumulate, 1.0),
]

# a negative noise_sd draws the same noise with its sign flipped, and a
# negative eps or separation mirrors the data, so only NaN and inf are bad
REALS = [
    Row("synth_gp_sample.noise_sd", "real", DomainError,
        lambda v: dt.synth_gp_sample(n=20, noise_sd=v), 0.1),
    *[Row(f"synth_manifold.{f}", "real", DomainError,
          lambda v, f=f: dt.synth_manifold(**{"n": 20, "d_ambient": 4, f: v}), 0.1)
      for f in ("eps", "noise_sd")],
    Row("synth_blobs.separation", "real", DomainError,
        lambda v: dt.synth_blobs(n=20, separation=v), 4.0),
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

ARRAYS = [
    # 0 rows in, 0 feature rows out
    Row("forward.inputs", "array", NumericError, lambda v: ft.forward(FMAP, v), X_SMALL,
        expect={"empty": FINITE}),
    Row("pullback.upstream", "shape", ShapeError, upstream_call(FMAP), np.ones((12, 3))),
    Row("pullback.pair_upstream", "shape", ShapeError,
        upstream_call(ft.ProductFeatureMap(FMAP, FMAP)), np.ones((12, 9))),
    Row("FeatureMap.params", "shape", ShapeError, lambda v: ft.FeatureMap([2, 4, 3], v),
        FMAP.params),
    Row("run_grams.phi", "shape", ShapeError, lambda v: lr.run_grams(v, np.zeros((4, 1))),
        np.ones((4, 2))),
    Row("run_grams.noise", "shape", ShapeError, lambda v: lr.run_grams(np.ones((4, 2)), v),
        np.zeros((4, 1))),
    # ".shape" where a row of another kind already has the argument's name
    *[Row(f"GramAccumulator.add.{arg}", "shape", ShapeError,
          lambda v, arg=arg: add_batch(**{arg.split(".")[0]: v}), value)
      for arg, value in (("phi_batch", np.ones((3, 2))), ("y_batch", np.zeros((3, 1))),
                         ("noise.shape", np.ones((3, 1))))],
    Row("decompose.gram", "array", NumericError,
        lambda v: lr.decompose(v, np.zeros(2), 3), np.eye(2)),
    Row("decompose.phi_t_y", "array", NumericError,
        lambda v: lr.decompose(np.eye(2), v, 3), np.zeros(2)),
    Row("product_features.phi1", "shape", ShapeError,
        lambda v: lr.product_features(v, np.ones((3, 2))), np.ones((3, 2))),
    Row("product_features.phi2", "shape", ShapeError,
        lambda v: lr.product_features(np.ones((3, 2)), v), np.ones((3, 2))),
    *[Row(f"gaussian_mll_parts.{arg}", "array", NumericError,
          lambda v, arg=arg: mll_parts(**{arg: v}), value)
      for arg, value in (("phi_hat", PHI3), ("Y", np.zeros((3, 1))),
                         ("log_sigma_f_sq", np.zeros(1)), ("log_sigma_xi_sq", np.zeros(1)),
                         ("extra_noise", np.zeros((3, 1))))],
    # an empty calibration set is refused for its size
    Row("recalibrate.X_cal", "array", NumericError, lambda v: reg.recalibrate(MODEL, v, Y5), X5,
        expect={"empty": DomainError}),
    Row("recalibrate.y_cal", "array", NumericError, lambda v: reg.recalibrate(MODEL, X5, v), Y5),
    Row("mean_nll.y", "array", NumericError, lambda v: reg.mean_nll(PRED, v), Y5),
    *[Row(f"train.{arg}", "array", NumericError, lambda v, arg=arg: train_args(**{arg: v}),
          value)
      for arg, value in (("X", X_SMALL), ("Y", np.zeros((12, 1))))],
    *[Row(f"build_caches.{arg}", "array", NumericError,
          lambda v, arg=arg: reg.build_caches(**{"feature_map": FMAP, "X": X_SMALL,
                                                  "Y": np.zeros((12, 1)), arg: v}), value)
      for arg, value in (("X", X_SMALL), ("Y", np.zeros((12, 1))))],
    Row("build_decomposition.y", "array", NumericError,
        lambda v: reg.build_decomposition(FMAP, X_SMALL, v), np.zeros(12)),
    # 0 feature rows in, 0 predictions out
    Row("posterior.psi", "array", NumericError,
        lambda v: reg.posterior(v, [MODEL.decomp], [MODEL.gamma], [MODEL.sigma_f_sq]),
        ft.forward(FMAP, X5), expect={"empty": FINITE}),
    Row("predict.X_star", "array", NumericError, lambda v: reg.predict(MODEL, v), X5,
        expect={"empty": FINITE}),
    *[Row(f"DirichletClassifier.{f}.shape", "shape", ShapeError,
          lambda v, f=f: cls.DirichletClassifier(FMAP, **classifier_fields(**{f: v})),
          np.ones(2)) for f in ("sigma_f_sq", "sigma_xi_sq")],
    Row("class_posteriors.X_star", "array", NumericError,
        lambda v: cls.class_posteriors(CLF, v), X_SMALL, expect={"empty": FINITE}),
    Row("predict_proba.X_star", "array", NumericError,
        lambda v: cls.predict_proba(CLF, v, num_samples=8, seed=0), X_SMALL,
        expect={"empty": FINITE}),
    Row("fit_temperature.X_hold", "array", NumericError,
        lambda v: cls.fit_temperature(CLF, v, LABELS, num_samples=8), X_SMALL),
    # 0 rows in, a 0 x 0 Gram out
    Row("build_gram.X", "array", NumericError, lambda v: sp.build_gram(sp.RbfKernel(), v),
        X_SMALL, expect={"empty": FINITE}),
    Row("spectrum.gram", "array", NumericError, lambda v: sp.spectrum(v), np.eye(3)),
    Row("hadamard_slacks.gram1", "array", NumericError,
        lambda v: sp.hadamard_slacks(v, np.eye(3)), np.eye(3)),
    Row("hadamard_slacks.gram2", "array", NumericError,
        lambda v: sp.hadamard_slacks(np.eye(3), v), np.eye(3)),
    # too few rows to split
    Row("prepare.X", "array", DataError, lambda v: prepared(X=v), RAW.X,
        expect={"empty": DomainError}),
    # fewer targets than rows is a DataError, as test_data pins
    Row("prepare.targets", "array", DataError, lambda v: prepared(targets=v), RAW.targets,
        expect={"empty": DataError}),
    # 0 raw rows in, 0 whitened rows out
    Row("Dataset.apply_input_normalization.X_raw", "shape", ShapeError,
        lambda v: prepared().apply_input_normalization(v), RAW.X, expect={"empty": FINITE}),
]

FEATURE_MAPS = [
    Row(f"{pair.__name__}.{side}", "feature_map", DomainError,
        lambda v, pair=pair, side=side: pair(**{"left": FMAP, "right": FMAP, side: v}), FMAP)
    for pair in (ft.ProductFeatureMap, ft.AdditiveFeatureMap) for side in ("left", "right")
]

ROWS = (COUNTS + POSITIVE_REALS + REALS + LABEL_VECTORS + PROBABILITY_ROWS + ARRAYS
        + FEATURE_MAPS)


def strict(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_valid_argument_is_accepted(row):
    strict(row.call, row.valid)


def all_finite(result):
    """Whether every number in a result is finite: a number, an array, a
    tuple of them, or an object whose fields are arrays."""
    if isinstance(result, tuple):
        return all(all_finite(part) for part in result)
    if hasattr(result, "__dict__"):
        return all(all_finite(part) for part in vars(result).values())
    return bool(np.all(np.isfinite(result)))


def bad_calls():
    for row in ROWS:
        for label, bad, *error in BAD_VALUES[row.kind](row):
            expected = (row.expect or {}).get(label, error[0] if error else row.error)
            yield pytest.param(row, bad, expected, id=f"{row.name}-{label}")


@pytest.mark.parametrize("row, bad, expected", bad_calls())
def test_bad_argument_raises_its_typed_error(row, bad, expected):
    if expected is FINITE:
        assert all_finite(strict(row.call, bad))
    else:
        with pytest.raises(expected):
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


# public callables without a row, and why
NOT_IN_TABLE = {
    "RawTable": "a record of what it is given; prepare checks its arrays",
    "load_csv": "reads a file; test_data and the CLI table cover bad files, by row and column",
    "sample_gp_path": "the generators' helper, on a Gram that build_gram checked",
    "Workspace": "a store of scratch arrays, sized by its callers",
    "backward": "pullback's one-call form, kept for the benchmark's tracer; pullback has rows",
    "AdamState": "sized by train from the parameter vector it holds",
    "adam_step": "compares its three shapes with each other; test_features covers it",
    "FeatureDecomposition": "a record that decompose and the model file reader check",
    "check_decompositions": "the model constructors' cache rule; test_regression covers it",
    "feature_map_document": "writes a map that its constructor checked",
    "save": "writes a model that its constructor checked",
    "load": "reads a file; the model file tests and the CLI table cover bad files",
    "PredictiveDistribution": "a record that predict builds",
    "make_subsets": "train's helper, on counts that FitConfig checks",
    "training_rows": "reads the training split of a Dataset that prepare built",
    "fit": "takes a Dataset that prepare built, and a FitConfig that has rows",
    "fit_classifier": "takes a Dataset that prepare built, and a ClassifierConfig that has rows",
    "save_model": "model_file.save for a regression model",
    "load_model": "model_file.load for a regression model",
    "save_classifier": "model_file.save for a classifier",
    "load_classifier": "model_file.load for a classifier",
    "CalibrationReport": "a record that compute_ece builds",
    "ProductKernel": "combines two specs, each with its own rows",
    "decay_experiment": "takes a DecayConfig, which has rows",
    "write_spectra_csv": "writes reports that spectrum built",
}


def public_names():
    names = []
    for module in (dt, ft, lr, mf, reg, cls, sp):
        names += [name for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value)
                  and getattr(value, "__module__", None) == module.__name__]
    return names


def test_every_public_callable_has_a_row_or_a_reason():
    names = public_names()
    assert len(names) == len(set(names))
    in_table = {row.name.split(".")[0] for row in ROWS}
    assert set(names) - in_table - set(NOT_IN_TABLE) == set()
    # a stale reason, or one for a name that has a row, is an error too
    assert set(NOT_IN_TABLE) <= set(names) - in_table


def test_mean_nll_refuses_a_column_of_targets():
    # (n,) against (n, 1) would broadcast to an (n, n) table of residuals
    y = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ShapeError, match=r"must have shape \(5\), got \(5, 1\)"):
        reg.mean_nll(PRED, y[:, None])


def test_apply_input_normalization_refuses_another_width():
    # (3, 5) against two whitening columns would not broadcast
    with pytest.raises(ShapeError, match=r"X_raw must have shape \(\*, 2\), got \(3, 5\)"):
        prepared().apply_input_normalization(np.zeros((3, 5)))


def test_a_non_finite_scalar_is_named_by_its_value():
    with pytest.raises(DomainError, match="noise_sd must be finite, got nan"):
        dt.synth_gp_sample(n=20, noise_sd=np.nan)


def test_unknown_normalization_is_refused_at_construction():
    with pytest.raises(ConfigError, match="unknown normalization 'bogus'"):
        reg.FitConfig(normalization="bogus")


def test_fit_temperature_compares_holdout_sizes_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew posterior samples")
    monkeypatch.setattr(cls, "class_posteriors", no_draws)
    with pytest.raises(ShapeError, match=r"\(11, \*\), got \(12, 2\)"):
        cls.fit_temperature(CLF, X_SMALL, LABELS[:-1], num_samples=8)


def test_predict_proba_takes_no_seed():
    assert all_finite(strict(cls.predict_proba, CLF, X_SMALL, 8, None))
