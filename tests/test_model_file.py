"""Model files written by older versions still load, predict bit for bit
and re-save byte for byte.

The files in tests/data were written by tests/data/make_legacy_models.py
with the fmgp of commit 61fdecb, beside its predictions on inputs.npy.
"""

import errno
import inspect
import json
import os
import re

import numpy as np
import pytest

from fmgp import classification as cls
from fmgp import data as dt
from fmgp import features as ft
from fmgp import model_file as mf
from fmgp import regression as reg
from fmgp.errors import ConfigError, DataError, NumericError

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
NAMES = ["regression_mlp", "regression_product", "regression_additive",
         "classifier_3class"]


def load(name):
    """(model, its save function, its predictions on inputs.npy) of a
    stored model file."""
    path = os.path.join(DATA, f"{name}.json")
    inputs = np.load(os.path.join(DATA, "inputs.npy"))
    if name.startswith("classifier"):
        clf = cls.load_classifier(path)
        return clf, cls.save_classifier, cls.predict_proba(clf, inputs, num_samples=64,
                                                           seed=0)
    model = reg.load_model(path)
    pred = reg.predict(model, inputs)
    return model, reg.save_model, np.stack([pred.mean, pred.variance,
                                            pred.observation_variance])


@pytest.mark.parametrize("name", NAMES)
def test_older_file_predicts_bit_identically(name):
    _, _, got = load(name)
    assert np.array_equal(got, np.load(os.path.join(DATA, f"{name}.npy")))


@pytest.mark.parametrize("name", NAMES)
def test_older_file_resaves_byte_identically(name, tmp_path):
    model, save, _ = load(name)
    save(model, tmp_path / "model.json")
    with open(os.path.join(DATA, f"{name}.json"), "rb") as fh:
        assert (tmp_path / "model.json").read_bytes() == fh.read()


def test_classifier_keeps_label_map_and_temperature():
    clf, _, _ = load("classifier_3class")
    assert clf.label_map == {3.0: 0, 5.0: 1, 9.0: 2}
    assert clf.temperature != 1.0


def edited_copy(name, edit, tmp_path):
    """The path of a copy of a stored model file, its document passed
    through edit first."""
    with open(os.path.join(DATA, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("label_map", [{"3.0": 0.7, "5.0": 0.2, "9.0": 2},
                                       {"3.0": 0, "5.0": 0, "9.0": 2},
                                       {"3.0": 0, "5.0": 1, "9.0": 3},
                                       {"5.0": 0, "7.0": 2}])
def test_classifier_label_map_must_hold_distinct_class_indices(label_map, tmp_path):
    # fractional, repeated or out-of-range class indices, or a class
    # without a raw label
    path = edited_copy("classifier_3class", lambda doc: doc.update(label_map=label_map),
                       tmp_path)
    with pytest.raises(DataError, match="label_map"):
        cls.load_classifier(path)


# classifier fields that a writer never writes: counts as floats or
# booleans, label_map keys that are not str of a finite float, and
# another surrogate noise policy than the one there is
DAMAGED_CLASSIFIER_FIELDS = {
    "num_classes_float": (lambda doc: doc.update(num_classes=3.0),
                          "num_classes must be an integer >= 1, got 3.0"),
    "num_classes_true": (lambda doc: doc.update(num_classes=True),
                         "num_classes must be an integer >= 1, got True"),
    "label_map_floats": (lambda doc: doc.update(label_map={"3.0": 0.0, "5.0": 1.0, "9.0": 2.0}),
                         re.escape("label_map[3.0] must be a nonnegative integer, got 0.0")),
    "label_map_one_float": (lambda doc: doc.update(label_map={"3.0": 0, "5.0": 1.0, "9.0": 2}),
                            re.escape("label_map[5.0] must be a nonnegative integer, got 1.0")),
    "label_map_true": (lambda doc: doc.update(label_map={"3.0": 0, "5.0": True, "9.0": 2}),
                       re.escape("label_map[5.0] must be a nonnegative integer, got True")),
    **{f"label_map_key_{key}": (
        lambda doc, key=key: doc.update(label_map={key: 0, "5.0": 1, "9.0": 2}),
        re.escape(f"label_map[{key}] must be a finite number as str(float) writes it"))
       for key in ("3", "nan", "1e999")},
    "noise_kind": (lambda doc: doc["surrogate_noise_policy"].update(kind="zz"),
                   'surrogate_noise_policy.kind must be "dirichlet-lognormal", got "zz"'),
    "noise_composition": (lambda doc: doc["surrogate_noise_policy"].update(composition=None),
                          "surrogate_noise_policy.composition must be "
                          '"added-to-learned-noise", got null'),
    "noise_kind_missing": (lambda doc: doc["surrogate_noise_policy"].pop("kind"),
                           "missing key 'kind'"),
}


@pytest.mark.parametrize("edit, message", DAMAGED_CLASSIFIER_FIELDS.values(),
                         ids=DAMAGED_CLASSIFIER_FIELDS)
def test_damaged_classifier_field_is_refused_naming_the_key(edit, message, tmp_path):
    # each would load, and re-save as other bytes (3, 0, 1, 2, a label 3.0
    # or inf, or the policy there is) or with a label no class can have (nan)
    path = edited_copy("classifier_3class", edit, tmp_path)
    with pytest.raises(DataError, match=f"bad model file {re.escape(str(path))}: {message}"):
        cls.load_classifier(path)


# normalization blocks that Dataset.stats_dict never writes
DAMAGED_NORMALIZATIONS = {
    "target_std_negative": (lambda stats: stats.update(target_std=-1.0),
                            "target_std must be finite and positive"),
    "feature_means_missing": (lambda stats: stats.pop("feature_means"),
                              "missing key 'feature_means'"),
    "empty": (lambda stats: stats.clear(), "missing key 'feature_means'"),
    "feature_stds_zero": (lambda stats: stats.update(feature_stds=[0.0, 0.0]),
                          "feature_stds must be finite and positive"),
    "feature_means_one_entry": (lambda stats: stats.update(feature_means=[0.0]),
                                re.escape("feature_means must have shape (2), got (1,)")),
    "extra_key": (lambda stats: stats.update(extra=1.0),
                  re.escape("unknown normalization key(s) ['extra']")),
}


@pytest.mark.parametrize("edit, message", DAMAGED_NORMALIZATIONS.values(),
                         ids=DAMAGED_NORMALIZATIONS)
def test_damaged_normalization_is_refused_naming_the_key(edit, message, tmp_path):
    path = edited_copy("regression_mlp", lambda doc: edit(doc["normalization"]), tmp_path)
    with pytest.raises(DataError, match=f"bad model file {re.escape(str(path))}: {message}"):
        reg.load_model(path)


def full_disk(src, dst):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src)


@pytest.mark.parametrize("failure, error, message", [
    ("nan_variance", NumericError, "cannot save model to"),
    ("full_disk", ConfigError, "cannot write"),
])
def test_failed_save_leaves_the_earlier_file(failure, error, message, tmp_path, monkeypatch):
    # the model is written beside the earlier file and renamed over it only whole
    model, save, _ = load("regression_mlp")
    if failure == "nan_variance":
        model.sigma_xi_sq = float("nan")
    else:
        monkeypatch.setattr(os, "replace", full_disk)
    path = tmp_path / "model.json"
    path.write_bytes(b"earlier")
    with pytest.raises(error, match=f"{message} {re.escape(str(path))}: "):
        save(model, path)
    assert path.read_bytes() == b"earlier"
    assert os.listdir(tmp_path) == ["model.json"]


def derived_models(task, tmp_path):
    """A small fitted model of the task, and the models derived from it:
    recalibrated or re-tempered, and reloaded."""
    config = dict(hidden_widths=(4,), output_dim=3, iterations=2, subset_size=100)
    if task == "regression":
        dataset = dt.prepare(dt.synth_gp_sample(n=120, d=2), test_n=20, recal_n=20)
        fitted = reg.fit(dataset, reg.FitConfig(**config))
        copied = reg.recalibrate(fitted, *dataset.subset_arrays("recalibration"))
    else:
        dataset = dt.prepare(dt.synth_blobs(n=120, num_classes=3), test_n=20, recal_n=20)
        fitted = cls.fit_classifier(dataset, cls.ClassifierConfig(**config))
        copied = fitted.with_temperature(2.0)
    mf.save(copied, tmp_path / "model.json")
    return {"fitted": fitted, "copied": copied,
            "reloaded": mf.load(tmp_path / "model.json", type(fitted))}


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_every_model_attribute_is_a_constructor_argument(task, tmp_path):
    # so that type(m)(**(vars(m) | changes)) copies every field
    for stage, model in derived_models(task, tmp_path).items():
        assert set(vars(model)) == set(inspect.signature(type(model)).parameters), stage


@pytest.mark.parametrize("edit, message", [
    (lambda fmap: fmap.update(format="fmgp/feature-map@9"), "unrecognized feature map format"),
    (lambda fmap: fmap.update(kind="tensor"), "unrecognized feature map kind 'tensor'"),
    (lambda fmap: fmap["left"].update(activation="tanh"), "unsupported activation 'tanh'"),
    # the left map's hidden layer holds layer norm's gain and offset
    (lambda fmap: fmap["left"].update(normalization="none"), "parameter layout does not match"),
    # a JSON boolean, not a value that Python's bool() would take
    *[(lambda fmap, value=value: fmap["right"].update(rescale_to_unit=value),
       f"rescale_to_unit must be true or false, got {re.escape(json.dumps(value))}")
      for value in ("zz", 0, None)],
], ids=["format", "kind", "activation", "layout", "rescale_string", "rescale_zero",
        "rescale_null"])
def test_damaged_feature_map_is_refused_naming_the_file(edit, message, tmp_path):
    path = edited_copy("regression_additive", lambda doc: edit(doc["feature_map"]), tmp_path)
    with pytest.raises(DataError, match=f"bad model file {re.escape(str(path))}: {message}"):
        reg.load_model(path)


def cache_edit(key, value):
    """An edit that sets key of a model file's first cache to value (for
    eigenvalues, its last one); a callable value is of the document."""
    def edit(doc):
        cache = doc["decomposition"] if "decomposition" in doc else doc["per_class"][0]["cache"]
        new = value(doc) if callable(value) else value
        if key == "eigenvalues":
            cache[key][-1] = new
        else:
            cache[key] = new
    return edit


# values that decompose never writes: it clamps eigenvalues to >= 0 and
# counts n rows; an eigenvalue of -gamma made predict divide by zero
DAMAGED_CACHES = [
    ("regression_mlp", "eigenvalues", lambda doc: -doc["gamma"], "eigenvalues must be >= 0"),
    *[(name, "eigenvalues", value, f"eigenvalues must be >= 0, got {value}")
      for name, value in (("regression_mlp", -0.001), ("classifier_3class", -0.5))],
    *[(name, "n", value, re.escape(f"n must be an integer >= 1, got {value!r}"))
      for name in ("regression_mlp", "classifier_3class") for value in (2.5, 0, -5, 1e308, True)],
    *[(name, "trace_phi_sq", -1, "trace_phi_sq must be >= 0, got -1.0")
      for name in ("regression_mlp", "classifier_3class")],
]


@pytest.mark.parametrize("name, key, value, message", DAMAGED_CACHES, ids=[
    f"{name.split('_')[0]}-{key}-{'minus_gamma' if callable(value) else value}"
    for name, key, value, _ in DAMAGED_CACHES])
def test_damaged_cache_is_refused_naming_the_key(name, key, value, message, tmp_path):
    path = edited_copy(name, cache_edit(key, value), tmp_path)
    with pytest.raises(DataError, match=f"bad model file {re.escape(str(path))}: {message}"):
        mf.load(path, reg.GpModel, cls.DirichletClassifier)


@pytest.mark.parametrize("name", ["regression_mlp", "classifier_3class"])
@pytest.mark.parametrize("key, value", [("eigenvalues", -0.0), ("trace_phi_sq", 1e308)])
def test_cache_values_at_the_edge_load_and_resave(name, key, value, tmp_path):
    # -0.0 is >= 0, and a finite trace is not checked against the eigenvalues
    path = edited_copy(name, cache_edit(key, value), tmp_path)
    model = mf.load(path, reg.GpModel, cls.DirichletClassifier)
    mf.save(model, tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()


def mlp_document(widths):
    return mf.feature_map_document(ft.init_params(widths, seed=0))


@pytest.mark.parametrize("doc, message", [
    ([1], "'list' object has no attribute 'get'"),
    ({**mlp_document([2, 3, 1]), "widths": None}, "object of type 'NoneType' has no len"),
    ({key: value for key, value in mlp_document([2, 3, 1]).items() if key != "widths"},
     "missing key 'widths'"),
    ({**mlp_document([2, 3, 1]), "layers": [{"weight": [[1.0]], "bias": [0.0] * 3},
                                            mlp_document([2, 3, 1])["layers"][1]]},
     r"weight must have shape \(2, 3\), got \(1, 1\)"),
    ({"format": mf.FEATURE_MAP_FORMAT, "kind": "product", "left": mlp_document([2, 3, 1]),
      "right": mlp_document([3, 3, 1])}, "component maps must share the input dimension"),
], ids=["list", "widths_null", "widths_missing", "weight_shape", "pair_inputs"])
def test_read_feature_map_refuses_a_damaged_document(doc, message, tmp_path):
    # the whole feature map replaced, where the test above edits one key
    path = edited_copy("regression_mlp", lambda model: model.update(feature_map=doc), tmp_path)
    with pytest.raises(DataError, match=f"bad model file {re.escape(str(path))}: {message}"):
        reg.load_model(path)
