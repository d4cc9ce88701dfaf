"""The fmgp/model@1 model file: its one writer and its one reader.

A model file is one JSON document: schema and task, the feature map
(fmgp/feature-map@1, nested for the pairs of features.COMPOSITIONS),
the task's variances and decomposition caches (one per class for a
classifier, with its temperature and label map), and the training
inputs' normalization.  json writes each float64 by repr, so it reads
back exactly and re-saving a loaded model gives the same bytes.

Every stored number and array is read by _read, which converts it to
float64 and checks it through errors.check_array: its shape, and no
NaN or infinity, which the writer refuses, so a file holding one (1e999
parses as infinity) is damaged.
"""

from __future__ import annotations

import json

import numpy as np

from . import features as ft
from . import lowrank as lr
from .errors import (DataError, FmgpError, NumericError, check_array, check_count,
                     check_positive, read_json, write_file)

SCHEMA = "fmgp/model@1"
FEATURE_MAP_FORMAT = "fmgp/feature-map@1"
# the one surrogate noise policy of a classifier, which its file names
NOISE_KIND = "dirichlet-lognormal"
NOISE_COMPOSITION = "added-to-learned-noise"

def _read(doc, key, shape=(), order="C"):
    """doc[key] as a float64 array of the given shape (a float when the
    shape is ()) in the given memory order, every entry finite."""
    array = np.asarray(doc[key])
    if array.dtype.kind not in "iuf":
        raise DataError(f"{key} must hold numbers")
    array = check_array(key, np.asarray(array, dtype=np.float64, order=order), shape, DataError)
    return array if shape else float(array)


def feature_map_document(fmap):
    """The fmgp/feature-map@1 document of a plain or composite map."""
    if fmap.kind in ft.COMPOSITIONS:
        return {"format": FEATURE_MAP_FORMAT, "kind": fmap.kind,
                "left": feature_map_document(fmap.left),
                "right": feature_map_document(fmap.right)}
    return {
        "format": FEATURE_MAP_FORMAT,
        "kind": fmap.kind,
        "widths": fmap.widths,
        "activation": "relu",
        "normalization": fmap.normalization,
        "rescale_to_unit": fmap.rescale_to_unit,
        "layers": [{key: array.tolist() for key, array in zip(ft.LAYER_KEYS, layer)}
                   for layer in fmap.layers],
    }


# what reading a damaged document raises, which load reports as one DataError
_DAMAGE = (FmgpError, LookupError, TypeError, ValueError, AttributeError, ArithmeticError)


def _feature_map(doc):
    if doc.get("format") != FEATURE_MAP_FORMAT:
        raise DataError(f"unrecognized feature map format {doc.get('format')!r}")
    kind = doc.get("kind", ft.FeatureMap.kind)
    if kind in ft.COMPOSITIONS:
        return ft.COMPOSITIONS[kind](_feature_map(doc["left"]), _feature_map(doc["right"]))
    if kind != ft.FeatureMap.kind:
        raise DataError(f"unrecognized feature map kind {kind!r}")
    if doc.get("activation") != "relu":
        raise DataError(f"unsupported activation {doc.get('activation')!r}")
    widths, normalization = doc["widths"], doc["normalization"]
    shapes = ft._layer_shapes(widths, normalization)
    if [len(layer) for layer in doc["layers"]] != [len(layer) for layer in shapes]:
        raise DataError("parameter layout does not match widths and normalization")
    params = [_read(layer, key, shape).ravel()
              for layer, layer_shapes in zip(doc["layers"], shapes)
              for key, shape in zip(ft.LAYER_KEYS, layer_shapes)]
    rescale = doc["rescale_to_unit"]
    if not isinstance(rescale, bool):
        raise DataError(f"rescale_to_unit must be true or false, got {json.dumps(rescale)}")
    return ft.FeatureMap(widths, np.concatenate(params), normalization=normalization,
                         rescale_to_unit=rescale)


def _decomposition_document(decomp):
    return {"u": decomp.u.tolist(), "eigenvalues": decomp.lam.tolist(),
            "proj_targets": decomp.proj_targets.tolist(), "n": decomp.n,
            "trace_phi_sq": decomp.trace_phi_sq}


def _nonnegative(doc, key, shape=()):
    value = _read(doc, key, shape)
    if np.any(value < 0):
        raise DataError(f"{key} must be >= 0, got {float(np.min(value))!r}")
    return value


def _read_decomposition(doc, p):
    # decompose clamps eigenvalues to >= 0 and counts n rows, so a file
    # that breaks either rule is damaged
    check_count(DataError, n=doc["n"])
    # decompose keeps eigh's Fortran order; the same layout makes products
    # with u, and so predictions, bit-identical after a reload
    return lr.FeatureDecomposition(
        _read(doc, "u", (p, p), order="F"), _nonnegative(doc, "eigenvalues", (p,)),
        _read(doc, "proj_targets", (p,)), doc["n"], _nonnegative(doc, "trace_phi_sq"))


def _regression_document(model):
    return {"sigma_f_sq": model.sigma_f_sq, "sigma_xi_sq": model.sigma_xi_sq,
            "gamma": model.gamma, "decomposition": _decomposition_document(model.decomp),
            "normalization": model.train_inputs_stats}


def _regression_fields(doc, p):
    return {"sigma_f_sq": _read(doc, "sigma_f_sq"),
            "sigma_xi_sq": _read(doc, "sigma_xi_sq"),
            "gamma": _read(doc, "gamma"),
            "decomp": _read_decomposition(doc["decomposition"], p)}


def _classifier_document(clf):
    return {
        "num_classes": clf.num_classes,
        "temperature": clf.temperature,
        "surrogate_noise_policy": {"kind": NOISE_KIND, "alpha_eps": clf.alpha_eps,
                                   "composition": NOISE_COMPOSITION},
        "per_class": [{"sigma_f_sq": float(clf.sigma_f_sq[c]),
                       "sigma_xi_sq": float(clf.sigma_xi_sq[c]),
                       "cache": _decomposition_document(clf.caches[c])}
                      for c in range(clf.num_classes)],
        "normalization": clf.train_inputs_stats,
        "label_map": ({str(float(k)): int(v) for k, v in clf.label_map.items()}
                      if clf.label_map else None),
    }


def _classifier_fields(doc, p):
    per_class = doc["per_class"]
    check_count(DataError, num_classes=doc["num_classes"])
    if doc["num_classes"] != len(per_class):
        raise DataError(f"num_classes is {doc['num_classes']}, but per_class "
                        f"holds {len(per_class)} classes")
    policy = doc["surrogate_noise_policy"]
    for key, value in (("kind", NOISE_KIND), ("composition", NOISE_COMPOSITION)):
        if policy[key] != value:
            raise DataError(f"surrogate_noise_policy.{key} must be {json.dumps(value)}, "
                            f"got {json.dumps(policy[key])}")
    return {
        "sigma_f_sq": np.array([_read(entry, "sigma_f_sq") for entry in per_class]),
        "sigma_xi_sq": np.array([_read(entry, "sigma_xi_sq") for entry in per_class]),
        "caches": [_read_decomposition(entry["cache"], p) for entry in per_class],
        "alpha_eps": _read(policy, "alpha_eps"),
        "temperature": _read(doc, "temperature"),
        "label_map": _read_label_map(doc.get("label_map"), len(per_class)),
    }


def _read_label_map(doc, num_classes):
    """The raw label to class index map, or None; its indices must be
    0 to num_classes - 1, each once: each class has one raw label."""
    if doc is None:
        return None
    check_count(DataError, low=0, **{f"label_map[{k}]": i for k, i in doc.items()})
    label_map = {_label(k): i for k, i in doc.items()}
    indices = list(label_map.values())
    if sorted(indices) != list(range(num_classes)):
        raise DataError(f"label_map values must be the class indices 0 to "
                        f"{num_classes - 1}, each once, got {indices}")
    return label_map


def _label(key):
    """The raw label of a label_map key, which must be a finite float as
    str writes it: the writer's form, so a re-save gives the same bytes."""
    try:
        label = float(key)
    except ValueError:
        label = np.nan
    if not np.isfinite(label) or str(label) != key:
        raise DataError(f"label_map[{key}] must be a finite number as str(float) writes it")
    return label


def _read_normalization(stats, d):
    """The normalization block, checked and kept as stored for the re-save:
    null, or exactly the four statistics that Dataset.stats_dict writes for
    d input columns, every standard deviation > 0."""
    if stats is None:
        return None
    if not isinstance(stats, dict):
        raise DataError("model normalization must be an object or null")
    unknown = sorted(set(stats) - {"feature_means", "feature_stds", "target_mean", "target_std"})
    if unknown:
        raise DataError(f"unknown normalization key(s) {unknown}")
    _read(stats, "feature_means", (d,))
    _read(stats, "target_mean")
    check_positive(DataError, feature_stds=_read(stats, "feature_stds", (d,)),
                   target_std=_read(stats, "target_std"))
    return stats


# per task: the document of a model, and its constructor's fields from one
_TASKS = {"regression": (_regression_document, _regression_fields),
          "classification": (_classifier_document, _classifier_fields)}


def save(model, path):
    """Write the model to path under its class's task, through
    errors.write_file; a NaN or infinity fails here and leaves any
    earlier file at path as it was, so a bad model is never saved."""
    doc = {"schema": SCHEMA, "task": model.task,
           "feature_map": feature_map_document(model.feature_map),
           **_TASKS[model.task][0](model)}
    try:
        # one dumps call runs CPython's C encoder; json.dump streams
        # through the pure-Python one, for the same bytes
        write_file(path, lambda fh: fh.write(json.dumps(doc, allow_nan=False)))
    except ValueError as exc:
        raise NumericError(f"cannot save model to {path}: {exc}") from None


def load(path, *model_types):
    """The model stored at path, built by whichever of model_types has
    the task the file names.

    Each model type has a task attribute and a constructor that takes
    the feature map and the stored fields as keyword arguments.  An
    unreadable file, another schema or task, a missing key, or a value
    of the wrong type, shape or finiteness is one DataError naming the
    file.
    """
    builders = {kind.task: kind for kind in model_types}
    doc = read_json(path, DataError, "model")
    try:
        if doc.get("schema") != SCHEMA:
            raise DataError(f"unrecognized model schema {doc.get('schema')!r}")
        task = doc.get("task")
        if task not in builders:
            raise DataError(f"expected a {' or '.join(builders)} model, got task {task!r}")
        fmap = _feature_map(doc["feature_map"])
        stats = _read_normalization(doc.get("normalization"), fmap.input_dim)
        return builders[task](feature_map=fmap, train_inputs_stats=stats,
                              **_TASKS[task][1](doc, fmap.output_dim))
    except _DAMAGE as exc:
        damage = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"bad model file {path}: {damage}") from None
