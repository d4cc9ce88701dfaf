"""The fmgp/model@1 model file: its one writer and its one reader.

A model file is one JSON document: schema and task, the feature map
(fmgp/feature-map@1, nested for product and additive pairs), the task's
variances and decomposition caches (one per class for a classifier,
with its temperature and label map), and the training inputs'
normalization.  json writes each float64 by repr, so it reads back
exactly and re-saving a loaded model gives the same bytes.

Every stored number and array is read by _read, which converts it to
float64, checks its shape and rejects a non-finite value: the writer
refuses NaN and infinity, so a file holding one (1e999 parses as
infinity) is damaged.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import features as ft
from . import lowrank as lr
from .errors import DataError, FmgpError, NumericError

SCHEMA = "fmgp/model@1"
FEATURE_MAP_FORMAT = "fmgp/feature-map@1"

_PAIRS = {"product": ft.ProductFeatureMap, "additive": ft.AdditiveFeatureMap}


def _read(doc, key, shape=(), order="C"):
    """doc[key] as a float64 array of the given shape (a float when the
    shape is ()) in the given memory order, every entry finite."""
    array = np.asarray(doc[key])
    if array.dtype.kind not in "iuf":
        raise DataError(f"{key} must hold numbers")
    array = np.asarray(array, dtype=np.float64, order=order)
    if array.shape != tuple(shape):
        raise DataError(f"{key} has shape {array.shape}, expected {tuple(shape)}")
    if not np.all(np.isfinite(array)):
        raise DataError(f"{key} holds a value that is not finite")
    return array if shape else float(array)


def feature_map_document(fmap):
    """The fmgp/feature-map@1 document of a plain or composite map."""
    if isinstance(fmap, ft.FeatureMap):
        return {
            "format": FEATURE_MAP_FORMAT,
            "kind": "mlp",
            "widths": fmap.widths,
            "activation": "relu",
            "normalization": fmap.normalization,
            "rescale_to_unit": fmap.rescale_to_unit,
            "layers": [{key: array.tolist() for key, array in zip(ft.LAYER_KEYS, layer)}
                       for layer in fmap.layers],
        }
    return {"format": FEATURE_MAP_FORMAT, "kind": fmap.kind,
            "left": feature_map_document(fmap.left),
            "right": feature_map_document(fmap.right)}


def read_feature_map(doc):
    """The plain or composite feature map of a feature-map document."""
    if doc.get("format") != FEATURE_MAP_FORMAT:
        raise DataError(f"unrecognized feature map format {doc.get('format')!r}")
    kind = doc.get("kind", "mlp")
    if kind in _PAIRS:
        return _PAIRS[kind](read_feature_map(doc["left"]), read_feature_map(doc["right"]))
    if kind != "mlp":
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
    return ft.FeatureMap(widths, np.concatenate(params), normalization=normalization,
                         rescale_to_unit=doc["rescale_to_unit"])


def _decomposition_document(decomp):
    return {"u": decomp.u.tolist(), "eigenvalues": decomp.lam.tolist(),
            "proj_targets": decomp.proj_targets.tolist(), "n": decomp.n,
            "trace_phi_sq": decomp.trace_phi_sq}


def _read_decomposition(doc, p):
    # decompose keeps eigh's Fortran order; the same layout makes products
    # with u, and so predictions, bit-identical after a reload
    return lr.FeatureDecomposition(
        _read(doc, "u", (p, p), order="F"), _read(doc, "eigenvalues", (p,)),
        _read(doc, "proj_targets", (p,)), _read(doc, "n"), _read(doc, "trace_phi_sq"))


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
        "surrogate_noise_policy": {"kind": "dirichlet-lognormal", "alpha_eps": clf.alpha_eps,
                                   "composition": "added-to-learned-noise"},
        "per_class": [{"sigma_f_sq": float(clf.sigma_f_sq[c]),
                       "sigma_xi_sq": float(clf.sigma_xi_sq[c]),
                       "cache": _decomposition_document(clf.caches[c])}
                      for c in range(clf.num_classes)],
        "normalization": clf.train_inputs_stats,
        "label_map": ({str(k): int(v) for k, v in clf.label_map.items()}
                      if clf.label_map else None),
    }


def _classifier_fields(doc, p):
    per_class = doc["per_class"]
    if _read(doc, "num_classes") != len(per_class):
        raise DataError(f"num_classes is {doc['num_classes']}, but per_class "
                        f"holds {len(per_class)} classes")
    label_map = doc.get("label_map")
    return {
        "sigma_f_sq": np.array([_read(entry, "sigma_f_sq") for entry in per_class]),
        "sigma_xi_sq": np.array([_read(entry, "sigma_xi_sq") for entry in per_class]),
        "caches": [_read_decomposition(entry["cache"], p) for entry in per_class],
        "alpha_eps": _read(doc["surrogate_noise_policy"], "alpha_eps"),
        "temperature": _read(doc, "temperature"),
        "label_map": (None if label_map is None else
                      {float(k): int(_read(label_map, k)) for k in label_map}),
    }


# per task: the document of a model, and its constructor's fields from one
_TASKS = {"regression": (_regression_document, _regression_fields),
          "classification": (_classifier_document, _classifier_fields)}


def save(model, path):
    """Write the model to path under its class's task; a NaN or infinity
    fails here and the partial file is removed, so a bad model is never
    saved."""
    doc = {"schema": SCHEMA, "task": model.task,
           "feature_map": feature_map_document(model.feature_map),
           **_TASKS[model.task][0](model)}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            # one dumps call runs CPython's C encoder; json.dump streams
            # through the pure-Python one, for the same bytes
            fh.write(json.dumps(doc, allow_nan=False))
    except ValueError as exc:
        os.remove(path)
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
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an over-long integer
        raise DataError(f"model {path} is not valid JSON: {exc}") from None
    try:
        if doc.get("schema") != SCHEMA:
            raise DataError(f"unrecognized model schema {doc.get('schema')!r}")
        task = doc.get("task")
        if task not in builders:
            raise DataError(f"expected a {' or '.join(builders)} model, got task {task!r}")
        stats = doc.get("normalization")
        if not isinstance(stats, (dict, type(None))):
            raise DataError("model normalization must be an object or null")
        for key in stats or ():  # checked, but kept as stored for the re-save
            _read(stats, key, np.shape(stats[key]))
        fmap = read_feature_map(doc["feature_map"])
        return builders[task](feature_map=fmap, train_inputs_stats=stats,
                              **_TASKS[task][1](doc, fmap.output_dim))
    except (FmgpError, LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"bad model file {path}: {detail}") from None
