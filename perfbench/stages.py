"""The stage process: runs one workload's program stages and times them.

Usage (from run.py, never by hand):

    python3 perfbench/stages.py setup|run SPEC.json OUT_DIR SRC_DIR TRACE

``setup`` stops after the set-up; ``run`` goes on to one fit, one
calibration and the rounds of short stages.  A run starts several of
these processes, because a process keeps a speed of its own for its
whole life (on the reference box predict ran at 26, 31 or 40 ms per call
depending on the process), so medians pooled over processes are steadier
than any number of calls in one.

The process imports nothing numeric before its set-up clock starts, so
``setup_s`` covers importing fmgp (and with it numpy and scipy), parsing
the CSV and preparing the dataset.  Everything the correctness checks
need is written to OUT_DIR: ``result.json`` with timings and digests,
``arrays.npz`` with the first outputs of each stage, and the saved model.
The checks themselves run in the parent process, which never imports
fmgp.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

FMGP_MODULES = ("data", "features", "lowrank", "regression", "classification")


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def set_up(spec, src_dir, tracer):
    """Import fmgp, load the CSV and prepare it; returns (modules, dataset, s)."""
    started = time.perf_counter()
    sys.path.insert(0, src_dir)
    import importlib
    mods = {name: importlib.import_module(f"fmgp.{name}") for name in FMGP_MODULES}
    origin = os.path.realpath(mods["data"].__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"fmgp was imported from {origin}, not from {src_dir}")
    if tracer is not None:
        import spans
        tracer.install(spans.wrap_targets(mods))
    dt = mods["data"]
    raw = dt.load_csv(spec["csv"], task=spec["task"])
    ds = dt.prepare(raw, seed=spec["seed"], test_n=spec["test_n"],
                    recal_n=spec["recal_n"])
    return mods, ds, time.perf_counter() - started


def dataset_summary(ds):
    return {
        "feature_means": ds.feature_means.tolist(),
        "feature_stds": ds.feature_stds.tolist(),
        "target_mean": ds.target_mean,
        "target_std": ds.target_std,
        "label_map": (None if ds.label_map is None
                      else sorted([float(k), int(v)] for k, v in ds.label_map.items())),
        "split_sizes": {k: int(v.size) for k, v in ds.split.items()},
    }


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


class Capture:
    """Untimed, untraced calls whose outputs only feed the checks."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = False

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = True
        return False


def persist(save, load, model, path, result):
    """Save, then load back; the loaded model is what later calls use."""
    t0 = time.perf_counter()
    save(model, path)
    model = load(path)
    result["persist_s"].append(time.perf_counter() - t0)
    result["file_digests"].append(file_digest(path))
    return model


def product_map(ft, spec, d):
    hidden = spec["product"]["hidden_widths"]
    p1, p2 = spec["product"]["output_dims"]
    seed = spec["seed"]
    return ft.ProductFeatureMap(
        ft.init_params([d, *hidden, p1], seed, normalization="layer_norm",
                       rescale_to_unit=True),
        ft.init_params([d, *hidden, p2], seed + 1, normalization="layer_norm",
                       rescale_to_unit=True))


def run_regression(spec, mods, ds, out_dir, tracer, result, arrays):
    ft, reg = mods["features"], mods["regression"]
    fit_kwargs = dict(spec["fit"])
    if "hidden_widths" in fit_kwargs:
        fit_kwargs["hidden_widths"] = tuple(fit_kwargs["hidden_widths"])
    X_cal, y_cal = ds.subset_arrays("recalibration")
    X_test, _ = ds.subset_arrays("test")
    result.update(predict_s=[], persist_s=[], file_digests=[], recal_factors=[])

    def pred_digest(p):
        return digest(p.mean, p.variance, p.observation_variance)

    fmap = product_map(ft, spec, ds.X.shape[1]) if "product" in spec else None
    model, result["train_s"] = timed(reg.fit, ds, reg.FitConfig(**fit_kwargs),
                                     feature_map=fmap)
    with Capture(tracer):
        before = reg.predict(model, X_test)
    current, t = timed(reg.recalibrate, model, X_cal, y_cal)
    result["calibrate_s"] = [t]
    result["first_factor"] = current.sigma_f_sq / model.sigma_f_sq
    with Capture(tracer):
        pred = reg.predict(current, X_test)
    arrays.update(mean_before_recal=before.mean, mean=pred.mean, variance=pred.variance,
                  observation_variance=pred.observation_variance)
    result["predict_digests"] = [pred_digest(pred)]
    path = os.path.join(out_dir, "model.json")
    for _ in range(spec["rounds"]):
        current = persist(reg.save_model, reg.load_model, current, path, result)
        for _ in range(spec["round"]["predict"]):
            pred, t = timed(reg.predict, current, X_test)
            result["predict_s"].append(t)
            result["predict_digests"].append(pred_digest(pred))
        for _ in range(spec["round"]["calibrate"]):
            again, t = timed(reg.recalibrate, current, X_cal, y_cal)
            result["calibrate_s"].append(t)
            result["recal_factors"].append(again.sigma_f_sq / current.sigma_f_sq)


def run_classification(spec, mods, ds, out_dir, tracer, result, arrays):
    cls = mods["classification"]
    fit_kwargs = dict(spec["fit"])
    fit_kwargs["hidden_widths"] = tuple(fit_kwargs["hidden_widths"])
    samples = spec["num_samples"]
    seed = spec["seed"]
    X_cal, y_cal = ds.subset_arrays("recalibration")
    X_test, _ = ds.subset_arrays("test")
    result.update(predict_s=[], persist_s=[], file_digests=[])

    clf, result["train_s"] = timed(cls.fit_classifier, ds,
                                   cls.ClassifierConfig(**fit_kwargs))
    temperature, t = timed(cls.fit_temperature, clf, X_cal, y_cal,
                           num_samples=samples, seed=seed)
    result["calibrate_s"] = [t]
    result["temperature"] = temperature
    current = clf.with_temperature(temperature)
    with Capture(tracer):
        probs = cls.predict_proba(current, X_test, num_samples=samples, seed=seed)
        probs_t1 = cls.predict_proba(current, X_test, num_samples=samples,
                                     seed=seed, temperature=1.0)
        means, variances = cls.class_posteriors(current, X_test)
    arrays.update(probs=probs, probs_t1=probs_t1, post_means=means,
                  post_variances=variances)
    result["predict_digests"] = [digest(probs)]
    path = os.path.join(out_dir, "model.json")
    for _ in range(spec["rounds"]):
        current = persist(cls.save_classifier, cls.load_classifier, current, path, result)
        for _ in range(spec["round"]["predict"]):
            probs, t = timed(cls.predict_proba, current, X_test, num_samples=samples,
                             seed=seed)
            result["predict_s"].append(t)
            result["predict_digests"].append(digest(probs))


def main(argv):
    mode, spec_path, out_dir, src_dir, trace = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer()
    mods, ds, setup_s = set_up(spec, src_dir, tracer)
    result = {"setup_s": setup_s, "dataset": dataset_summary(ds)}
    if mode == "run":
        import numpy as np
        arrays = {k: v for k, v in ds.split.items()}
        if spec["task"] == "regression":
            run_regression(spec, mods, ds, out_dir, tracer, result, arrays)
        else:
            run_classification(spec, mods, ds, out_dir, tracer, result, arrays)
        np.savez(os.path.join(out_dir, "arrays.npz"), **arrays)
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 * 1024 / 1e6)
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
