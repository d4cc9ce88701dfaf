"""Print one JSON line of digests of fmgp's outputs, for proving that a
change leaves them bit for bit as they were:

    git archive <base> | tar -x -C <dir>
    python tests/fingerprint.py --src <dir>/src
    python tests/fingerprint.py --src src

The two lines are equal exactly when every digest is.  It covers a small
regression fit on a product map built by the CLI (training trace,
predictions, model.json before and after recalibration, predictions after
reloading model.json), a small additive-map fit built by the CLI
(model.json, predictions after reloading it), a small 4-class classifier
fit (trace, fitted temperature at 64 samples, two full blocks, and at
100, three full blocks and a partial one, probabilities, ECE and its bin
counts, model.json, probabilities after reloading it), the six
oracle_check.run_all(seed=2) errors, the two Hadamard-product slacks, the
spectra.csv of a two-seed decay experiment over one kernel of each of the
seven kinds (its values are the eigenvalues), and the features of a 6-512-512-64 layer-norm, unit-rescaled map at 1000 rows,
the default map's prediction shape, whose hidden layers span eight row
tiles each (every fit above runs its hidden layers in one tile).
Floats are printed as float hex; arrays and files as the first 16 hex
digits of their SHA-256.  BLAS runs on one thread, so that its rounding
does not depend on the machine's core count.

When a change moves outputs by rounding, --values prints the same keys,
each with the list of its underlying floats as float hex (a model file's
are its numbers in document order), and --against compares them with a
saved --values line, printing per key the largest relative move
|a - b| / max(|a|, |b|):

    python tests/fingerprint.py --src <dir>/src --values > base.json
    python tests/fingerprint.py --src src --against base.json
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import warnings

KEYS = ("regression_trace", "regression_mean", "regression_variance",
        "regression_model_json", "recalibrated_model_json", "recalibrated_variance",
        "reloaded_prediction", "additive_model_json", "additive_reloaded_prediction",
        "classifier_trace", "classifier_model_json", "temperature", "temperature_100_samples",
        "probabilities", "reloaded_probabilities", "ece", "ece_bin_counts", "oracle_max_err",
        "hadamard_partial", "hadamard_tail", "spectra", "tiled_forward")


# Each key of out holds (digest, values): its digest as printed by default,
# and its underlying floats as float hex, printed by --values.

def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _hexes(values):
    import numpy as np
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=np.float64))]


def _array(values):
    import numpy as np
    return (_digest(np.ascontiguousarray(values, dtype="<f8").tobytes()), _hexes(values))


def _trace(values):
    return _digest(",".join(float(v).hex() for v in values).encode()), _hexes(values)


def _scalar(value):
    return float(value).hex(), _hexes(value)


def _numbers(doc):
    """Every number of a JSON document, in document order."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [number for item in doc for number in _numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def _saved(save, load, model, tmp):
    """The model file that save writes for model, as (digest, values), and
    the model that load reads back from it."""
    path = os.path.join(tmp, "model.json")
    save(model, path)
    with open(path, "rb") as fh:
        data = fh.read()
    return (_digest(data), _hexes(_numbers(json.loads(data)))), load(path)


def _prediction(pred):
    # the mean, then the latent and the observation variance
    import numpy as np
    return _array(np.stack([pred.mean, pred.variance, pred.observation_variance]))


def _regression(out, tmp):
    from fmgp import cli, regression as reg
    config = cli.RunConfig({
        "composition": {"kind": "product", "output_dims": [3, 4]},
        "architecture": {"hidden_widths": [16, 16]},
        "training": {"iterations": 25, "subset_size": 200, "num_subsets": 2, "seed": 3},
        "data": {"kind": "synth_gp", "n": 400, "d": 2, "test_n": 60, "recal_n": 60}})
    ds = cli.build_dataset(config)
    model = reg.fit(ds, config.fit, feature_map=cli.build_feature_map(config, 2))
    X_test, _ = ds.subset_arrays("test")
    pred = reg.predict(model, X_test)
    recal = reg.recalibrate(model, *ds.subset_arrays("recalibration"))
    model_json, reloaded = _saved(reg.save_model, reg.load_model, model, tmp)
    out.update(regression_trace=_trace(model.training_trace),
               regression_mean=_array(pred.mean),
               regression_variance=_array(pred.variance),
               regression_model_json=model_json,
               recalibrated_model_json=_saved(reg.save_model, reg.load_model, recal, tmp)[0],
               recalibrated_variance=_array(reg.predict(recal, X_test).observation_variance),
               reloaded_prediction=_prediction(reg.predict(reloaded, X_test)))


def _additive(out, tmp):
    from fmgp import cli, regression as reg
    config = cli.RunConfig({
        "composition": {"kind": "additive", "output_dims": [3, 2]},
        "architecture": {"hidden_widths": [8]},
        "training": {"iterations": 10, "subset_size": 100, "seed": 4},
        "data": {"kind": "synth_manifold", "n": 200, "d_ambient": 3, "test_n": 40,
                 "recal_n": 0}})
    ds = cli.build_dataset(config)
    model = reg.fit(ds, config.fit, feature_map=cli.build_feature_map(config, 3))
    model_json, reloaded = _saved(reg.save_model, reg.load_model, model, tmp)
    out.update(additive_model_json=model_json, additive_reloaded_prediction=_prediction(
        reg.predict(reloaded, ds.subset_arrays("test")[0])))


def _classifier(out, tmp):
    from fmgp import classification as cls, data as dt
    ds = dt.prepare(dt.synth_blobs(600, num_classes=4, d=2, separation=3.0, seed=5),
                    seed=5, test_n=100, recal_n=100)
    clf = cls.fit_classifier(ds, cls.ClassifierConfig(
        hidden_widths=(24, 24), output_dim=8, iterations=30, seed=6))
    holdout = ds.subset_arrays("recalibration")
    temperature = cls.fit_temperature(clf, *holdout, num_samples=64, seed=7)
    X_test, y_test = ds.subset_arrays("test")
    probs = cls.predict_proba(clf.with_temperature(temperature), X_test, num_samples=64,
                              seed=8)
    report = cls.compute_ece(probs, y_test)
    model_json, reloaded = _saved(cls.save_classifier, cls.load_classifier, clf, tmp)
    reloaded_probs = cls.predict_proba(reloaded.with_temperature(temperature), X_test,
                                       num_samples=64, seed=8)
    out.update(classifier_trace=_trace(clf.training_trace), classifier_model_json=model_json,
               temperature=_scalar(temperature),
               temperature_100_samples=_scalar(
                   cls.fit_temperature(clf, *holdout, num_samples=100, seed=7)),
               probabilities=_array(probs),
               reloaded_probabilities=_array(reloaded_probs),
               ece=_scalar(report.ece),
               ece_bin_counts=([int(c) for c in report.bin_counts], _hexes(report.bin_counts)))


def _spectral(out, tmp):
    import numpy as np
    from fmgp import oracle_check as oc, spectral as sp
    errors = _hexes([r["max_err"] for r in oc.run_all(seed=2)])
    out["oracle_max_err"] = (errors, errors)
    X = np.random.default_rng(9).uniform(size=(40, 2))
    k1, k2 = sp.build_gram(sp.ExpKernel(0.4), X), sp.build_gram(sp.RbfKernel(0.8), X)
    partial, tail = sp.hadamard_slacks(k1, k2)
    out.update(hadamard_partial=_array(partial), hadamard_tail=_array(tail))
    config = sp.DecayConfig(specs=(
        sp.RbfKernel(0.5), sp.ExpKernel(0.4), sp.Matern32Kernel(0.6), sp.PeriodicKernel(0.7, 0.8),
        sp.MlpKernel(hidden_widths=(16,), output_dim=8, seed=1),
        sp.NystromKernel(sp.ExpKernel(0.5), 12, seed=2),
        sp.ProductKernel(sp.RbfKernel(0.9), sp.ExpKernel(0.3))), n=48, seeds=(0, 1))
    reports = sp.decay_experiment(config)
    path = os.path.join(tmp, "spectra.csv")
    sp.write_spectra_csv(reports, path)
    with open(path, "rb") as fh:
        out["spectra"] = (_digest(fh.read()),
                          [value for report in reports for value in _hexes(report.eigenvalues)])


def _tiled_forward(out):
    import numpy as np
    from fmgp import features as ft
    fmap = ft.init_params([6, 512, 512, 64], 10, normalization="layer_norm",
                          rescale_to_unit=True)
    rng = np.random.default_rng(11)
    # biases, gains and offsets away from their initial values
    fmap = fmap.replace_params(fmap.params + 0.1 * rng.standard_normal(fmap.params.size))
    out["tiled_forward"] = _array(ft.forward(fmap, rng.standard_normal((1000, 6))))


def _largest_moves(base, values):
    """Per key, the largest relative move of its floats from base's."""
    import numpy as np
    moves = {}
    for key in KEYS:
        a = np.array([float.fromhex(v) for v in base[key]])
        b = np.array([float.fromhex(v) for v in values[key]])
        if a.shape != b.shape:
            moves[key] = f"{a.size} floats against {b.size}"
            continue
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.abs(a - b) / np.where(scale > 0, scale, 1.0)
        moves[key] = float(rel.max()) if rel.size else 0.0
    return moves


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that holds the fmgp package")
    parser.add_argument("--values", action="store_true",
                        help="print each key's floats as float hex, not its digest")
    parser.add_argument("--against", metavar="FILE",
                        help="print each key's largest relative move from a --values line")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    # set before numpy is first imported, which is why no import above loads it
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, src)
    import fmgp
    if os.path.dirname(os.path.dirname(os.path.abspath(fmgp.__file__))) != src:
        sys.exit(f"fmgp was imported from {fmgp.__file__}, not from {src}")
    out = {}
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore")
        _regression(out, tmp)
        _additive(out, tmp)
        _classifier(out, tmp)
        _spectral(out, tmp)
        _tiled_forward(out)
    values = {key: out[key][1] for key in KEYS}
    if args.against:
        with open(args.against) as fh:
            print(json.dumps(_largest_moves(json.load(fh), values)))
    else:
        print(json.dumps(values if args.values else {key: out[key][0] for key in KEYS}))


if __name__ == "__main__":
    main()
