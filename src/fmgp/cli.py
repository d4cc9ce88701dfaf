"""Command-line harness: train, eval, spectral, and oracle-check.

Configuration is one JSON file; unknown keys anywhere in it are
rejected.  The --seed flag overrides every seed in the config (data
split, training, and evaluation sampling), making reruns reproducible
from the command line alone.

Heavy imports are deferred until after FMGP_THREADS is translated into
the BLAS/OpenMP environment variables, which only take effect if set
before numpy first loads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_thread_cap():
    cap = os.environ.get("FMGP_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        from .errors import ConfigError
        raise ConfigError(f"FMGP_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = cap


def _require_keys(doc, allowed, context):
    from .errors import ConfigError
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}; "
                          f"allowed: {sorted(allowed)}")


def kernel_spec_from_json(doc):
    """Declarative kernel description to a spectral-module kernel spec."""
    from . import spectral as sp
    from .errors import ConfigError
    _require_keys(doc, {"kind", "lengthscale", "period", "hidden_widths",
                        "output_dim", "seed", "normalization", "rescale_to_unit",
                        "base", "num_landmarks", "left", "right"}, "kernel spec")
    kind = doc.get("kind")
    if kind == "rbf":
        return sp.RbfKernel(doc.get("lengthscale", 1.0))
    if kind == "exp":
        return sp.ExpKernel(doc.get("lengthscale", 1.0))
    if kind == "matern32":
        return sp.Matern32Kernel(doc.get("lengthscale", 1.0))
    if kind == "periodic":
        return sp.PeriodicKernel(doc.get("period", 1.0), doc.get("lengthscale", 1.0))
    if kind == "mlp":
        return sp.MlpKernel(tuple(doc.get("hidden_widths", (64,))),
                            doc.get("output_dim", 16), doc.get("seed", 0),
                            doc.get("normalization", "layer_norm"),
                            doc.get("rescale_to_unit", True))
    if kind == "nystrom":
        return sp.NystromKernel(kernel_spec_from_json(doc.get("base", {"kind": "exp"})),
                                doc.get("num_landmarks", 64), doc.get("seed", 0))
    if kind == "product":
        return sp.ProductKernel(kernel_spec_from_json(doc["left"]),
                                kernel_spec_from_json(doc["right"]))
    raise ConfigError(f"unknown kernel kind {kind!r}")


_TOP_KEYS = {"task", "data", "architecture", "composition", "training",
             "recalibration", "classification", "spectral", "output_dir"}
_DATA_KEYS = {"kind", "path", "test_n", "recal_n", "seed", "kernel", "n", "d",
              "noise_sd", "latent_kind", "d_ambient", "eps", "num_classes",
              "separation"}
_ARCH_KEYS = {"hidden_widths", "output_dim", "normalization", "rescale_to_unit"}
_COMP_KEYS = {"kind", "output_dims"}
_TRAIN_KEYS = {"iterations", "num_subsets", "subset_size", "learning_rate",
               "seed", "init_sigma_f_sq", "init_sigma_xi_sq"}
_CLS_KEYS = {"alpha_eps", "num_samples", "ece_bins", "fit_temperature"}
_SPECTRAL_KEYS = {"kernels", "n", "d", "seeds"}


class RunConfig:
    """Validated run description shared by the train and eval commands."""

    def __init__(self, doc, seed_override=None):
        from .errors import ConfigError
        _require_keys(doc, _TOP_KEYS, "config")
        self.task = doc.get("task", "regression")
        if self.task not in ("regression", "classification"):
            raise ConfigError(f"unknown task {self.task!r}")
        self.data = dict(doc.get("data", {}))
        _require_keys(self.data, _DATA_KEYS, "data")
        self.architecture = dict(doc.get("architecture", {}))
        _require_keys(self.architecture, _ARCH_KEYS, "architecture")
        self.composition = dict(doc.get("composition", {"kind": "single"}))
        _require_keys(self.composition, _COMP_KEYS, "composition")
        if self.composition.get("kind", "single") not in ("single", "product",
                                                          "additive"):
            raise ConfigError(f"unknown composition kind "
                              f"{self.composition.get('kind')!r}")
        self.training = dict(doc.get("training", {}))
        _require_keys(self.training, _TRAIN_KEYS, "training")
        self.recalibration = bool(doc.get("recalibration", True))
        self.classification = dict(doc.get("classification", {}))
        _require_keys(self.classification, _CLS_KEYS, "classification")
        self.spectral = dict(doc.get("spectral", {}))
        _require_keys(self.spectral, _SPECTRAL_KEYS, "spectral")
        self.output_dir = doc.get("output_dir", ".")
        if seed_override is not None:
            self.data["seed"] = seed_override
            self.training["seed"] = seed_override
        self._validate_values()

    def _validate_values(self):
        from .errors import ConfigError
        arch = self.architecture
        if "output_dim" in arch and arch["output_dim"] < 1:
            raise ConfigError(f"output_dim must be positive, "
                              f"got {arch['output_dim']}")
        if any(w < 1 for w in arch.get("hidden_widths", [])):
            raise ConfigError("hidden widths must be positive")
        tr = self.training
        for key in ("iterations", "num_subsets", "subset_size"):
            if key in tr and tr[key] < 0:
                raise ConfigError(f"{key} must be nonnegative, got {tr[key]}")
        if "learning_rate" in tr and not tr["learning_rate"] > 0:
            raise ConfigError("learning_rate must be positive")
        dims = self.composition.get("output_dims")
        if dims is not None:
            if len(dims) != 2 or any(p < 1 for p in dims):
                raise ConfigError("output_dims must be two positive integers")

    @property
    def seed(self):
        return int(self.training.get("seed", 0))


def load_config(path, seed_override=None):
    from .errors import ConfigError
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return RunConfig(doc, seed_override)


def build_dataset(config):
    """Dataset described by the config's data block, split and whitened."""
    from . import data as dt
    from .errors import ConfigError
    spec = config.data
    kind = spec.get("kind", "csv")
    seed = int(spec.get("seed", 0))
    test_n = int(spec.get("test_n", dt.TEST_N_DEFAULT))
    recal_n = int(spec.get("recal_n", dt.RECAL_N_DEFAULT))
    if kind == "csv":
        path = spec.get("path")
        if not path:
            raise ConfigError("data.kind=csv requires data.path")
        raw = dt.load_csv(path, task=config.task)
    elif kind == "synth_gp":
        kernel = kernel_spec_from_json(spec.get("kernel", {"kind": "exp"}))
        raw = dt.synth_gp_sample(kernel, int(spec.get("n", 2000)),
                                 int(spec.get("d", 1)),
                                 float(spec.get("noise_sd", 0.1)), seed=seed)
    elif kind == "synth_manifold":
        raw = dt.synth_manifold(int(spec.get("n", 2000)),
                                spec.get("latent_kind", "circle"),
                                int(spec.get("d_ambient", 16)),
                                float(spec.get("eps", 0.1)),
                                float(spec.get("noise_sd", 0.1)), seed=seed)
    elif kind == "synth_blobs":
        raw = dt.synth_blobs(int(spec.get("n", 4000)),
                             int(spec.get("num_classes", 2)),
                             int(spec.get("d", 2)),
                             float(spec.get("separation", 4.0)), seed=seed)
    else:
        raise ConfigError(f"unknown data kind {kind!r}")
    if kind != "csv" and config.task == "classification" and kind != "synth_blobs":
        raise ConfigError(f"data kind {kind!r} produces regression targets")
    return dt.prepare(raw, seed=seed, test_n=test_n, recal_n=recal_n)


def build_feature_map(config, input_dim):
    """None for the single composition (fit builds its own); otherwise a
    prebuilt product or additive pair of freshly initialized maps."""
    from . import features as ft
    kind = config.composition.get("kind", "single")
    if kind == "single":
        return None
    arch = _fit_config(config)
    dims = config.composition.get("output_dims") or [max(1, arch.output_dim // 2)] * 2
    left = ft.init_params([input_dim, *arch.hidden_widths, int(dims[0])], arch.seed,
                          normalization=arch.normalization,
                          rescale_to_unit=arch.rescale_to_unit)
    right = ft.init_params([input_dim, *arch.hidden_widths, int(dims[1])], arch.seed + 1,
                           normalization=arch.normalization,
                           rescale_to_unit=arch.rescale_to_unit)
    if kind == "product":
        return ft.ProductFeatureMap(left, right)
    return ft.AdditiveFeatureMap(left, right)


def _fit_config(config):
    """The training config of the run: FitConfig, or ClassifierConfig for
    classification, with each architecture, training and classification
    key converted to the type of its field's default."""
    from . import classification as cls
    from . import regression as reg
    config_class = reg.FitConfig if config.task == "regression" else cls.ClassifierConfig
    given = {**config.architecture, **config.training, **config.classification}
    return config_class(**{f.name: type(f.default)(given[f.name])
                           for f in dataclasses.fields(config_class) if f.name in given})


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss"])
        for i, loss in enumerate(trace):
            writer.writerow([i, repr(float(loss))])


def cmd_train(config, out_dir):
    """Fit per the config; write model JSON, loss trace, train metrics."""
    import numpy as np

    from . import classification as cls
    from . import regression as reg

    dataset = build_dataset(config)
    fmap = build_feature_map(config, dataset.X.shape[1])
    has_recal = dataset.split["recalibration"].size > 0
    started = time.perf_counter()
    if config.task == "regression":
        model = reg.fit(dataset, _fit_config(config), feature_map=fmap)
        if config.recalibration and has_recal:
            X_cal, y_cal = dataset.subset_arrays("recalibration")
            model = reg.recalibrate(model, X_cal, y_cal.astype(np.float64))
        save = reg.save_model
    else:
        model = cls.fit_classifier(dataset, _fit_config(config), feature_map=fmap)
        if config.classification.get("fit_temperature", True) and has_recal:
            X_cal, y_cal = dataset.subset_arrays("recalibration")
            model = model.with_temperature(
                cls.fit_temperature(model, X_cal, y_cal, seed=config.seed))
        save = cls.save_classifier
    train_time = time.perf_counter() - started
    trace = model.training_trace or []
    save(model, os.path.join(out_dir, "model.json"))
    _write_trace_csv(os.path.join(out_dir, "training_trace.csv"), trace)
    metrics = {
        "task": config.task,
        "n_train": int(dataset.split["train"].size),
        "iterations": len(trace),
        "final_loss": float(trace[-1]) if trace else None,
        "timings": {"train_s": train_time},
    }
    _write_json(os.path.join(out_dir, "train_metrics.json"), metrics)
    print(f"trained {config.task} model: {metrics['n_train']} points, "
          f"{metrics['iterations']} iterations, {train_time:.2f}s")
    return metrics


def cmd_eval(model_path, config, out_dir):
    """Test-split metrics for a saved model; timing covers predict only."""
    import numpy as np

    from . import classification as cls
    from . import regression as reg
    from .errors import ConfigError, DataError

    doc = reg.read_model_file(model_path)
    dataset = build_dataset(config)
    X_test, y_test = dataset.subset_arrays("test")
    if X_test.shape[0] == 0:
        raise DataError("test split is empty")

    task = doc.get("task", "regression")
    metrics = {"task": task, "n_test": int(X_test.shape[0])}
    model = (reg.model_from_json_dict(doc) if task == "regression"
             else cls.classifier_from_json_dict(doc))
    if model.feature_map.input_dim != X_test.shape[1]:
        raise ConfigError(f"model expects {model.feature_map.input_dim} "
                          f"features, data has {X_test.shape[1]}")
    # a shifted CSV or another split seed changes the whitening statistics
    stored, current = doc.get("normalization"), dataset.stats_dict()
    for key in stored or ():
        if stored[key] != current.get(key):
            raise DataError(f"eval data normalization differs from the model's "
                            f"in {key!r}: check data.path and the split seed")
    if task == "regression":
        started = time.perf_counter()
        pred = reg.predict(model, X_test)
        elapsed = time.perf_counter() - started
        y_test = y_test.astype(np.float64)
        metrics["mse"] = float(np.mean((pred.mean - y_test) ** 2))
        metrics["mean_nll"] = reg.mean_nll(pred, y_test)
    else:
        num_samples = int(config.classification.get("num_samples",
                                                    cls.DEFAULT_NUM_SAMPLES))
        ece_bins = int(config.classification.get("ece_bins",
                                                 cls.DEFAULT_ECE_BINS))
        started = time.perf_counter()
        probs = cls.predict_proba(model, X_test, num_samples=num_samples,
                                  seed=config.seed)
        elapsed = time.perf_counter() - started
        labels = y_test.astype(np.int64)
        metrics["error_rate"] = float(np.mean(probs.argmax(axis=1) != labels))
        metrics["ece"] = cls.compute_ece(probs, labels, ece_bins).ece
        metrics["temperature"] = model.temperature
    metrics["timings"] = {"predict_s": elapsed,
                          "per_point_s": elapsed / X_test.shape[0]}
    _write_json(os.path.join(out_dir, "metrics.json"), metrics)
    summary = {k: v for k, v in metrics.items() if k != "timings"}
    print(json.dumps(summary, sort_keys=True))
    return metrics


def cmd_spectral(config, out_dir):
    """Eigenvalue-decay experiment over the configured kernel zoo."""
    from . import spectral as sp
    from .errors import ConfigError

    block = config.spectral
    kernel_docs = block.get("kernels")
    if not kernel_docs:
        raise ConfigError("spectral config needs a nonempty kernels list")
    specs = tuple(kernel_spec_from_json(doc) for doc in kernel_docs)
    decay = sp.DecayConfig(specs=specs, n=int(block.get("n", sp.DEFAULT_SPECTRUM_N)),
                           d=int(block.get("d", sp.DEFAULT_SPECTRUM_D)),
                           seeds=tuple(block.get("seeds", (0,))))
    reports = sp.decay_experiment(decay)
    path = os.path.join(out_dir, "spectra.csv")
    sp.write_spectra_csv(reports, path)
    print(f"wrote {sum(r.eigenvalues.size for r in reports)} eigenvalues "
          f"for {len(reports)} spectra to {path}")
    return reports


def cmd_oracle_check(seed=0, perturb_top_eigenvalue=0.0):
    """Dense-oracle equivalence batteries; nonzero exit on any failure."""
    from . import oracle_check as oc

    reports = oc.run_all(seed=seed, perturb_top_eigenvalue=perturb_top_eigenvalue)
    for report in reports:
        status = "PASS" if report["passed"] else "FAIL"
        print(f"{status} {report['name']}: max_err={report['max_err']:.3e} "
              f"tol={report['tol']:.1e} ({report['instances']} instances)")
    if not all(report["passed"] for report in reports):
        from .errors import NumericError
        raise NumericError("one or more oracle batteries exceeded tolerance")
    return reports


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fmgp",
        description="Train, evaluate, and analyze feature-map GP models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output_dir)")

    common(sub.add_parser("train", help="fit a model and save it"))
    eval_p = sub.add_parser("eval", help="compute test metrics for a model")
    eval_p.add_argument("--model", required=True, help="path to model JSON")
    common(eval_p)
    common(sub.add_parser("spectral", help="kernel eigenvalue-decay report"))
    oracle_p = sub.add_parser("oracle-check",
                              help="run dense-oracle equivalence batteries")
    common(oracle_p, config_required=False)
    oracle_p.add_argument("--perturb-top-eigenvalue", type=float, default=0.0,
                          help="test hook: scale the top cached eigenvalue "
                               "by 1+x to verify the batteries detect it")
    return parser


def _resolve_out_dir(args, config):
    out = args.out or (config.output_dir if config else ".")
    os.makedirs(out, exist_ok=True)
    return out


def main(argv=None):
    from .errors import (ConfigError, DataError, DomainError, FmgpError,
                         NumericError, ShapeError)
    try:
        _apply_thread_cap()
        args = _build_parser().parse_args(argv)
        if args.command == "oracle-check":
            config = load_config(args.config, args.seed) if args.config else None
            seed = args.seed if args.seed is not None else (
                config.seed if config else 0)
            cmd_oracle_check(seed=seed,
                             perturb_top_eigenvalue=args.perturb_top_eigenvalue)
            return 0
        config = load_config(args.config, args.seed)
        out_dir = _resolve_out_dir(args, config)
        if args.command == "train":
            cmd_train(config, out_dir)
        elif args.command == "eval":
            cmd_eval(args.model, config, out_dir)
        elif args.command == "spectral":
            cmd_spectral(config, out_dir)
        return 0
    except FmgpError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        if isinstance(exc, (ConfigError, ShapeError, DomainError)):
            return EXIT_CONFIG
        if isinstance(exc, DataError):
            return EXIT_DATA
        if isinstance(exc, NumericError):
            return EXIT_NUMERIC
        return 1


if __name__ == "__main__":
    sys.exit(main())
