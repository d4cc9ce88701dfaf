"""Command-line harness: train, eval, spectral, and oracle-check.

Configuration is one JSON file.  Each block of it is read through the
library signature it feeds, which declares the block's keys, defaults
and types: an unknown key, or a value of another JSON type than the
default's, is a ConfigError.  The --seed flag of train and eval
overrides every seed in the config (data split, training, and evaluation
sampling), making reruns reproducible from the command line alone.

Heavy imports are deferred until after FMGP_THREADS is translated into
the BLAS/OpenMP environment variables, which only take effect if set
before numpy first loads.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import math
import os
import sys
import time
import warnings

# errors loads no numpy, so loading it here leaves numpy to the thread cap
from .errors import (ConfigError, DataError, DomainError, FmgpError, NumericError,
                     ShapeError, check_count, read_json)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
# numpy's ValueErrors for an array beyond the address space, raised before allocating
_SIZE_ERRORS = ("Maximum allowed dimension exceeded", "array is too big")

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_thread_cap():
    cap = os.environ.get("FMGP_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"FMGP_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = cap


_TOP_KEYS = {"task", "data", "architecture", "composition", "training",
             "recalibration", "classification", "spectral", "output_dir"}
_ARCH_KEYS = {"hidden_widths", "output_dim", "normalization", "rescale_to_unit"}
_SPLIT_KEYS = ("seed", "test_n", "recal_n")
_KERNEL_KEYS = ("kernel", "base", "left", "right")
_JSON_TYPES = {bool: "true or false", int: "a nonnegative integer", float: "a finite number",
               str: "a string", tuple: "a list of nonnegative integers"}


def _object(doc, context):
    """A copy of doc, which must be a JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be a JSON object")
    return dict(doc)


def _require_keys(doc, allowed, context):
    unknown = sorted(set(_object(doc, context)) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}; "
                          f"allowed: {sorted(allowed)}")


def _pop_kind(doc, kinds, context, default=None):
    """(kind, the other keys) of a JSON object whose kind is one of kinds."""
    rest = _object(doc, context)
    kind = rest.pop("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {context} kind {kind!r}; allowed: {sorted(kinds)}")
    return kind, rest


def _typed(value, default, context):
    """value, which must have the JSON type of default: an integer also
    passes for a float, and a list of integers becomes a tuple.  Every
    integer of a config is a count or a seed, so none may be negative,
    and every float must be finite."""
    kind = type(default)
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    elif kind is tuple and type(value) is list and all(type(v) is int for v in value):
        value = tuple(value)
    if (type(value) is not kind or kind is int and value < 0
            or kind is float and not math.isfinite(value)
            or kind is tuple and min(value, default=0) < 0):
        raise ConfigError(f"{context} must be {_JSON_TYPES[kind]}, "
                          f"got {json.dumps(value)}")
    return value


def _read_block(block, factory, context, skip=()):
    """Keyword arguments for factory from the config block named context.

    The signature of factory is the block's schema: each key must name
    one of its parameters outside skip, and each value must have the
    JSON type of that parameter's default (see _typed).  The
    kernel-valued parameters are read as kernel specs.
    """
    params = inspect.signature(factory).parameters
    _require_keys(block, set(params) - set(skip), context)
    return {key: (kernel_spec_from_json(value, f"{context}.{key}") if key in _KERNEL_KEYS
                  else _typed(value, params[key].default, f"{context}.{key}"))
            for key, value in block.items()}


def kernel_spec_from_json(doc, context):
    """Declarative kernel description to a spectral-module kernel spec: a
    kind plus keyword arguments of that kind's dataclass."""
    from . import spectral as sp
    kinds = {"rbf": sp.RbfKernel, "exp": sp.ExpKernel, "matern32": sp.Matern32Kernel,
             "periodic": sp.PeriodicKernel, "mlp": sp.MlpKernel,
             "nystrom": sp.NystromKernel, "product": sp.ProductKernel}
    kind, rest = _pop_kind(doc, kinds, context)
    return kinds[kind](**_read_block(rest, kinds[kind], context))


class RunConfig:
    """Validated run description shared by the train, eval and spectral
    commands.

    Each block is read through the signature it feeds (_read_block), so
    the library declares its keys, defaults and types: architecture and
    training through regression.FitConfig, classification through
    classification.ClassifierConfig, data through data.prepare and the
    generator of its kind, spectral through spectral.DecayConfig.
    """

    def __init__(self, doc, seed_override=None):
        from . import classification as cls
        from . import data as dt
        from . import features as ft
        from . import regression as reg
        from . import spectral as sp
        _require_keys(doc, _TOP_KEYS, "config")
        self.task = doc.get("task", "regression")
        if self.task not in ("regression", "classification"):
            raise ConfigError(f"unknown task {self.task!r}")
        self.composition, composition = _pop_kind(doc.get("composition", {}),
                                                  ("single", *ft.COMPOSITIONS),
                                                  "composition", default="single")
        _require_keys(composition, {"output_dims"}, "composition")
        dims = self.output_dims = composition.get("output_dims")
        if dims is not None and len(_typed(dims, (), "composition.output_dims")) != 2:
            raise ConfigError("output_dims must be two positive integers")
        check_count(ConfigError, **{f"composition.output_dims[{i}]": dim
                                    for i, dim in enumerate(dims or ())})

        fit_params = inspect.signature(reg.FitConfig).parameters
        fields = {**_read_block(doc.get("architecture", {}), reg.FitConfig,
                                "architecture", skip=set(fit_params) - _ARCH_KEYS),
                  **_read_block(doc.get("training", {}), reg.FitConfig, "training",
                                skip=_ARCH_KEYS)}
        classification = _object(doc.get("classification", {}), "classification")
        self.classification = {
            key: _typed(classification.pop(key, default), default,
                        f"classification.{key}")
            for key, default in (("num_samples", cls.DEFAULT_NUM_SAMPLES),
                                 ("ece_bins", cls.DEFAULT_ECE_BINS),
                                 ("fit_temperature", True))}
        check_count(ConfigError, **{f"classification.{key}": self.classification[key]
                                    for key in ("num_samples", "ece_bins")})
        cls_fields = _read_block(classification, cls.ClassifierConfig,
                                 "classification", skip=fit_params)

        sources = {"csv": self._load_csv, "synth_gp": dt.synth_gp_sample,
                   "synth_manifold": dt.synth_manifold, "synth_blobs": dt.synth_blobs}
        kind, data = _pop_kind(doc.get("data", {}), sources, "data", default="csv")
        _require_keys(data, {*inspect.signature(sources[kind]).parameters, *_SPLIT_KEYS},
                      "data")
        if self.task == "classification" and kind not in ("csv", "synth_blobs"):
            raise ConfigError(f"data kind {kind!r} produces regression targets")
        # the split keys feed data.prepare, the seed also the generator
        split = {key: data.pop(key) for key in _SPLIT_KEYS if key in data}
        self.split = _read_block(split, dt.prepare, "data")
        if seed_override is not None:
            self.split["seed"] = fields["seed"] = _typed(seed_override, 0, "--seed")
        if kind != "csv" and "seed" in self.split:
            data["seed"] = self.split["seed"]
        self.source = functools.partial(sources[kind],
                                        **_read_block(data, sources[kind], "data"))
        self.fit = (reg.FitConfig(**fields) if self.task == "regression"
                    else cls.ClassifierConfig(**fields, **cls_fields))

        spectral = _object(doc.get("spectral", {}), "spectral")
        kernels = spectral.pop("kernels", [])
        if not isinstance(kernels, list):
            raise ConfigError("spectral.kernels must be a list of kernel specs")
        self.decay = sp.DecayConfig(
            specs=tuple(kernel_spec_from_json(k, f"spectral.kernels[{i}]")
                        for i, k in enumerate(kernels)),
            **_read_block(spectral, sp.DecayConfig, "spectral", skip={"specs"}))
        self.recalibration = _typed(doc.get("recalibration", True), True, "recalibration")
        self.output_dir = _typed(doc.get("output_dir", "."), ".", "output_dir")

    def _load_csv(self, path=""):
        """The csv data source: the table at path, parsed for the task."""
        from . import data as dt
        if not path:
            raise ConfigError("data.kind=csv requires data.path")
        return dt.load_csv(path, task=self.task)


def build_dataset(config):
    """Dataset described by the config's data block, split and whitened."""
    from . import data as dt
    return dt.prepare(config.source(), **config.split)


def build_feature_map(config, input_dim):
    """None for the single composition (fit builds its own); otherwise a
    prebuilt pair of freshly initialized maps, of the composition's kind."""
    from . import features as ft
    if config.composition == "single":
        return None
    arch = config.fit
    dims = config.output_dims or [max(1, arch.output_dim // 2)] * 2
    maps = [ft.init_params([input_dim, *arch.hidden_widths, int(dims[i])], arch.seed + i,
                           normalization=arch.normalization,
                           rescale_to_unit=arch.rescale_to_unit) for i in range(2)]
    return ft.COMPOSITIONS[config.composition](*maps)


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
    from . import classification as cls
    from . import model_file as mf
    from . import regression as reg

    dataset = build_dataset(config)
    fmap = build_feature_map(config, dataset.X.shape[1])
    has_recal = dataset.split["recalibration"].size > 0
    started = time.perf_counter()
    if config.task == "regression":
        model = reg.fit(dataset, config.fit, feature_map=fmap)
        if config.recalibration and has_recal:
            X_cal, y_cal = dataset.subset_arrays("recalibration")
            model = reg.recalibrate(model, X_cal, y_cal)
    else:
        model = cls.fit_classifier(dataset, config.fit, feature_map=fmap)
        if config.classification["fit_temperature"] and has_recal:
            X_cal, y_cal = dataset.subset_arrays("recalibration")
            model = model.with_temperature(cls.fit_temperature(
                model, X_cal, y_cal, config.classification["num_samples"], seed=config.fit.seed))
    train_time = time.perf_counter() - started
    trace = model.training_trace or []
    mf.save(model, os.path.join(out_dir, "model.json"))
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
    from . import model_file as mf
    from . import regression as reg

    model = mf.load(model_path, reg.GpModel, cls.DirichletClassifier)
    task = model.task
    if task != config.task:
        raise ConfigError(f"model {model_path} is a {task} model, "
                          f"but the config's task is {config.task}")
    dataset = build_dataset(config)
    X_test, y_test = dataset.subset_arrays("test")
    if X_test.shape[0] == 0:
        raise DataError("test split is empty")

    metrics = {"task": task, "n_test": int(X_test.shape[0])}
    if model.feature_map.input_dim != X_test.shape[1]:
        raise ConfigError(f"model expects {model.feature_map.input_dim} "
                          f"features, data has {X_test.shape[1]}")
    # a shifted CSV or another split seed changes the whitening statistics;
    # a stored block must hold every one of them
    stored, current = model.train_inputs_stats, dataset.stats_dict()
    for key in current if stored else ():
        if stored.get(key) != current[key]:
            raise DataError(f"eval data normalization differs from the model's "
                            f"in {key!r}: check data.path and the split seed")
    # a renamed raw label would be scored as the class its index had in training
    if task == "classification" and model.label_map not in (None, dataset.label_map):
        raise DataError("eval data label_map differs from the model's: check data.path")
    if task == "regression":
        started = time.perf_counter()
        pred = reg.predict(model, X_test)
        elapsed = time.perf_counter() - started
        metrics["mse"] = float(np.mean((pred.mean - y_test) ** 2))
        metrics["mean_nll"] = reg.mean_nll(pred, y_test)
    else:
        started = time.perf_counter()
        probs = cls.predict_proba(model, X_test,
                                  num_samples=config.classification["num_samples"],
                                  seed=config.fit.seed)
        elapsed = time.perf_counter() - started
        metrics["error_rate"] = float(np.mean(probs.argmax(axis=1) != y_test))
        metrics["ece"] = cls.compute_ece(probs, y_test,
                                         config.classification["ece_bins"]).ece
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

    reports = sp.decay_experiment(config.decay)
    path = os.path.join(out_dir, "spectra.csv")
    sp.write_spectra_csv(reports, path)
    print(f"wrote {sum(r.eigenvalues.size for r in reports)} eigenvalues "
          f"for {len(reports)} spectra to {path}")
    return reports


def cmd_oracle_check(seed):
    """Dense-oracle equivalence batteries; nonzero exit on any failure."""
    from . import oracle_check as oc

    reports = oc.run_all(seed=seed)
    for report in reports:
        status = "PASS" if report["passed"] else "FAIL"
        variance = (f", var_max_err={report['var_max_err']:.3e} "
                    f"var_tol={report['var_tol']:.1e}" if "var_tol" in report else "")
        print(f"{status} {report['name']}: max_err={report['max_err']:.3e} "
              f"tol={report['tol']:.1e}{variance} ({report['instances']} instances)")
    if not all(report["passed"] for report in reports):
        raise NumericError("one or more oracle batteries exceeded tolerance")
    return reports


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, in one JSON line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser():
    parser = _ArgumentParser(
        prog="fmgp",
        description="Train, evaluate, and analyze feature-map GP models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output_dir)")
        return p

    train_p = common(sub.add_parser("train", help="fit a model and save it"))
    eval_p = common(sub.add_parser("eval", help="compute test metrics for a model"))
    eval_p.add_argument("--model", required=True, help="path to model JSON")
    for p in (train_p, eval_p):
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config: the data split, "
                            "training and evaluation sampling seeds")
    common(sub.add_parser("spectral", help="kernel eigenvalue-decay report"))
    sub.add_parser("oracle-check", help="run dense-oracle equivalence batteries").add_argument(
        "--seed", type=int, default=0, help="seed of the batteries' random instances")
    return parser


def main(argv=None):
    # an error prints one JSON line on stderr, so warnings (numpy overflow
    # in a diverging fit, say) are shown only when the command succeeds
    with warnings.catch_warnings(record=True) as caught:
        code = _run(argv)
    if code == 0:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(argv):
    try:
        _apply_thread_cap()
        args = _build_parser().parse_args(argv)
        if args.command == "oracle-check":
            cmd_oracle_check(seed=_typed(args.seed, 0, "--seed"))
            return 0
        config = RunConfig(read_json(args.config, ConfigError, "config"),
                           getattr(args, "seed", None))
        out_dir = args.out or config.output_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "train":
            cmd_train(config, out_dir)
        elif args.command == "eval":
            cmd_eval(args.model, config, out_dir)
        elif args.command == "spectral":
            cmd_spectral(config, out_dir)
        return 0
    except (FmgpError, MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_SIZE_ERRORS):
            raise
        if not isinstance(exc, FmgpError):
            exc = ConfigError(f"a configured size cannot be allocated: {exc}")
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        if isinstance(exc, (ConfigError, ShapeError, DomainError)):
            return EXIT_CONFIG
        if isinstance(exc, DataError):
            return EXIT_DATA
        if isinstance(exc, NumericError):
            return EXIT_NUMERIC
        return 1


if __name__ == "__main__":
    sys.exit(main())
