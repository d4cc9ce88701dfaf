"""Span recording around the library's public functions.

The tracer replaces module attributes (and a few methods) with wrappers
that record one span per call: the metric name, the span that was open
when the call began, start and end times, and the rows the call processed
where that is defined.  Library code that calls these functions through
its module (``ft.forward``, ``reg.predict``, a module-global ``predict``)
reaches the wrappers too, so nested calls become child spans.  Nothing
inside ``src/fmgp`` is changed.

Spans stay in memory; ``summarize`` turns them into per-name call counts,
row counts and self time (span duration minus the time its children
cover).
"""

from __future__ import annotations

import functools
import time


def _rows_of_arg(index):
    def rows(args, kwargs):
        return int(getattr(args[index], "shape", (len(args[index]),))[0])
    return rows


def wrap_targets(fmgp_modules):
    """(owner, attribute, metric name, rows extractor or None) per target.

    ``fmgp_modules`` maps short names to the imported fmgp submodules.
    Methods are wrapped on their class, so ``args[0]`` is ``self``.
    """
    dt = fmgp_modules["data"]
    ft = fmgp_modules["features"]
    lr = fmgp_modules["lowrank"]
    reg = fmgp_modules["regression"]
    cls = fmgp_modules["classification"]
    targets = [
        (dt, "load_csv", "data.load_csv", None),
        (dt, "prepare", "data.prepare", None),
        (ft, "forward", "features.forward", _rows_of_arg(1)),
        (ft, "backward", "features.backward", _rows_of_arg(1)),
        (ft, "adam_step", "features.adam_step", None),
        (lr, "decompose", "lowrank.decompose", None),
        (lr.GramAccumulator, "add", "lowrank.gram_add", _rows_of_arg(1)),
        (lr, "product_features", "lowrank.product_features", None),
    ]
    for map_class in (ft.FeatureMap, ft.ProductFeatureMap, ft.AdditiveFeatureMap):
        targets.append((map_class, "replace_params", "features.replace_params", None))
    for name in ("gaussian_mll_parts", "fit", "build_decomposition", "predict",
                 "recalibrate", "save_model", "load_model"):
        targets.append((reg, name, f"regression.{name}", None))
    for name in ("fit_classifier", "class_posteriors", "fit_temperature",
                 "multinomial_nll", "predict_proba", "save_classifier",
                 "load_classifier"):
        targets.append((cls, name, f"classification.{name}", None))
    return targets


class Tracer:
    """In-memory span recorder.  ``active`` pauses recording when False,
    so the benchmark's own capture calls stay out of the trace."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end, rows]
        self._open = []
        self.active = True

    def install(self, targets):
        for owner, attr, name, rows in targets:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, rows))

    def _wrap(self, func, name, rows):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span = [name, tracer._open[-1] if tracer._open else -1, 0.0, 0.0,
                    rows(args, kwargs) if rows else 0]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._open.pop()
        return traced


def summarize(spans):
    """{name: {"calls", "rows", "self_s"}} from a list of spans."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, rows in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, parent, start, end, rows) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "rows": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["rows"] += rows
        entry["self_s"] += (end - start) - child_time[i]
    return out
