"""The modules that fit, predict and calibrate load numpy only, and
expose every name the benchmark's tracer wraps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRODUCT_MODULES = ("data", "features", "lowrank", "model_file", "regression",
                   "classification")


def test_product_modules_do_not_import_scipy():
    # a fresh interpreter, since the test session itself has loaded scipy
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "; ".join([*(f"import fmgp.{name}" for name in PRODUCT_MODULES),
                      "import sys",
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_perfbench_trace_targets_resolve():
    # the benchmark's traced mode wraps these names by attribute, so a
    # refactor that drops one would break only that mode
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {name: importlib.import_module(f"fmgp.{name}") for name in PRODUCT_MODULES}
    metrics = set()
    for owner, attribute, metric, _ in spans.wrap_targets(modules):
        assert callable(getattr(owner, attribute, None)), metric
        metrics.add(metric)
    # each declared layer is a wrapped name plus its .calls/.rows/.self_s part
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["per_layer"]
    for layer in layers:
        name, part = layer["name"].rsplit(".", 1)
        assert part in ("calls", "rows", "self_s"), layer["name"]
        assert name in metrics, layer["name"]
