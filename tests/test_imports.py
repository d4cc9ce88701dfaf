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


def modules_after(statements, package="scipy"):
    """The modules of package loaded once a fresh interpreter has run the
    statements: fresh, since the test session itself has loaded them."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "; ".join([*statements, "import sys",
                      f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_product_modules_do_not_import_scipy():
    assert modules_after(f"import fmgp.{name}" for name in PRODUCT_MODULES) == "[]"


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


def test_reading_a_run_config_does_not_import_scipy():
    # every command reads its config first, so scipy would load even
    # where the command itself never needs it
    doc = {"task": "classification",
           "data": {"kind": "csv", "path": "blobs.csv", "test_n": 50},
           "classification": {"num_samples": 64},
           "spectral": {"kernels": [{"kind": "rbf"}]}}
    assert modules_after(["from fmgp import cli", f"cli.RunConfig({doc!r})"]) == "[]"


def test_cli_and_errors_do_not_import_numpy():
    # the CLI loads both before it applies FMGP_THREADS, which takes
    # effect only if numpy has not loaded yet
    assert modules_after(["import fmgp.cli", "import fmgp.errors"], "numpy") == "[]"
