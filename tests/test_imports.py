"""The modules that fit, predict and calibrate load numpy only."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRODUCT_MODULES = ("data", "features", "lowrank", "regression", "classification")


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
