"""Smoke tests: each demo runs to completion and prints its report.

regression_1d.py is left out: it is a default 512-512 fit, about 17 s
on a 2-core machine, against a few seconds for each demo run here.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo, line", [
    pytest.param("product_kernels", "test MSE by composition", id="product_kernels"),
    pytest.param("classification_blobs", "fitted temperature:", id="classification_blobs"),
    pytest.param("spectral_decay", "feature-map rank never exceeds the output dimension p",
                 id="spectral_decay"),
    pytest.param("manifold_warp", "reference fit on the 2-d latent coordinates",
                 id="manifold_warp"),
])
def test_demo_runs(demo, line):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
