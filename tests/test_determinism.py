"""The determinism contract that the README states: at one BLAS thread
count the same config and seed give the same bytes, and another thread
count moves the training losses by rounding only."""

import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# fixed before the first run: four orders of magnitude above the 2.3e-14
# by which two threads moved a default fit's losses
THREAD_RTOL = 1e-10


def train(tmp_path, name, threads):
    """Run fmgp train in a fresh interpreter with the given thread cap,
    which takes effect only before numpy loads; returns its output dir."""
    out = tmp_path / name
    out.mkdir()
    doc = {"task": "regression",
           "data": {"kind": "synth_gp", "n": 600, "d": 2, "noise_sd": 0.3, "seed": 0,
                    "kernel": {"kind": "rbf", "lengthscale": 0.5},
                    "test_n": 100, "recal_n": 100},
           "architecture": {"hidden_widths": [64, 64], "output_dim": 16},
           "training": {"iterations": 20, "seed": 0},
           "output_dir": str(out)}
    (out / "config.json").write_text(json.dumps(doc))
    env = dict(os.environ, FMGP_THREADS=str(threads))
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "fmgp.cli", "train", "--config",
                           str(out / "config.json")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out


def losses(out):
    lines = (out / "training_trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss"
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def test_one_thread_count_gives_the_same_bytes_and_two_the_same_losses(tmp_path):
    first, second = train(tmp_path, "one_a", 1), train(tmp_path, "one_b", 1)
    for name in ("model.json", "training_trace.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    two = losses(train(tmp_path, "two", 2))
    assert two.size == 20
    np.testing.assert_allclose(two, losses(first), rtol=THREAD_RTOL, atol=0)
