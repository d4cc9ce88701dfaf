"""tests/fingerprint.py prints one line, the same on every run over one
source tree, with the keys it documents; --values prints the floats under
those digests, a reloaded model file predicts bit for bit as the fitted
model, and --against reads no move between two runs of one tree."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tests", "fingerprint.py")


def fingerprint_output(*args):
    proc = subprocess.run([sys.executable, SCRIPT, "--src", os.path.join(ROOT, "src"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_fingerprint_is_one_reproducible_line_of_the_documented_keys():
    first = fingerprint_output()
    assert fingerprint_output() == first
    assert len(first.splitlines()) == 1
    digests = json.loads(first)
    assert list(digests) == list(load_script().KEYS)
    assert len(digests["oracle_max_err"]) == 6


def test_values_are_the_floats_under_the_digests(tmp_path):
    script = load_script()
    digests = json.loads(fingerprint_output())
    line = fingerprint_output("--values")
    assert len(line.splitlines()) == 1
    values = json.loads(line)
    assert list(values) == list(script.KEYS)
    floats = {key: [float.fromhex(v) for v in hexes] for key, hexes in values.items()}
    for key in ("regression_trace", "classifier_trace"):
        assert script._trace(floats[key])[0] == digests[key]
    for key in ("regression_mean", "probabilities", "hadamard_tail",
                "reloaded_prediction", "additive_reloaded_prediction"):
        assert script._array(floats[key])[0] == digests[key]
    # the reloaded regression model's means and latent variances come first
    n = len(values["regression_mean"])
    assert (values["reloaded_prediction"][:2 * n]
            == values["regression_mean"] + values["regression_variance"])
    assert values["reloaded_probabilities"] == values["probabilities"]
    for key in ("temperature", "temperature_100_samples"):
        assert values[key] == [digests[key]]
    assert values["oracle_max_err"] == digests["oracle_max_err"]
    assert floats["ece_bin_counts"] == digests["ece_bin_counts"]
    # a model file's values are its numbers, and no two runs move them
    assert len(floats["classifier_model_json"]) > len(floats["probabilities"])
    saved = tmp_path / "values.json"
    saved.write_text(line)
    moves = json.loads(fingerprint_output("--against", str(saved)))
    assert moves == {key: 0.0 for key in script.KEYS}


def test_largest_moves_are_relative_per_key():
    script = load_script()
    base = {key: [] for key in script.KEYS}
    values = dict(base)
    base["temperature"], values["temperature"] = [(2.0).hex()], [(2.5).hex()]
    base["probabilities"] = [(0.0).hex(), (-4.0).hex()]
    values["probabilities"] = [(0.0).hex(), (-3.0).hex()]
    base["ece"] = [(1.0).hex()]
    moves = script._largest_moves(base, values)
    assert moves["temperature"] == 0.2
    assert moves["probabilities"] == 0.25
    assert moves["ece"] == "1 floats against 0"
    assert moves["regression_trace"] == 0.0
