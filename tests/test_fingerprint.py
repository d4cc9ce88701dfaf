"""tests/fingerprint.py prints one line, the same on every run over one
source tree, with the keys it documents."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tests", "fingerprint.py")


def fingerprint_output():
    proc = subprocess.run([sys.executable, SCRIPT, "--src", os.path.join(ROOT, "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fingerprint_is_one_reproducible_line_of_the_documented_keys():
    first = fingerprint_output()
    assert fingerprint_output() == first
    assert len(first.splitlines()) == 1
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    digests = json.loads(first)
    assert list(digests) == list(script.KEYS)
    assert len(digests["oracle_max_err"]) == 6
