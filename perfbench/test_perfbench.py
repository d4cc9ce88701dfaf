"""Tests of the benchmark itself: tiny runs parse, corrupted outputs fail.

    python3 -m pytest perfbench -q

Run from the repository root.  Each tiny run takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spans
import workloads

ROOT = os.path.dirname(run.HERE)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_a_result_line(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in line["metrics"].items()}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_runs"))
    proc = run_cli("regress_default", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Stage outputs of one tiny untraced run per workload."""
    found = {}
    for workload in workloads.WORKLOAD_NAMES:
        work = tmp_path_factory.mktemp(workload)
        found[workload] = run.execute(workload, 5, 1, False, "tiny", ROOT, str(work))
    return found


def failed_after(outputs, corrupt):
    copied = copy.deepcopy(outputs)
    corrupt(copied)
    return run.check(copied).failed


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_untouched_outputs_pass(outputs, workload):
    ledger = run.check(outputs[workload])
    assert ledger.failed == 0, ledger.failures


def shift(key, delta):
    def corrupt(o):
        arrays = o["blocks"][0]["arrays"]
        arrays[key] = arrays[key] + delta
    return corrupt


@pytest.mark.parametrize("workload,corrupt", [
    ("regress_default", shift("mean", 1e-4)),
    ("regress_default", shift("variance", 1e-4)),
    ("bulk_n1e5", shift("mean", 1e-4)),
    ("bulk_n1e5", shift("observation_variance", 1e-4)),
    ("classify_c10", shift("post_means", 1e-4)),
    ("classify_c10", lambda o: o["blocks"][0]["arrays"].update(
        probs=o["blocks"][0]["arrays"]["probs"] * 1.001)),
])
def test_shifted_outputs_are_failed_operations(outputs, workload, corrupt):
    assert failed_after(outputs[workload], corrupt) >= 1


def test_temperature_that_raises_the_nll_is_a_failed_operation(outputs):
    def corrupt(o):
        for block in o["blocks"]:
            block["result"]["temperature"] *= 20.0
    assert failed_after(outputs["classify_c10"], corrupt) == 1


def test_second_recalibration_factor_must_be_one(outputs):
    def corrupt(o):
        o["blocks"][1]["result"]["recal_factors"][-1] = 1.0 + 1e-6
    assert failed_after(outputs["regress_default"], corrupt) == 1


def test_reload_that_changes_the_model_is_a_failed_operation(outputs):
    def corrupt(o):
        result = o["blocks"][2]["result"]
        result["file_digests"][0] = "0" * 64
        result["predict_digests"][1] = "0" * 64
    assert failed_after(outputs["bulk_n1e5"], corrupt) == 2


def test_refit_that_differs_is_a_failed_operation(outputs):
    def corrupt(o):
        o["blocks"][1]["model_bytes"] += b" "
    # the refit itself, and every save of that process against its own file
    assert failed_after(outputs["regress_default"], corrupt) >= 1


def test_wrong_whitening_is_a_failed_set_up(outputs):
    def corrupt(o):
        o["setup_summaries"][0]["feature_stds"][0] *= 1.0 + 1e-9
    assert failed_after(outputs["regress_default"], corrupt) == 1


def test_self_time_subtracts_child_spans():
    spans_ = [["outer", -1, 0.0, 10.0, 0], ["inner", 0, 1.0, 4.0, 5],
              ["inner", 0, 5.0, 6.0, 7], ["leaf", 1, 2.0, 3.0, 0]]
    summary = spans.summarize(spans_)
    assert summary["outer"] == {"calls": 1, "rows": 0, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "rows": 12, "self_s": 3.0}
    assert summary["leaf"]["self_s"] == 1.0


def test_tracer_records_nested_calls_and_pauses():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = spans.Tracer()
    tracer.install([(Box, "outer", "outer", None),
                    (Box, "inner", "inner", lambda args, kwargs: args[0])])
    assert Box.outer(3) == 7
    tracer.active = False
    Box.inner(1)
    names = [(s[0], s[1], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 3)]


def test_mlp_reference_matches_the_product_layout():
    rng = np.random.default_rng(0)
    left = {"kind": "mlp", "activation": "relu", "normalization": "none",
            "rescale_to_unit": False,
            "layers": [{"weight": rng.standard_normal((2, 3)).tolist(), "bias": [0.0] * 3}]}
    right = copy.deepcopy(left)
    right["layers"][0] = {"weight": rng.standard_normal((2, 2)).tolist(), "bias": [0.0] * 2}
    X = rng.standard_normal((4, 2))
    prod = checks.mlp_features({"kind": "product", "left": left, "right": right}, X)
    a, b = checks.mlp_features(left, X), checks.mlp_features(right, X)
    # 1-based column i + (j - 1) * p1 holds left column i times right column j
    for i in range(3):
        for j in range(2):
            np.testing.assert_array_equal(prod[:, i + j * 3], a[:, i] * b[:, j])
