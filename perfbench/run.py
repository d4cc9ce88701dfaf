"""fmgp benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The run generates the workload's
CSV from the seed, times the program's stages in fresh processes that
import fmgp from ``src/``, checks every output against the benchmark's
own references, and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the library's public functions are wrapped and the
metrics are the per-layer counts and self times.  Lines before the last
one describe the environment and the per-stage samples.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# All stage processes of a run must end within this many seconds, so a
# run exits well inside three minutes even when the program hangs.
RUN_TIMEOUT_S = 160

# One BLAS thread in every stage process, set before numpy loads.  On the
# 2-core reference box, shared with other tenants, six fresh processes
# fitted within 3% of each other with one thread and within 9% with two.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Save+load time is not among them: over ten runs its spread reached 0.32
# on the reference box, more than any bound allows, so it is reported in
# the info line and, per call, as the save/load self times of --trace 1.
END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "calibrate_s": "s",
                    "predict_ms": "ms", "model_mb": "MB", "peak_rss_mb": "MB"}

# (traced function, fields reported); fields are calls, rows and self_s.
PER_LAYER = (
    ("data.load_csv", ("self_s",)),
    ("data.prepare", ("self_s",)),
    ("features.forward", ("calls", "rows", "self_s")),
    ("features.backward", ("calls", "rows", "self_s")),
    ("features.adam_step", ("calls", "self_s")),
    ("features.replace_params", ("calls", "self_s")),
    ("lowrank.decompose", ("calls", "self_s")),
    ("lowrank.gram_add", ("rows", "self_s")),
    ("lowrank.product_features", ("self_s",)),
    ("regression.gaussian_mll_parts", ("calls", "self_s")),
    ("regression.fit", ("self_s",)),
    ("regression.build_decomposition", ("self_s",)),
    ("regression.predict", ("self_s",)),
    ("regression.recalibrate", ("self_s",)),
    ("regression.save_model", ("self_s",)),
    ("regression.load_model", ("self_s",)),
    ("classification.fit_classifier", ("self_s",)),
    ("classification.class_posteriors", ("calls", "self_s")),
    ("classification.fit_temperature", ("self_s",)),
    ("classification.multinomial_nll", ("calls",)),
    ("classification.predict_proba", ("self_s",)),
    ("classification.save_classifier", ("self_s",)),
    ("classification.load_classifier", ("self_s",)),
)
FIELD_UNITS = {"calls": "count", "rows": "rows", "self_s": "s"}


def per_layer_names():
    return [(f"{name}.{field}", FIELD_UNITS[field])
            for name, fields in PER_LAYER for field in fields]


def child(args, env, timeout):
    """Run one stage process to completion; raise on failure or timeout."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "stages.py"), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"stage process {args[0]} exited with {proc.returncode}:\n"
                           + proc.stderr[-3000:])


def environment(src_dir):
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    lines = 0
    for path in sorted(glob.glob(os.path.join(src_dir, "fmgp", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"cores": len(os.sched_getaffinity(0)), "blas_threads": THREADS,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "src_fmgp_lines": lines}


def end_to_end(blocks, setup_samples):
    """Medians pooled over the stage processes of the run."""
    def pooled(key):
        return [t for b in blocks for t in b["result"][key]]
    return {
        "setup_s": statistics.median(setup_samples),
        "train_s": statistics.median(b["result"]["train_s"] for b in blocks),
        "calibrate_s": statistics.median(pooled("calibrate_s")),
        "predict_ms": 1000.0 * statistics.median(pooled("predict_s")),
        "model_mb": len(blocks[0]["model_bytes"]) / 1e6,
        "peak_rss_mb": max(b["result"]["peak_rss_mb"] for b in blocks),
    }


def per_layer(blocks):
    """Counts and self times summed over the stage processes of the run."""
    totals = {}
    for block in blocks:
        for name, entry in spans.summarize(block["result"]["spans"]).items():
            total = totals.setdefault(name, {"calls": 0, "rows": 0, "self_s": 0.0})
            for field, value in entry.items():
                total[field] += value
    empty = {"calls": 0, "rows": 0, "self_s": 0.0}
    return {f"{name}.{field}": totals.get(name, empty)[field]
            for name, fields in PER_LAYER for field in fields}


def read_block(out_dir):
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    with np.load(os.path.join(out_dir, "arrays.npz")) as npz:
        arrays = {k: npz[k] for k in npz.files}
    with open(os.path.join(out_dir, "model.json"), "rb") as fh:
        model_bytes = fh.read()
    return {"result": result, "arrays": arrays, "model_bytes": model_bytes}


def execute(workload, seed, seconds, trace, size, root, work):
    """Generate the inputs in ``work``, run the stage processes, load outputs."""
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "fmgp", "__init__.py")):
        raise FileNotFoundError(f"no fmgp sources under {src_dir}")
    spec = workloads.spec(workload, size, seed, seconds)
    spec["csv"] = os.path.join(work, "input.csv")
    X, target = workloads.generate(workload, spec["rows"], seed)
    workloads.write_csv(spec["csv"], X, target, spec["task"])
    raw_X, raw_target = workloads.read_csv(spec["csv"], spec["task"])
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)

    deadline = time.monotonic() + RUN_TIMEOUT_S

    def stage(mode, name, flag="0"):
        out_dir = os.path.join(work, name)
        os.makedirs(out_dir)
        child([mode, spec_path, out_dir, src_dir, flag], env,
              max(1.0, deadline - time.monotonic()))
        return out_dir

    # Untraced: a warm-up set-up (bytecode and file caches, not counted),
    # then the stage processes with a set-up-only process between each two.
    setup_dirs, block_dirs = [], []
    if not trace:
        stage("setup", "warmup")
    for b in range(spec["blocks"]):
        if b and not trace:
            setup_dirs.append(stage("setup", f"setup-{b}"))
        block_dirs.append(stage("run", f"block-{b}", "1" if trace else "0"))

    blocks = [read_block(d) for d in block_dirs]
    setups = []
    for d in setup_dirs:
        with open(os.path.join(d, "result.json"), encoding="utf-8") as fh:
            setups.append(json.load(fh))
    setups += [b["result"] for b in blocks]
    return {"spec": spec, "raw_X": raw_X, "raw_target": raw_target, "blocks": blocks,
            "setup_summaries": [s["dataset"] for s in setups],
            "setup_samples": [s["setup_s"] for s in setups],
            "environment": environment(src_dir)}


def check(outputs):
    return checks.check_run(outputs["spec"], outputs["raw_X"], outputs["raw_target"],
                            outputs["blocks"], outputs["setup_summaries"])


def run(workload, seed, seconds, trace, size, root):
    """One benchmark run; returns (result line dict, info dict)."""
    work = os.path.join(HERE, "_runs", f"{workload}-{size}-s{seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        outputs = execute(workload, seed, seconds, trace, size, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = check(outputs)
    blocks = outputs["blocks"]
    if trace:
        values = per_layer(blocks)
        units = dict(per_layer_names())
    else:
        values = end_to_end(blocks, outputs["setup_samples"])
        units = END_TO_END_UNITS
    line = {"correct": ledger.failed == 0 and ledger.attempted > 0,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    info = {"workload": workload, "size": size, "seed": seed, "trace": trace,
            "blocks": outputs["spec"]["blocks"], "rounds": outputs["spec"]["rounds"],
            "environment": outputs["environment"],
            "samples": {"setup_s": outputs["setup_samples"],
                        **{key: [b["result"][key] for b in blocks]
                           for key in ("train_s", "calibrate_s", "predict_s", "persist_s")}},
            "failures": ledger.failures}
    return line, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the same stages on small inputs (tests)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        line, info = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, os.getcwd())
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    info["wall_s"] = time.perf_counter() - started
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
