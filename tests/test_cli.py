"""Tests for the fmgp command line entry points, run in process except
where stderr must be seen as a user sees it."""

import argparse
import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fmgp import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def regression_doc(out_dir, **data_overrides):
    data = dict(kind="synth_gp", n=300, d=2, noise_sd=0.3, seed=0,
                kernel={"kind": "rbf", "lengthscale": 0.5},
                test_n=60, recal_n=60)
    data.update(data_overrides)
    return {
        "task": "regression",
        "data": data,
        "architecture": {"hidden_widths": [16, 16], "output_dim": 8},
        "training": {"iterations": 10, "subset_size": 2000, "seed": 0},
        "output_dir": str(out_dir),
    }


def classification_doc(out_dir):
    return {
        "task": "classification",
        "data": {"kind": "synth_blobs", "n": 500, "num_classes": 2, "d": 2,
                 "separation": 4.0, "seed": 0, "test_n": 80, "recal_n": 80},
        "architecture": {"hidden_widths": [16, 16], "output_dim": 8},
        "training": {"iterations": 10, "subset_size": 2000, "seed": 0},
        "classification": {"num_samples": 256},
        "output_dir": str(out_dir),
    }


class TestTrainEval:
    def test_regression_round_trip(self, tmp_path):
        config = write_config(tmp_path, regression_doc(tmp_path))
        assert cli.main(["train", "--config", config]) == 0
        assert (tmp_path / "model.json").exists()
        trace = (tmp_path / "training_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,loss"
        assert len(trace) == 11
        train_metrics = json.loads((tmp_path / "train_metrics.json").read_text())
        assert train_metrics["n_train"] == 180
        assert "train_s" in train_metrics["timings"]

        assert cli.main(["eval", "--config", config,
                         "--model", str(tmp_path / "model.json")]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["n_test"] == 60
        assert np.isfinite(metrics["mse"])
        assert np.isfinite(metrics["mean_nll"])
        assert metrics["timings"]["per_point_s"] > 0

    def test_classification_round_trip(self, tmp_path):
        config = write_config(tmp_path, classification_doc(tmp_path))
        assert cli.main(["train", "--config", config]) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["task"] == "classification"

        assert cli.main(["eval", "--config", config,
                         "--model", str(tmp_path / "model.json")]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["error_rate"] <= 0.2
        assert 0.0 <= metrics["ece"] <= 1.0
        assert metrics["temperature"] > 0

    def test_train_fits_temperature_with_configured_samples(self, tmp_path, monkeypatch):
        from fmgp import classification as cls
        seen = []
        fit_temperature = cls.fit_temperature

        def recording(clf, X, y, num_samples=cls.DEFAULT_NUM_SAMPLES, **kwargs):
            seen.append(num_samples)
            return fit_temperature(clf, X, y, num_samples, **kwargs)

        monkeypatch.setattr(cls, "fit_temperature", recording)
        config = write_config(tmp_path, classification_doc(tmp_path))
        assert cli.main(["train", "--config", config]) == 0
        assert seen == [256]

    def test_classification_honours_composition(self, tmp_path):
        doc = classification_doc(tmp_path)
        doc["composition"] = {"kind": "product", "output_dims": [4, 4]}
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["feature_map"]["kind"] == "product"

    def test_regression_honours_additive_composition(self, tmp_path):
        doc = regression_doc(tmp_path)
        doc["composition"] = {"kind": "additive"}
        doc["training"]["iterations"] = 3
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["feature_map"]["kind"] == "additive"
        assert cli.main(["eval", "--config", config,
                         "--model", str(tmp_path / "model.json")]) == 0

    def test_model_file_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        config_a = write_config(tmp_path, regression_doc(out_a), "a.json")
        config_b = write_config(tmp_path, regression_doc(out_b), "b.json")
        assert cli.main(["train", "--config", config_a]) == 0
        assert cli.main(["train", "--config", config_b]) == 0
        assert (out_a / "model.json").read_bytes() == \
            (out_b / "model.json").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        config_a = write_config(tmp_path, regression_doc(out_a), "a.json")
        config_b = write_config(tmp_path, regression_doc(out_b), "b.json")
        assert cli.main(["train", "--config", config_a]) == 0
        assert cli.main(["train", "--config", config_b, "--seed", "9"]) == 0
        assert (out_a / "model.json").read_bytes() != \
            (out_b / "model.json").read_bytes()


def spectral_doc(out_dir):
    return {"spectral": {"kernels": [{"kind": "rbf"}], "n": 32, "d": 2},
            "output_dir": str(out_dir)}


BAD_INPUTS = [
    # a value of another JSON type than its parameter's default
    pytest.param("training.iterations", "10", cli.EXIT_CONFIG, id="iterations_string"),
    pytest.param("training.learning_rate", "0.1", cli.EXIT_CONFIG, id="learning_rate_string"),
    pytest.param("architecture.output_dim", "8", cli.EXIT_CONFIG, id="output_dim_string"),
    pytest.param("data.n", "many", cli.EXIT_CONFIG, id="data_n_string"),
    pytest.param("spectral.n", "many", cli.EXIT_CONFIG, id="spectral_n_string"),
    pytest.param("architecture.hidden_widths", 8, cli.EXIT_CONFIG, id="hidden_widths_int"),
    pytest.param("architecture.hidden_widths", "ab", cli.EXIT_CONFIG,
                 id="hidden_widths_string"),
    pytest.param("data.kernel", {"kind": "nystrom",
                                 "base": {"kind": "mlp", "hidden_widths": 8}},
                 cli.EXIT_CONFIG, id="nystrom_base_hidden_widths_int"),
    pytest.param("composition", {"kind": "product", "output_dims": 3}, cli.EXIT_CONFIG,
                 id="output_dims_int"),
    pytest.param("composition", {"kind": "product", "output_dims": ["a", 2]},
                 cli.EXIT_CONFIG, id="output_dims_string_entry"),
    # a key that only another kind accepts
    pytest.param("data.kernel", {"kind": "rbf", "period": 3}, cli.EXIT_CONFIG,
                 id="rbf_period"),
    pytest.param("data.num_classes", 3, cli.EXIT_CONFIG, id="synth_gp_num_classes"),
    pytest.param("data.separation", "zz", cli.EXIT_CONFIG, id="synth_gp_separation"),
    # a value out of range
    pytest.param("training.num_subsets", 0, cli.EXIT_CONFIG, id="num_subsets_zero"),
    pytest.param("data.test_n", -5, cli.EXIT_CONFIG, id="negative_test_n"),
    pytest.param("training.seed", -1, cli.EXIT_CONFIG, id="negative_training_seed"),
    pytest.param("spectral.seeds", [0, -1], cli.EXIT_CONFIG, id="negative_spectral_seed"),
    pytest.param("training.init_sigma_f_sq", -1, cli.EXIT_CONFIG,
                 id="negative_init_sigma_f_sq"),
    pytest.param("training.learning_rate", 10 ** 400, cli.EXIT_CONFIG,
                 id="learning_rate_integer_beyond_float"),
    pytest.param("training.learning_rate", float("inf"), cli.EXIT_CONFIG,
                 id="learning_rate_infinity"),
    pytest.param("classification", {"num_samples": 0}, cli.EXIT_CONFIG,
                 id="num_samples_zero"),
    pytest.param("classification", {"ece_bins": 0}, cli.EXIT_CONFIG,
                 id="ece_bins_zero"),
    # a size beyond the address space, which numpy refuses before allocating
    pytest.param("architecture.hidden_widths", [10 ** 30], cli.EXIT_CONFIG,
                 id="hidden_width_beyond_address_space"),
    pytest.param("classification.num_samples", 10 ** 30, cli.EXIT_CONFIG,
                 id="num_samples_beyond_max_dimension"),
    pytest.param("classification.num_samples", 2 ** 62, cli.EXIT_CONFIG,
                 id="num_samples_array_too_big"),
    # unreadable input (the config file's bytes when key_path is None)
    pytest.param(None, b'{"task": ', cli.EXIT_CONFIG, id="malformed_json"),
    pytest.param(None, b"\xff\xfe{}", cli.EXIT_CONFIG, id="non_utf8_config"),
    # JSON allows it, but Python converts no integer of over 4300 digits
    pytest.param(None, b'{"training": {"learning_rate": 1' + b"0" * 5000 + b"}}",
                 cli.EXIT_CONFIG, id="integer_over_4300_digits"),
    # a refusal of a whole block or of a combination of blocks
    pytest.param("task", "bayes", cli.EXIT_CONFIG, id="unknown_task"),
    pytest.param("composition", {"kind": "product", "output_dims": [2, 2, 2]},
                 cli.EXIT_CONFIG, id="three_output_dims"),
    pytest.param("task", "classification", cli.EXIT_CONFIG,
                 id="classification_on_synth_gp"),
    pytest.param("spectral.kernels", {"kind": "rbf"}, cli.EXIT_CONFIG,
                 id="spectral_kernels_not_a_list"),
    pytest.param("spectral.kernels", [], cli.EXIT_CONFIG, id="spectral_kernels_empty"),
    pytest.param("data", {"kind": "csv"}, cli.EXIT_CONFIG, id="csv_without_path"),
    pytest.param("architecture", [16, 16], cli.EXIT_CONFIG, id="architecture_not_an_object"),
    pytest.param("data", {"kind": "csv", "path": "ragged.csv"}, cli.EXIT_DATA,
                 id="ragged_csv"),
    pytest.param("data", {"kind": "csv", "path": "empty.csv"}, cli.EXIT_DATA,
                 id="empty_csv"),
    pytest.param("data", {"kind": "csv", "path": "latin1.csv"}, cli.EXIT_DATA,
                 id="non_utf8_csv"),
    pytest.param("data", {"kind": "csv", "path": "long_cell.csv"}, cli.EXIT_DATA,
                 id="csv_field_over_limit"),
]


def drop_widths(doc):
    del doc["feature_map"]["widths"]
    return doc


def shrink_first_cache(doc):
    doc["per_class"][0]["cache"]["u"] = [[1.0]]
    return doc


def nan_eigenvalue(doc):
    doc["per_class"][0]["cache"]["eigenvalues"][0] = float("nan")
    return doc


# json.dumps cannot write 1e999, which parses as infinity, so the edits
# leave this marker where the literal goes
OVERFLOW = "<1e999>"


def overflow_eigenvalue(doc):
    doc["per_class"][0]["cache"]["eigenvalues"][0] = OVERFLOW
    return doc


# each edit turns a saved model's document into a malformed one
BAD_MODELS = [
    pytest.param("classifier", drop_widths, id="feature_map_without_widths"),
    pytest.param("classifier", lambda doc: {**doc, "per_class": 5}, id="per_class_int"),
    pytest.param("classifier", shrink_first_cache, id="cache_u_one_by_one"),
    pytest.param("classifier", lambda doc: {**doc, "temperature": "hot"},
                 id="temperature_string"),
    pytest.param("classifier", lambda doc: [doc], id="document_not_an_object"),
    pytest.param("classifier", lambda doc: {**doc, "per_class": doc["per_class"][:1]},
                 id="fewer_classes_than_num_classes"),
    pytest.param("classifier", lambda doc: {**doc, "normalization": [1, 2]},
                 id="normalization_list"),
    pytest.param("classifier", nan_eigenvalue, id="eigenvalue_nan"),
    pytest.param("classifier", lambda doc: {**doc, "normalization": {
        **doc["normalization"], "target_std": float("nan")}}, id="normalization_nan"),
    pytest.param("classifier", overflow_eigenvalue, id="eigenvalue_1e999"),
    pytest.param("classifier", lambda doc: {**doc, "temperature": OVERFLOW},
                 id="temperature_1e999"),
    pytest.param("regression", lambda doc: {**doc, "sigma_f_sq": OVERFLOW},
                 id="regression_sigma_f_sq_1e999"),
]


def trained(tmp_path_factory, make_doc):
    """(config path, model document) of a small model trained per make_doc."""
    out = tmp_path_factory.mktemp("trained")
    config = write_config(out, make_doc(out))
    assert cli.main(["train", "--config", config]) == 0
    return config, json.loads((out / "model.json").read_text())


@pytest.fixture(scope="module")
def trained_classifier(tmp_path_factory):
    return trained(tmp_path_factory, classification_doc)


@pytest.fixture(scope="module")
def trained_regression(tmp_path_factory):
    return trained(tmp_path_factory, regression_doc)


class TestConfigErrors:
    @pytest.mark.parametrize("task, edit", BAD_MODELS)
    def test_malformed_model_exits_with_one_json_line(self, tmp_path, capsys, request,
                                                      task, edit):
        config, doc = request.getfixturevalue(f"trained_{task}")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(edit(copy.deepcopy(doc))).replace(f'"{OVERFLOW}"',
                                                                     "1e999"))
        capsys.readouterr()
        code = cli.main(["eval", "--config", config, "--model", str(path),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "DataError"
        assert str(path) in report["message"]
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("model_task, config_task",
                             [("classification", "regression"),
                              ("regression", "classification")])
    def test_eval_model_of_the_other_task(self, tmp_path, capsys, request,
                                          model_task, config_task):
        # the check comes before the data: this CSV does not exist
        _, doc = request.getfixturevalue(
            "trained_classifier" if model_task == "classification" else "trained_regression")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        config = write_config(tmp_path, {"task": config_task,
                                         "data": {"kind": "csv", "path": "absent.csv"}})
        capsys.readouterr()
        code = cli.main(["eval", "--config", config, "--model", str(model),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "ConfigError"
        assert model_task in report["message"] and config_task in report["message"]

    @pytest.mark.parametrize("key_path, value, code", BAD_INPUTS)
    def test_bad_input_exits_with_one_json_line(self, tmp_path, monkeypatch, capsys,
                                                key_path, value, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ragged.csv").write_text("a,b,y\n1,2,3\n4,5\n6,7,8\n")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "latin1.csv").write_bytes("x,y\n1,2\n3,4\nna\u00efve,5\n".encode("latin-1"))
        (tmp_path / "long_cell.csv").write_text("x,y\n1,2\n" + "3" * 200_000 + ",4\n")
        command = "spectral" if str(key_path).startswith("spectral") else "train"
        if key_path is None:
            (tmp_path / "config.json").write_bytes(value)
            config = str(tmp_path / "config.json")
        else:
            doc = (spectral_doc if command == "spectral"
                   else classification_doc if key_path.startswith("classification.")
                   else regression_doc)(tmp_path)
            *outer, last = key_path.split(".")
            block = doc
            for key in outer:
                block = block[key]
            block[last] = value
            config = write_config(tmp_path, doc)
        assert cli.main([command, "--config", config]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}

    def test_memory_error_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(config, out_dir):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(cli, "cmd_train", exhausted)
        config = write_config(tmp_path, regression_doc(tmp_path))
        assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "cannot be allocated" in err["message"]

    def test_negative_seed_flag(self, capsys):
        assert cli.main(["oracle-check", "--seed", "-1"]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "--seed" in err["message"]

    def test_unknown_top_level_key(self, tmp_path):
        doc = regression_doc(tmp_path)
        doc["tasks"] = "regression"
        del doc["task"]
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG

    def test_unknown_data_key(self, tmp_path, capsys):
        doc = regression_doc(tmp_path)
        doc["data"]["noise"] = 0.1
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG
        # the split keys are allowed in the data block too, so they are listed
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert "'test_n'" in message and "'recal_n'" in message

    def test_zero_feature_count_rejected(self, tmp_path):
        doc = regression_doc(tmp_path)
        doc["architecture"]["output_dim"] = 0
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = cli.main(["train", "--config", str(tmp_path / "absent.json")])
        assert code == cli.EXIT_CONFIG

    def test_eval_of_an_empty_test_split(self, tmp_path, capsys):
        config = write_config(tmp_path, regression_doc(tmp_path, test_n=0))
        assert cli.main(["train", "--config", config]) == 0
        capsys.readouterr()
        code = cli.main(["eval", "--config", config, "--model", str(tmp_path / "model.json")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "DataError", "message": "test split is empty"}

    def test_eval_dimension_mismatch(self, tmp_path):
        config = write_config(tmp_path, regression_doc(tmp_path))
        assert cli.main(["train", "--config", config]) == 0
        wider = regression_doc(tmp_path, d=3)
        config_wide = write_config(tmp_path, wider, "wide.json")
        code = cli.main(["eval", "--config", config_wide,
                         "--model", str(tmp_path / "model.json")])
        assert code == cli.EXIT_CONFIG

    def test_invalid_thread_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FMGP_THREADS", "many")
        config = write_config(tmp_path, regression_doc(tmp_path))
        assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG

    def test_error_report_is_json_on_stderr(self, tmp_path, capsys):
        doc = regression_doc(tmp_path)
        doc["data"]["kind"] = "synth_warp"
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "synth_warp" in err["message"]


def run_cli(args, cwd):
    """The fmgp command in a fresh interpreter, so stderr holds whatever
    Python itself prints, warnings included."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "fmgp.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestErrorOutput:
    def assert_one_json_line(self, proc, code):
        assert proc.returncode == code
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert set(json.loads(lines[0])) == {"error", "message"}

    def test_diverging_fit_prints_no_warnings(self, tmp_path):
        # the diverging steps raise numpy overflow warnings, which must not
        # reach stderr ahead of the error line
        doc = regression_doc(tmp_path)
        doc["training"].update(learning_rate=1e6, iterations=5)
        proc = run_cli(["train", "--config", write_config(tmp_path, doc)], tmp_path)
        self.assert_one_json_line(proc, cli.EXIT_NUMERIC)

    def test_bad_command_line(self, tmp_path):
        proc = run_cli(["train"], tmp_path)
        self.assert_one_json_line(proc, cli.EXIT_CONFIG)
        assert "--config" in proc.stderr


def test_readme_synopsis_matches_the_parser():
    # the code block under "## Command line" lists every option of each command
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```", 2)[1]
    documented = {}
    for line in block.strip().splitlines():
        _, command, *words = line.split()
        documented[command] = {word.strip("[]") for word in words
                               if word.startswith(("--", "[--"))}
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert documented == {name: {option for action in parser._actions
                                 for option in action.option_strings} - {"-h", "--help"}
                          for name, parser in commands.items()}


class TestDataErrors:
    def test_missing_csv(self, tmp_path):
        doc = regression_doc(tmp_path)
        doc["data"] = {"kind": "csv", "path": str(tmp_path / "none.csv"),
                       "test_n": 10, "recal_n": 10}
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == cli.EXIT_DATA

    def test_unknown_normalization_exits_before_reading_data(self, tmp_path):
        # the data file does not exist, so a data error would mean it was read
        doc = regression_doc(tmp_path)
        doc["data"] = {"kind": "csv", "path": str(tmp_path / "none.csv")}
        doc["architecture"]["normalization"] = "bogus"
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG

    def test_non_finite_csv_cell(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        rows = [f"{i * 0.1},{i * 0.2},{i * 0.3}" for i in range(40)]
        rows[7] = "0.7,nan,2.1"
        csv_path.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        doc = regression_doc(tmp_path)
        doc["data"] = {"kind": "csv", "path": str(csv_path),
                       "test_n": 5, "recal_n": 5}
        config = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["error"] == "DataError"
        assert "row 9, column 2" in err["message"]

    def csv_config(self, tmp_path, csv_name, scale=1.0, shift=0.0):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((120, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(120)
        rows = [f"{a * scale + shift:.17g},{b * scale + shift:.17g},{t:.17g}"
                for (a, b), t in zip(X, y)]
        (tmp_path / csv_name).write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        doc = regression_doc(tmp_path)
        doc["data"] = {"kind": "csv", "path": str(tmp_path / csv_name),
                       "test_n": 20, "recal_n": 20}
        return write_config(tmp_path, doc, csv_name + ".config.json")

    def assert_data_error(self, capsys, code, name="'feature_means'"):
        assert code == cli.EXIT_DATA
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["error"] == "DataError"
        assert name in err["message"]

    def test_eval_rejects_shifted_data(self, tmp_path, capsys):
        config = self.csv_config(tmp_path, "a.csv")
        assert cli.main(["train", "--config", config]) == 0
        shifted = self.csv_config(tmp_path, "b.csv", scale=10.0, shift=5.0)
        capsys.readouterr()
        code = cli.main(["eval", "--config", shifted,
                         "--model", str(tmp_path / "model.json")])
        self.assert_data_error(capsys, code)

    def test_eval_rejects_other_split_seed(self, tmp_path, capsys):
        config = self.csv_config(tmp_path, "a.csv")
        assert cli.main(["train", "--config", config]) == 0
        assert cli.main(["eval", "--config", config,
                         "--model", str(tmp_path / "model.json")]) == 0
        capsys.readouterr()
        code = cli.main(["eval", "--config", config, "--seed", "9",
                         "--model", str(tmp_path / "model.json")])
        self.assert_data_error(capsys, code)

    def test_eval_rejects_a_model_without_one_statistic(self, tmp_path, capsys,
                                                        trained_regression):
        # every statistic of a stored normalization block is checked
        config, doc = trained_regression
        doc = copy.deepcopy(doc)
        del doc["normalization"]["feature_means"]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["eval", "--config", config, "--model", str(tmp_path / "model.json"),
                         "--out", str(tmp_path)])
        self.assert_data_error(capsys, code)

    def test_eval_rejects_renamed_labels(self, tmp_path, capsys):
        # the same rows with raw label 9 renamed to 12: the whitening
        # statistics match, but the data's label_map is {3: 0, 12: 1}
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 2))
        labels = np.where(X[:, 0] > 0, 9, 3)
        configs = []
        for name, renamed in (("a.csv", 9), ("b.csv", 12)):
            rows = [f"{a:.17g},{b:.17g},{renamed if t == 9 else t}"
                    for (a, b), t in zip(X, labels)]
            (tmp_path / name).write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
            doc = classification_doc(tmp_path)
            doc["data"] = {"kind": "csv", "path": str(tmp_path / name),
                           "test_n": 40, "recal_n": 40}
            configs.append(write_config(tmp_path, doc, name + ".config.json"))
        assert cli.main(["train", "--config", configs[0]]) == 0
        assert cli.main(["eval", "--config", configs[0],
                         "--model", str(tmp_path / "model.json")]) == 0
        capsys.readouterr()
        code = cli.main(["eval", "--config", configs[1],
                         "--model", str(tmp_path / "model.json")])
        self.assert_data_error(capsys, code, "label_map")

    def test_non_utf8_model_file(self, tmp_path):
        config = write_config(tmp_path, regression_doc(tmp_path))
        (tmp_path / "model.json").write_bytes(b"\xff\xfe{}")
        code = cli.main(["eval", "--config", config,
                         "--model", str(tmp_path / "model.json")])
        assert code == cli.EXIT_DATA

    def test_missing_model_file(self, tmp_path):
        config = write_config(tmp_path, regression_doc(tmp_path))
        code = cli.main(["eval", "--config", config,
                         "--model", str(tmp_path / "absent_model.json")])
        assert code == cli.EXIT_DATA


class TestSpectralCommand:
    def test_writes_four_column_csv(self, tmp_path):
        doc = {
            "spectral": {"kernels": [{"kind": "rbf", "lengthscale": 0.5},
                                     {"kind": "exp", "lengthscale": 0.5}],
                         "n": 32, "d": 2, "seeds": [0]},
            "output_dir": str(tmp_path),
        }
        config = write_config(tmp_path, doc)
        assert cli.main(["spectral", "--config", config]) == 0
        rows = (tmp_path / "spectra.csv").read_text().strip().splitlines()
        assert rows[0] == "kernel_label,seed,eigen_index,eigenvalue"
        assert len(rows) == 1 + 2 * 32


class TestOracleCheckCommand:
    def test_passes_clean(self, capsys):
        assert cli.main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_detects_eigenvalue_perturbation(self, capsys, monkeypatch):
        # the prediction battery must notice a cache whose top eigenvalue is
        # off by one part in a thousand
        from fmgp import regression as reg
        build = reg.build_decomposition

        def perturbed(*args):
            decomp = build(*args)
            decomp.lam[0] *= 1.0 + 1e-3
            return decomp

        monkeypatch.setattr(reg, "build_decomposition", perturbed)
        code = cli.main(["oracle-check"])
        assert code == cli.EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["oracle-check", "--perturb-top-eigenvalue", "1e-3"],
        ["oracle-check", "--config", "run.json"],
        ["oracle-check", "--out", "runs"],
        ["spectral", "--config", "run.json", "--seed", "7"],
    ], ids=["perturb_top_eigenvalue", "oracle_config", "oracle_out", "spectral_seed"])
    def test_removed_options_are_config_errors(self, capsys, args):
        assert cli.main(args) == cli.EXIT_CONFIG
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"
