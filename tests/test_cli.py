"""CLI and pipeline tests: experiment runs from a JSON config, gated
variants, configs rejected before any work (also any value fuzzed to
another JSON type), byte-identical metrics across
reruns, vocabulary built from the training split only, checkpoint
evaluation self-consistency and its one forward pass per member, and the
metrics calculator."""

import dataclasses
import errno
import json
import os
import platform
import shutil
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minibert.cli as cli_module
import minibert.model as model_module
import minibert.training as training_module
from minibert.checkpoint import load_ensemble
from minibert.cli import main
from minibert.corpus import LabeledCorpus, generate_synthetic, load_csv, save_csv
from minibert.ensemble import Evaluation
from minibert.errors import ConfigError
from minibert.evaluation import ConfusionMatrix, metrics
from minibert.experiment import (
    load_experiment_config,
    parse_experiment_config,
    parse_synthetic_spec,
    run_experiment,
)
from minibert.tokenizer import encode
from minibert.training import accuracy, split_dataset
from test_ensemble import count_forward_rows


def tiny_config_dict(output_dir: Path, **overrides) -> dict:
    config = {
        "corpus": {
            "synthetic": {
                "num_examples": 120,
                "num_classes": 2,
                "noise_rate": 0.0,
                "seed": 11,
                "tokens_per_text": [3, 7],
                "class_pool_size": 12,
                "shared_pool_size": 6,
            }
        },
        "tokenizer": {"max_vocab": 200, "min_frequency": 1, "max_seq_len": 12},
        "model": {
            "hidden_dim": 8,
            "num_heads": 2,
            "ff_dim": 16,
            "num_classes": 2,
            "init_seed": 5,
            "init_scale": 0.02,
        },
        "train": {
            "epochs": 2,
            "batch_size": 16,
            "learning_rate": 0.01,
            "shuffle_seed": 3,
            "split_ratio": 0.8,
            "split_seed": 7,
        },
        "variants": [
            {
                "name": "ensemble-3x1",
                "kind": "ensemble",
                "n_members": 3,
                "num_layers": 1,
                "member_shuffle_seeds": [101, 102, 103],
                "voting": "majority",
            },
            {"name": "single-3layer", "kind": "single", "num_layers": 3},
            {"name": "single-12layer", "kind": "single", "num_layers": 12, "gated": True},
        ],
        "output_dir": str(output_dir),
    }
    config.update(overrides)
    return config


def tiny_config(tmp_path: Path, **overrides) -> Path:
    config = tiny_config_dict(tmp_path / "runs", **overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def latest_run_dir(tmp_path: Path) -> Path:
    runs = sorted((tmp_path / "runs").iterdir())
    return runs[-1]


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    config_path = tiny_config(tmp_path)
    code = main(["run", str(config_path), "--quiet"])
    assert code == 0
    return tmp_path, latest_run_dir(tmp_path)


class TestRunCommand:
    def test_artifacts_and_report_shape(self, completed_run):
        _, run_dir = completed_run
        metrics_doc = json.loads((run_dir / "metrics.json").read_text())
        assert set(metrics_doc["variants"]) == {"ensemble-3x1", "single-3layer"}
        assert metrics_doc["skipped_gated"] == ["single-12layer"]
        ensemble_entry = metrics_doc["variants"]["ensemble-3x1"]
        assert len(ensemble_entry["member_val_accuracies"]) == 3
        assert "disagreement_count" in ensemble_entry

        report = (run_dir / "report.md").read_text()
        assert "## Prediction quality" in report and "## Training time" in report
        assert "| Evaluation index | Value |" in report
        assert "| Model | Training Time (min) | Accuracy | Accuracy per min |" in report
        for name in ("ensemble-3x1", "single-3layer"):
            assert f"### {name}" in report
            assert (run_dir / "checkpoints" / name).is_dir()

        timing_doc = json.loads((run_dir / "timing.json").read_text())
        assert timing_doc["ensemble-3x1"]["training_minutes"] > 0
        assert timing_doc["ensemble-3x1"]["training_minutes"] * 60 == pytest.approx(
            sum(timing_doc["ensemble-3x1"]["per_run_seconds"])
        )
        assert len(timing_doc["ensemble-3x1"]["per_run_seconds"]) == 3

        for artifact in ("train.csv", "val.csv", "vocab.txt", "train_log.txt"):
            assert (run_dir / artifact).exists()

    def test_timing_records_validation_inside_each_epoch(self, completed_run):
        _, run_dir = completed_run
        timing_doc = json.loads((run_dir / "timing.json").read_text())
        for name in ("ensemble-3x1", "single-3layer"):
            epochs = timing_doc[name]["per_epoch_seconds"]
            validation = timing_doc[name]["per_epoch_validation_seconds"]
            assert [len(run) for run in validation] == [len(run) for run in epochs]
            for run_epochs, run_validation in zip(epochs, validation):
                for seconds, validation_seconds in zip(run_epochs, run_validation):
                    assert 0 <= validation_seconds <= seconds

    def test_metrics_entries_keep_their_key_sets(self, completed_run):
        _, run_dir = completed_run
        entries = json.loads((run_dir / "metrics.json").read_text())["variants"]
        single = {"kind", "accuracy", "precision", "recall", "f1", "undefined", "confusion"}
        assert set(entries["single-3layer"]) == single
        assert set(entries["ensemble-3x1"]) == single | {"member_val_accuracies", "disagreement_count"}

    def test_zero_variants_is_config_error(self, tmp_path, capsys):
        config_path = tiny_config(tmp_path, variants=[])
        assert main(["run", str(config_path)]) == 2
        assert "variant" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "1:" in err

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        config_path = tiny_config(tmp_path)
        raw = json.loads(config_path.read_text())
        del raw["train"]["shuffle_seed"]
        config_path.write_text(json.dumps(raw))
        assert main(["run", str(config_path)]) == 2
        assert "shuffle_seed" in capsys.readouterr().err

    def test_duplicate_variant_names_rejected(self, tmp_path, capsys):
        config_path = tiny_config(
            tmp_path,
            variants=[
                {"name": "twin", "kind": "single", "num_layers": 1},
                {"name": "twin", "kind": "single", "num_layers": 2},
            ],
        )
        assert main(["run", str(config_path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_rerun_does_not_overwrite_and_metrics_bytes_match(self, completed_run):
        tmp_path, first_run = completed_run
        config_path = tmp_path / "experiment.json"
        assert main(["run", str(config_path), "--quiet"]) == 0
        runs = sorted((tmp_path / "runs").iterdir())
        assert len(runs) >= 2
        second_run = runs[-1]
        assert second_run != first_run
        assert (first_run / "metrics.json").read_bytes() == (
            second_run / "metrics.json"
        ).read_bytes()
        first_report = (first_run / "report.md").read_text().split("## Training time")[0]
        second_report = (second_run / "report.md").read_text().split("## Training time")[0]
        assert first_report == second_report

    def test_gated_variant_runs_with_flag(self, tmp_path):
        config_path = tiny_config(
            tmp_path,
            variants=[
                {"name": "plain", "kind": "single", "num_layers": 1},
                {"name": "deep", "kind": "single", "num_layers": 2, "gated": True},
            ],
        )
        assert main(["run", str(config_path), "--quiet", "--gated"]) == 0
        run_dir = latest_run_dir(tmp_path)
        metrics_doc = json.loads((run_dir / "metrics.json").read_text())
        assert set(metrics_doc["variants"]) == {"plain", "deep"}
        assert metrics_doc["skipped_gated"] == []

    def test_each_example_set_is_stacked_once_per_run(self, tmp_path, monkeypatch):
        """Stacking runs before, not inside, each timed ``train`` call and
        each evaluation, so the recorded training time leaves it out."""
        config = parse_experiment_config(tiny_config_dict(tmp_path / "runs"))
        stacked = []
        stack = model_module.stack_examples

        def recording_stack(examples):
            stacked.append(len(examples))
            return stack(examples)

        monkeypatch.setattr(model_module, "stack_examples", recording_stack)
        result = run_experiment(config)
        assert [v.name for v in result.variants] == ["ensemble-3x1", "single-3layer"]
        train_rows = len(load_csv(result.run_dir / "train.csv"))
        assert stacked == [train_rows, len(load_csv(result.run_dir / "val.csv"))]

    def test_parallel_members_flag_is_gone(self, tmp_path, capsys):
        config_path = tiny_config(tmp_path)
        assert main(["run", str(config_path), "--quiet", "--parallel-members"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--parallel-members" in err
        assert not list((tmp_path / "runs").glob("run-*"))

    def test_output_dir_flag_overrides_config(self, tmp_path):
        config_path = tiny_config(
            tmp_path,
            variants=[{"name": "only", "kind": "single", "num_layers": 1}],
        )
        override = tmp_path / "elsewhere"
        assert main(["run", str(config_path), "--quiet", "--output-dir", str(override)]) == 0
        assert override.exists() and list(override.iterdir())
        assert not (tmp_path / "runs").exists()

    def test_failed_run_leaves_only_a_partial_directory(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        model = {**tiny_config_dict(runs)["model"], "init_scale": 1e30}
        assert main(["run", str(tiny_config(tmp_path, model=model)), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "loss is nan" in err
        [partial] = runs.glob("run-*")
        assert partial.name.endswith(".partial")
        assert (partial / "train_log.txt").is_file()

        variants = [{"name": "only", "kind": "single", "num_layers": 1}]
        assert main(["run", str(tiny_config(tmp_path, variants=variants)), "--quiet"]) == 0
        [final] = set(runs.glob("run-*")) - {partial}
        assert not final.name.endswith(".partial")
        assert (final / "metrics.json").is_file()
        assert f"run artifacts written to {final}\n" in capsys.readouterr().out

    def test_diverged_run_prints_its_error_and_no_numpy_warning(self, tmp_path, capsys):
        model = {**tiny_config_dict(tmp_path / "runs")["model"], "init_scale": 1e30}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(tiny_config(tmp_path, model=model)), "--quiet"]) == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "loss is nan" in errors[0], errors


# Every key each nested config section reads (a synthetic spec either
# lists its pools or sizes generated ones).
NESTED_KEYS = {
    "tokenizer": {"max_vocab", "min_frequency", "max_seq_len"},
    "corpus": {"path", "synthetic"},
    "corpus.synthetic": {
        "num_examples", "num_classes", "noise_rate", "seed", "tokens_per_text",
        "class_pool_size", "shared_pool_size", "class_token_pools", "shared_pool",
    },
}


def nested_section(raw: dict, dotted: str) -> dict:
    for part in dotted.split("."):
        raw = raw[part]
    return raw


class TestConfigRejectedBeforeAnyWork:
    """Each bad config exits 2 before a run directory is created."""

    def assert_rejected(self, tmp_path, capsys, config_path, *phrases):
        assert main(["run", str(config_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for phrase in phrases:
            assert phrase in err
        assert not list((tmp_path / "runs").glob("run-*"))

    def test_max_seq_len_too_short(self, tmp_path, capsys):
        config_path = tiny_config(
            tmp_path, tokenizer={"max_vocab": 200, "min_frequency": 1, "max_seq_len": 2}
        )
        self.assert_rejected(tmp_path, capsys, config_path, "max_seq_len", ">= 3")

    def test_misspelt_variant_key(self, tmp_path, capsys):
        config_path = tiny_config(
            tmp_path,
            variants=[
                {
                    "name": "ens",
                    "kind": "ensemble",
                    "n_member": 5,
                    "member_shuffle_seeds": [1, 2, 3],
                }
            ],
        )
        self.assert_rejected(tmp_path, capsys, config_path, "variants[0]", "'n_member'")

    @pytest.mark.parametrize(
        "variant, key, value",
        [
            ("ensemble-3x1", "voting", "plurality"),
            ("ensemble-3x1", "n_members", "3"),
            ("ensemble-3x1", "shared_init", "no"),
            ("single-3layer", "num_layers", "3"),
            ("single-3layer", "num_layers", True),
            ("single-3layer", "num_layers", 0),
            ("single-3layer", "gated", "no"),
        ],
    )
    def test_bad_variant_value(self, tmp_path, capsys, variant, key, value):
        """Rejected at parse time even when another variant comes first."""
        raw = tiny_config_dict(tmp_path / "runs")
        raw["variants"].sort(key=lambda entry: entry["name"] == variant)
        next(v for v in raw["variants"] if v["name"] == variant)[key] = value
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, repr(variant), key, repr(value))

    @pytest.mark.parametrize(
        "name",
        [[1], "", ".", "..", "../x", "a/b", "a\\b", 7, "a\0b",
         pytest.param("é" * 128, id="256-utf8-bytes"),
         pytest.param("\ud800", id="lone-surrogate")],
    )
    def test_bad_variant_name(self, tmp_path, capsys, name):
        """Only a plain directory name is accepted, also after a good variant;
        the longest is 255 bytes (NAME_MAX)."""
        raw = tiny_config_dict(tmp_path / "runs")
        raw["variants"][1]["name"] = name
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, "variants[1]", "name", repr(name))

    def test_longest_variant_name_is_a_checkpoint_directory(self, tmp_path):
        name = "é" * 127 + "x"  # 255 UTF-8 bytes
        raw = tiny_config_dict(tmp_path / "runs")
        raw["train"]["epochs"] = 1
        raw["variants"] = [{"name": name, "kind": "single", "num_layers": 1}]
        result = run_experiment(parse_experiment_config(raw))
        assert (result.run_dir / "checkpoints" / name / "params.bin").is_file()

    @pytest.mark.parametrize(
        "section, key, value",
        [("model", "hidden_dim", "64"), ("model", "init_scale", "0.02"),
         ("train", "epochs", "3"), ("train", "batch_size", True),
         ("train", "learning_rate", None)],
    )
    def test_non_number_value(self, tmp_path, capsys, section, key, value):
        raw = tiny_config_dict(tmp_path / "runs")
        raw[section][key] = value
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, f"{section}: {key}", repr(value))

    @pytest.mark.parametrize(
        "key, value",
        [("n_members", 3), ("member_shuffle_seeds", [1, 2, 3]), ("shared_init", True),
         ("voting", "majority")],
    )
    def test_ensemble_key_on_single_variant(self, tmp_path, capsys, key, value):
        raw = tiny_config_dict(tmp_path / "runs")
        raw["variants"][1][key] = value
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(
            tmp_path, capsys, config_path, "variants[1] 'single-3layer'", repr(key), "'ensemble'"
        )

    def test_unknown_top_level_key(self, tmp_path, capsys):
        config_path = tiny_config(tmp_path, outptu_dir="elsewhere")
        self.assert_rejected(tmp_path, capsys, config_path, "config", "'outptu_dir'")

    def test_split_leaving_no_validation_examples(self, tmp_path, capsys):
        raw = tiny_config_dict(tmp_path / "runs")
        raw["corpus"]["synthetic"]["num_examples"] = 10
        raw["train"]["split_ratio"] = 0.95
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, "split_ratio 0.95", "validation")

    def test_corpus_with_more_classes_than_the_model(self, tmp_path, capsys):
        raw = tiny_config_dict(tmp_path / "runs")
        raw["corpus"]["synthetic"]["num_classes"] = 3
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, "3 classes", "num_classes is 2")

    def test_csv_label_outside_the_model_names_its_row(self, tmp_path, capsys):
        corpus_path = tmp_path / "three.csv"
        corpus_path.write_text("text,label\na,0\nb,1\nc,2\nd,1\n", encoding="utf-8")
        config_path = tiny_config(tmp_path, corpus={"path": str(corpus_path)})
        self.assert_rejected(
            tmp_path, capsys, config_path,
            f"{corpus_path}: row 4 label 2 is outside the model's 2 classes (model.num_classes)",
        )

    def test_non_utf8_corpus_csv(self, tmp_path, capsys):
        corpus_path = tmp_path / "bad.csv"
        corpus_path.write_bytes(b"text,label\nab\xff,1\nc,0\n")
        config_path = tiny_config(tmp_path, corpus={"path": str(corpus_path)})
        self.assert_rejected(
            tmp_path, capsys, config_path, f"{corpus_path}: cannot read (not UTF-8"
        )

    @pytest.mark.parametrize(
        "rows, message",
        [
            ('a,0\n" ",1\n', "row 3 text is empty after trimming"),
            ("a,1\nb,1\n", "classes never observed: [0]"),
        ],
        ids=["blank-text", "missing-class"],
    )
    def test_bad_corpus_csv_names_the_file(self, tmp_path, capsys, rows, message):
        """A training corpus must also hold every class below its largest label."""
        corpus_path = tmp_path / "corpus.csv"
        corpus_path.write_text("text,label\n" + rows, encoding="utf-8")
        config_path = tiny_config(tmp_path, corpus={"path": str(corpus_path)})
        self.assert_rejected(tmp_path, capsys, config_path, f"error: {corpus_path}: {message}\n")

    @pytest.mark.parametrize(
        "section, key",
        [("tokenizer", "min_freq"), ("corpus", "paths"), ("corpus.synthetic", "noise")],
    )
    def test_misspelt_nested_key(self, tmp_path, capsys, section, key):
        raw = tiny_config_dict(tmp_path / "runs")
        nested_section(raw, section)[key] = 5
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, f"{section}:", repr(key))

    @settings(max_examples=60, deadline=None)
    @given(
        section=st.sampled_from(sorted(NESTED_KEYS)),
        key=st.text(min_size=1, max_size=12),
        value=st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5)),
    )
    def test_any_unknown_nested_key_is_rejected(self, section, key, value):
        assume(key not in NESTED_KEYS[section])
        raw = tiny_config_dict(Path("unused"))
        nested_section(raw, section)[key] = value
        with pytest.raises(ConfigError, match=rf"^{section}:") as err:
            parse_experiment_config(raw)
        assert repr(key) in str(err.value)

    def test_explicit_pools_reject_generated_pool_keys(self):
        raw = {"num_examples": 4, "seed": 1, "class_token_pools": [["a"], ["b"]], "class_pool_size": 3}
        with pytest.raises(ConfigError, match="'class_pool_size'"):
            parse_synthetic_spec(raw, "spec")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("tokenizer", "max_vocab", 3),
            ("tokenizer", "max_vocab", "100"),
            ("tokenizer", "min_frequency", "2"),
            ("tokenizer", "min_frequency", 0),
            ("tokenizer", "min_frequency", -3),
            ("model", "max_seq_len", 16),
            ("model", "vocab_size", 7),
            ("model", "num_layers", 3),
            ("corpus.synthetic", "noise_rate", "0.1"),
            ("corpus.synthetic", "num_examples", "200"),
            ("corpus.synthetic", "seed", "x"),
            ("corpus.synthetic", "tokens_per_text", 5),
            ("train", "learning_rate", float("nan")),
        ],
    )
    def test_bad_section_value(self, tmp_path, capsys, section, key, value):
        """``model`` also rejects vocab_size, max_seq_len and num_layers, which
        are derived from the vocabulary, the tokenizer section and each variant."""
        raw = tiny_config_dict(tmp_path / "runs")
        nested_section(raw, section)[key] = value
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, f"{section}: ", key, repr(value))

    @pytest.mark.parametrize("key, value", [("output_dir", 5), ("variants", 5), ("model", [])])
    def test_bad_top_level_value(self, tmp_path, capsys, key, value):
        raw = tiny_config_dict(tmp_path / "runs")
        raw[key] = value
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, "config: ", key, repr(value))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "init_seed", -1),
            ("train", "shuffle_seed", -1),
            ("train", "split_seed", -1),
            ("corpus.synthetic", "seed", -1),
            ("train", "adam_beta1", 1.5),
            ("train", "adam_beta1", -0.1),
            ("train", "adam_beta2", 1.0),
            ("train", "adam_epsilon", -1.0),
            ("train", "adam_epsilon", 0.0),
        ],
    )
    def test_out_of_range_value(self, tmp_path, capsys, section, key, value):
        """Seeds must be >= 0, Adam's betas lie in [0, 1) and its epsilon is > 0."""
        raw = tiny_config_dict(tmp_path / "runs")
        nested_section(raw, section)[key] = value
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, f"{section}: ", key, repr(value))

    def test_negative_member_shuffle_seed(self, tmp_path, capsys):
        raw = tiny_config_dict(tmp_path / "runs")
        raw["variants"][0]["member_shuffle_seeds"] = [101, -1, 103]
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(
            tmp_path, capsys, config_path, "variants[0] 'ensemble-3x1': member_shuffle_seeds",
            "[101, -1, 103]",
        )

    def test_negative_synthetic_seed_under_gen_synthetic(self, tmp_path, capsys):
        spec = tiny_config_dict(tmp_path)["corpus"]["synthetic"]
        spec["seed"] = -1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["gen-synthetic", str(spec_path), str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {spec_path}: seed must be >= 0, got -1\n"
        assert not (tmp_path / "x.csv").exists()

    def test_shipped_and_benchmark_configs_are_accepted(self, tmp_path, monkeypatch):
        repo = Path(__file__).resolve().parents[1]
        load_experiment_config(repo / "configs" / "experiment.json")
        monkeypatch.syspath_prepend(str(repo / "perfbench"))
        import workloads

        load_experiment_config(workloads.warmup_config(tmp_path))
        for workload in workloads.WORKLOADS.values():
            inputs = workloads.prepare(workload, 1, tmp_path / workload.name)
            for path in inputs.configs.values():
                load_experiment_config(path)

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=2),
        key=st.text(min_size=1, max_size=12),
        value=st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5)),
    )
    def test_any_unknown_variant_key_is_rejected(self, index, key, value):
        raw = tiny_config_dict(Path("unused"))
        known = set(raw["variants"][index]) | {
            "num_layers", "n_members", "member_shuffle_seeds", "shared_init", "voting", "gated",
        }
        assume(key not in known)
        raw["variants"][index][key] = value
        with pytest.raises(ConfigError, match=rf"variants\[{index}\]") as err:
            parse_experiment_config(raw)
        assert repr(key) in str(err.value)


# One strategy per JSON type; a fuzzed value always has another type than
# the value it replaces.
JSON_TYPES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=5),
    list: st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=3)), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def json_paths(node, path=()):
    """The path of every value below ``node``, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, path + (key,))


def replace_somewhere(data, raw):
    """Replace one value of ``raw`` with a value of another JSON type;
    return its path."""
    path = data.draw(st.sampled_from(list(json_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    kind = type(parent[path[-1]])
    others = [strategy for other, strategy in JSON_TYPES.items() if other is not kind]
    parent[path[-1]] = data.draw(st.one_of(others))
    return path


def assert_declared_types(config) -> None:
    """Every int, float, bool and str field of ``config``, and of the config
    dataclasses inside it, holds its declared type; an int is a valid float."""
    scalar = {
        int: lambda v: type(v) is int,
        float: lambda v: type(v) in (int, float),
        bool: lambda v: type(v) is bool,
        str: lambda v: type(v) is str,
    }
    hints = typing.get_type_hints(type(config))
    for spec in dataclasses.fields(config):
        value, hint = getattr(config, spec.name), hints[spec.name]
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        options = typing.get_args(hint) if union else (hint,)
        checks = [scalar[kind] for kind in options if kind in scalar]
        if value is not None and checks:
            assert any(check(value) for check in checks), (spec.name, value)
        for item in value if isinstance(value, list) else [value]:
            if dataclasses.is_dataclass(item):
                assert_declared_types(item)


class TestFuzzedConfig:
    """Any value of the wrong JSON type, anywhere in a config, is either
    accepted with its declared type or rejected by a ConfigError naming the
    section (or variant) and the key; never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_experiment_config(self, data):
        raw = tiny_config_dict(Path("unused"))
        path = replace_somewhere(data, raw)
        try:
            config = parse_experiment_config(raw)
        except ConfigError as err:
            message = str(err)
            if path[0] == "variants" and len(path) > 1:
                assert message.startswith(f"variants[{path[1]}]"), (path, message)
                assert len(path) == 2 or path[2] in message, (path, message)
            else:
                keys = [key for key in path if isinstance(key, str)]
                section = ".".join(keys[:-1]) or "config"
                assert message.startswith(f"{section}: "), (path, message)
                assert keys[-1] in message, (path, message)
        else:
            assert_declared_types(config)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), explicit=st.booleans())
    def test_synthetic_spec(self, data, explicit):
        if explicit:
            raw = {
                "num_examples": 6,
                "seed": 1,
                "class_token_pools": [["a", "b"], ["c"]],
                "shared_pool": ["d"],
                "tokens_per_text": [1, 3],
                "noise_rate": 0.2,
            }
        else:
            raw = tiny_config_dict(Path("unused"))["corpus"]["synthetic"]
        path = replace_somewhere(data, raw)
        try:
            spec = parse_synthetic_spec(raw, "spec")
        except ConfigError as err:
            assert str(err).startswith("spec: ") and path[0] in str(err), (path, str(err))
        else:
            assert_declared_types(spec)


class TestVocabularyLeakage:
    def test_vocab_ignores_validation_texts(self, tmp_path):
        config_path = tiny_config(tmp_path)
        config = load_experiment_config(config_path)
        corpus = generate_synthetic(config.synthetic)
        # find which records land in validation for this split seed
        _, val_records = split_dataset(
            corpus.records, config.train.split_ratio, config.train.split_seed
        )
        val_set = set(val_records)

        baseline = run_experiment(config, echo=None)
        mutated_records = [
            ("sentinelblob " + text, label) if (text, label) in val_set else (text, label)
            for text, label in corpus.records
        ]
        mutated_csv = tmp_path / "mutated.csv"
        import csv as _csv

        with mutated_csv.open("w", newline="", encoding="utf-8") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["text", "label"])
            writer.writerows(mutated_records)

        config.corpus_path = str(mutated_csv)
        config.synthetic = None
        mutated = run_experiment(config, echo=None)

        baseline_vocab = (baseline.run_dir / "vocab.txt").read_text(encoding="utf-8")
        mutated_vocab = (mutated.run_dir / "vocab.txt").read_text(encoding="utf-8")
        assert "sentinelblob" not in mutated_vocab
        assert baseline_vocab == mutated_vocab


class TestEvalCommand:
    def test_single_checkpoint_reproduces_recorded_accuracy(self, completed_run, capsys):
        _, run_dir = completed_run
        recorded = json.loads((run_dir / "metrics.json").read_text())
        code = main(
            [
                "eval",
                str(run_dir / "checkpoints" / "single-3layer"),
                str(run_dir / "val.csv"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        recorded_accuracy = recorded["variants"]["single-3layer"]["accuracy"]
        assert abs(payload["metrics"]["accuracy"] - recorded_accuracy) < 1e-9

    def test_ensemble_checkpoint_reports_members(self, completed_run, capsys):
        _, run_dir = completed_run
        code = main(
            [
                "eval",
                str(run_dir / "checkpoints" / "ensemble-3x1"),
                str(run_dir / "val.csv"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["member_accuracies"]) == 3
        assert payload["disagreement_count"] >= 0
        recorded = json.loads((run_dir / "metrics.json").read_text())
        assert (
            payload["disagreement_count"]
            == recorded["variants"]["ensemble-3x1"]["disagreement_count"]
        )

    @pytest.mark.parametrize("voting", ["majority", "average_probability"])
    def test_ensemble_eval_forwards_each_member_once(
        self, completed_run, tmp_path, capsys, monkeypatch, voting
    ):
        _, run_dir = completed_run
        checkpoint = tmp_path / "ensemble"
        shutil.copytree(run_dir / "checkpoints" / "ensemble-3x1", checkpoint)
        manifest_path = checkpoint / "ensemble.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["voting"] = voting
        manifest_path.write_text(json.dumps(manifest))
        corpus = load_csv(run_dir / "val.csv")

        rows = count_forward_rows(monkeypatch)
        assert main(["eval", str(checkpoint), str(run_dir / "val.csv"), "--json"]) == 0
        assert sorted(rows.values()) == [len(corpus)] * 3
        monkeypatch.undo()

        payload = json.loads(capsys.readouterr().out)
        ensemble, vocab = load_ensemble(checkpoint)
        max_seq_len = ensemble.members[0].config.max_seq_len
        examples = [encode(text, vocab, max_seq_len, label) for text, label in corpus.records]
        assert payload["member_accuracies"] == [accuracy(m, examples) for m in ensemble.members]
        assert payload["disagreement_count"] == ensemble.predict(examples).disagreement_count

    def test_missing_checkpoint_exits_one(self, completed_run, capsys):
        _, run_dir = completed_run
        code = main(["eval", str(run_dir / "checkpoints" / "absent"), str(run_dir / "val.csv")])
        assert code == 1
        assert "absent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest, key_path",
        [
            ("ensemble.json", ["members"]),
            ("ensemble.json", ["n_members"]),
            ("ensemble.json", ["member_shuffle_seeds"]),
            ("member-00/manifest.json", ["params", 0, "name"]),
            ("member-00/manifest.json", ["params", 0, "shape"]),
            ("ensemble.json", None),  # not JSON at all
        ],
    )
    def test_defective_manifest_exits_one(
        self, completed_run, tmp_path, capsys, manifest, key_path
    ):
        _, run_dir = completed_run
        checkpoint = tmp_path / "ensemble"
        shutil.copytree(run_dir / "checkpoints" / "ensemble-3x1", checkpoint)
        manifest_path = checkpoint / manifest
        if key_path is None:
            manifest_path.write_text("{not json")
        else:
            doc = json.loads(manifest_path.read_text())
            holder = doc
            for key in key_path[:-1]:
                holder = holder[key]
            del holder[key_path[-1]]
            manifest_path.write_text(json.dumps(doc))
        code = main(["eval", str(checkpoint), str(run_dir / "val.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest_path) in err

    @pytest.mark.parametrize(
        "manifest, key_path, value, phrase",
        [
            ("ensemble.json", ["members"], 5, "manifest.members is 5"),
            ("ensemble.json", ["members"], [1, 2, 3], "manifest.members[0] is 1"),
            ("ensemble.json", ["members", 1], "../decoy", "manifest.members[1] is '../decoy'"),
            ("ensemble.json", ["n_members"], "3", "n_members must be an integer, got '3'"),
            ("ensemble.json", ["votes"], "majority", "unknown key 'votes'"),
            ("ensemble.json", ["shared_init"], None, "manifest is missing 'shared_init'"),
            ("member-00/manifest.json", ["vocab_file"], 5, "manifest.vocab_file is 5"),
            ("member-01/manifest.json", ["vocab_file"], "../../decoy/vocab.txt", "vocab_file"),
            ("member-02/manifest.json", ["params", 3, "shape", 0], 8.0, "params[3].shape[0]"),
        ],
    )
    def test_manifest_defect_names_file_and_key(
        self, completed_run, tmp_path, capsys, manifest, key_path, value, phrase
    ):
        """A manifest must be what a save of its config writes; no name in it
        is joined to a path, so a decoy checkpoint beside it is never read."""
        _, run_dir = completed_run
        checkpoint = tmp_path / "ensemble"
        shutil.copytree(run_dir / "checkpoints" / "ensemble-3x1", checkpoint)
        shutil.copytree(run_dir / "checkpoints" / "ensemble-3x1" / "member-01", tmp_path / "decoy")
        manifest_path = checkpoint / manifest
        doc = json.loads(manifest_path.read_text())
        holder = doc
        for key in key_path[:-1]:
            holder = holder[key]
        if value is None:
            del holder[key_path[-1]]
        else:
            holder[key_path[-1]] = value
        manifest_path.write_text(json.dumps(doc))
        assert main(["eval", str(checkpoint), str(run_dir / "val.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest_path}: ") and err.count("\n") == 1, err
        assert phrase in err

    @pytest.mark.parametrize(
        "name, content, phrase",
        [
            ("vocab.txt", b"red\ngreen\n", "must start with"),
            ("vocab.txt", None, "duplicate"),
        ],
    )
    def test_checkpoint_file_defect_names_file(
        self, completed_run, tmp_path, capsys, name, content, phrase
    ):
        _, run_dir = completed_run
        checkpoint = tmp_path / "single"
        shutil.copytree(run_dir / "checkpoints" / "single-3layer", checkpoint)
        path = checkpoint / name
        if content is None:
            lines = path.read_text(encoding="utf-8").splitlines()
            content = "\n".join(lines[:-1] + [lines[5]]).encode("utf-8") + b"\n"
        path.write_bytes(content)
        assert main(["eval", str(checkpoint), str(run_dir / "val.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert phrase in err

    @pytest.mark.parametrize("variant, params", [("single-3layer", "params.bin"),
                                                 ("ensemble-3x1", "member-01/params.bin")])
    def test_non_finite_weight_exits_one(self, completed_run, tmp_path, capsys, variant, params):
        """A checkpoint whose weights blew up is not scored."""
        _, run_dir = completed_run
        checkpoint = tmp_path / variant
        shutil.copytree(run_dir / "checkpoints" / variant, checkpoint)
        path = checkpoint / params
        raw = path.read_bytes()
        path.write_bytes(raw[:-4] + np.array(np.nan, "<f4").tobytes())
        assert main(["eval", str(checkpoint), str(run_dir / "val.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: parameter 'head.out_b' holds a non-finite value\n"

    def test_too_short_max_seq_len_exits_one(self, completed_run, tmp_path, capsys):
        """A checkpoint cut to 2 positions, its manifest edited to match, is
        rejected at load, naming the manifest, not when a text is encoded."""
        _, run_dir = completed_run
        checkpoint = tmp_path / "short"
        shutil.copytree(run_dir / "checkpoints" / "single-3layer", checkpoint)
        manifest_path = checkpoint / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        config = manifest["config"]
        hidden, length = config["hidden_dim"], config["max_seq_len"]
        # word, segment, then position rows lead params.bin
        start = 4 * hidden * (config["vocab_size"] + 2)
        raw = (checkpoint / "params.bin").read_bytes()
        (checkpoint / "params.bin").write_bytes(
            raw[: start + 4 * 2 * hidden] + raw[start + 4 * length * hidden :]
        )
        config["max_seq_len"] = 2
        position, = (p for p in manifest["params"] if p["name"] == "embed.position")
        position["shape"] = [2, hidden]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["eval", str(checkpoint), str(run_dir / "val.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {manifest_path}: manifest.config: max_seq_len must be >= 3, got 2\n"

    def assert_too_many_classes(self, completed_run, tmp_path, capsys, rows, row, label):
        _, run_dir = completed_run
        corpus_path = tmp_path / "more.csv"
        corpus_path.write_text("text,label\n" + rows, encoding="utf-8")
        code = main(["eval", str(run_dir / "checkpoints" / "single-3layer"), str(corpus_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {corpus_path}: row {row} label {label} is outside the checkpoint's 2 classes\n"
        )

    def test_corpus_with_more_classes_than_the_checkpoint_exits_one(
        self, completed_run, tmp_path, capsys
    ):
        """The first data row is row 2, as ``load_csv`` numbers rows."""
        self.assert_too_many_classes(
            completed_run, tmp_path, capsys, "a,0\nb,1\nc,2\nd,3\n", 4, 2
        )

    def test_unobserved_classes_below_the_largest_label_count(
        self, completed_run, tmp_path, capsys
    ):
        """A label outside the checkpoint's classes is named even when the
        classes below it are never observed."""
        self.assert_too_many_classes(completed_run, tmp_path, capsys, "a,0\nb,5\n", 3, 5)

    @pytest.mark.parametrize("label", [0, 1])
    def test_corpus_of_one_class_is_scored(self, completed_run, tmp_path, capsys, label):
        """A held-out file may hold any subset of the classes."""
        _, run_dir = completed_run
        rows = [(text, y) for text, y in load_csv(run_dir / "val.csv").records if y == label]
        corpus_path = tmp_path / "one-class.csv"
        save_csv(LabeledCorpus(rows, label + 1), corpus_path)
        checkpoint = run_dir / "checkpoints" / "single-3layer"
        assert main(["eval", str(checkpoint), str(corpus_path), "--json"]) == 0
        confusion = json.loads(capsys.readouterr().out)["metrics"]["confusion"]
        assert len(confusion) == 2 and sum(confusion[label]) == len(rows) > 0

    def test_non_utf8_corpus_exits_two_naming_the_file(self, completed_run, tmp_path, capsys):
        _, run_dir = completed_run
        corpus_path = tmp_path / "bad.csv"
        corpus_path.write_bytes(b"text,label\nab\xff,1\nc,0\n")
        code = main(["eval", str(run_dir / "checkpoints" / "single-3layer"), str(corpus_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {corpus_path}: cannot read (not UTF-8, invalid start byte)\n"

    def test_text_output_lists_metrics(self, completed_run, capsys):
        _, run_dir = completed_run
        code = main(
            ["eval", str(run_dir / "checkpoints" / "single-3layer"), str(run_dir / "val.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        for label in ("accuracy", "precision", "recall", "f1", "confusion"):
            assert label in out


class TestMetricsCommand:
    def test_reference_counts(self, capsys):
        assert main(["metrics", "11858", "150", "565", "11427"]) == 0
        out = capsys.readouterr().out
        assert "accuracy  0.9702" in out
        assert "precision 0.9870" in out
        assert "recall    0.9529" in out
        assert "f1        0.9697" in out

    def test_perfect_counts(self, capsys):
        assert main(["metrics", "1", "0", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("1.0000") == 4

    def test_all_zero_is_usage_error(self, capsys):
        assert main(["metrics", "0", "0", "0", "0"]) == 2

    def test_negative_is_usage_error(self, capsys):
        assert main(["metrics", "-1", "0", "0", "1"]) == 2

    def test_minutes_flag(self, capsys):
        assert main(["metrics", "11858", "150", "565", "11427", "--minutes", "212"]) == 0
        assert "accuracy_per_minute 0.0046" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "minutes, message",
        [("0", "--minutes must be positive"), ("-inf", "--minutes must be positive"),
         ("nan", "--minutes must be finite, got nan"),
         ("inf", "--minutes must be finite, got inf")],
    )
    def test_bad_minutes_fail_before_any_output(self, capsys, minutes, message):
        assert main(["metrics", "11858", "150", "565", "11427", f"--minutes={minutes}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


# each input file with each way it can be unreadable; the last five files
# are in checkpoints, and params.bin is read as bytes, never decoded
UNREADABLE = [
    (file, failure)
    for file in ("config", "spec", "corpus", "manifest.json", "ensemble.json",
                 "member-01/manifest.json", "params.bin", "vocab.txt")
    for failure in ("missing", "directory", "not UTF-8")
    if (file, failure) != ("params.bin", "not UTF-8")
]


class TestFailurePath:
    """``main`` reports every failure, argparse's included, as one
    ``error:`` line: exit 2 for usage and config errors, 1 for the rest."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "1", "2", "3", "x"],
            ["metrics", "1", "2", "3", "4", "--minutes", "-inf"],
            ["run", "{config}", "--parallel-members"],
            [],
            ["metrics", "99999999999999999999", "2", "3", "4"],
            ["metrics", "1", "2", "3", "4", "--minutes", "1e-320"],
        ],
        ids=["non-integer count", "dash value", "unknown flag", "no command",
             "count past int64", "ratio overflows"],
    )
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv):
        config_path = tiny_config(tmp_path)
        assert main([arg.format(config=config_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list((tmp_path / "runs").glob("run-*"))

    @pytest.mark.parametrize("made", [False, True], ids=["missing", "directory"])
    def test_unreadable_corpus_exits_two(self, tmp_path, capsys, made):
        """``eval`` fails on the CSV before it opens the checkpoint, and
        ``run`` before it creates a run directory."""
        corpus_path = tmp_path / "d.csv"
        if made:
            corpus_path.mkdir()
        config_path = tiny_config(tmp_path, corpus={"path": str(corpus_path)})
        for argv in (["eval", str(tmp_path / "no-checkpoint"), str(corpus_path)],
                     ["run", str(config_path), "--quiet"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {corpus_path}: cannot read (")
            assert err.count("\n") == 1
        assert not list((tmp_path / "runs").glob("run-*"))

    @pytest.mark.parametrize("file, failure", UNREADABLE)
    def test_unreadable_input_file(self, completed_run, tmp_path, capsys, file, failure):
        """Every file the commands read fails alike when it cannot be read:
        exit 2 for a config, a spec or a corpus, 1 for a checkpoint file."""
        _, run_dir = completed_run
        checkpoint = tmp_path / "checkpoint"
        variant = "ensemble-3x1" if file.startswith(("ensemble", "member")) else "single-3layer"
        shutil.copytree(run_dir / "checkpoints" / variant, checkpoint)
        corpus = tmp_path / "val.csv"
        shutil.copy(run_dir / "val.csv", corpus)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"num_examples": 10, "seed": 1}), encoding="utf-8")
        config = tiny_config(tmp_path)
        eval_argv = ["eval", str(checkpoint), str(corpus)]
        argv, path, code = {
            "config": (["run", str(config), "--quiet"], config, 2),
            "spec": (["gen-synthetic", str(spec), str(tmp_path / "out.csv")], spec, 2),
            "corpus": (eval_argv, corpus, 2),
        }.get(file, (eval_argv, checkpoint / file, 1))
        content = path.read_bytes()
        path.unlink()
        reason = os.strerror(errno.ENOENT)
        if failure == "directory":
            path.mkdir()
            reason = os.strerror(errno.EISDIR)
        elif failure == "not UTF-8":
            path.write_bytes(content + b"\xff")
            reason = "not UTF-8, invalid start byte"
        if (file, failure) == ("ensemble.json", "missing"):
            path = checkpoint / "manifest.json"  # the directory is read as a model checkpoint
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: cannot read ({reason})\n"
        assert not list((tmp_path / "runs").glob("run-*"))

    def test_tiny_minutes_print_a_large_ratio(self, capsys):
        assert main(["metrics", "1", "2", "3", "4", "--minutes", "1e-25"]) == 0
        out = capsys.readouterr().out
        # the rounded digits, not the float's binary expansion 4999999999999999379243008
        assert out.splitlines()[-1] == "accuracy_per_minute 4999999999999999000000000.0000"

    def test_error_from_outside_the_package_exits_one(self, capsys, monkeypatch):
        def raising(args):
            raise KeyError("tp")

        monkeypatch.setattr(cli_module, "_cmd_metrics", raising)
        assert main(["metrics", "1", "2", "3", "4"]) == 1
        assert capsys.readouterr() == ("", "error: 'tp'\n")


class TestAllocatorPin:
    """``training.pin_allocator`` is the one implementation; ``main`` calls
    it for every command, and ``train`` again for library callers."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_takes_the_settings(self):
        assert training_module.pin_allocator() == {
            "M_MMAP_THRESHOLD": 32 * 1024 * 1024, "M_TRIM_THRESHOLD": 1024 * 1024 * 1024
        }

    def test_main_pins_the_allocator(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli_module, "pin_allocator", lambda: calls.append(len(calls)))
        assert main(["metrics", "1", "2", "3", "4"]) == 0
        assert calls == [0]

    def test_without_mallopt_nothing_is_pinned_and_main_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(training_module.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert training_module.pin_allocator() is None
        assert main(["metrics", "1", "2", "3", "4"]) == 0
        assert capsys.readouterr().out.startswith("accuracy")


class TestDisplayRounding:
    """Printed values round ties away from zero as report.md does, not to
    even as ``:.4f`` and ``:.2f`` would (0.0037 and 0.12)."""

    def test_run_summary(self, tmp_path, capsys, monkeypatch):
        variant = types.SimpleNamespace(
            name="v",
            evaluation=types.SimpleNamespace(metrics=types.SimpleNamespace(accuracy=0.00375)),
            timing=types.SimpleNamespace(training_minutes=0.125),
        )
        result = types.SimpleNamespace(skipped_gated=[], run_dir="runs/x", variants=[variant])
        monkeypatch.setattr(cli_module, "run_experiment", lambda *args, **kwargs: result)
        assert main(["run", str(tiny_config(tmp_path)), "--quiet"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "  v: accuracy=0.0038 minutes=0.13"

    def test_eval_member_accuracies(self, completed_run, capsys, monkeypatch):
        _, run_dir = completed_run
        report = metrics(ConfusionMatrix.from_binary(1, 0, 0, 1))
        monkeypatch.setattr(cli_module, "evaluate", lambda *args: Evaluation(report, [0.00375], 1))
        checkpoint = run_dir / "checkpoints" / "ensemble-3x1"
        assert main(["eval", str(checkpoint), str(run_dir / "val.csv")]) == 0
        assert "  member accuracies: 0.0038\n" in capsys.readouterr().out


class TestGenSyntheticCommand:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "num_examples": 30,
                    "num_classes": 3,
                    "noise_rate": 0.1,
                    "seed": 2,
                    "tokens_per_text": [2, 6],
                }
            )
        )
        out_csv = tmp_path / "corpus.csv"
        assert main(["gen-synthetic", str(spec_path), str(out_csv)]) == 0
        corpus = load_csv(out_csv)
        assert len(corpus) == 30 and corpus.num_classes == 3

    def test_spec_schema_shared_with_run_config(self, tmp_path):
        raw = {"num_examples": 10, "num_classes": 2, "seed": 1}
        spec = parse_synthetic_spec(raw, "test")
        assert spec.num_classes == 2

    @pytest.mark.parametrize("command", [["run"], ["gen-synthetic", "out.csv"]])
    def test_invalid_json_names_path_line_and_column(self, tmp_path, capsys, command):
        """``run`` and ``gen-synthetic`` read JSON files alike."""
        path = tmp_path / "broken.json"
        path.write_text('{\n  "num_examples": 10,\n  oops\n}', encoding="utf-8")
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3:3: invalid JSON")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_invalid_json_position_is_alike_for_either_line_ending(
        self, tmp_path, capsys, newline
    ):
        path = tmp_path / "broken.json"
        path.write_bytes(newline.join(["{", '  "num_examples": 10,', "  oops", "}"]).encode())
        assert main(["gen-synthetic", str(path), str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3:3: invalid JSON")

    @pytest.mark.parametrize("command", [["run"], ["gen-synthetic", "out.csv"]])
    @pytest.mark.parametrize("content", [None, "directory", b'{"seed": "\xff"}'])
    def test_unreadable_file_is_usage_error(self, tmp_path, capsys, command, content):
        """A missing file, a directory, or bytes that are not UTF-8."""
        path = tmp_path / "config.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: cannot read (")

    @pytest.mark.parametrize(
        "key, value",
        [("noise_rate", "0.1"), ("num_examples", "200"), ("seed", "x"), ("tokens_per_text", 5),
         ("num_classes", 2.0), ("class_pool_size", True)],
    )
    def test_bad_spec_value_is_usage_error(self, tmp_path, capsys, key, value):
        spec = tiny_config_dict(tmp_path)["corpus"]["synthetic"]
        spec[key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["gen-synthetic", str(spec_path), str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: ") and err.count("\n") == 1
        assert key in err and repr(value) in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("token", ["A", "", "x y", "好天"])
    def test_pool_tokens_must_be_tokenizer_tokens(self, tmp_path, capsys, token):
        """Pools ``[["A"], ["a"]]`` are disjoint as strings, yet the tokenizer
        reads both classes as the one token 'a'."""
        spec = {"num_examples": 4, "seed": 1, "class_token_pools": [[token], ["a"]]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_csv = tmp_path / "x.csv"
        code = main(["gen-synthetic", str(spec_path), str(out_csv)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not out_csv.exists()
        assert err == (
            f"error: {spec_path}: class_token_pools: token {token!r} is not one tokenizer token\n"
        )

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"num_examples": 10}))  # seed missing
        assert main(["gen-synthetic", str(spec_path), str(tmp_path / "x.csv")]) == 2
        assert "seed" in capsys.readouterr().err
