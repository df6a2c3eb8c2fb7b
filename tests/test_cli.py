"""CLI and pipeline tests: experiment runs from a JSON config, gated
variants, byte-identical metrics across reruns, vocabulary built from the
training split only, checkpoint evaluation self-consistency, and the
metrics calculator."""

import json
import shutil
from pathlib import Path

import pytest

from minibert.cli import main
from minibert.corpus import generate_synthetic, load_csv
from minibert.experiment import (
    load_experiment_config,
    parse_synthetic_spec,
    run_experiment,
)
from minibert.training import split_dataset


def tiny_config(tmp_path: Path, **overrides) -> Path:
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
        "output_dir": str(tmp_path / "runs"),
    }
    config.update(overrides)
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
        assert timing_doc["ensemble-3x1"]["wall_clock_seconds"] > 0
        assert len(timing_doc["ensemble-3x1"]["per_run_seconds"]) == 3

        for artifact in ("train.csv", "val.csv", "vocab.txt", "train_log.txt"):
            assert (run_dir / artifact).exists()

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

    def test_parallel_members_flag(self, tmp_path):
        config_path = tiny_config(
            tmp_path,
            variants=[
                {
                    "name": "ens",
                    "kind": "ensemble",
                    "n_members": 2,
                    "num_layers": 1,
                    "member_shuffle_seeds": [1, 2],
                }
            ],
        )
        assert main(["run", str(config_path), "--quiet", "--parallel-members"]) == 0
        timing_doc = json.loads((latest_run_dir(tmp_path) / "timing.json").read_text())
        entry = timing_doc["ens"]
        assert entry["wall_clock_seconds"] > 0
        assert entry["training_minutes"] * 60 >= sum(entry["per_run_seconds"]) * 0.99

    def test_output_dir_flag_overrides_config(self, tmp_path):
        config_path = tiny_config(
            tmp_path,
            variants=[{"name": "only", "kind": "single", "num_layers": 1}],
        )
        override = tmp_path / "elsewhere"
        assert main(["run", str(config_path), "--quiet", "--output-dir", str(override)]) == 0
        assert override.exists() and list(override.iterdir())
        assert not (tmp_path / "runs").exists()


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

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"num_examples": 10}))  # seed missing
        assert main(["gen-synthetic", str(spec_path), str(tmp_path / "x.csv")]) == 2
        assert "seed" in capsys.readouterr().err
