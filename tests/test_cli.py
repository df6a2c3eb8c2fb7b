"""CLI and pipeline tests: experiment runs from a JSON config, gated
variants, configs rejected before any work, byte-identical metrics across
reruns, vocabulary built from the training split only, checkpoint
evaluation self-consistency and its one forward pass per member, and the
metrics calculator."""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minibert.checkpoint import load_ensemble
from minibert.cli import main
from minibert.corpus import generate_synthetic, load_csv
from minibert.errors import ConfigError
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

    def test_parallel_members_flag_is_gone(self, tmp_path, capsys):
        config_path = tiny_config(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["run", str(config_path), "--quiet", "--parallel-members"])
        assert exited.value.code == 2
        assert "--parallel-members" in capsys.readouterr().err
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

    def test_unknown_top_level_key(self, tmp_path, capsys):
        config_path = tiny_config(tmp_path, outptu_dir="elsewhere")
        self.assert_rejected(tmp_path, capsys, config_path, "config", "'outptu_dir'")

    def test_corpus_with_more_classes_than_the_model(self, tmp_path, capsys):
        raw = tiny_config_dict(tmp_path / "runs")
        raw["corpus"]["synthetic"]["num_classes"] = 3
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.assert_rejected(tmp_path, capsys, config_path, "3 classes", "num_classes is 2")

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
