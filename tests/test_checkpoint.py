"""Checkpoint tests: manifest/parameter-blob layout, exact predict
equality after a save/load round trip, rejection of mismatched or
corrupt checkpoints, and saves that fail part way leaving nothing that
loads; ``load_checkpoint`` and ``save_checkpoint`` pick the format."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from minibert.checkpoint import (
    is_ensemble_checkpoint,
    load_checkpoint,
    load_ensemble,
    load_model,
    save_checkpoint,
    save_ensemble,
    save_model,
)
from minibert.ensemble import EnsembleConfig, EnsembleModel
from minibert.errors import CheckpointError
from minibert.model import ClassifierModel, ModelConfig, init_model
from minibert.tokenizer import build_vocab, encode


@pytest.fixture
def setup():
    vocab = build_vocab(["red green blue cyan magenta yellow"], max_size=30)
    config = ModelConfig(
        vocab_size=len(vocab), hidden_dim=8, num_layers=2, num_heads=2,
        ff_dim=16, max_seq_len=10, num_classes=2, init_seed=77,
    )
    model = init_model(config)
    return vocab, config, model


def make_ensemble(config, n_members=2):
    members = [init_model(config) for _ in range(n_members)]
    ens_config = EnsembleConfig(
        member_model_config=config,
        n_members=n_members,
        member_shuffle_seeds=list(range(1, n_members + 1)),
    )
    return EnsembleModel(members, ens_config)


def random_examples(vocab, count, rng):
    tokens = [t for t in vocab.id_to_token[5:]]
    out = []
    for _ in range(count):
        text = " ".join(rng.choice(tokens) for _ in range(rng.integers(1, 7)))
        out.append(encode(text, vocab, 10, int(rng.integers(0, 2))))
    return out


class TestModelCheckpoint:
    def test_round_trip_predicts_identically(self, tmp_path, setup):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        loaded, loaded_vocab = load_model(tmp_path / "ckpt")
        assert loaded_vocab.id_to_token == vocab.id_to_token
        rng = np.random.default_rng(3)
        examples = random_examples(vocab, 100, rng)
        assert np.array_equal(model.predict(examples), loaded.predict(examples))
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, loaded.params[name].data), name

    def test_params_file_is_little_endian_float32(self, tmp_path, setup):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        raw = (tmp_path / "ckpt" / "params.bin").read_bytes()
        total = sum(int(np.prod(entry["shape"])) for entry in manifest["params"])
        assert len(raw) == 4 * total
        first_entry = manifest["params"][0]
        count = int(np.prod(first_entry["shape"]))
        stored = np.frombuffer(raw[: 4 * count], dtype="<f4").reshape(first_entry["shape"])
        assert np.array_equal(stored, model.params[first_entry["name"]].data)

    def test_truncated_params_rejected(self, tmp_path, setup):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        blob = tmp_path / "ckpt" / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="bytes"):
            load_model(tmp_path / "ckpt")

    def test_shape_mismatch_rejected(self, tmp_path, setup):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"][0]["shape"] = [1, 1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="shape"):
            load_model(tmp_path / "ckpt")

    def test_config_vocab_mismatch_rejected(self, tmp_path, setup):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["vocab_size"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_model(tmp_path / "ckpt")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_model(tmp_path / "nowhere")

    @pytest.mark.parametrize("key", ["name", "shape"])
    def test_params_entry_missing_key_rejected(self, tmp_path, setup, key):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["params"][1][key]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"manifest.json: .*'{key}'"):
            load_model(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "invalid JSON"), ("[]", "manifest is not a JSON object")],
    )
    def test_unparsable_manifest_rejected(self, tmp_path, setup, text, message):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        (tmp_path / "ckpt" / "manifest.json").write_text(text)
        with pytest.raises(CheckpointError, match=f"manifest.json: {message}"):
            load_model(tmp_path / "ckpt")


class TestEnsembleCheckpoint:
    def test_round_trip(self, tmp_path, setup):
        vocab, config, model = setup
        members = [init_model(config) for _ in range(3)]
        ens_config = EnsembleConfig(
            member_model_config=config, n_members=3, member_shuffle_seeds=[1, 2, 3]
        )
        ensemble = EnsembleModel(members, ens_config)
        save_ensemble(ensemble, tmp_path / "ens", vocab)
        assert is_ensemble_checkpoint(tmp_path / "ens")
        assert not is_ensemble_checkpoint(tmp_path / "ens" / "member-00")

        loaded, loaded_vocab = load_ensemble(tmp_path / "ens")
        assert loaded.config.n_members == 3
        assert loaded.config.voting == "majority"
        assert loaded_vocab.id_to_token == vocab.id_to_token
        rng = np.random.default_rng(5)
        examples = random_examples(vocab, 40, rng)
        original = ensemble.predict(examples)
        reloaded = loaded.predict(examples)
        assert np.array_equal(original.labels, reloaded.labels)
        assert original.disagreement_count == reloaded.disagreement_count

    def test_member_count_mismatch_rejected(self, tmp_path, setup):
        vocab, config, model = setup
        save_ensemble(make_ensemble(config), tmp_path / "ens", vocab)
        manifest_path = tmp_path / "ens" / "ensemble.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["members"] = manifest["members"][:1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="n_members"):
            load_ensemble(tmp_path / "ens")

    @pytest.mark.parametrize("key", ["members", "n_members", "member_shuffle_seeds"])
    def test_missing_manifest_key_rejected(self, tmp_path, setup, key):
        vocab, config, model = setup
        save_ensemble(make_ensemble(config), tmp_path / "ens", vocab)
        manifest_path = tmp_path / "ens" / "ensemble.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"ensemble.json: manifest is missing '{key}'"):
            load_ensemble(tmp_path / "ens")

    def test_invalid_json_rejected(self, tmp_path, setup):
        vocab, config, model = setup
        save_ensemble(make_ensemble(config), tmp_path / "ens", vocab)
        (tmp_path / "ens" / "ensemble.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="ensemble.json: invalid JSON"):
            load_ensemble(tmp_path / "ens")


class TestEitherFormat:
    def test_model_directory_loads_a_model(self, tmp_path, setup):
        vocab, config, model = setup
        save_checkpoint(model, tmp_path / "ckpt", vocab)
        assert not is_ensemble_checkpoint(tmp_path / "ckpt")
        loaded, loaded_vocab, loaded_config = load_checkpoint(tmp_path / "ckpt")
        assert isinstance(loaded, ClassifierModel)
        assert loaded_config == config
        assert loaded_vocab.id_to_token == vocab.id_to_token
        examples = random_examples(vocab, 20, np.random.default_rng(3))
        assert np.array_equal(loaded.predict(examples), model.predict(examples))

    def test_ensemble_directory_loads_an_ensemble(self, tmp_path, setup):
        vocab, config, _ = setup
        ensemble = make_ensemble(config, n_members=3)
        save_checkpoint(ensemble, tmp_path / "ens", vocab)
        assert is_ensemble_checkpoint(tmp_path / "ens")
        loaded, loaded_vocab, loaded_config = load_checkpoint(tmp_path / "ens")
        assert isinstance(loaded, EnsembleModel)
        assert loaded.config == ensemble.config
        assert loaded_config == config
        assert loaded_vocab.id_to_token == vocab.id_to_token
        examples = random_examples(vocab, 20, np.random.default_rng(4))
        assert np.array_equal(loaded.predict(examples).labels, ensemble.predict(examples).labels)

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CheckpointError, match="no model manifest"):
            load_checkpoint(tmp_path / "empty")


class TestFailedSave:
    """A write that fails mid-save leaves no manifest that loads, also when
    the save overwrites a complete checkpoint."""

    @pytest.fixture
    def fail_writing(self, monkeypatch):
        def install(file_name):
            real_write_bytes = Path.write_bytes

            def write_bytes(path, data):
                if path.name == file_name + ".tmp":
                    real_write_bytes(path, data[: len(data) // 2])
                    raise OSError(f"disk full writing {path.name}")
                return real_write_bytes(path, data)

            monkeypatch.setattr(Path, "write_bytes", write_bytes)

        return install

    @pytest.mark.parametrize("failing", ["params.bin", "manifest.json"])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_model(self, tmp_path, setup, fail_writing, failing, overwrite):
        vocab, config, model = setup
        directory = tmp_path / "ckpt"
        if overwrite:
            save_model(init_model(replace(config, init_seed=1)), directory, vocab)
        fail_writing(failing)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, directory, vocab)
        with pytest.raises(CheckpointError, match="no model manifest"):
            load_model(directory)
        assert not list(directory.glob("*.tmp"))

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_ensemble(self, tmp_path, setup, fail_writing, overwrite):
        vocab, config, model = setup
        directory = tmp_path / "ens"
        if overwrite:
            save_ensemble(make_ensemble(replace(config, init_seed=1)), directory, vocab)
        fail_writing("params.bin")
        with pytest.raises(OSError, match="disk full"):
            save_ensemble(make_ensemble(config), directory, vocab)
        with pytest.raises(CheckpointError, match="no ensemble manifest"):
            load_ensemble(directory)

    def test_overwriting_save_loads_the_new_parameters(self, tmp_path, setup):
        vocab, config, model = setup
        directory = tmp_path / "ckpt"
        save_model(init_model(replace(config, init_seed=1)), directory, vocab)
        save_model(model, directory, vocab)
        loaded, _ = load_model(directory)
        for name, param in model.params.items():
            assert np.array_equal(loaded.params[name].data, param.data)
        assert sorted(p.name for p in directory.iterdir()) == ["manifest.json", "params.bin", "vocab.txt"]
