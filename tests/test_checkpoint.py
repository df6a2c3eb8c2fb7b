"""Checkpoint tests: manifest/parameter-blob layout, exact predict
equality after a save/load round trip, rejection of mismatched or
corrupt checkpoints (also any one defect fuzzed into a saved checkpoint),
and saves that fail part way leaving nothing that loads;
``load_checkpoint`` and ``save_checkpoint`` pick the format."""

import errno
import io
import json
import os
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minibert.checkpoint import (
    is_ensemble_checkpoint,
    load_checkpoint,
    load_ensemble,
    load_model,
    save_checkpoint,
    save_ensemble,
    save_model,
)
from minibert.cli import main
from minibert.ensemble import EnsembleConfig, EnsembleModel
from minibert.errors import CheckpointError
from minibert.model import ClassifierModel, ModelConfig, init_model
from minibert.tokenizer import build_vocab, encode
from test_cli import JSON_TYPES, json_paths, replace_somewhere


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


def missing(path: Path) -> str:
    """The whole message that reading the missing file ``path`` fails with."""
    return f"^{re.escape(f'{path}: cannot read ({os.strerror(errno.ENOENT)})')}$"


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

    def test_params_file_is_the_flat_array_and_loads_back_bit_for_bit(self, tmp_path, setup):
        vocab, config, model = setup
        model.flat[:] = np.random.default_rng(4).standard_normal(model.flat.size)
        save_model(model, tmp_path / "ckpt", vocab)
        assert (tmp_path / "ckpt" / "params.bin").read_bytes() == model.flat.astype("<f4").tobytes()
        loaded, _ = load_model(tmp_path / "ckpt")
        assert loaded.flat.dtype == np.float32 and np.array_equal(loaded.flat, model.flat)
        # training updates a loaded model's parameters in place
        assert loaded.flat.flags.writeable

    def test_truncated_params_rejected(self, tmp_path, setup):
        vocab, config, model = setup
        save_model(model, tmp_path / "ckpt", vocab)
        blob = tmp_path / "ckpt" / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="bytes"):
            load_model(tmp_path / "ckpt")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, setup, value):
        """A blown-up weight is not loaded to be scored; the error names the
        parameter that holds the first non-finite value."""
        vocab, config, model = setup
        model.params["layer1.ff1_b"].data[3] = value
        model.params["head.out_w"].data[0, 1] = np.nan
        save_model(model, tmp_path / "ckpt", vocab)
        with pytest.raises(CheckpointError) as err:
            load_model(tmp_path / "ckpt")
        params_path = tmp_path / "ckpt" / "params.bin"
        assert str(err.value) == f"{params_path}: parameter 'layer1.ff1_b' holds a non-finite value"

    @pytest.mark.parametrize("max_seq_len", [1, 2])
    def test_too_short_max_seq_len_rejected(self, tmp_path, setup, max_seq_len):
        """A manifest and weights that agree, but whose positions cannot hold
        [CLS], one token and [SEP], do not load."""
        vocab, config, _ = setup
        save_model(init_model(replace(config, max_seq_len=max_seq_len)), tmp_path / "ckpt", vocab)
        with pytest.raises(CheckpointError) as err:
            load_model(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        assert str(err.value) == (
            f"{manifest_path}: manifest.config: max_seq_len must be >= 3, got {max_seq_len}"
        )

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
        position = ":1:2" if text == "{not json" else ""
        with pytest.raises(CheckpointError, match=f"manifest.json{position}: {message}"):
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

    @pytest.mark.parametrize("changed", ["vocab.txt", "manifest.json"])
    def test_members_disagreeing_rejected(self, tmp_path, setup, changed):
        """Members may differ in their init seeds only; the error names the
        odd member's file and the first member's."""
        vocab, config, model = setup
        save_ensemble(make_ensemble(config, n_members=3), tmp_path / "ens", vocab)
        path = tmp_path / "ens" / "member-02" / changed
        if changed == "vocab.txt":
            lines = path.read_text().splitlines()
            lines[5], lines[6] = lines[6], lines[5]
            path.write_text("\n".join(lines) + "\n")
        else:
            manifest = json.loads(path.read_text())
            manifest["config"]["init_scale"] = 0.5
            path.write_text(json.dumps(manifest))
        first = tmp_path / "ens" / "member-00" / changed
        message = f"{path}: differs from {first}"
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_ensemble(tmp_path / "ens")

    def test_invalid_json_rejected(self, tmp_path, setup):
        vocab, config, model = setup
        save_ensemble(make_ensemble(config), tmp_path / "ens", vocab)
        (tmp_path / "ens" / "ensemble.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="ensemble.json:1:2: invalid JSON"):
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
        with pytest.raises(CheckpointError, match=missing(tmp_path / "empty" / "manifest.json")):
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
        with pytest.raises(CheckpointError, match=missing(directory / "manifest.json")):
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
        with pytest.raises(CheckpointError, match=missing(directory / "ensemble.json")):
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


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved model and a saved 3-member ensemble whose members differ,
    examples encoded with their vocabulary, and a CSV of the same texts."""
    root = tmp_path_factory.mktemp("saved")
    texts = ["red green", "blue cyan magenta", "yellow red blue", "cyan", "green yellow"]
    vocab = build_vocab(texts, max_size=30)
    config = ModelConfig(
        vocab_size=len(vocab), hidden_dim=8, num_layers=2, num_heads=2,
        ff_dim=16, max_seq_len=10, num_classes=2, init_seed=77, init_scale=0.5,
    )
    save_model(init_model(config), root / "model", vocab)
    members = [init_model(replace(config, init_seed=seed)) for seed in (1, 2, 3)]
    ens_config = EnsembleConfig(
        member_model_config=config, n_members=3, shared_init=False,
        member_shuffle_seeds=[4, 5, 6], voting="average_probability",
    )
    save_ensemble(EnsembleModel(members, ens_config), root / "ensemble", vocab)
    records = [(text, i % 2) for i, text in enumerate(texts * 4)]
    (root / "eval.csv").write_text(
        "text,label\n" + "".join(f"{text},{label}\n" for text, label in records)
    )
    examples = [encode(text, vocab, 10, label) for text, label in records]
    return root, examples


def predictions(predictor, examples):
    if isinstance(predictor, EnsembleModel):
        voted = predictor.predict(examples)
        return np.concatenate([voted.labels[None], voted.member_labels])
    return predictor.predict(examples)


def corrupt(data, path: Path) -> None:
    """Make one change to the checkpoint file ``path``: a manifest value of
    another JSON type, a deleted or an added key; a truncated or extended
    ``params.bin``, or one holding a non-finite value; or a ``vocab.txt``
    that is not UTF-8, lacks a special token, repeats, drops, adds or swaps
    tokens."""
    if path.name == "params.bin":
        raw = path.read_bytes()
        cut = data.draw(st.integers(1, len(raw)))
        extra = data.draw(st.binary(min_size=1, max_size=64))
        at = 4 * data.draw(st.integers(0, len(raw) // 4 - 1))
        value = np.array(data.draw(st.sampled_from([np.nan, np.inf, -np.inf])), "<f4")
        non_finite = raw[:at] + value.tobytes() + raw[at + 4:]
        path.write_bytes(data.draw(st.sampled_from([raw[:-cut], raw + extra, non_finite])))
    elif path.name == "vocab.txt":
        lines = path.read_text(encoding="utf-8").splitlines()
        line = st.integers(0, len(lines) - 1)
        choice = data.draw(st.sampled_from(["bytes", "special", "repeat", "drop", "add", "swap"]))
        if choice == "special":
            lines[data.draw(st.integers(0, 4))] = "[NOPE]"
        elif choice == "repeat":
            i, j = data.draw(st.lists(line, min_size=2, max_size=2, unique=True))
            lines[i] = lines[j]
        elif choice == "drop":
            del lines[data.draw(line)]
        elif choice == "add":
            lines.append("newtoken")
        elif choice == "swap":
            k = data.draw(st.integers(5, len(lines) - 1))
            lines[k], lines[5] = lines[5], lines[k]
        raw = ("\n".join(lines) + "\n").encode("utf-8")
        path.write_bytes(raw.replace(b"\n", b"\n\xff", 1) if choice == "bytes" else raw)
    else:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        holders = [()] + [p for p in json_paths(manifest) if isinstance(lookup(manifest, p), dict)]
        keyed = [p for p in json_paths(manifest) if isinstance(lookup(manifest, p[:-1]), dict)]
        choice = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if choice == "replace":
            replace_somewhere(data, manifest)
        elif choice == "delete":
            where = data.draw(st.sampled_from(keyed))
            del lookup(manifest, where[:-1])[where[-1]]
        else:
            holder = lookup(manifest, data.draw(st.sampled_from(holders)))
            key = data.draw(st.text(max_size=8).filter(lambda key: key not in holder))
            holder[key] = data.draw(st.one_of(list(JSON_TYPES.values())))
        path.write_text(json.dumps(manifest), encoding="utf-8")


def lookup(node, path):
    for key in path:
        node = node[key]
    return node


class TestFuzzedCheckpoint:
    """One defect anywhere in a saved checkpoint either leaves it loading
    to the same predictions or raises a CheckpointError naming the changed
    file, and ``minibert eval`` then prints one ``error:`` line and exits 1."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["model", "ensemble"]))
    def test_one_defect(self, saved, data, kind):
        root, examples = saved
        files = sorted(
            str(path.relative_to(root / kind)) for path in (root / kind).rglob("*") if path.is_file()
        )
        with tempfile.TemporaryDirectory() as scratch:
            checkpoint = Path(scratch) / kind
            shutil.copytree(root / kind, checkpoint)
            changed = checkpoint / data.draw(st.sampled_from(files))
            corrupt(data, changed)
            try:
                predictor, _, _ = load_checkpoint(checkpoint)
            except CheckpointError as err:
                assert str(changed) in str(err), str(err)
                expected_code = 1
            else:
                original, _, _ = load_checkpoint(root / kind)
                assert np.array_equal(
                    predictions(predictor, examples), predictions(original, examples)
                )
                expected_code = 0
            stderr = io.StringIO()
            with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
                code = main(["eval", str(checkpoint), str(root / "eval.csv")])
            assert code == expected_code, stderr.getvalue()
            if code:
                line, = stderr.getvalue().splitlines()
                assert line.startswith("error: ") and str(changed) in line, line
