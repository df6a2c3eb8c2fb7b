"""Model and ensemble checkpoints.

A model checkpoint is a directory holding ``manifest.json`` (the model
config plus a name/shape index of every parameter), ``params.bin`` (the
parameters as little-endian float32, concatenated in manifest order),
and ``vocab.txt``.  An ensemble checkpoint is a directory of member
checkpoints plus ``ensemble.json``.  Loading rejects any shape, name, or
size mismatch.

Saving removes the old manifest first and writes the new one last;
``params.bin`` and the manifests go to a temporary name that
``os.replace`` then moves into place.  A save that fails part way
therefore leaves no manifest that loads.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .ensemble import VOTING_RULES, EnsembleConfig, EnsembleModel
from .errors import CheckpointError, ConfigError
from .model import ClassifierModel, ModelConfig, parameter_shapes
from .tensor import Tensor
from .tokenizer import Vocabulary

MODEL_MANIFEST = "manifest.json"
PARAMS_FILE = "params.bin"
VOCAB_FILE = "vocab.txt"
ENSEMBLE_MANIFEST = "ensemble.json"

_MODEL_FORMAT = "minibert-model-v1"
_ENSEMBLE_FORMAT = "minibert-ensemble-v1"
_PARAM_DTYPE = np.dtype("<f4")


def _write_atomic(path: Path, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` in one step, never a partial file."""
    temporary = path.with_name(path.name + ".tmp")
    try:
        temporary.write_bytes(payload)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def _manifest_bytes(manifest: dict) -> bytes:
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_model(model: ClassifierModel, directory: str | Path, vocab: Vocabulary) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / MODEL_MANIFEST).unlink(missing_ok=True)
    names = list(parameter_shapes(model.config))
    vocab.save(directory / VOCAB_FILE)
    _write_atomic(
        directory / PARAMS_FILE,
        b"".join(
            np.ascontiguousarray(model.params[name].data, dtype=_PARAM_DTYPE).tobytes()
            for name in names
        ),
    )
    manifest = {
        "format": _MODEL_FORMAT,
        "config": asdict(model.config),
        "params": [
            {"name": name, "shape": list(model.params[name].shape)} for name in names
        ],
        "vocab_file": VOCAB_FILE,
    }
    _write_atomic(directory / MODEL_MANIFEST, _manifest_bytes(manifest))
    return directory


def _read_manifest(path: Path, kind: str, expected_format: str) -> dict:
    """Parse a checkpoint manifest; any defect is a ``CheckpointError``."""
    if not path.exists():
        raise CheckpointError(f"no {kind} manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CheckpointError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != expected_format:
        raise CheckpointError(f"{path}: unsupported format {manifest.get('format')!r}")
    return manifest


def load_model(directory: str | Path) -> tuple[ClassifierModel, Vocabulary]:
    directory = Path(directory)
    manifest_path = directory / MODEL_MANIFEST
    manifest = _read_manifest(manifest_path, "model", _MODEL_FORMAT)
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ConfigError, KeyError) as err:
        raise CheckpointError(f"{manifest_path}: bad config ({err})") from err

    expected = parameter_shapes(config)
    try:
        entries = [
            (entry["name"], tuple(entry["shape"])) for entry in manifest.get("params", [])
        ]
    except KeyError as err:
        raise CheckpointError(f"{manifest_path}: a params entry is missing {err}") from err
    except TypeError as err:
        raise CheckpointError(f"{manifest_path}: malformed params entry ({err})") from err
    if [name for name, _ in entries] != list(expected):
        raise CheckpointError(
            f"{manifest_path}: parameter list does not match the config's layout"
        )
    for name, shape in entries:
        if shape != expected[name]:
            raise CheckpointError(
                f"{manifest_path}: parameter {name} has shape "
                f"{shape}, config requires {expected[name]}"
            )

    raw = (directory / PARAMS_FILE).read_bytes()
    total = sum(int(np.prod(shape)) for _, shape in entries)
    if len(raw) != total * _PARAM_DTYPE.itemsize:
        raise CheckpointError(
            f"{directory / PARAMS_FILE}: has {len(raw)} bytes, "
            f"manifest requires {total * _PARAM_DTYPE.itemsize}"
        )
    flat = np.frombuffer(raw, dtype=_PARAM_DTYPE)
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape in entries:
        count = int(np.prod(shape))
        data = flat[offset : offset + count].reshape(shape).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
        offset += count

    vocab = Vocabulary.load(directory / manifest.get("vocab_file", VOCAB_FILE))
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"{directory}: vocabulary has {len(vocab)} entries, "
            f"config requires {config.vocab_size}"
        )
    return ClassifierModel(config, params), vocab


def save_ensemble(
    ensemble: EnsembleModel, directory: str | Path, vocab: Vocabulary
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / ENSEMBLE_MANIFEST).unlink(missing_ok=True)
    member_dirs = []
    for i, member in enumerate(ensemble.members):
        member_dir = f"member-{i:02d}"
        save_model(member, directory / member_dir, vocab)
        member_dirs.append(member_dir)
    manifest = {
        "format": _ENSEMBLE_FORMAT,
        "n_members": ensemble.config.n_members,
        "voting": ensemble.config.voting,
        "shared_init": ensemble.config.shared_init,
        "member_shuffle_seeds": list(ensemble.config.member_shuffle_seeds),
        "members": member_dirs,
    }
    _write_atomic(directory / ENSEMBLE_MANIFEST, _manifest_bytes(manifest))
    return directory


def load_ensemble(directory: str | Path) -> tuple[EnsembleModel, Vocabulary]:
    directory = Path(directory)
    manifest_path = directory / ENSEMBLE_MANIFEST
    manifest = _read_manifest(manifest_path, "ensemble", _ENSEMBLE_FORMAT)
    if manifest.get("voting") not in VOTING_RULES:
        raise CheckpointError(f"{manifest_path}: unknown voting rule {manifest.get('voting')!r}")
    try:
        member_dirs = manifest["members"]
        n_members = manifest["n_members"]
        shuffle_seeds = list(manifest["member_shuffle_seeds"])
    except KeyError as err:
        raise CheckpointError(f"{manifest_path}: manifest is missing {err}") from err
    except TypeError as err:
        raise CheckpointError(f"{manifest_path}: bad member_shuffle_seeds ({err})") from err
    members = []
    vocab: Vocabulary | None = None
    for member_dir in member_dirs:
        member, member_vocab = load_model(directory / member_dir)
        if vocab is None:
            vocab = member_vocab
        elif vocab.id_to_token != member_vocab.id_to_token:
            raise CheckpointError(f"{directory}: members disagree on the vocabulary")
        members.append(member)
    if vocab is None:
        raise CheckpointError(f"{manifest_path}: lists no members")
    if len(members) != n_members:
        raise CheckpointError(
            f"{manifest_path}: n_members={n_members} but "
            f"{len(members)} member checkpoints listed"
        )
    try:
        config = EnsembleConfig(
            member_model_config=members[0].config,
            n_members=n_members,
            shared_init=manifest.get("shared_init", True),
            member_shuffle_seeds=shuffle_seeds,
            voting=manifest["voting"],
        )
        return EnsembleModel(members, config), vocab
    except ConfigError as err:
        raise CheckpointError(f"{manifest_path}: {err}") from err


def is_ensemble_checkpoint(directory: str | Path) -> bool:
    return (Path(directory) / ENSEMBLE_MANIFEST).exists()
