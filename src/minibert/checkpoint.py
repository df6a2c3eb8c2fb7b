"""Model and ensemble checkpoints.

A model checkpoint is a directory holding ``manifest.json`` (the model
config plus a name/shape index of every parameter), ``params.bin`` (the
parameters as little-endian float32, concatenated in manifest order),
and ``vocab.txt``.  An ensemble checkpoint is a directory of member
checkpoints ``member-00``, ``member-01``, ... plus ``ensemble.json``.  A
save writes the manifest that ``_model_manifest`` or ``_ensemble_manifest``
builds from its config, and a load rejects any manifest that differs from
that of the config it holds or whose ``max_seq_len`` cannot hold an
encoded text, and any non-finite weight.
``load_checkpoint`` loads an ensemble where ``ensemble.json`` exists and
a model elsewhere.

Saving removes the old manifest first and writes the new one last;
``params.bin`` and the manifests go to a temporary name that
``os.replace`` then moves into place.  A save that fails part way
therefore leaves no manifest that loads.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path
from reprlib import repr as _short

import numpy as np

from .ensemble import EnsembleConfig, EnsembleModel
from .errors import CheckpointError, ConfigError, json_text, read_input, read_json, read_section
from .model import ClassifierModel, ModelConfig, parameter_count, parameter_shapes
from .tokenizer import MIN_SEQ_LEN, Vocabulary

MODEL_MANIFEST = "manifest.json"
PARAMS_FILE = "params.bin"
VOCAB_FILE = "vocab.txt"
ENSEMBLE_MANIFEST = "ensemble.json"
_MEMBER_DIR = "member-{:02d}"

_MODEL_FORMAT = "minibert-model-v1"
_ENSEMBLE_FORMAT = "minibert-ensemble-v1"
_PARAM_DTYPE = np.dtype("<f4")


def _model_manifest(config: ModelConfig) -> dict:
    return {
        "format": _MODEL_FORMAT,
        "config": asdict(config),
        "params": [{"name": n, "shape": list(s)} for n, s in parameter_shapes(config).items()],
        "vocab_file": VOCAB_FILE,
    }


def _ensemble_manifest(config: EnsembleConfig) -> dict:
    return {
        "format": _ENSEMBLE_FORMAT,
        "n_members": config.n_members,
        "voting": config.voting,
        "shared_init": config.shared_init,
        "member_shuffle_seeds": list(config.member_shuffle_seeds),
        "members": [_MEMBER_DIR.format(index) for index in range(config.n_members)],
    }


def _write_atomic(path: Path, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` in one step, never a partial file."""
    temporary = path.with_name(path.name + ".tmp")
    try:
        temporary.write_bytes(payload)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def save_model(model: ClassifierModel, directory: str | Path, vocab: Vocabulary) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / MODEL_MANIFEST).unlink(missing_ok=True)
    manifest = _model_manifest(model.config)
    vocab.save(directory / VOCAB_FILE)
    _write_atomic(directory / PARAMS_FILE, model.flat.astype(_PARAM_DTYPE).tobytes())
    _write_atomic(directory / MODEL_MANIFEST, json_text(manifest).encode("utf-8"))
    return directory


@contextmanager
def _defects_of(path: Path):
    """Report a failure to decode or check ``path`` as a CheckpointError."""
    try:
        yield
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from None


def _read_manifest(path: Path) -> dict:
    """Parse a checkpoint manifest; any defect is a ``CheckpointError``."""
    manifest = read_json(path, CheckpointError)
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    return manifest


def _require_saved(found, saved, read_from: dict, where: str = "manifest") -> None:
    """Raise a ConfigError at the first key, type or value in which ``found``
    differs from ``saved``, the manifest that a save of ``read_from`` writes."""
    if isinstance(found, dict) and isinstance(saved, dict):
        odd = [f"is missing {key!r}" for key in saved if key not in found]
        odd += [f"has unknown key {key!r}" for key in found if key not in saved]
        if odd:
            raise ConfigError(f"{where} {odd[0]}")
        inner = [(found[key], value, f"{where}.{key}") for key, value in saved.items()]
    elif isinstance(found, list) and isinstance(saved, list) and len(found) == len(saved):
        inner = [(*pair, f"{where}[{i}]") for i, pair in enumerate(zip(found, saved))]
    elif type(found) is type(saved) and found == saved:
        return
    else:
        found, saved = _short(found), _short(saved)
        raise ConfigError(f"{where} is {found}, but a save of {read_from} writes {saved}")
    for item, value, at in inner:
        _require_saved(item, value, read_from, at)


def load_model(directory: str | Path) -> tuple[ClassifierModel, Vocabulary]:
    directory = Path(directory)
    manifest_path = directory / MODEL_MANIFEST
    manifest = _read_manifest(manifest_path)
    with _defects_of(manifest_path):
        config = read_section(
            ModelConfig, manifest.get("config"), "manifest.config", all_required=True
        )
        # ModelConfig allows shorter, but no text encodes to fewer positions
        if config.max_seq_len < MIN_SEQ_LEN:
            raise ConfigError(
                f"manifest.config: max_seq_len must be >= {MIN_SEQ_LEN}, got {config.max_seq_len}"
            )
        _require_saved(manifest, _model_manifest(config), manifest["config"])

    params_path = directory / PARAMS_FILE
    raw = read_input(params_path, CheckpointError, binary=True)
    size = parameter_count(config) * _PARAM_DTYPE.itemsize
    if len(raw) != size:
        raise CheckpointError(f"{params_path}: has {len(raw)} bytes, manifest requires {size}")
    model = ClassifierModel(config, np.frombuffer(raw, dtype=_PARAM_DTYPE).astype(np.float32))
    if not np.isfinite(model.flat).all():
        name = next(n for n, p in model.named_parameters() if not np.isfinite(p.data).all())
        raise CheckpointError(f"{params_path}: parameter {name!r} holds a non-finite value")

    vocab_path = directory / VOCAB_FILE
    with _defects_of(vocab_path):
        vocab = Vocabulary(read_input(vocab_path, CheckpointError).splitlines())
    if len(vocab) != config.vocab_size:
        raise CheckpointError(f"{vocab_path}: {len(vocab)} tokens, config has {config.vocab_size}")
    return model, vocab


def save_ensemble(
    ensemble: EnsembleModel, directory: str | Path, vocab: Vocabulary
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / ENSEMBLE_MANIFEST).unlink(missing_ok=True)
    manifest = _ensemble_manifest(ensemble.config)
    for member, member_dir in zip(ensemble.members, manifest["members"]):
        save_model(member, directory / member_dir, vocab)
    _write_atomic(directory / ENSEMBLE_MANIFEST, json_text(manifest).encode("utf-8"))
    return directory


def load_ensemble(directory: str | Path) -> tuple[EnsembleModel, Vocabulary]:
    directory = Path(directory)
    manifest_path = directory / ENSEMBLE_MANIFEST
    manifest = _read_manifest(manifest_path)
    first_dir = directory / _MEMBER_DIR.format(0)
    first, vocab = load_model(first_dir)
    section = {f.name: manifest[f.name] for f in fields(EnsembleConfig) if f.name in manifest}
    with _defects_of(manifest_path):
        config = read_section(
            EnsembleConfig, section, "manifest", all_required=True,
            member_model_config=first.config,
        )
        _require_saved(manifest, _ensemble_manifest(config), section)
    members = [first]
    for index in range(1, config.n_members):
        member_dir = directory / _MEMBER_DIR.format(index)
        member, member_vocab = load_model(member_dir)
        # members share one vocabulary and one model shape; init seeds may differ
        shape = replace(member.config, init_seed=first.config.init_seed)
        for name, same in (
            (VOCAB_FILE, member_vocab.id_to_token == vocab.id_to_token),
            (MODEL_MANIFEST, shape == first.config),
        ):
            if not same:
                raise CheckpointError(f"{member_dir / name}: differs from {first_dir / name}")
        members.append(member)
    return EnsembleModel(members, config), vocab


def load_checkpoint(
    directory: str | Path,
) -> tuple[ClassifierModel | EnsembleModel, Vocabulary, ModelConfig]:
    """Load the ensemble or, without ``ensemble.json``, the model in
    ``directory``, with its vocabulary and the model shape its inputs are
    encoded for (an ensemble's member shape)."""
    if (Path(directory) / ENSEMBLE_MANIFEST).exists():
        ensemble, vocab = load_ensemble(directory)
        return ensemble, vocab, ensemble.config.member_model_config
    model, vocab = load_model(directory)
    return model, vocab, model.config
