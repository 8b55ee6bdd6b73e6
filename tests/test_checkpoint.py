import json

import numpy as np
import pytest

from infostat.encoder import (CheckpointError, ModelConfig, init_params,
                              load_checkpoint, save_checkpoint)

CONFIG = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=32, max_len=10,
                     vocab_size=20, dropout_rate=0.1)


def test_roundtrip_is_bit_exact(tmp_path):
    params = init_params(CONFIG, 5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CONFIG, path, extra={"vocab_sha256": "abc"})
    loaded, config, extra = load_checkpoint(path)
    assert config == CONFIG
    assert extra == {"vocab_sha256": "abc"}
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name]), name
        assert loaded[name].dtype == params[name].dtype


def test_float32_params_roundtrip(tmp_path):
    config = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_len=6,
                         vocab_size=12, dtype="float32")
    params = init_params(config, 1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, config, path)
    loaded, loaded_config, _ = load_checkpoint(path)
    assert loaded_config.dtype == "float32"
    for name in params:
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], params[name])


def test_truncated_file_is_corrupt(tmp_path):
    params = init_params(CONFIG, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CONFIG, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 100])
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_checkpoint(path)


def test_missing_manifest_is_corrupt(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"\x00\x01\x02\x03")
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_checkpoint(path)


def test_wrong_version_is_rejected(tmp_path):
    params = init_params(CONFIG, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CONFIG, path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    manifest = json.loads(raw[:newline])
    manifest["version"] = "infostat-ckpt-0"
    path.write_bytes(json.dumps(manifest).encode() + raw[newline:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_edited_shape_names_the_tensor(tmp_path):
    params = init_params(CONFIG, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CONFIG, path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    manifest = json.loads(raw[:newline])
    for entry in manifest["tensors"]:
        if entry["name"] == "layer1.ffn.w1":
            entry["shape"] = [4, 4]
    path.write_bytes(json.dumps(manifest).encode() + raw[newline:])
    with pytest.raises(CheckpointError, match="shape mismatch.*layer1.ffn.w1"):
        load_checkpoint(path)


def test_nonfinite_blob_is_rejected(tmp_path):
    params = init_params(CONFIG, 0)
    params["classifier.weight"][0, 0] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CONFIG, path)
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(tensors={"embeddings": 1}),
     "'tensors' must be a list of objects"),
    (lambda m: m["tensors"].__setitem__(0, "embeddings"),
     "'tensors' must be a list of objects"),
    (lambda m: m["tensors"][0].update(shape=20), "'shape' list"),
    (lambda m: m["tensors"][0].update(shape=[20.0, 16]), "all integers"),
    (lambda m: m.update(extra=["fold", 1]), "'extra' must be an object"),
    (lambda m: m["tensors"][0].pop("nbytes"), "'nbytes'"),
    (lambda m: m["tensors"][0].update(offset="0"), "'offset'"),
], ids=["tensors-not-list", "entry-not-object", "shape-not-list",
        "shape-float", "extra-not-object", "nbytes-missing", "offset-string"])
def test_malformed_manifest_names_the_path(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(CONFIG, 0), CONFIG, path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    manifest = json.loads(raw[:newline])
    edit(manifest)
    path.write_bytes(json.dumps(manifest).encode() + raw[newline:])
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"corrupt checkpoint {path}: ")
    assert message in str(info.value)
