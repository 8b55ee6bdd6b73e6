import ctypes
import json
import platform
import random
import re
import resource
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from infostat import cli, context as ctx, corpus as cp, evaluation
from infostat.encoder import (GradCheckReport, ModelConfig, TrainConfig,
                              TrainingDivergedError, train)

FAST_MODEL = ["--layers", "1", "--d-model", "16", "--heads", "4",
              "--d-ff", "32", "--max-len", "32", "--epochs", "2",
              "--learning-rate", "1e-3", "--batch-size", "16"]
FAST_SHAPE = FAST_MODEL[:10]  # the model's shape flags, no training ones


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.json"
    assert run(["gen-synthetic", "--seed", 1, "--docs", 6, "--sentences", 3,
                "--mentions-per-sentence", 2, "--out", path]) == 0
    return path


class TestGenSynthetic:
    def test_is_deterministic_and_loadable(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["gen-synthetic", "--seed", 7, "--docs", 4,
                    "--sentences", 3, "--mentions-per-sentence", 2,
                    "--out", a]) == 0
        assert run(["gen-synthetic", "--seed", 7, "--docs", 4,
                    "--sentences", 3, "--mentions-per-sentence", 2,
                    "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        loaded = cp.load_corpus(a)
        assert loaded.total_mentions() == 4 * 3 * 2

    def test_histogram_matches_stats(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen-synthetic", "--seed", 2, "--docs", 3, "--sentences", 3,
             "--mentions-per-sentence", 2, "--out", path])
        out = capsys.readouterr().out
        stats = cp.corpus_stats(cp.load_corpus(path))
        for label, entry in stats.items():
            assert f"{label.value:<24} {entry.count:>6}" in out

    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        """The seed comes from --seed or a config file, else 0; a leftover
        INFOSTAT_SEED variable changes nothing."""
        with_env = tmp_path / "env.json"
        seed_0 = tmp_path / "seed0.json"
        monkeypatch.setenv("INFOSTAT_SEED", "55")
        run(["gen-synthetic", "--docs", 2, "--sentences", 2,
             "--mentions-per-sentence", 2, "--out", with_env])
        monkeypatch.delenv("INFOSTAT_SEED")
        run(["gen-synthetic", "--seed", 0, "--docs", 2, "--sentences", 2,
             "--mentions-per-sentence", 2, "--out", seed_0])
        assert with_env.read_bytes() == seed_0.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"docs": 3, "sentences": 2,
                                      "mentions_per_sentence": 2, "seed": 9}))
        out = tmp_path / "c.json"
        run(["gen-synthetic", "--config", config, "--out", out])
        assert len(cp.load_corpus(out).documents) == 3
        run(["gen-synthetic", "--config", config, "--docs", 5, "--out", out])
        assert len(cp.load_corpus(out).documents) == 5


class TestBuildVocab:
    def test_writes_vocabulary(self, tmp_path, corpus_file):
        out = tmp_path / "vocab.txt"
        assert run(["build-vocab", "--corpus", corpus_file, "--mode",
                    "context2", "--out", out]) == 0
        vocab = ctx.Vocab.load(out)
        assert vocab.tokens[:8] == ctx.RESERVED_TOKENS
        assert len(vocab) > 8

    @pytest.mark.parametrize("mention_id", [None, 1.5, True])
    def test_id_that_is_no_string_is_input_error(self, tmp_path, corpus_file,
                                                 capsys, mention_id):
        data = json.loads(corpus_file.read_text())
        data["documents"][1]["mentions"][2]["id"] = mention_id
        corpus_file.write_text(json.dumps(data))
        out = tmp_path / "vocab.txt"
        assert run(["build-vocab", "--corpus", corpus_file, "--out", out]) == 1
        doc_id = data["documents"][1]["id"]
        assert (f"document {doc_id!r}: mention at position 2: 'id' must be a "
                f"string, not {json.dumps(mention_id)}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestTrainPredict:
    def test_train_writes_artifacts_and_is_deterministic(self, tmp_path,
                                                          corpus_file):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            assert run(["train", "--corpus", corpus_file, "--mode", "context1",
                        "--seed", 3, "--out", out] + FAST_MODEL) == 0
            assert (out / "checkpoint.ckpt").exists()
            assert (out / "vocab.txt").exists()
            assert (out / "resolved_config.json").exists()
            assert (out / "loss_log.json").exists()
        assert (out1 / "checkpoint.ckpt").read_bytes() \
            == (out2 / "checkpoint.ckpt").read_bytes()
        assert (out1 / "loss_log.json").read_bytes() \
            == (out2 / "loss_log.json").read_bytes()

    def test_predict_writes_records(self, tmp_path, corpus_file):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "context1",
             "--seed", 3, "--out", out] + FAST_MODEL)
        preds = tmp_path / "preds.jsonl"
        assert run(["predict", "--corpus", corpus_file,
                    "--checkpoint", out / "checkpoint.ckpt",
                    "--vocab", out / "vocab.txt", "--out", preds]) == 0
        lines = preds.read_text().splitlines()
        assert len(lines) == cp.load_corpus(corpus_file).total_mentions()
        record = json.loads(lines[0])
        assert set(record) == {"mention_id", "gold", "pred", "probs"}
        assert len(record["probs"]) == 8

    def test_predict_skips_documents_without_mentions(self, tmp_path,
                                                      corpus_file, capsys):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "context2",
             "--seed", 3, "--out", out] + FAST_MODEL)
        loaded = cp.load_corpus(corpus_file)
        docs = loaded.documents

        def predict(documents, name):
            path = tmp_path / f"{name}.json"
            cp.save_corpus(cp.Corpus(documents=tuple(documents)), path)
            preds = tmp_path / f"{name}.jsonl"
            code = run(["predict", "--corpus", path,
                        "--checkpoint", out / "checkpoint.ckpt",
                        "--vocab", out / "vocab.txt", "--out", preds])
            return code, preds

        emptied = [replace(d, mentions=()) if i % 2 else d
                   for i, d in enumerate(docs)]
        code, preds = predict(emptied, "some-empty")
        assert code == 0
        kept = [d for i, d in enumerate(docs) if i % 2 == 0]
        assert preds.read_bytes() == predict(kept, "kept")[1].read_bytes()
        lines = preds.read_text().splitlines()
        assert [json.loads(l)["mention_id"] for l in lines] \
            == [m.id for d in kept for m in d.mentions]

        capsys.readouterr()
        code, preds = predict([replace(d, mentions=()) for d in docs],
                              "all-empty")
        assert code == 0
        assert preds.read_bytes() == b""  # no prediction records
        assert "(0 predictions)" in capsys.readouterr().out

    def test_predict_unlabeled_corpus_writes_null_gold(self, tmp_path,
                                                       corpus_file):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "context2",
             "--seed", 3, "--out", out] + FAST_MODEL)
        loaded = cp.load_corpus(corpus_file)
        unlabeled = tmp_path / "unlabeled.json"
        cp.save_corpus(cp.Corpus(documents=tuple(
            replace(d, mentions=tuple(replace(m, label=None)
                                      for m in d.mentions))
            for d in loaded.documents)), unlabeled)

        def predict(path):
            preds = tmp_path / f"{path.stem}.jsonl"
            assert run(["predict", "--corpus", path,
                        "--checkpoint", out / "checkpoint.ckpt",
                        "--vocab", out / "vocab.txt", "--out", preds]) == 0
            return preds.read_text().splitlines()

        labeled, blind = predict(corpus_file), predict(unlabeled)
        assert len(blind) == loaded.total_mentions()
        assert all(json.loads(line)["gold"] is None for line in blind)
        # Byte for byte, the lines differ only in the gold field.
        assert [re.sub(r'"gold": "[^"]+"', '"gold": null', line)
                for line in labeled] == blind

    def test_predict_mode_is_flag_then_config_then_checkpoint(self, tmp_path,
                                                              corpus_file):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "context2",
             "--seed", 3, "--out", out] + FAST_MODEL)
        config = tmp_path / "predict.json"
        config.write_text(json.dumps({"mode": "context1"}))

        def predict(name, *extra):
            preds = tmp_path / f"{name}.jsonl"
            assert run(["predict", "--corpus", corpus_file,
                        "--checkpoint", out / "checkpoint.ckpt",
                        "--vocab", out / "vocab.txt", "--out", preds,
                        *extra]) == 0
            return preds.read_bytes()

        stored = predict("stored")
        flag = predict("flag", "--mode", "context1")
        assert flag != stored
        assert predict("config", "--config", config) == flag
        assert predict("both", "--config", config, "--mode", "context2") \
            == stored
        # The preceding-sentence window resolves the same way.
        window = predict("window", "--prev-window", 1)
        assert window != stored
        config.write_text(json.dumps({"prev_window": 1}))
        assert predict("window-config", "--config", config) == window

    def test_predict_refuses_the_old_mode_spelling(self, tmp_path,
                                                   corpus_file, capsys):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "context2",
             "--seed", 3, "--out", out] + FAST_MODEL)
        config = tmp_path / "predict.json"
        config.write_text(json.dumps({"mode": "local_context_overlap"}))
        assert run(["predict", "--corpus", corpus_file, "--config", config,
                    "--checkpoint", out / "checkpoint.ckpt",
                    "--vocab", out / "vocab.txt",
                    "--out", tmp_path / "p.jsonl"]) == 1
        assert "context1, context2, mention-only" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    def test_predict_refuses_a_version_1_checkpoint(self, tmp_path,
                                                    corpus_file, capsys):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "context2",
             "--seed", 3, "--out", out] + FAST_MODEL)
        # Rewrite the manifest as version 1 wrote it.
        ckpt = out / "checkpoint.ckpt"
        raw = ckpt.read_bytes()
        newline = raw.find(b"\n")
        manifest = json.loads(raw[:newline])
        manifest["version"] = "infostat-ckpt-1"
        manifest["config"]["n_classes"] = cp.N_CLASSES
        manifest["extra"]["mode"] = "local_context_overlap"
        ckpt.write_bytes(json.dumps(manifest).encode() + raw[newline:])
        assert run(["predict", "--corpus", corpus_file, "--checkpoint", ckpt,
                    "--vocab", out / "vocab.txt",
                    "--out", tmp_path / "p.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "expected version 'infostat-ckpt-2'" in err
        assert "bad config" not in err

    def test_predict_refuses_mismatched_vocab(self, tmp_path, corpus_file,
                                              capsys):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "context1",
             "--seed", 3, "--out", out] + FAST_MODEL)
        wrong = tmp_path / "wrong-vocab.txt"
        wrong.write_text("\n".join(ctx.RESERVED_TOKENS + ("stranger",)) + "\n")
        code = run(["predict", "--corpus", corpus_file,
                    "--checkpoint", out / "checkpoint.ckpt",
                    "--vocab", wrong, "--out", tmp_path / "p.jsonl"])
        assert code == 1
        assert "vocab mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("tokens, message", [
        (("stranger",) + ctx.RESERVED_TOKENS,
         "vocabulary must start with the reserved tokens "
         + ", ".join(ctx.RESERVED_TOKENS)),
        (ctx.RESERVED_TOKENS + ("twice", "twice"),
         "vocabulary contains duplicate tokens")],
        ids=["no-reserved-header", "duplicate-token"])
    def test_predict_names_a_bad_vocabulary_file(self, tmp_path, corpus_file,
                                                 capsys, tokens, message):
        out = tmp_path / "run"
        assert run(["train", "--corpus", corpus_file, "--seed", 3,
                    "--out", out] + FAST_MODEL) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(tokens) + "\n")
        capsys.readouterr()
        assert run(["predict", "--corpus", corpus_file,
                    "--checkpoint", out / "checkpoint.ckpt", "--vocab", bad,
                    "--out", tmp_path / "p.jsonl"]) == 1
        assert capsys.readouterr().err \
            == f"error: vocabulary file {bad}: {message}\n"
        assert not (tmp_path / "p.jsonl").exists()


def _manifest_cases():
    """(section, field, wrong value, expected message) for each manifest
    field predict reads: every wrong JSON type, and counts of 0 or below."""
    shape = dict(n_layers=1, d_model=16, n_heads=4, d_ff=32, max_len=32,
                 vocab_size=20)
    for field, good in shape.items():
        for value in (float(good), good + 0.5, True, str(good), None, 0, -1):
            yield "config", field, value, field
    for value in (False, "0.1", None, -0.1, 1.0):
        yield "config", "dropout_rate", value, "dropout_rate"
    for value in (64.0, True, "float16", None):
        yield "config", "dtype", value, "dtype"
    for value in (5, 1.5, True, None):
        yield "extra", "vocab_sha256", value, "'vocab_sha256' must be a string"
    yield "extra", "vocab_sha256", "0" * 64, "vocab mismatch"
    for value in (1.5, True, None):
        yield "extra", "mode", value, "'mode' must be a string"
    yield "extra", "mode", "context3", "unknown mode 'context3'"
    for value in (1.5, True, "1", None):
        yield "extra", "prev_sentence_window", value, \
            "'prev_sentence_window' must be an integer"
    yield "extra", "prev_sentence_window", -1, "prev_sentence_window must be"


MANIFEST_CASES = list(_manifest_cases())


def _edit_manifest(ckpt, path, edit) -> None:
    """Write `ckpt` to `path` with `edit` applied to its manifest."""
    raw = ckpt.read_bytes()
    newline = raw.find(b"\n")
    manifest = json.loads(raw[:newline])
    edit(manifest)
    path.write_bytes(json.dumps(manifest).encode() + raw[newline:])


class TestPredictManifest:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A corpus and the model directory of a training run on it."""
        root = tmp_path_factory.mktemp("trained")
        corpus = root / "corpus.json"
        assert run(["gen-synthetic", "--seed", 1, "--docs", 6,
                    "--sentences", 3, "--mentions-per-sentence", 2,
                    "--out", corpus]) == 0
        assert run(["train", "--corpus", corpus, "--seed", 3,
                    "--out", root / "run"] + FAST_MODEL) == 0
        return corpus, root / "run"

    def predict(self, trained, ckpt, out):
        corpus, model = trained
        return run(["predict", "--corpus", corpus, "--checkpoint", ckpt,
                    "--vocab", model / "vocab.txt", "--out", out])

    @pytest.mark.parametrize(
        "section, field, value, message", MANIFEST_CASES,
        ids=[f"{section}-{field}-{json.dumps(value)}"
             for section, field, value, _ in MANIFEST_CASES])
    def test_wrong_value_is_one_error_line(self, trained, tmp_path, capsys,
                                           section, field, value, message):
        ckpt = tmp_path / "edited.ckpt"
        _edit_manifest(trained[1] / "checkpoint.ckpt", ckpt,
                       lambda manifest: manifest[section].update(
                           {field: value}))
        capsys.readouterr()
        assert self.predict(trained, ckpt, tmp_path / "out" / "p.jsonl") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [[], ["--mode", "context2",
                                            "--prev-window", "0"]],
                             ids=["stored", "replaced-by-flags"])
    @pytest.mark.parametrize("field, value, message", [
        ("mode", "context3", "unknown mode 'context3'; expected one of "
                             "context1, context2, mention-only"),
        ("prev_sentence_window", -1, "prev_sentence_window must be >= 0")],
        ids=["mode", "window"])
    def test_bad_stored_context_names_the_checkpoint(
            self, trained, tmp_path, capsys, field, value, message, flags):
        ckpt = tmp_path / "edited.ckpt"
        _edit_manifest(trained[1] / "checkpoint.ckpt", ckpt,
                       lambda manifest: manifest["extra"].update(
                           {field: value}))
        capsys.readouterr()
        out = tmp_path / "out" / "p.jsonl"
        assert run(["predict", "--corpus", trained[0], "--checkpoint", ckpt,
                    "--vocab", trained[1] / "vocab.txt", "--out", out,
                    *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err \
            == f"error: corrupt checkpoint {ckpt}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_absent_fields_keep_their_meaning(self, trained, tmp_path):
        ckpt = tmp_path / "bare.ckpt"
        _edit_manifest(trained[1] / "checkpoint.ckpt", ckpt,
                       lambda manifest: manifest.update(extra={}))
        full, bare = tmp_path / "full.jsonl", tmp_path / "bare.jsonl"
        assert self.predict(trained, trained[1] / "checkpoint.ckpt",
                            full) == 0
        # No stored mode: predict asks for one, then runs at window 0.
        assert self.predict(trained, ckpt, bare) == 1
        assert run(["predict", "--corpus", trained[0], "--checkpoint", ckpt,
                    "--vocab", trained[1] / "vocab.txt", "--out", bare,
                    "--mode", "context2"]) == 0
        assert bare.read_bytes() == full.read_bytes()


class TestConfigFile:
    @pytest.mark.parametrize("values", [
        {"epoch": 3}, {"learning-rate": 0.1},
        {"epoch": 3, "learning-rate": 0.1, "batch_size": 8}])
    def test_key_that_is_no_option_is_input_error(self, tmp_path,
                                                  corpus_file, capsys,
                                                  values):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "run"
        assert run(["train", "--corpus", corpus_file, "--config", config,
                    "--out", out] + FAST_MODEL) == 1
        err = capsys.readouterr().err
        for key in ("epoch", "learning-rate"):
            assert (repr(key) in err) == (key in values)
        assert "'batch_size'" not in err
        assert not out.exists()

    @pytest.mark.parametrize("values, key", [
        ({"epochs": None}, "epochs"), ({"epochs": 1.9}, "epochs"),
        ({"epochs": True}, "epochs"), ({"epochs": [2]}, "epochs"),
        ({"seed": None}, "seed"), ({"seed": 1.9}, "seed"),
        ({"learning_rate": "fast"}, "learning_rate"),
        ({"out": None, "dropout": None}, "dropout")])
    def test_value_the_flag_would_refuse_is_input_error(
            self, tmp_path, corpus_file, capsys, values, key):
        # null is "unset": accepted for `out`, which has no default.
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "run"
        epochs = [] if key == "epochs" else ["--epochs", 1]
        assert run(["train", "--corpus", corpus_file, "--config", config,
                    "--out", out] + FAST_SHAPE + epochs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not out.exists()

    def test_resolved_config_records_converted_values(self, tmp_path,
                                                      corpus_file):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epochs": "1", "seed": "3",
                                      "learning_rate": 1, "dropout": 0}))
        out = tmp_path / "run"
        assert run(["train", "--corpus", corpus_file, "--config", config,
                    "--out", out] + FAST_SHAPE) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["epochs"] == 1 and type(resolved["epochs"]) is int
        assert resolved["seed"] == 3 and type(resolved["seed"]) is int
        for key, value in (("learning_rate", 1.0), ("dropout", 0.0)):
            assert resolved[key] == value and type(resolved[key]) is float
        log = json.loads((out / "loss_log.json").read_text())
        assert len(log["epoch_losses"]) == 1

    def test_one_file_serves_train_and_predict(self, tmp_path, corpus_file):
        out = tmp_path / "run"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus": str(corpus_file), "mode": "context1", "seed": 3,
            "layers": 1, "d_model": 16, "heads": 4, "d_ff": 32, "max_len": 32,
            "epochs": 1, "checkpoint": str(out / "checkpoint.ckpt"),
            "vocab": str(out / "vocab.txt")}))
        assert run(["train", "--config", config, "--out", out]) == 0
        # seed is a key of train's here, which predict and build-vocab lack.
        assert run(["predict", "--config", config,
                    "--out", tmp_path / "p.jsonl"]) == 0
        assert run(["build-vocab", "--config", config,
                    "--out", tmp_path / "v.txt"]) == 0

    def test_resolved_config_reruns_the_same_training(self, tmp_path,
                                                      corpus_file):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["train", "--corpus", corpus_file, "--seed", 3,
                    "--out", first] + FAST_MODEL) == 0
        assert run(["train", "--config", first / "resolved_config.json",
                    "--out", second]) == 0
        assert (first / "checkpoint.ckpt").read_bytes() \
            == (second / "checkpoint.ckpt").read_bytes()


class TestDefaults:
    """Each subcommand's defaults, as the work it runs receives them. Slow
    runs are shortened inside the call, after the options are resolved, so
    every default stays unset on the command line."""

    DESK = {"layers": 2, "d_model": 64, "heads": 4, "d_ff": 256,
            "max_len": 64, "dropout": 0.1, "dtype": "float64", "epochs": 30,
            "learning_rate": 0.001, "batch_size": 32, "weight_decay": 0.01,
            "grad_clip": 1.0}
    DESK_TRAIN = TrainConfig(epochs=30, learning_rate=1e-3, batch_size=32,
                             seed=0, weight_decay=0.01, grad_clip_norm=1.0)

    @pytest.fixture(autouse=True)
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def desk_model(self, vocab_size):
        return ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                           max_len=64, vocab_size=vocab_size,
                           dropout_rate=0.1, dtype="float64")

    def test_gen_synthetic(self, tmp_path):
        assert run(["gen-synthetic"]) == 0
        expected = cp.generate_synthetic(0, 20, 8, 4)
        assert expected.total_mentions() == 20 * 8 * 4
        cp.save_corpus(expected, tmp_path / "expected.json")
        assert (tmp_path / "corpus.json").read_bytes() \
            == (tmp_path / "expected.json").read_bytes()

    def test_build_vocab(self, tmp_path, corpus_file, monkeypatch):
        seen = []
        real = ctx.build_vocab
        monkeypatch.setattr(ctx, "build_vocab",
                            lambda *args: seen.append(args[1:]) or real(*args))
        assert run(["build-vocab", "--corpus", corpus_file]) == 0
        assert seen == [(ctx.mode_from_name("context2", 0), 1)]
        assert (tmp_path / "vocab.txt").exists()

    def test_train(self, tmp_path, corpus_file, monkeypatch):
        seen = []

        def one_epoch(dataset, model_config, train_config):
            seen.append((model_config, train_config))
            return train(dataset, model_config, replace(train_config, epochs=1))

        monkeypatch.setattr(evaluation, "train", one_epoch)
        assert run(["train", "--corpus", corpus_file]) == 0
        out = tmp_path / "train-out"
        assert json.loads((out / "resolved_config.json").read_text()) == {
            "command": "train", "seed": 0, "corpus": str(corpus_file),
            "mode": "context2", "prev_window": 0, "min_freq": 1, "out": None,
            **self.DESK}
        [(model_config, train_config)] = seen
        assert model_config == self.desk_model(model_config.vocab_size)
        assert train_config == self.DESK_TRAIN
        assert (out / "checkpoint.ckpt").exists()

    def test_crossval(self, tmp_path, corpus_file, monkeypatch):
        seen = []
        real = evaluation.run_cross_validation

        def two_short_folds(corpus, mode, model_config, train_config,
                            **kwargs):
            seen.append((mode, model_config, train_config, kwargs))
            return real(corpus, mode, model_config,
                        replace(train_config, epochs=1), **(kwargs | {"k": 2}))

        monkeypatch.setattr(evaluation, "run_cross_validation",
                            two_short_folds)
        assert run(["crossval", "--corpus", corpus_file]) == 0
        out = tmp_path / "crossval-out"
        assert json.loads((out / "resolved_config.json").read_text()) == {
            "command": "crossval", "seed": 0, "corpus": str(corpus_file),
            "mode": "context2", "prev_window": 0, "k": 10, "jobs": 1,
            "min_freq": 1, "out": None, **self.DESK}
        [(mode, model_config, train_config, kwargs)] = seen
        assert mode == ctx.mode_from_name("context2", 0)
        assert model_config == self.desk_model(8)
        assert train_config == self.DESK_TRAIN
        assert kwargs == {"k": 10, "seed": 0, "jobs": 1, "min_freq": 1}
        assert (out / "fold-01" / "checkpoint.ckpt").exists()

    def test_grad_check(self, monkeypatch, capsys):
        seen = []
        real = cli.make_check_batch

        def check_batch(config, seed, batch_size):
            seen.append((config, seed, batch_size))
            return real(config, seed, batch_size=batch_size)

        def no_check(config, batch, seed, epsilon):
            seen.append((seed, epsilon))
            return GradCheckReport(max_relative_error=0.0)

        monkeypatch.setattr(cli, "make_check_batch", check_batch)
        monkeypatch.setattr(cli, "gradient_check", no_check)
        assert run(["grad-check"]) == 0
        shape = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_ff=64,
                            max_len=16, vocab_size=32, dropout_rate=0.0)
        assert seen == [(shape, 0, 4), (0, 1e-5)]
        assert "PASS (threshold 0.0001)" in capsys.readouterr().out

    def test_sigtest(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(evaluation, "randomization_test",
                            lambda *args, **kwargs: seen.append(kwargs) or 1.0)
        for name in ("a", "b"):
            (tmp_path / f"{name}.jsonl").write_text(json.dumps(
                {"mention_id": "m", "gold": "old", "pred": "new"}) + "\n")
        assert run(["sigtest", "--a", "a.jsonl", "--b", "b.jsonl"]) == 0
        assert seen == [{"rounds": 10000, "seed": 0, "statistic": "accuracy",
                         "f1_label": None}]


class TestCrossval:
    def test_report_schema_and_determinism(self, tmp_path, corpus_file):
        out1 = tmp_path / "cv1"
        out2 = tmp_path / "cv2"
        for out in (out1, out2):
            assert run(["crossval", "--corpus", corpus_file, "--mode",
                        "context2", "--k", 2, "--seed", 1, "--out", out]
                       + FAST_MODEL) == 0
        report = json.loads((out1 / "report.json").read_text())
        assert set(report) >= {"accuracy", "n", "per_class", "confusion",
                               "folds"}
        assert len(report["folds"]) == 2
        assert (out1 / "fold-00" / "predictions.jsonl").exists()
        assert (out1 / "fold-00" / "checkpoint.ckpt").exists()
        assert (out1 / "report.json").read_bytes() \
            == (out2 / "report.json").read_bytes()

    def test_parallel_jobs_give_identical_report(self, tmp_path, corpus_file):
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        assert run(["crossval", "--corpus", corpus_file, "--mode", "context1",
                    "--k", 2, "--seed", 1, "--out", seq] + FAST_MODEL) == 0
        assert run(["crossval", "--corpus", corpus_file, "--mode", "context1",
                    "--k", 2, "--seed", 1, "--jobs", 2, "--out", par]
                   + FAST_MODEL) == 0
        assert (seq / "report.json").read_bytes() \
            == (par / "report.json").read_bytes()
        assert (seq / "fold-01" / "predictions.jsonl").read_bytes() \
            == (par / "fold-01" / "predictions.jsonl").read_bytes()

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_one_is_input_error(self, tmp_path, corpus_file, jobs,
                                           capsys):
        assert run(["crossval", "--corpus", corpus_file, "--k", 2,
                    "--jobs", jobs, "--out", tmp_path / "cv"]
                   + FAST_MODEL) == 1
        assert "jobs must be at least 1" in capsys.readouterr().err


class TestFailedRunWritesNothing:
    @pytest.mark.parametrize("argv, message", [
        (["crossval", "--k", 2, "--jobs", 0], "jobs must be at least 1"),
        (["train", "--max-len", 3], "max_len=3 cannot hold"),
        (["train", "--weight-decay", -0.5], "weight_decay must be finite"),
        (["train", "--learning-rate", "nan"], "learning_rate must be finite"),
        (["crossval", "--grad-clip", "nan"], "grad_clip_norm must be finite"),
        (["train", "--layers", 0], "n_layers must be an integer >= 1, not 0"),
        (["train", "--heads", 0], "n_heads must be an integer >= 1, not 0"),
    ], ids=["crossval-jobs-0", "train-max-len-3", "train-weight-decay-neg",
            "train-learning-rate-nan", "crossval-grad-clip-nan",
            "train-layers-0", "train-heads-0"])
    def test_no_output_directory(self, tmp_path, corpus_file, capsys, argv,
                                 message):
        out = tmp_path / "out"
        assert run(argv + ["--corpus", corpus_file, "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestAllocatorSetting:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                        or not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="needs glibc's mallopt")
    def test_freed_memory_is_reused_without_faults(self, tmp_path):
        assert run(["gen-synthetic", "--docs", 1, "--sentences", 1,
                    "--out", tmp_path / "c.json"]) == 0
        size = 64 * 2**20 // 8

        def faults_to_refill():
            """Minor faults while a 64 MB block is allocated and filled."""
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            block = np.ones(size)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            del block
            return faults - before

        faults_to_refill()
        # The least of three: the interpreter may touch a fresh page of its
        # own object pools during any one of them.
        assert min(faults_to_refill() for _ in range(3)) == 0

    def test_one_arena_on_linux(self, tmp_path, monkeypatch):
        """Besides keeping freed memory, main has every thread allocate
        from one arena (M_ARENA_MAX = 1), so predict's worker threads reuse
        what the main thread freed."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: SimpleNamespace(mallopt=mallopt))
        assert run(["gen-synthetic", "--docs", 1, "--sentences", 1,
                    "--out", tmp_path / "c.json"]) == 0
        assert sorted(calls) == [(-8, 1), (-4, 0), (-1, -1)]

    def test_left_alone_off_linux(self, tmp_path, monkeypatch):
        def no_libc(*args, **kwargs):
            raise AssertionError("the C library was looked up")

        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert run(["gen-synthetic", "--docs", 1, "--sentences", 1,
                    "--out", tmp_path / "c.json"]) == 0


class TestSigtest:
    def make_predictions(self, tmp_path, corpus_file):
        out = tmp_path / "run"
        run(["train", "--corpus", corpus_file, "--mode", "mention-only",
             "--seed", 3, "--out", out] + FAST_MODEL)
        preds = tmp_path / "preds.jsonl"
        run(["predict", "--corpus", corpus_file,
             "--checkpoint", out / "checkpoint.ckpt",
             "--vocab", out / "vocab.txt", "--out", preds])
        return preds

    def write_pair(self, tmp_path):
        """Two prediction files over the same 40 gold labels, no model."""
        gold = ["old", "new", "mediated/bridging", "old"] * 10
        files = []
        for name, shift in (("a", 3), ("b", 5)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(
                json.dumps({"mention_id": f"m{i:02d}", "gold": g,
                            "pred": g if i % shift else "new"}) + "\n"
                for i, g in enumerate(gold)))
            files.append(path)
        return files

    def test_f1_class_is_parsed_to_a_label(self, tmp_path, capsys):
        a, b = self.write_pair(tmp_path)
        assert run(["sigtest", "--a", a, "--b", b, "--rounds", 300,
                    "--seed", 2, "--statistic", "f1",
                    "--f1-class", "mediated/bridging"]) == 0
        records = [json.loads(l) for l in a.read_text().splitlines()]
        others = [json.loads(l) for l in b.read_text().splitlines()]
        p = evaluation.randomization_test(
            [cp.parse_label(r["pred"]) for r in records],
            [cp.parse_label(r["pred"]) for r in others],
            [cp.parse_label(r["gold"]) for r in records], rounds=300, seed=2,
            statistic="f1", f1_label=cp.ISLabel.MEDIATED_BRIDGING)
        assert capsys.readouterr().out == f"p-value: {p:.6g}\n"
        assert run(["sigtest", "--a", a, "--b", b, "--rounds", 10,
                    "--statistic", "f1", "--f1-class", "bogus"]) == 1
        assert "unknown label 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("field", ["gold", "pred"])
    def test_unknown_label_names_its_file_and_line(self, tmp_path, capsys,
                                                   side, field):
        files = dict(zip("ab", self.write_pair(tmp_path)))
        bad = files[side]
        lines = bad.read_text().splitlines(keepends=True)
        record = json.loads(lines[6])
        record[field] = "olde"
        lines[6] = json.dumps(record) + "\n"
        bad.write_text("".join(lines))
        assert run(["sigtest", "--a", files["a"], "--b", files["b"],
                    "--rounds", 10]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {bad}:7: unknown label 'olde'; valid "
                          "labels: " + ", ".join(l.value for l in cp.LABELS)]

    def test_records_pair_by_mention_id_not_line_order(self, tmp_path,
                                                       capsys):
        a, b = self.write_pair(tmp_path)
        statistics = (["--statistic", "accuracy"],
                      ["--statistic", "f1", "--f1-class", "old"])
        common = ["sigtest", "--a", a, "--b", b, "--rounds", 300, "--seed", 2]
        before = []
        for statistic in statistics:
            assert run(common + statistic) == 0
            before.append(capsys.readouterr().out)
        lines = a.read_text().splitlines(keepends=True)
        random.Random(0).shuffle(lines)
        a.write_text("".join(lines))
        b.write_text("".join(reversed(b.read_text().splitlines(keepends=True))))
        after = []
        for statistic in statistics:
            assert run(common + statistic) == 0
            after.append(capsys.readouterr().out)
        assert after == before
        assert all(out.startswith("p-value: ") for out in after)

    @pytest.mark.parametrize("statistic", [[], ["--statistic", "accuracy"]])
    def test_f1_class_with_accuracy_is_rejected(self, tmp_path, capsys,
                                                statistic):
        a, b = self.write_pair(tmp_path)
        assert run(["sigtest", "--a", a, "--b", b, "--rounds", 10,
                    "--f1-class", "old"] + statistic) == 1
        assert "without f1_label" in capsys.readouterr().err

    def test_identical_files_give_p_one(self, tmp_path, corpus_file, capsys):
        preds = self.make_predictions(tmp_path, corpus_file)
        assert run(["sigtest", "--a", preds, "--b", preds, "--rounds", 200,
                    "--seed", 0]) == 0
        assert "p-value: 1" in capsys.readouterr().out

    def test_disagreeing_gold_is_rejected(self, tmp_path, corpus_file, capsys):
        preds = self.make_predictions(tmp_path, corpus_file)
        records = [json.loads(l) for l in preds.read_text().splitlines()]
        records[0]["gold"] = "old" if records[0]["gold"] != "old" else "new"
        other = tmp_path / "other.jsonl"
        other.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert run(["sigtest", "--a", preds, "--b", other,
                    "--rounds", 10, "--seed", 0]) == 1
        assert "gold" in capsys.readouterr().err


    def test_repeated_mention_id_is_rejected(self, tmp_path, corpus_file,
                                             capsys):
        preds = self.make_predictions(tmp_path, corpus_file)
        lines = preds.read_text().splitlines()
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("\n".join(lines + lines[:1]) + "\n")
        assert run(["sigtest", "--a", repeated, "--b", preds,
                    "--rounds", 10, "--seed", 0]) == 1
        err = capsys.readouterr().err
        assert str(repeated) in err
        assert json.loads(lines[0])["mention_id"] in err

    @pytest.mark.parametrize("line, message", [
        ('{"mention_id": "m02", "gold": "old"', "not JSON"),
        ("1", "expected a JSON object, got int"),
        ('["m02", "old", "old"]', "expected a JSON object, got list"),
        ('{"gold": "old", "pred": "old"}', "missing 'mention_id'"),
        ('{"mention_id": "m02", "pred": "old"}', "missing 'gold'"),
        ('{"mention_id": "m02", "gold": "old"}', "missing 'pred'"),
        ('{"mention_id": 2, "gold": "old", "pred": "old"}',
         "'mention_id' must be a string, not 2"),
        ('{"mention_id": "m02", "gold": ["old"], "pred": "old"}',
         "'gold' must be a string, not ['old']"),
        ('{"mention_id": "m02", "gold": "old", "pred": {"old": 1}}',
         "'pred' must be a string, not {'old': 1}"),
        ('{"mention_id": 2.5, "gold": "old", "pred": "old"}',
         "'mention_id' must be a string, not 2.5"),
        ('{"mention_id": "m02", "gold": "old", "pred": 0.5}',
         "'pred' must be a string, not 0.5"),
    ], ids=["not-json", "number", "array", "no-mention-id", "no-gold",
            "no-pred", "int-mention-id", "list-gold", "object-pred",
            "float-mention-id", "float-pred"])
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys, line,
                                                message):
        a, b = self.write_pair(tmp_path)
        lines = a.read_text().splitlines()
        lines[2] = line
        a.write_text("\n".join(lines) + "\n")
        assert run(["sigtest", "--a", a, "--b", b, "--rounds", 10]) == 1
        assert f"{a}:3: {message}" in capsys.readouterr().err

    RECORD = ('{"mention_id": "m02", "gold": "old", "pred": "new", '
              '"probs": [0.25, 0.75]}')

    @pytest.mark.parametrize("line", [
        RECORD, " " + RECORD, RECORD + " ", "\t" + RECORD + "\t", "", " \t",
        RECORD.replace("0.75", "01"), RECORD.replace("0.75", ""),
        RECORD + " x", RECORD + RECORD, RECORD.replace("0.25", "NaN"),
        RECORD.replace("0.25", "-1e-3").replace("0.75", "2E+2"),
        '{"mention_id": 2.5, "gold": "old", "pred": "old"}',
        '{"mention_id": "m02", "gold": "old", "pred": [0.5]}',
        "2.5",
    ], ids=["record", "leading-space", "trailing-space", "tabs", "empty",
            "blank", "leading-zero", "trailing-comma", "trailing-text",
            "two-objects", "nan", "exponents", "float-mention-id",
            "float-list-pred", "float"])
    def test_reader_accepts_what_json_accepts(self, tmp_path, line):
        """A line is read as json.JSONDecoder().decode reads it: a record if
        that gives an object with string fields, json's own message if it
        fails, and a PATH:LINE message otherwise. Blank lines are skipped."""
        path = tmp_path / "preds.jsonl"
        path.write_text(line + '\n{"mention_id": "m99", "gold": "new", '
                        '"pred": "new"}\n')
        want = {"m99": (cp.ISLabel.NEW, cp.ISLabel.NEW)}
        if line.strip():
            try:
                data = json.JSONDecoder().decode(line)
            except json.JSONDecodeError as err:
                with pytest.raises(ValueError) as info:
                    cli._read_predictions(str(path))
                assert str(info.value) == f"{path}:1: not JSON: {err}"
                return
            if not (isinstance(data, dict) and all(
                    isinstance(data.get(key), str)
                    for key in ("mention_id", "gold", "pred"))):
                with pytest.raises(ValueError,
                                   match=f"^{re.escape(str(path))}:1: "):
                    cli._read_predictions(str(path))
                return
            want[data["mention_id"]] = (cp.parse_label(data["gold"]),
                                        cp.parse_label(data["pred"]))
        assert cli._read_predictions(str(path)) == want

    def test_reads_back_ids_that_splitlines_would_break(self, tmp_path,
                                                        capsys):
        """_write_predictions writes U+2028, U+2029 and U+0085 in a mention
        id raw, and they end no line. CRLF line ends and a missing final
        newline give the same records."""
        ids = [f"m{c}{i}" for i, c in
               enumerate(["", "\u2028", "\x85", "\u2029"] * 4)]
        gold = [cp.ISLabel.OLD, cp.ISLabel.NEW] * 8
        preds = {"a": [g if i % 3 else cp.ISLabel.NEW
                       for i, g in enumerate(gold)],
                 "b": [g if i % 5 else cp.ISLabel.OLD
                       for i, g in enumerate(gold)]}
        for name, pred in preds.items():
            cli._write_predictions(tmp_path / f"{name}.jsonl", [
                evaluation.PredictionRecord(m, g, p, (0.125,) * cp.N_CLASSES)
                for m, g, p in zip(ids, gold, pred)])
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert "\u2028".encode() in a.read_bytes()
        want = {m: (g, p) for m, g, p in zip(ids, gold, preds["a"])}
        assert cli._read_predictions(str(a)) == want
        lf = a.read_bytes()
        for name, data in (("crlf", lf.replace(b"\n", b"\r\n")),
                           ("no-final-newline", lf[:-1])):
            path = tmp_path / f"{name}.jsonl"
            path.write_bytes(data)
            assert cli._read_predictions(str(path)) == want
        assert run(["sigtest", "--a", a, "--b", b, "--rounds", 300,
                    "--seed", 2]) == 0
        _, g, pa, pb = zip(*sorted(zip(ids, gold, preds["a"], preds["b"])))
        p = evaluation.randomization_test(pa, pb, g, rounds=300, seed=2)
        assert capsys.readouterr().out == f"p-value: {p:.6g}\n"

    def test_null_gold_asks_for_gold_labels(self, tmp_path, capsys):
        a, b = self.write_pair(tmp_path)
        lines = a.read_text().splitlines()
        lines[2] = '{"mention_id": "m02", "gold": null, "pred": "old"}'
        a.write_text("\n".join(lines) + "\n")
        assert run(["sigtest", "--a", a, "--b", b, "--rounds", 10]) == 1
        assert capsys.readouterr().err == (
            f"error: {a}: significance testing requires gold labels "
            "(mention 'm02')\n")


class TestGradCheckCommand:
    def test_passes_at_default_threshold(self, capsys):
        assert run(["grad-check", "--layers", "1", "--d-model", "8",
                    "--heads", "2", "--d-ff", "16", "--max-len", "8",
                    "--vocab-size", "16", "--seed", 0]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fails_at_absurd_threshold(self, capsys):
        assert run(["grad-check", "--layers", "1", "--d-model", "8",
                    "--heads", "2", "--d-ff", "16", "--max-len", "8",
                    "--vocab-size", "16", "--seed", 0,
                    "--threshold", "1e-12"]) == 2

    @pytest.mark.parametrize("epsilon", ["0", "-1e-5", "nan", "inf"])
    def test_epsilon_must_be_positive_and_finite(self, capsys, epsilon):
        assert run(["grad-check", "--layers", "1", "--d-model", "8",
                    "--heads", "2", "--d-ff", "16", "--max-len", "8",
                    "--vocab-size", "16", f"--epsilon={epsilon}"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: epsilon must be finite and > 0")

    @pytest.mark.parametrize("flag, value, message", [
        ("--threshold", "nan", "threshold must be finite and > 0, got nan"),
        ("--threshold", "-1", "threshold must be finite and > 0, got -1.0"),
        ("--threshold", "0", "threshold must be finite and > 0, got 0.0"),
        ("--threshold", "inf", "threshold must be finite and > 0, got inf"),
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--max-len", "2", "max_len must be >= 3 to hold a checked row, got 2"),
        ("--heads", "0", "n_heads must be an integer >= 1, not 0"),
        ("--heads", "-4", "n_heads must be an integer >= 1, not -4"),
        ("--layers", "0", "n_layers must be an integer >= 1, not 0"),
    ], ids=["threshold-nan", "threshold-negative", "threshold-zero",
            "threshold-inf", "batch-size-zero", "max-len-two", "heads-zero",
            "heads-negative", "layers-zero"])
    def test_bad_input_is_refused_before_the_check(self, capsys, flag, value,
                                                   message):
        assert run(["grad-check", "--layers", "1", "--d-model", "8",
                    "--heads", "2", "--d-ff", "16", "--max-len", "8",
                    "--vocab-size", "16", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestExitCodes:
    def test_missing_corpus_is_input_error(self, tmp_path, capsys):
        assert run(["crossval", "--corpus", tmp_path / "absent.json",
                    "--out", tmp_path / "cv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_mode_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["crossval", "--mode", "context3"])
        assert info.value.code == 1

    @pytest.mark.parametrize("command", ["predict", "build-vocab"])
    def test_seed_is_no_option_of_a_command_without_randomness(
            self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run([command, "--seed", 1])
        assert info.value.code == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_paper_scale_flag_is_gone(self, tmp_path, corpus_file, capsys):
        # The paper fine-tuned pretrained BERT-base; a from-scratch run at
        # that shape is no recipe of the paper, so there is no preset for it.
        with pytest.raises(SystemExit) as info:
            run(["train", "--paper-scale", "--corpus", corpus_file,
                 "--out", tmp_path / "run"])
        assert info.value.code == 1
        assert "--paper-scale" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_divergence_maps_to_exit_two(self, tmp_path, corpus_file,
                                         monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss", last_params={},
                                        epoch=0, step=0)

        monkeypatch.setattr(evaluation, "train", explode)
        assert run(["train", "--corpus", corpus_file, "--out",
                    tmp_path / "run"] + FAST_MODEL) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_bad_config_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "conf.json"
        bad.write_text("[1, 2]")
        assert run(["gen-synthetic", "--config", bad,
                    "--out", tmp_path / "x.json"]) == 1
