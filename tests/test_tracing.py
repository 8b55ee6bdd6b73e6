"""The benchmark's tracer (bench/tracing.py) finds every function it wraps,
and a train and a predict fire their spans through `evaluation.fit` and
`evaluation.predict`."""

import importlib
import importlib.util
from pathlib import Path

from infostat import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

FAST_MODEL = ["--layers", "1", "--d-model", "16", "--heads", "4",
              "--d-ff", "32", "--max-len", "32", "--epochs", "1",
              "--batch-size", "16"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_and_predict_fire_their_spans(tmp_path):
    tracing = load_tracing()
    targets = [(importlib.import_module(module), attr)
               for module, attr, _, _ in tracing.TARGETS]
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not hasattr(module, attr)]
    assert missing == []
    originals = [getattr(module, attr) for module, attr in targets]

    corpus, run = tmp_path / "corpus.json", tmp_path / "run"
    assert cli.main(["gen-synthetic", "--seed", "1", "--docs", "3",
                     "--sentences", "3", "--mentions-per-sentence", "2",
                     "--out", str(corpus)]) == 0
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert cli.main(["train", "--corpus", str(corpus), "--out", str(run),
                         *FAST_MODEL]) == 0
        assert cli.main(["predict", "--corpus", str(corpus),
                         "--checkpoint", str(run / "checkpoint.ckpt"),
                         "--vocab", str(run / "vocab.txt"),
                         "--out", str(tmp_path / "p.jsonl")]) == 0
    finally:
        recorder.uninstall()

    assert [getattr(module, attr) for module, attr in targets] == originals
    fired = {span[0] for span in recorder.spans}
    # The forward and GELU spans too: model calls them by the names the
    # tracer wraps, or their per-layer figures would read zero.
    assert {"context.build_vocab", "dataset.encode_pairs",
            "encoder.training.train", "encoder.model.predict_batch",
            "encoder.model.forward", "encoder.layers.gelu.fwd",
            "encoder.layers.gelu.bwd", "encoder.checkpoint.save",
            "encoder.checkpoint.load"} <= fired
