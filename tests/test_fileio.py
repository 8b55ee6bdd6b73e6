import builtins

import pytest

from infostat import cli, corpus as cp, fileio
from infostat.context import RESERVED_TOKENS, Vocab
from infostat.encoder import ModelConfig, init_params, save_checkpoint
from infostat.evaluation import PredictionRecord
from infostat.fileio import atomic_write

CONFIG = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_len=6,
                     vocab_size=12)


class HalfWriter:
    """A file that takes half of the first write, then fails."""

    def __init__(self, path, mode):
        self.fh = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "artifact.bin"
    with atomic_write(path) as fh:
        fh.write(b"old content")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"new")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old content"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


def record(pred: int) -> PredictionRecord:
    return PredictionRecord(mention_id="m1", gold=cp.LABELS[0],
                            pred=cp.LABELS[pred], probs=(0.5,) * 8)


WRITERS = {
    "checkpoint": lambda path, v: save_checkpoint(
        init_params(CONFIG, v), CONFIG, path),
    "vocab": lambda path, v: Vocab(RESERVED_TOKENS + (f"w{v}",)).save(path),
    "json": lambda path, v: cli._write_json(path, {"value": v}),
    "predictions": lambda path, v: cli._write_predictions(path, [record(v)]),
    "corpus": lambda path, v: cp.save_corpus(
        cp.generate_synthetic(seed=v, n_docs=1, sentences_per_doc=1,
                              mentions_per_sentence=1), path),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_writer_failing_part_way_keeps_the_previous_file(kind, tmp_path,
                                                         monkeypatch):
    path = tmp_path / "out"
    WRITERS[kind](path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(fileio, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[kind](path, 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    monkeypatch.undo()
    WRITERS[kind](path, 2)
    assert path.read_bytes() != before


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_writer_creates_missing_directories(kind, tmp_path):
    WRITERS[kind](tmp_path / "flat", 1)
    nested = tmp_path / "a" / "b" / "out"
    WRITERS[kind](nested, 1)
    assert nested.read_bytes() == (tmp_path / "flat").read_bytes()
