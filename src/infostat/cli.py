"""Command-line entry point.

Subcommands: gen-synthetic, build-vocab, train, predict, crossval,
grad-check, sigtest. Options may come from a JSON config file via
--config; explicit flags take precedence over the file, which takes
precedence over built-in defaults. The seed falls back to the
INFOSTAT_SEED environment variable when not given otherwise.

Exit codes: 0 success, 1 input or validation error, 2 numeric failure
(training divergence, failed gradient check).

On Linux with glibc, `main` first has malloc keep freed memory for reuse
(no mmap-served blocks, no heap trimming), so numpy's multi-MB temporaries
stop being faulted in afresh every training step. Forked crossval workers
inherit the setting; library callers of `train()` are left alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

from . import context, corpus as corpus_mod, evaluation
from .context import Vocab, mode_from_name
from .dataset import encode_corpus
from .fileio import atomic_write
from .encoder import (CheckpointError, ModelConfig, TrainConfig,
                      TrainingDivergedError, gradient_check, load_checkpoint,
                      make_check_batch, predict_batch, save_checkpoint, train)

# Model and training presets, sized to train from scratch on a CPU. The
# paper fine-tuned pretrained BERT-base; this repo has no pretrained weights
# and trains every model from random initialisation.
_DESK_MODEL = dict(layers=2, d_model=64, heads=4, d_ff=256, max_len=64,
                   dropout=0.1)
_DESK_TRAIN = dict(epochs=30, learning_rate=1e-3, batch_size=32)


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=True)
    with atomic_write(path) as fh:
        fh.write((text + "\n").encode("utf-8"))


def _option_types() -> dict[str, type]:
    """The keys a config file may hold, each with the type its flag
    converts to: every subcommand's option dests, and `command`, which
    resolved_config.json records beside them."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    types = {action.dest: action.type or str
             for sub in commands.choices.values() for action in sub._actions
             if action.option_strings and action.dest != "help"}
    return types | {commands.dest: str}


class _Resolver:
    """flag > config file > default, recording the resolved values.

    A config file's keys are option names, "_" for "-". A key that is no
    subcommand's option is an error; one of another subcommand is ignored,
    so one file can serve train and predict. A value must be a JSON string
    or number whose text the flag's type accepts, so 1.9 is no epoch count.
    null, which resolved_config.json records for an option left unset, is
    accepted only where the default is None."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values, self.types = {}, {}
        if getattr(args, "config", None):
            raw = Path(args.config).read_text(encoding="utf-8")
            self.file_values = json.loads(raw)
            if not isinstance(self.file_values, dict):
                raise ValueError("config file must hold a JSON object")
            self.types = _option_types()
            unknown = sorted(self.file_values.keys() - self.types.keys())
            if unknown:
                raise ValueError(f"config file {args.config}: not an option "
                                 "of any subcommand: "
                                 + ", ".join(map(repr, unknown))
                                 + " (keys are option names, '_' for '-')")
        self.resolved: dict = {}

    def get(self, key: str, default):
        value = getattr(self.args, key, None)
        if value is None:
            value = self._from_file(key, default)
        self.resolved[key] = value
        return value

    def _from_file(self, key: str, default):
        if key not in self.file_values:
            return default
        value = self.file_values[key]
        if value is None and default is None:
            return None
        kind = self.types[key]
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            try:
                return kind(value if isinstance(value, str)
                            else json.dumps(value))
            except ValueError:
                pass
        raise ValueError(f"config file {self.args.config}: {key!r} is not a "
                         f"valid {kind.__name__}: {json.dumps(value)}")

    def seed(self) -> int:
        """--seed, else the config file's, else INFOSTAT_SEED, else 0."""
        value = getattr(self.args, "seed", None)
        if value is None:
            env = None if "seed" in self.file_values \
                else os.environ.get("INFOSTAT_SEED")
            value = self._from_file("seed", 0 if env is None else int(env))
        self.resolved["seed"] = value
        return value

    def snapshot(self, command: str, out_dir: Path) -> None:
        """Write the resolved values beside the command's outputs; called
        once its work has succeeded, so a failed run leaves no `out_dir`."""
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "resolved_config.json",
                    {"command": command, **self.resolved})


def _model_config(res: _Resolver, vocab_size: int) -> ModelConfig:
    base = _DESK_MODEL
    return ModelConfig(n_layers=res.get("layers", base["layers"]),
                       d_model=res.get("d_model", base["d_model"]),
                       n_heads=res.get("heads", base["heads"]),
                       d_ff=res.get("d_ff", base["d_ff"]),
                       max_len=res.get("max_len", base["max_len"]),
                       vocab_size=vocab_size,
                       dropout_rate=res.get("dropout", base["dropout"]),
                       dtype=res.get("dtype", "float64"))


def _train_config(res: _Resolver, seed: int) -> TrainConfig:
    base = _DESK_TRAIN
    return TrainConfig(
        epochs=res.get("epochs", base["epochs"]),
        learning_rate=res.get("learning_rate", base["learning_rate"]),
        batch_size=res.get("batch_size", base["batch_size"]),
        seed=seed,
        weight_decay=res.get("weight_decay", 0.01),
        grad_clip_norm=res.get("grad_clip", 1.0))


def _mode(res: _Resolver) -> context.ContextMode:
    name = res.get("mode", "context2")
    window = res.get("prev_window", 0)
    return mode_from_name(name, window)


def _load_corpus(res: _Resolver) -> corpus_mod.Corpus:
    path = res.get("corpus", None)
    if not path:
        raise ValueError("a corpus path is required (--corpus)")
    return corpus_mod.load_corpus(path)


def _write_predictions(path: Path,
                       records: list[evaluation.PredictionRecord]) -> None:
    """One JSON line per record; `gold` is null for unlabeled mentions."""
    lines = [json.dumps({"mention_id": r.mention_id,
                         "gold": None if r.gold is None else r.gold.value,
                         "pred": r.pred.value, "probs": list(r.probs)},
                        ensure_ascii=False)
             for r in records]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_synthetic(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    n_docs = res.get("docs", 20)
    sentences = res.get("sentences", 8)
    mentions = res.get("mentions_per_sentence", 4)
    out = Path(res.get("out", None) or "corpus.json")
    synthetic = corpus_mod.generate_synthetic(seed, n_docs, sentences, mentions)
    out.parent.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(synthetic, out)
    stats = corpus_mod.corpus_stats(synthetic)
    print(f"wrote {out} ({synthetic.total_mentions()} mentions, "
          f"{len(synthetic.documents)} documents)")
    for label, entry in stats.items():
        print(f"  {label.value:<24} {entry.count:>6}  {entry.fraction:7.2%}")
    return 0


def cmd_build_vocab(args) -> int:
    res = _Resolver(args)
    loaded = _load_corpus(res)
    mode = _mode(res)
    min_freq = res.get("min_freq", 1)
    out = Path(res.get("out", None) or "vocab.txt")
    vocab = context.build_vocab(loaded, mode, min_freq)
    out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(out)
    print(f"wrote {out} ({len(vocab)} tokens, sha256 {vocab.sha256()[:12]})")
    return 0


def cmd_train(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    loaded = _load_corpus(res)
    mode = _mode(res)
    min_freq = res.get("min_freq", 1)
    out_dir = Path(res.get("out", None) or "train-out")
    vocab = context.build_vocab(loaded, mode, min_freq)
    model_config = _model_config(res, len(vocab))
    train_config = _train_config(res, seed)

    dataset = encode_corpus(loaded, mode, vocab, model_config.max_len,
                            require_labels=True)
    result = train(dataset, model_config, train_config)
    res.snapshot("train", out_dir)
    vocab.save(out_dir / "vocab.txt")
    save_checkpoint(result.params, model_config, out_dir / "checkpoint.ckpt",
                    extra={"vocab_sha256": vocab.sha256(),
                           "mode": mode.kind.value,
                           "prev_sentence_window": mode.prev_sentence_window})
    _write_json(out_dir / "loss_log.json",
                {"epoch_losses": result.epoch_losses, "steps": result.n_steps})
    for epoch, loss in enumerate(result.epoch_losses):
        print(f"epoch {epoch:>3}  mean loss {loss:.6f}")
    print(f"wrote {out_dir / 'checkpoint.ckpt'}")
    return 0


def cmd_predict(args) -> int:
    res = _Resolver(args)
    loaded = _load_corpus(res)
    ckpt_path = res.get("checkpoint", None)
    vocab_path = res.get("vocab", None)
    if not ckpt_path or not vocab_path:
        raise ValueError("predict requires --checkpoint and --vocab")
    params, model_config, extra = load_checkpoint(ckpt_path)
    vocab = Vocab.load(vocab_path)
    stored = extra.get("vocab_sha256")
    if stored is not None and stored != vocab.sha256():
        raise ValueError(f"vocab mismatch: checkpoint was trained with "
                         f"vocabulary sha256 {stored[:12]}, supplied file "
                         f"hashes to {vocab.sha256()[:12]}")
    mode_name = res.get("mode", extra.get("mode"))
    if mode_name is None:
        raise ValueError("predict requires --mode (not stored in checkpoint)")
    window = int(res.get("prev_window", extra.get("prev_sentence_window", 0)))
    mode = mode_from_name(mode_name, window)
    out = Path(res.get("out", None) or "predictions.jsonl")

    out.parent.mkdir(parents=True, exist_ok=True)
    mentions = [m for d in loaded.documents for m in d.mentions]
    records = []
    if mentions:  # documents without mentions are skipped, even if all are
        batch = encode_corpus(loaded, mode, vocab, model_config.max_len)
        probs = predict_batch(batch, params, model_config)
        records = evaluation.prediction_records(probs, mentions)
    _write_predictions(out, records)
    print(f"wrote {out} ({len(records)} predictions)")
    return 0


def cmd_crossval(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    loaded = _load_corpus(res)
    mode = _mode(res)
    k = res.get("k", 10)
    jobs = res.get("jobs", 1)
    min_freq = res.get("min_freq", 1)
    out_dir = Path(res.get("out", None) or "crossval-out")
    model_config = _model_config(res, vocab_size=8)  # vocab set per fold
    train_config = _train_config(res, seed)

    result = evaluation.run_cross_validation(
        loaded, mode, model_config, train_config, k=k, seed=seed, jobs=jobs,
        min_freq=min_freq)
    res.snapshot("crossval", out_dir)

    _write_json(out_dir / "report.json", result.to_json_dict())
    for fold in result.folds:
        fold_dir = out_dir / f"fold-{fold.fold:02d}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        _write_predictions(fold_dir / "predictions.jsonl", fold.records)
        Vocab(tokens=fold.vocab_tokens).save(fold_dir / "vocab.txt")
        save_checkpoint(fold.params, fold.model_config,
                        fold_dir / "checkpoint.ckpt",
                        extra={"fold": fold.fold,
                               "vocab_sha256": Vocab(fold.vocab_tokens).sha256(),
                               "mode": mode.kind.value,
                               "prev_sentence_window": mode.prev_sentence_window})
    print(f"pooled accuracy {result.report.accuracy:.4f} over "
          f"{result.report.n} mentions ({k} folds)")
    for label, metrics in result.report.per_class.items():
        print(f"  {label.value:<24} P {metrics.precision:6.3f}  "
              f"R {metrics.recall:6.3f}  F {metrics.f1:6.3f}  "
              f"support {metrics.support}")
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_grad_check(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    config = ModelConfig(n_layers=res.get("layers", 2),
                         d_model=res.get("d_model", 16),
                         n_heads=res.get("heads", 4),
                         d_ff=res.get("d_ff", 64),
                         max_len=res.get("max_len", 16),
                         vocab_size=res.get("vocab_size", 32),
                         dropout_rate=0.0)
    batch = make_check_batch(config, seed,
                             batch_size=res.get("batch_size", 4))
    epsilon = res.get("epsilon", 1e-5)
    threshold = res.get("threshold", 1e-4)
    report = gradient_check(config, batch, seed=seed, epsilon=epsilon)
    print(f"checked {report.n_entries} parameter entries; "
          f"max relative error {report.max_relative_error:.3e}")
    if report.passed(threshold):
        print(f"PASS (threshold {threshold:g})")
        return 0
    worst = max(report.per_tensor, key=report.per_tensor.get)
    print(f"FAIL: worst tensor {worst} "
          f"({report.per_tensor[worst]:.3e} >= {threshold:g})",
          file=sys.stderr)
    return 2


# sigtest reads only ids and labels. parse_float=len still makes the scanner
# match every number in full, but no float or digit string is kept; it must
# not return str, or a float-valued field would pass as a string.
_PREDICTION_DECODER = json.JSONDecoder(parse_float=len)


def _record_fault(path: str, lineno: int, data) -> str:
    """Why `data`, a decoded line known not to be a record, is rejected."""
    if not isinstance(data, dict):
        return (f"{path}:{lineno}: expected a JSON object, "
                f"got {type(data).__name__}")
    if "gold" in data and data["gold"] is None:
        return (f"{path}: significance testing requires gold labels "
                f"(mention {data.get('mention_id')!r})")
    key = next(k for k in ("mention_id", "gold", "pred")
               if not isinstance(data.get(k), str))
    if key not in data:
        return f"{path}:{lineno}: missing {key!r}"
    return f"{path}:{lineno}: {key!r} must be a string, not {data[key]!r}"


def _read_predictions(
        path: str) -> dict[str, tuple[corpus_mod.ISLabel, corpus_mod.ISLabel]]:
    """(gold, pred) labels by mention id from a prediction JSONL file.

    Every non-blank line must be one JSON object, checked against JSON's
    full grammar, `probs` and any other field included, with string
    `mention_id`, `gold` and `pred`; mention ids must be unique. Numbers
    are matched but never converted. A malformed line raises ValueError
    naming PATH:LINE, with json's own message for a grammar error.

    Lines end at "\n" alone, a "\r" before it dropped: str.splitlines
    would also break inside a mention id holding U+2028, U+2029 or
    U+0085, which _write_predictions writes raw.
    """
    records = {}
    scan = _PREDICTION_DECODER.scan_once
    with open(path, encoding="utf-8", newline="\n") as lines:
        for lineno, line in enumerate(lines, start=1):
            line = line.rstrip("\r\n")
            try:
                data, end = scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = None
            if end != len(line):
                # Blank, padded with whitespace, or not one JSON value:
                # blank lines are skipped, decode accepts padded ones and
                # raises json's own message for the rest.
                if not line.strip():
                    continue
                try:
                    data = _PREDICTION_DECODER.decode(line)
                except json.JSONDecodeError as err:
                    raise ValueError(
                        f"{path}:{lineno}: not JSON: {err}") from None
            if not (isinstance(data, dict)
                    and isinstance(data.get("mention_id"), str)
                    and isinstance(data.get("gold"), str)
                    and isinstance(data.get("pred"), str)):
                # Decode again with floats, so the message shows numbers as
                # written rather than as their lengths.
                raise ValueError(
                    _record_fault(path, lineno, json.loads(line)))
            if data["mention_id"] in records:
                raise ValueError(f"{path}: mention {data['mention_id']!r} "
                                 "appears more than once")
            records[data["mention_id"]] = (
                corpus_mod.parse_label(data["gold"]),
                corpus_mod.parse_label(data["pred"]))
    if not records:
        raise ValueError(f"{path}: no prediction records")
    return records


def cmd_sigtest(args) -> int:
    res = _Resolver(args)
    seed = res.seed()
    rounds = res.get("rounds", 10000)
    a_path = res.get("a", None)
    b_path = res.get("b", None)
    if not a_path or not b_path:
        raise ValueError("sigtest requires --a and --b prediction files")
    a_records = _read_predictions(a_path)
    b_records = _read_predictions(b_path)
    if a_records.keys() != b_records.keys():
        raise ValueError("prediction files cover different mention ids")
    ids = sorted(a_records)
    gold, preds_a = zip(*(a_records[m] for m in ids))
    gold_b, preds_b = zip(*(b_records[m] for m in ids))
    if gold_b != gold:
        raise ValueError("prediction files disagree on gold labels")
    statistic = res.get("statistic", "accuracy")
    f1_class = res.get("f1_class", None)
    f1_label = None if f1_class is None else corpus_mod.parse_label(f1_class)
    p = evaluation.randomization_test(preds_a, preds_b, gold, rounds=rounds,
                                      seed=seed, statistic=statistic,
                                      f1_label=f1_label)
    print(f"p-value: {p:.6g}")
    return 0


# ---------------------------------------------------------------------------
# Parser

class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--seed", type=int,
                     help="PRNG seed (fallback: INFOSTAT_SEED, then 0)")


def _add_mode(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=context.MODE_CHOICES,
                     help="context variant (default context2)")
    sub.add_argument("--prev-window", type=int, dest="prev_window",
                     help="extra preceding sentences in the local context")


def _add_model_train(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group(
        "model and training",
        "Unset values take the desk preset, a small model sized to train on "
        "a CPU. The paper fine-tuned pretrained BERT-base; this repo trains "
        "from scratch.")
    for flag, kind in (("--layers", int), ("--d-model", int), ("--heads", int),
                       ("--d-ff", int), ("--max-len", int), ("--dropout", float),
                       ("--epochs", int), ("--learning-rate", float),
                       ("--batch-size", int), ("--weight-decay", float),
                       ("--grad-clip", float)):
        group.add_argument(flag, type=kind, dest=flag[2:].replace("-", "_"))
    group.add_argument("--dtype", choices=["float64", "float32"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infostat",
        description="Information-status classification with discourse "
                    "context-aware self-attention")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    p = commands.add_parser("gen-synthetic", help="write a synthetic corpus")
    _add_common(p)
    p.add_argument("--docs", type=int)
    p.add_argument("--sentences", type=int)
    p.add_argument("--mentions-per-sentence", type=int,
                   dest="mentions_per_sentence")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_synthetic)

    p = commands.add_parser("build-vocab", help="write a vocabulary file")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--corpus")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_vocab)

    p = commands.add_parser("train", help="train on a labeled corpus")
    _add_common(p)
    _add_mode(p)
    _add_model_train(p)
    p.add_argument("--corpus")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="predict with a checkpoint")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--corpus")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("crossval",
                            help="document-level k-fold cross-validation")
    _add_common(p)
    _add_mode(p)
    _add_model_train(p)
    p.add_argument("--corpus")
    p.add_argument("--k", type=int)
    p.add_argument("--jobs", type=int, help="parallel fold workers")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--out")
    p.set_defaults(func=cmd_crossval)

    p = commands.add_parser("grad-check",
                            help="verify analytic gradients numerically")
    _add_common(p)
    for flag in ("--layers", "--d-model", "--heads", "--d-ff", "--max-len",
                 "--vocab-size", "--batch-size"):
        p.add_argument(flag, type=int, dest=flag[2:].replace("-", "_"))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_grad_check)

    p = commands.add_parser("sigtest",
                            help="approximate randomization significance test")
    _add_common(p)
    p.add_argument("--a", help="first prediction JSONL file: one JSON object "
                                    "per line with string mention_id, gold "
                                    "and pred")
    p.add_argument("--b", help="second prediction JSONL file, same format")
    p.add_argument("--rounds", type=int)
    p.add_argument("--statistic", choices=["accuracy", "f1"])
    p.add_argument("--f1-class", dest="f1_class")
    p.set_defaults(func=cmd_sigtest)

    return parser


# Parameter numbers of glibc's mallopt (<malloc.h>).
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4
_M_ARENA_MAX = -8


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed blocks for reuse, without mmap or trim,
    in one arena for all threads.

    By default glibc serves large blocks with mmap and returns the top of
    the heap once it is freed, so the next step faults in and zeroes the
    same pages again. Both calls are needed: setting either one alone turns
    off glibc's dynamic thresholds and faults more. Since freed memory is
    then never given back, every thread must allocate from one arena:
    otherwise predict's worker threads (encoder.model.PREDICT_WORKERS)
    each grow an arena of their own and cannot reuse what training freed
    in the main one, and peak RSS rises. A library caller that skips main
    keeps glibc's per-thread arenas. A no-op off Linux and where the C
    library has no mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, -1)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (corpus_mod.CorpusError, CheckpointError, ValueError, OSError,
            KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
