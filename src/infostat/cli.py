"""Command-line entry point.

Subcommands: gen-synthetic, build-vocab, train, predict, crossval,
grad-check, sigtest; train, predict and crossval run `evaluation.fit` and
`evaluation.predict`. Each option's default is declared once, in
`build_parser`. Options may also come from a JSON config file via
--config: its values become the subcommand's defaults, so explicit flags
take precedence over the file, which takes precedence over the parser's
defaults. Every subcommand but build-vocab and predict takes --seed,
which is 0 when neither a flag nor the file sets it.

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
import math
import sys
from pathlib import Path

from . import context, corpus as corpus_mod, evaluation
from .context import RESERVED_TOKENS, Vocab, mode_from_name
from .fileio import atomic_write
# train, predict_batch: unused here, kept for the tracer (ROADMAP item 17).
from .encoder import (CheckpointError, ModelConfig, TrainConfig,  # noqa: F401
                      TrainingDivergedError, gradient_check, load_checkpoint,
                      make_check_batch, predict_batch, save_checkpoint, train)


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=True)
    with atomic_write(path) as fh:
        fh.write((text + "\n").encode("utf-8"))


def _options(sub: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {action.dest: action for action in sub._actions
            if action.option_strings and action.dest != "help"}


def _config_value(path: str, action: argparse.Action, value):
    """A config file's `value` for `action`, as its flag would convert it."""
    if value is None and action.default is None:
        return None
    kind = action.type or str
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return kind(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            pass
    raise ValueError(f"config file {path}: {action.dest!r} is not a valid "
                     f"{kind.__name__}: {json.dumps(value)}")


def _parse_with_config(parser: argparse.ArgumentParser, argv,
                       args: argparse.Namespace) -> argparse.Namespace:
    """Parse argv again with the config file's values as the subcommand's
    defaults, so a flag still overrides them.

    A config file's keys are option names, "_" for "-". A key that is no
    subcommand's option, nor `command`, which resolved_config.json records
    beside them, is an error; one of another subcommand is ignored, so one
    file can serve train and predict. A value must be a JSON string or
    number whose text the flag's type accepts, so 1.9 is no epoch count.
    null, which resolved_config.json records for an option left unset, is
    accepted only where the parser's default is None."""
    values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    known = {commands.dest}.union(*map(_options, commands.choices.values()))
    unknown = sorted(values.keys() - known)
    if unknown:
        raise ValueError(f"config file {args.config}: not an option of any "
                         "subcommand: " + ", ".join(map(repr, unknown))
                         + " (keys are option names, '_' for '-')")
    sub = commands.choices[args.command]
    sub.set_defaults(**{key: _config_value(args.config, action, values[key])
                        for key, action in _options(sub).items()
                        if key in values and key != "config"})
    return parser.parse_args(argv)


def _write_resolved_config(args: argparse.Namespace, out_dir: Path) -> None:
    """Write the resolved options beside the command's outputs; called once
    its work has succeeded, so a failed run leaves no `out_dir`."""
    _write_json(out_dir / "resolved_config.json",
                {key: value for key, value in vars(args).items()
                 if key not in ("func", "config")})


def _model_config(args: argparse.Namespace) -> ModelConfig:
    """The model options; `evaluation.fit` sets `vocab_size` from the
    vocabulary it builds."""
    return ModelConfig(n_layers=args.layers, d_model=args.d_model,
                       n_heads=args.heads, d_ff=args.d_ff,
                       max_len=args.max_len, dropout_rate=args.dropout,
                       dtype=args.dtype, vocab_size=len(RESERVED_TOKENS))


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                       batch_size=args.batch_size, seed=args.seed,
                       weight_decay=args.weight_decay,
                       grad_clip_norm=args.grad_clip)


def _load_corpus(args: argparse.Namespace) -> corpus_mod.Corpus:
    if not args.corpus:
        raise ValueError("a corpus path is required (--corpus)")
    return corpus_mod.load_corpus(args.corpus)


def _save_model(out_dir: Path, model: evaluation.Model, **extra) -> None:
    """Write a trained model's vocab.txt and checkpoint.ckpt into out_dir;
    the checkpoint records the vocabulary's hash and the context mode."""
    vocab, mode = model.vocab, model.mode
    vocab.save(out_dir / "vocab.txt")
    save_checkpoint(model.params, model.config, out_dir / "checkpoint.ckpt",
                    extra={**extra, "vocab_sha256": vocab.sha256(),
                           "mode": mode.kind.value,
                           "prev_sentence_window": mode.prev_sentence_window})


def _load_model(args: argparse.Namespace) -> evaluation.Model:
    """--checkpoint's model with --vocab, in its stored context mode unless
    --mode or --prev-window replaces a part. A bad stored field, even one a
    flag replaces, is a CheckpointError naming the checkpoint."""
    if not args.checkpoint or not args.vocab:
        raise ValueError("predict requires --checkpoint and --vocab")
    params, model_config, extra = load_checkpoint(args.checkpoint)
    try:
        for key, kind, what in (("vocab_sha256", str, "a string"),
                                ("mode", str, "a string"),
                                ("prev_sentence_window", int, "an integer")):
            if key in extra and type(extra[key]) is not kind:
                raise ValueError(f"{key!r} must be {what}, not "
                                 f"{json.dumps(extra[key])}")
        mode_from_name(extra.get("mode", context.MODE_CHOICES[0]),
                       extra.get("prev_sentence_window", 0))
    except ValueError as err:
        raise CheckpointError(
            f"corrupt checkpoint {args.checkpoint}: {err}") from None
    vocab = Vocab.load(args.vocab)
    stored = extra.get("vocab_sha256")
    if stored is not None and stored != vocab.sha256():
        raise ValueError(f"vocab mismatch: checkpoint was trained with "
                         f"vocabulary sha256 {stored[:12]}, supplied file "
                         f"hashes to {vocab.sha256()[:12]}")
    mode_name = extra.get("mode") if args.mode is None else args.mode
    if mode_name is None:
        raise ValueError("predict requires --mode (not stored in checkpoint)")
    window = (extra.get("prev_sentence_window", 0)
              if args.prev_window is None else args.prev_window)
    return evaluation.Model(params=params, config=model_config, vocab=vocab,
                            mode=mode_from_name(mode_name, window))


def _write_predictions(path: Path,
                       records: list[evaluation.PredictionRecord]) -> None:
    """One JSON line per record, so no records make an empty file; `gold`
    is null for unlabeled mentions."""
    text = "".join(
        json.dumps({"mention_id": r.mention_id,
                    "gold": None if r.gold is None else r.gold.value,
                    "pred": r.pred.value, "probs": list(r.probs)},
                   ensure_ascii=False) + "\n"
        for r in records)
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_synthetic(args) -> int:
    out = Path(args.out or "corpus.json")
    synthetic = corpus_mod.generate_synthetic(
        args.seed, args.docs, args.sentences, args.mentions_per_sentence)
    corpus_mod.save_corpus(synthetic, out)
    stats = corpus_mod.corpus_stats(synthetic)
    print(f"wrote {out} ({synthetic.total_mentions()} mentions, "
          f"{len(synthetic.documents)} documents)")
    for label, entry in stats.items():
        print(f"  {label.value:<24} {entry.count:>6}  {entry.fraction:7.2%}")
    return 0


def cmd_build_vocab(args) -> int:
    loaded = _load_corpus(args)
    mode = mode_from_name(args.mode, args.prev_window)
    out = Path(args.out or "vocab.txt")
    vocab = context.build_vocab(loaded, mode, args.min_freq)
    vocab.save(out)
    print(f"wrote {out} ({len(vocab)} tokens, sha256 {vocab.sha256()[:12]})")
    return 0


def cmd_train(args) -> int:
    loaded = _load_corpus(args)
    mode = mode_from_name(args.mode, args.prev_window)
    out_dir = Path(args.out or "train-out")
    model, result = evaluation.fit(loaded.documents, mode, _model_config(args),
                                   _train_config(args), args.min_freq)
    _write_resolved_config(args, out_dir)
    _save_model(out_dir, model)
    _write_json(out_dir / "loss_log.json",
                {"epoch_losses": result.epoch_losses, "steps": result.n_steps})
    for epoch, loss in enumerate(result.epoch_losses):
        print(f"epoch {epoch:>3}  mean loss {loss:.6f}")
    print(f"wrote {out_dir / 'checkpoint.ckpt'}")
    return 0


def cmd_predict(args) -> int:
    loaded = _load_corpus(args)
    model = _load_model(args)
    out = Path(args.out or "predictions.jsonl")
    records = evaluation.predict(model, loaded.documents)
    _write_predictions(out, records)
    print(f"wrote {out} ({len(records)} predictions)")
    return 0


def cmd_crossval(args) -> int:
    loaded = _load_corpus(args)
    mode = mode_from_name(args.mode, args.prev_window)
    out_dir = Path(args.out or "crossval-out")
    result = evaluation.run_cross_validation(
        loaded, mode, _model_config(args), _train_config(args), k=args.k,
        seed=args.seed, jobs=args.jobs, min_freq=args.min_freq)
    _write_resolved_config(args, out_dir)

    _write_json(out_dir / "report.json", result.to_json_dict())
    for fold in result.folds:
        fold_dir = out_dir / f"fold-{fold.fold:02d}"
        _write_predictions(fold_dir / "predictions.jsonl", fold.records)
        _save_model(fold_dir, fold.model, fold=fold.fold)
    print(f"pooled accuracy {result.report.accuracy:.4f} over "
          f"{result.report.n} mentions ({args.k} folds)")
    for label, metrics in result.report.per_class.items():
        print(f"  {label.value:<24} P {metrics.precision:6.3f}  "
              f"R {metrics.recall:6.3f}  F {metrics.f1:6.3f}  "
              f"support {metrics.support}")
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_grad_check(args) -> int:
    if not (0 < args.threshold < math.inf):
        raise ValueError(f"threshold must be finite and > 0, got {args.threshold}")
    config = ModelConfig(n_layers=args.layers, d_model=args.d_model,
                         n_heads=args.heads, d_ff=args.d_ff,
                         max_len=args.max_len, vocab_size=args.vocab_size,
                         dropout_rate=0.0)
    batch = make_check_batch(config, args.seed, batch_size=args.batch_size)
    report = gradient_check(config, batch, seed=args.seed,
                            epsilon=args.epsilon)
    print(f"checked {report.n_entries} parameter entries; "
          f"max relative error {report.max_relative_error:.3e}")
    if report.passed(args.threshold):
        print(f"PASS (threshold {args.threshold:g})")
        return 0
    worst = max(report.per_tensor, key=report.per_tensor.get)
    print(f"FAIL: worst tensor {worst} "
          f"({report.per_tensor[worst]:.3e} >= {args.threshold:g})",
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
            try:
                records[data["mention_id"]] = (
                    corpus_mod.parse_label(data["gold"]),
                    corpus_mod.parse_label(data["pred"]))
            except corpus_mod.CorpusError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    if not records:
        raise ValueError(f"{path}: no prediction records")
    return records


def cmd_sigtest(args) -> int:
    if not args.a or not args.b:
        raise ValueError("sigtest requires --a and --b prediction files")
    a_records = _read_predictions(args.a)
    b_records = _read_predictions(args.b)
    if a_records.keys() != b_records.keys():
        raise ValueError("prediction files cover different mention ids")
    ids = sorted(a_records)
    gold, preds_a = zip(*(a_records[m] for m in ids))
    gold_b, preds_b = zip(*(b_records[m] for m in ids))
    if gold_b != gold:
        raise ValueError("prediction files disagree on gold labels")
    f1_label = None if args.f1_class is None \
        else corpus_mod.parse_label(args.f1_class)
    p = evaluation.randomization_test(preds_a, preds_b, gold,
                                      rounds=args.rounds, seed=args.seed,
                                      statistic=args.statistic,
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


def _add_common(sub: argparse.ArgumentParser, seed: bool = True) -> None:
    """--config, and --seed for a command that draws random numbers."""
    sub.add_argument("--config", help="JSON config file; flags override it")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="PRNG seed")


def _add_corpus_input(sub: argparse.ArgumentParser) -> None:
    """The corpus and how its mentions become pseudo sentences."""
    sub.add_argument("--corpus")
    sub.add_argument("--mode", choices=context.MODE_CHOICES,
                     default="context2",
                     help="context variant (default %(default)s)")
    sub.add_argument("--prev-window", type=int, default=0,
                     help="extra preceding sentences in the local context")
    sub.add_argument("--min-freq", type=int, default=1)


def _add_model_train(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group(
        "model and training",
        "Unset values take the desk preset, a small model sized to train on "
        "a CPU. The paper fine-tuned pretrained BERT-base; this repo trains "
        "from scratch.")
    for flag, kind, default in (
            ("--layers", int, 2), ("--d-model", int, 64), ("--heads", int, 4),
            ("--d-ff", int, 256), ("--max-len", int, 64),
            ("--dropout", float, 0.1), ("--epochs", int, 30),
            ("--learning-rate", float, 1e-3), ("--batch-size", int, 32),
            ("--weight-decay", float, 0.01), ("--grad-clip", float, 1.0)):
        group.add_argument(flag, type=kind, default=default)
    group.add_argument("--dtype", choices=["float64", "float32"],
                       default="float64")


def build_parser() -> argparse.ArgumentParser:
    """Every option with its default. `--out` has none: each command names
    its own output when it is unset."""
    parser = _Parser(
        prog="infostat",
        description="Information-status classification with discourse "
                    "context-aware self-attention")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    p = commands.add_parser("gen-synthetic", help="write a synthetic corpus")
    _add_common(p)
    p.add_argument("--docs", type=int, default=20)
    p.add_argument("--sentences", type=int, default=8)
    p.add_argument("--mentions-per-sentence", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_synthetic)

    p = commands.add_parser("build-vocab", help="write a vocabulary file")
    _add_common(p, seed=False)
    _add_corpus_input(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_vocab)

    p = commands.add_parser("train", help="train on a labeled corpus")
    _add_common(p)
    _add_corpus_input(p)
    _add_model_train(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="predict with a checkpoint")
    _add_common(p, seed=False)
    p.add_argument("--mode", choices=context.MODE_CHOICES,
                   help="context variant (default: the checkpoint's)")
    p.add_argument("--prev-window", type=int,
                   help="extra preceding sentences in the local context "
                        "(default: the checkpoint's)")
    p.add_argument("--corpus")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("crossval",
                            help="document-level k-fold cross-validation")
    _add_common(p)
    _add_corpus_input(p)
    _add_model_train(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    p.add_argument("--out")
    p.set_defaults(func=cmd_crossval)

    p = commands.add_parser("grad-check",
                            help="verify analytic gradients numerically")
    _add_common(p)
    for flag, default in (("--layers", 2), ("--d-model", 16), ("--heads", 4),
                          ("--d-ff", 64), ("--max-len", 16),
                          ("--vocab-size", 32), ("--batch-size", 4)):
        p.add_argument(flag, type=int, default=default)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = commands.add_parser("sigtest",
                            help="approximate randomization significance test")
    _add_common(p)
    p.add_argument("--a", help="first prediction JSONL file: one JSON object "
                                    "per line with string mention_id, gold "
                                    "and pred")
    p.add_argument("--b", help="second prediction JSONL file, same format")
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--statistic", choices=["accuracy", "f1"],
                   default="accuracy")
    p.add_argument("--f1-class")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _parse_with_config(parser, argv, args)
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
