"""Per-class metrics, significance testing, document-level cross-validation,
and the one `fit` and `predict` that train, predict and each fold run."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .context import ContextMode, Vocab, build_vocab
from .corpus import Corpus, Document, ISLabel, LABELS, LABEL_INDEX, N_CLASSES
from .dataset import encode_pairs
from .encoder.config import ModelConfig, TrainConfig
from .encoder.model import predict_batch
from .encoder.params import Params
from .encoder.training import TrainResult, train
from .rng import SplitMix64, counter_u64, derive_seed


@dataclass(frozen=True)
class FoldSplit:
    k: int
    assignments: dict[str, int]  # document id -> fold index

    def documents_in(self, fold: int) -> list[str]:
        return [doc_id for doc_id, f in self.assignments.items() if f == fold]


def split_folds(corpus: Corpus, k: int, seed: int) -> FoldSplit:
    """Shuffle documents by seed, then deal them round-robin into k folds."""
    doc_ids = [d.id for d in corpus.documents]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(doc_ids):
        raise ValueError(f"cannot split {len(doc_ids)} documents into {k} folds")
    order = list(range(len(doc_ids)))
    SplitMix64(derive_seed(seed, "folds")).shuffle(order)
    assignments = {doc_ids[doc]: i % k for i, doc in enumerate(order)}
    return FoldSplit(k=k, assignments=assignments)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[ISLabel, ClassMetrics]
    accuracy: float
    confusion: np.ndarray  # [8, 8] counts, rows gold, columns predicted
    n: int

    def to_json_dict(self) -> dict:
        return {"accuracy": self.accuracy, "n": self.n,
                "per_class": {label.value: {"p": m.precision, "r": m.recall,
                                            "f": m.f1, "support": m.support}
                              for label, m in self.per_class.items()},
                "confusion": self.confusion.tolist()}


def _as_indices(labels: Sequence[ISLabel]) -> np.ndarray:
    return np.array([LABEL_INDEX[label] for label in labels], dtype=np.int64)


def _ratio(num, den) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0)


def _prf(tp, fp, fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise precision, recall and F1 from integer counts.

    Zero-denominator conventions: precision and recall are 0 when their
    denominator is 0, and F1 is 0 when precision + recall is 0.
    """
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return precision, recall, _ratio(2 * precision * recall, precision + recall)


def score(predictions: Sequence[ISLabel], gold: Sequence[ISLabel]) -> EvalReport:
    """Per-class precision/recall/F1 (see `_prf`), accuracy and confusion counts."""
    if len(predictions) != len(gold):
        raise ValueError(f"length mismatch: {len(predictions)} predictions "
                         f"vs {len(gold)} gold labels")
    if len(gold) == 0:
        raise ValueError("cannot score an empty prediction list")
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (_as_indices(gold), _as_indices(predictions)), 1)
    tp = np.diag(confusion)
    support = confusion.sum(axis=1)
    precision, recall, f1 = _prf(tp, confusion.sum(axis=0) - tp, support - tp)
    per_class = {label: ClassMetrics(precision=float(precision[c]),
                                     recall=float(recall[c]), f1=float(f1[c]),
                                     support=int(support[c]))
                 for c, label in enumerate(LABELS)}
    accuracy = float(np.trace(confusion)) / len(gold)
    return EvalReport(per_class=per_class, accuracy=accuracy,
                      confusion=confusion, n=len(gold))


# Most swap bits randomization_test draws at once. Each draw holds 8 B of
# stream offset and 8 B of output, plus 8 B of scratch while the output is
# mixed: 24 B per draw, whatever rounds x n is. At 1 << 16 those three
# arrays take 1.5 MiB and fit in a 2 MiB per-core L2, so the SplitMix64
# passes run in cache. On a 2 MiB-L2 Xeon, with glibc set as cli.main sets
# it, a swap bit (offset, draw and mask) cost 10.0 ns at 1 << 19 draws
# (12 MiB, streamed from memory), 5.7 ns at 1 << 16 and 6.7 ns at 1 << 15.
SWAP_DRAWS_PER_CHUNK = 1 << 16


def randomization_test(preds_a: Sequence[ISLabel], preds_b: Sequence[ISLabel],
                       gold: Sequence[ISLabel], rounds: int, seed: int,
                       statistic: str = "accuracy",
                       f1_label: ISLabel | None = None) -> float:
    """Approximate randomization p-value for the difference of two systems.

    Each round swaps the paired outputs (preds_a[i], preds_b[i])
    independently with probability 1/2 and recomputes the absolute
    difference of the statistic; p = (#rounds with difference >= observed
    + 1) / (rounds + 1). The default statistic is accuracy; "f1" tests the
    per-class F1 difference for `f1_label`. Both are functions of per-item
    counts summed over items: [correct], or [tp, fp, fn] of `f1_label`. A
    swap of item i moves count_b[i] - count_a[i] from B to A, so only the
    discordant items, whose counts differ, draw swap bits: work scales with
    rounds x discordant items, not rounds x n. The bit of item i in round r
    is output r*n + i of the stream whichever items are discordant. Bits
    are drawn at most SWAP_DRAWS_PER_CHUNK at a time.
    """
    if not (len(preds_a) == len(preds_b) == len(gold)):
        raise ValueError("preds_a, preds_b and gold must have equal lengths")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    a_idx, b_idx, gold_idx = (_as_indices(x) for x in (preds_a, preds_b, gold))
    if statistic == "accuracy" and f1_label is None:
        count_a, count_b = ((idx == gold_idx)[:, None] for idx in (a_idx, b_idx))

        def value(counts):  # summed [correct]
            return counts[..., 0]
    elif statistic == "f1" and f1_label is not None:
        c = LABEL_INDEX[f1_label]
        count_a, count_b = (np.stack([(idx == c) & (gold_idx == c),
                                      (idx == c) & (gold_idx != c),
                                      (idx != c) & (gold_idx == c)], axis=1)
                            for idx in (a_idx, b_idx))

        def value(counts):  # summed [tp, fp, fn]
            return _prf(counts[..., 0], counts[..., 1], counts[..., 2])[2]
    else:
        raise ValueError("statistic must be 'accuracy' without f1_label or "
                         f"'f1' with one, not {statistic!r} with {f1_label!r}")
    total_a, total_b = count_a.sum(axis=0), count_b.sum(axis=0)
    moves = count_b.astype(np.int64) - count_a  # [n, columns]
    observed = abs(value(total_a) - value(total_b))
    n = len(gold)
    live = np.flatnonzero(moves.any(axis=1)).astype(np.uint64)
    live_moves = moves[live]
    stream = derive_seed(seed, "randomization")
    # A round holds about a dozen int64 and float64 values (moved counts,
    # shifted totals, the F1 terms of both systems): charging it at least 8
    # draws keeps them below the draws' own 24 B each.
    rounds_per_chunk = max(1, SWAP_DRAWS_PER_CHUNK // max(live.size, 8))
    exceed = 0
    for start in range(0, rounds, rounds_per_chunk):
        m = min(rounds_per_chunk, rounds - start)
        moved = np.zeros((m, len(total_a)), dtype=np.int64)
        round_base = np.arange(start, start + m, dtype=np.uint64)[:, None] \
            * np.uint64(n)
        # One pass unless live.size > SWAP_DRAWS_PER_CHUNK, when m == 1.
        for i in range(0, live.size, SWAP_DRAWS_PER_CHUNK):
            w = min(SWAP_DRAWS_PER_CHUNK, live.size - i)
            bits = counter_u64(stream, 1, offset=round_base + live[i:i + w])
            bits &= np.uint64(1)
            moved += bits.view(np.int64).reshape(m, w) @ live_moves[i:i + w]
            del bits  # before the next draw's three chunk-sized arrays
        diff = np.abs(value(total_a + moved) - value(total_b - moved))
        exceed += int(np.count_nonzero(diff >= observed))
    return (exceed + 1) / (rounds + 1)


# ---------------------------------------------------------------------------
# Fit, predict and cross-validation

@dataclass(frozen=True)
class Model:
    """A trained encoder with the vocabulary and context mode it reads."""

    params: Params
    config: ModelConfig
    vocab: Vocab
    mode: ContextMode


@dataclass(frozen=True)
class PredictionRecord:
    mention_id: str
    gold: ISLabel | None  # None for an unlabeled mention
    pred: ISLabel
    probs: tuple[float, ...]


def fit(documents: Sequence[Document], mode: ContextMode,
        model_config: ModelConfig, train_config: TrainConfig,
        min_freq: int = 1) -> tuple[Model, TrainResult]:
    """Train on every mention of the documents, each labeled, with the
    documents' vocabulary, whose size replaces `model_config.vocab_size`."""
    vocab = build_vocab(Corpus(documents=tuple(documents)), mode, min_freq)
    config = replace(model_config, vocab_size=len(vocab))
    dataset = encode_pairs([(d, m) for d in documents for m in d.mentions],
                           mode, vocab, config.max_len, require_labels=True)
    result = train(dataset, config, train_config)
    return Model(params=result.params, config=config, vocab=vocab,
                 mode=mode), result


def predict(model: Model, documents: Sequence[Document],
            require_labels: bool = False) -> list[PredictionRecord]:
    """One record per mention of the documents, in document order; [] when
    they hold none. The prediction is the argmax of the mention's
    probability row; ties break toward the lowest class index."""
    pairs = [(d, m) for d in documents for m in d.mentions]
    if not pairs:
        return []
    batch = encode_pairs(pairs, model.mode, model.vocab, model.config.max_len,
                         require_labels)
    probs = predict_batch(batch, model.params, model.config)
    return [PredictionRecord(mention_id=m.id, gold=m.label, pred=LABELS[pred],
                             probs=tuple(row))
            for pred, row, (_, m) in zip(probs.argmax(axis=1).tolist(),
                                         probs.tolist(), pairs, strict=True)]


@dataclass
class FoldResult:
    fold: int
    documents: list[str]
    records: list[PredictionRecord]
    report: EvalReport
    model: Model


@dataclass
class CrossValResult:
    report: EvalReport
    folds: list[FoldResult]

    def pooled_records(self) -> list[PredictionRecord]:
        return [record for fold in self.folds for record in fold.records]

    def to_json_dict(self) -> dict:
        data = self.report.to_json_dict()
        data["folds"] = [dict(fold=f.fold, documents=f.documents,
                              **f.report.to_json_dict())
                         for f in self.folds]
        return data


def _run_fold(corpus: Corpus, split: FoldSplit, mode: ContextMode,
              model_config: ModelConfig, train_config: TrainConfig, seed: int,
              min_freq: int, fold: int) -> FoldResult:
    test_ids = set(split.documents_in(fold))
    train_docs = [d for d in corpus.documents if d.id not in test_ids]
    test_docs = [d for d in corpus.documents if d.id in test_ids]
    if not (any(d.mentions for d in test_docs)
            and any(d.mentions for d in train_docs)):
        raise ValueError(f"fold {fold} has zero mentions on one side")

    fold_train = replace(train_config, seed=derive_seed(seed, "fold", fold))
    model, _ = fit(train_docs, mode, model_config, fold_train, min_freq)
    records = predict(model, test_docs, require_labels=True)
    report = score([r.pred for r in records], [r.gold for r in records])
    return FoldResult(fold=fold, documents=sorted(test_ids), records=records,
                      report=report, model=model)


def run_cross_validation(corpus: Corpus, mode: ContextMode,
                         model_config: ModelConfig, train_config: TrainConfig,
                         k: int, seed: int, jobs: int = 1,
                         min_freq: int = 1) -> CrossValResult:
    """Train on k-1 folds, predict the held-out fold, pool all predictions.

    Documents never cross folds. Each fold fits its model, vocabulary
    included, on its own training documents under a fold-derived seed, so
    results are independent of execution order; with jobs > 1 the folds
    run in separate processes and the pooled report is identical to the
    sequential one. Each FoldResult keeps its fold's model.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    split = split_folds(corpus, k, seed)
    run_fold = partial(_run_fold, corpus, split, mode, model_config,
                       train_config, seed, min_freq)
    if jobs > 1:
        # The pool starts all its workers at the first submit; a fold is
        # the unit of work, so more workers than folds would sit idle.
        with ProcessPoolExecutor(max_workers=min(jobs, k)) as pool:
            folds = list(pool.map(run_fold, range(k)))
    else:
        folds = [run_fold(fold) for fold in range(k)]

    pooled_gold = [r.gold for f in folds for r in f.records]
    pooled_pred = [r.pred for f in folds for r in f.records]
    return CrossValResult(report=score(pooled_pred, pooled_gold),
                          folds=folds)
