"""Document-level cross-validation, per-class metrics, significance testing."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .context import ContextMode, build_vocab
from .corpus import Corpus, ISLabel, LABELS, LABEL_INDEX, Mention, N_CLASSES
from .dataset import encode_pairs
from .encoder.config import ModelConfig, TrainConfig
from .encoder.model import predict_batch
from .encoder.params import Params
from .encoder.training import train
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
# mixed: 24 B per draw, 12 MiB per chunk, whatever rounds x n is. At 1 << 20
# the sigtest benchmark peaked 12 MB higher in RSS and ran no faster.
SWAP_DRAWS_PER_CHUNK = 1 << 19


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
# Cross-validation

@dataclass(frozen=True)
class PredictionRecord:
    mention_id: str
    gold: ISLabel | None  # None for an unlabeled mention
    pred: ISLabel
    probs: tuple[float, ...]


def prediction_records(probs: np.ndarray,
                       mentions: Sequence[Mention]) -> list[PredictionRecord]:
    """One record per mention from its probability row [n_classes].

    The prediction is the argmax; ties break toward the lowest class index.
    """
    return [PredictionRecord(mention_id=mention.id, gold=mention.label,
                             pred=LABELS[pred], probs=tuple(row))
            for pred, row, mention in zip(probs.argmax(axis=1).tolist(),
                                          probs.tolist(), mentions,
                                          strict=True)]


@dataclass
class FoldResult:
    fold: int
    documents: list[str]
    records: list[PredictionRecord]
    report: EvalReport
    params: Params | None = None
    model_config: ModelConfig | None = None
    vocab_tokens: tuple[str, ...] | None = None


@dataclass
class CrossValResult:
    report: EvalReport
    folds: list[FoldResult]
    split: FoldSplit

    def pooled_records(self) -> list[PredictionRecord]:
        return [record for fold in self.folds for record in fold.records]

    def to_json_dict(self) -> dict:
        data = self.report.to_json_dict()
        data["folds"] = [dict(fold=f.fold, documents=f.documents,
                              **f.report.to_json_dict())
                         for f in self.folds]
        return data


@dataclass(frozen=True)
class _FoldTask:
    fold: int
    corpus: Corpus
    split: FoldSplit
    mode: ContextMode
    model_config: ModelConfig
    train_config: TrainConfig
    seed: int
    min_freq: int
    keep_params: bool


def _run_fold(task: _FoldTask) -> FoldResult:
    test_ids = set(task.split.documents_in(task.fold))
    train_docs = [d for d in task.corpus.documents if d.id not in test_ids]
    test_docs = [d for d in task.corpus.documents if d.id in test_ids]
    test_mentions = sum(len(d.mentions) for d in test_docs)
    train_mentions = sum(len(d.mentions) for d in train_docs)
    if test_mentions == 0 or train_mentions == 0:
        raise ValueError(f"fold {task.fold} has zero mentions on one side")

    vocab = build_vocab(Corpus(documents=tuple(train_docs)), task.mode,
                        task.min_freq)
    model_config = task.model_config.with_vocab_size(len(vocab))
    max_len = model_config.max_len
    train_set = encode_pairs([(d, m) for d in train_docs for m in d.mentions],
                             task.mode, vocab, max_len, require_labels=True)
    fold_train = replace(task.train_config,
                         seed=derive_seed(task.seed, "fold", task.fold))
    outcome = train(train_set, model_config, fold_train)

    test_pairs = [(d, m) for d in test_docs for m in d.mentions]
    test_set = encode_pairs(test_pairs, task.mode, vocab, max_len,
                            require_labels=True)
    probs = predict_batch(test_set, outcome.params, model_config)
    records = prediction_records(probs, [m for _, m in test_pairs])
    report = score([r.pred for r in records], [r.gold for r in records])
    return FoldResult(fold=task.fold, documents=sorted(test_ids),
                      records=records, report=report,
                      params=outcome.params if task.keep_params else None,
                      model_config=model_config if task.keep_params else None,
                      vocab_tokens=vocab.tokens if task.keep_params else None)


def run_cross_validation(corpus: Corpus, mode: ContextMode,
                         model_config: ModelConfig, train_config: TrainConfig,
                         k: int, seed: int, jobs: int = 1, min_freq: int = 1,
                         keep_params: bool = False) -> CrossValResult:
    """Train on k-1 folds, predict the held-out fold, pool all predictions.

    Documents never cross folds. Each fold builds its vocabulary from its
    own training documents and trains from scratch under a fold-derived
    seed, so results are independent of execution order; with jobs > 1 the
    folds run in separate processes and the pooled report is identical to
    the sequential one.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    split = split_folds(corpus, k, seed)
    tasks = [_FoldTask(fold=f, corpus=corpus, split=split, mode=mode,
                       model_config=model_config, train_config=train_config,
                       seed=seed, min_freq=min_freq, keep_params=keep_params)
             for f in range(k)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(_run_fold, tasks))
    else:
        folds = [_run_fold(task) for task in tasks]
    folds.sort(key=lambda fr: fr.fold)

    pooled_gold = [r.gold for f in folds for r in f.records]
    pooled_pred = [r.pred for f in folds for r in f.records]
    return CrossValResult(report=score(pooled_pred, pooled_gold),
                          folds=folds, split=split)
