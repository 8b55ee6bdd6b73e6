"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions of each infostat module at the
name the caller looks up (``model.py`` imports the layer primitives by
name, so ``infostat.encoder.model.dense_forward`` is wrapped, not
``infostat.encoder.layers.dense_forward``). No program file is edited.
Each span records a name, start, end, parent span and an optional note
(a count taken at the boundary); spans stay in memory until the run ends.
Each traced iteration has a recorder of its own, and the per-layer metrics
are figures of one iteration, so they do not grow with the number of
traced iterations that fit in a run.
``encoder.gradcheck`` is a verification tool, not user traffic, and is
not wrapped.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# A tail percentile needs at least this many samples beyond it.
_TAIL_MIN_BEYOND = 10


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _forward_note(args, kwargs, result):
    mask = np.asarray(_arg(args, kwargs, 1, "mask"))
    return {"rows": int(mask.shape[0]) if mask.ndim == 2 else 1,
            "positions": int(mask.size), "real": int(np.count_nonzero(mask))}


def _counter_note(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _save_note(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 2, "path"))}


def _sigtest_name(args, kwargs):
    return "evaluation.randomization_test." + kwargs.get("statistic",
                                                         "accuracy")


# (module, attribute the caller looks up, span name or naming function,
#  note taken at the boundary)
TARGETS = (
    ("infostat.encoder.model", "dense_forward", "encoder.layers.dense.fwd", None),
    ("infostat.encoder.model", "dense_backward", "encoder.layers.dense.bwd", None),
    ("infostat.encoder.model", "attention_weights",
     "encoder.layers.attention_weights", None),
    ("infostat.encoder.model", "softmax_backward",
     "encoder.layers.softmax_backward", None),
    ("infostat.encoder.model", "gelu_forward", "encoder.layers.gelu.fwd", None),
    ("infostat.encoder.model", "gelu_backward", "encoder.layers.gelu.bwd", None),
    ("infostat.encoder.model", "layer_norm_forward",
     "encoder.layers.layer_norm.fwd", None),
    ("infostat.encoder.model", "layer_norm_backward",
     "encoder.layers.layer_norm.bwd", None),
    ("infostat.encoder.model", "dropout_mask", "encoder.layers.dropout_mask",
     None),
    ("infostat.encoder.model", "forward", "encoder.model.forward",
     _forward_note),
    ("infostat.encoder.model", "backward", "encoder.model.backward", None),
    ("infostat.encoder.training", "loss_and_gradients",
     "encoder.model.loss_and_gradients", None),
    ("infostat.cli", "predict_batch", "encoder.model.predict_batch", None),
    ("infostat.evaluation", "predict_batch", "encoder.model.predict_batch", None),
    ("infostat.cli", "train", "encoder.training.train", None),
    ("infostat.evaluation", "train", "encoder.training.train", None),
    ("infostat.encoder.training", "global_grad_norm",
     "encoder.params.global_grad_norm", None),
    ("infostat.encoder.training", "init_params", "encoder.params.init_params",
     None),
    ("infostat.cli", "save_checkpoint", "encoder.checkpoint.save", _save_note),
    ("infostat.cli", "load_checkpoint", "encoder.checkpoint.load", None),
    ("infostat.context", "compute_overlap", "context.compute_overlap", None),
    ("infostat.context", "build_vocab", "context.build_vocab", None),
    ("infostat.evaluation", "build_vocab", "context.build_vocab", None),
    ("infostat.dataset", "encode_pairs", "dataset.encode_pairs", None),
    ("infostat.evaluation", "encode_pairs", "dataset.encode_pairs", None),
    ("infostat.corpus", "load_corpus", "corpus.load_corpus", None),
    ("infostat.evaluation", "randomization_test", _sigtest_name, None),
    ("infostat.evaluation", "score", "evaluation.score", None),
    ("infostat.evaluation", "run_cross_validation",
     "evaluation.run_cross_validation", None),
    # The fold is the unit of crossval parallelism, and the worker
    # function is its only boundary.
    ("infostat.evaluation", "_run_fold", "evaluation.crossval.fold", None),
    ("infostat.rng", "counter_u64", "rng.counter_u64", _counter_note),
    ("infostat.evaluation", "counter_u64", "rng.counter_u64", _counter_note),
)


class Recorder:
    """In-memory spans, each [name, start, end, parent index or -1, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name, fn, args=(), kwargs=None, note=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()
        if note is not None:
            self.spans[index][4] = note(args, kwargs, result)
        return result

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, note)
        return traced

    def install(self) -> None:
        for module_name, attr, name, note in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def _step_gaps_ms(spans) -> list[float]:
    """Gaps between successive loss_and_gradients entries of one train call."""
    starts = defaultdict(list)
    for name, start, _, parent, _ in spans:
        if name == "encoder.model.loss_and_gradients":
            starts[parent].append(start)
    return [(b - a) * 1e3 for entries in starts.values()
            for a, b in zip(entries, entries[1:])]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one iteration's spans; a layer that never ran
    reads 0."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    notes = defaultdict(list)
    for index, (name, start, end, _, note) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[index]
        calls[name] += 1
        if note is not None:
            notes[name].append(note)

    forwards = notes["encoder.model.forward"]
    positions = sum(n["positions"] for n in forwards)
    gaps = _step_gaps_ms(spans)
    tail_pct = max(50.0, 100.0 * (1.0 - _TAIL_MIN_BEYOND / len(gaps))) \
        if gaps else 0.0
    folds = [end - start for name, start, end, _, _ in spans
             if name == "evaluation.crossval.fold"]

    metrics = {
        "encoder.layers.dense.fwd_s": total["encoder.layers.dense.fwd"],
        "encoder.layers.dense.bwd_s": total["encoder.layers.dense.bwd"],
        "encoder.layers.dense.calls": calls["encoder.layers.dense.fwd"],
        "encoder.layers.attention_weights.s":
            total["encoder.layers.attention_weights"],
        "encoder.layers.softmax_backward.s":
            total["encoder.layers.softmax_backward"],
        "encoder.layers.gelu.fwd_s": total["encoder.layers.gelu.fwd"],
        "encoder.layers.gelu.bwd_s": total["encoder.layers.gelu.bwd"],
        "encoder.layers.layer_norm.fwd_s": total["encoder.layers.layer_norm.fwd"],
        "encoder.layers.layer_norm.bwd_s": total["encoder.layers.layer_norm.bwd"],
        "encoder.layers.dropout_mask.s": total["encoder.layers.dropout_mask"],
        "encoder.model.forward.self_s": own["encoder.model.forward"],
        "encoder.model.backward.self_s": own["encoder.model.backward"],
        "encoder.model.predict_batch.s": total["encoder.model.predict_batch"],
        "encoder.model.real_token_frac":
            sum(n["real"] for n in forwards) / positions if positions else 0.0,
        "encoder.model.max_batch_rows":
            max((n["rows"] for n in forwards), default=0),
        "encoder.training.step_ms.p50":
            float(np.percentile(gaps, 50)) if gaps else 0.0,
        "encoder.training.step_ms.tail":
            float(np.percentile(gaps, tail_pct)) if gaps else 0.0,
        "encoder.training.step_ms.tail_pct": tail_pct,
        "encoder.training.step_ms.samples": len(gaps),
        "encoder.training.optimizer_s": own["encoder.training.train"],
        "encoder.params.global_grad_norm.s":
            total["encoder.params.global_grad_norm"],
        "encoder.checkpoint.save_s": total["encoder.checkpoint.save"],
        "encoder.checkpoint.bytes":
            sum(n["bytes"] for n in notes["encoder.checkpoint.save"]),
        "encoder.checkpoint.load_s": total["encoder.checkpoint.load"],
        "context.compute_overlap.s": total["context.compute_overlap"],
        "context.compute_overlap.calls": calls["context.compute_overlap"],
        "context.build_vocab.s": total["context.build_vocab"],
        "dataset.encode_pairs.self_s": own["dataset.encode_pairs"],
        "corpus.load_corpus.s": total["corpus.load_corpus"],
        "evaluation.randomization_test.accuracy_s":
            total["evaluation.randomization_test.accuracy"],
        "evaluation.randomization_test.f1_s":
            total["evaluation.randomization_test.f1"],
        "evaluation.score.s": total["evaluation.score"],
        "evaluation.crossval.fold_s.p50":
            float(np.percentile(folds, 50)) if folds else 0.0,
        "evaluation.crossval.fold_s.max": max(folds, default=0.0),
        "rng.counter_u64.s": total["rng.counter_u64"],
        # The largest single draw, since that is what sets the peak RSS.
        "rng.counter_u64.bytes":
            max((n["bytes"] for n in notes["rng.counter_u64"]), default=0),
    }
    for command in ("train", "predict", "crossval", "sigtest"):
        metrics[f"cli.{command}.self_s"] = own[f"cli.{command}"]
    return metrics
